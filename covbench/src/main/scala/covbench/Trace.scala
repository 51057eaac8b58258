package covbench

import java.lang.management.ManagementFactory
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** JVM readings taken at call boundaries, on the issuing thread. */
object Probe {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** Bytes allocated so far by the calling thread. */
  def allocBytes: Long = threads.getCurrentThreadAllocatedBytes

  /** Accumulated collection time of every garbage collector, in ms. */
  def gcMillis: Long = collectors.map(c => math.max(0L, c.getCollectionTime)).sum

  val MiB: Double = 1024.0 * 1024.0
}

/** Sums the executor-side work of every finished Spark task. Events arrive on
  * the listener-bus thread; read the totals only after draining the bus.
  */
final class TaskCounters extends SparkListener {
  @volatile var shuffleWriteBytes: Long = 0L
  @volatile var executorCpuNanos: Long  = 0L
  @volatile var tasks: Long             = 0L

  override def onTaskEnd(end: SparkListenerTaskEnd): Unit = {
    val m = end.taskMetrics
    if (m != null) {
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      executorCpuNanos += m.executorCpuTime
    }
    tasks += 1
  }
}

/** One recorded call: `parent` is the enclosing span's id (-1 for a root). */
final case class Span(
    id: Int,
    parent: Int,
    pass: Int,
    name: String,
    startNs: Long,
    endNs: Long,
    counters: Map[String, Double],
) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans around the benchmark's calls into the program and keeps them
  * in memory until the run ends. While `active` is false, `span` only runs
  * its body, so untraced passes pay nothing but a branch.
  */
final class Tracer {
  val spans = mutable.ArrayBuffer.empty[Span]
  var active = false
  private var open = List.empty[Int]
  private var nextId = 0

  /** Run `body` inside a span named `name`; `counters` turns its result into
    * the work counts recorded with the span. Issuing-thread allocation and
    * GC time over the call are recorded for every span.
    */
  def span[A](pass: Int, name: String)(body: => A)(counters: A => Seq[(String, Double)]): A = {
    if (!active) return body
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val gc0 = Probe.gcMillis
    val a0  = Probe.allocBytes
    val t0  = System.nanoTime()
    val out =
      try body
      finally open = open.tail
    val t1 = System.nanoTime()
    val a1 = Probe.allocBytes
    val gc1 = Probe.gcMillis
    val base = Seq("alloc_mb" -> (a1 - a0) / Probe.MiB, "gc_s" -> (gc1 - gc0) / 1e3)
    spans += Span(id, parent, pass, name, t0, t1, (base ++ counters(out)).toMap)
    out
  }

  /** Span duration minus the part of it that its direct children cover. */
  def selfSeconds(s: Span): Double =
    s.seconds - spans.iterator.filter(_.parent == s.id).map(_.seconds).sum
}
