package covbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.util.concurrent.{Executors, TimeUnit, TimeoutException}
import org.apache.spark.sql.SparkSession
import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization

/** The benchmark's JVM side: one process, one issuing thread, a warm local
  * SparkSession, and a closed loop of pipeline passes on one workload.
  *
  * {{{
  * java -cp <classpath> covbench.Main --workload bluenile-identify --seed 7 \
  *   --seconds 20 --trace 0 --out result.json [--deadline 45]
  * }}}
  *
  * The first pass is cold and untimed; it ends the set-up. Passes then run
  * back to back until `--seconds` have passed. Each pass runs under a
  * deadline: an overrun counts as a failed pass and ends the run, so a search
  * that does not finish cannot hang it. With `--trace 1` every other pass is
  * traced, so the run also measures the tracing overhead. Everything measured
  * is written to `--out` as JSON; `covbench/run.py` reduces it to metrics.
  */
object Main {
  final case class Args(
      workload: Workload,
      seed: Int,
      seconds: Double,
      trace: Boolean,
      out: String,
      deadline: Double,
  )

  /** Spark runs `local[k]`; the searches are single-threaded on the issuer. */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, sys.error(s"missing --$k"))
    val w = Workloads.byName(need("workload")).getOrElse(
      sys.error(s"unknown workload ${need("workload")}; known: ${Workloads.all.map(_.name).mkString(", ")}"))
    Args(
      workload = w,
      seed = need("seed").toInt,
      seconds = need("seconds").toDouble,
      trace = need("trace") == "1",
      out = need("out"),
      deadline = kv.get("deadline").map(_.toDouble).getOrElse(45.0),
    )
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"covbench-${a.workload.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", (4 * cores).toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sessionReadyMs = System.currentTimeMillis()

    val tasks = new TaskCounters
    if (a.trace) spark.sparkContext.addSparkListener(tasks)
    val tracer   = new Tracer
    val pipeline = new Pipeline(spark, a.workload, a.seed, tracer, tasks)

    // One issuing thread; the main thread only enforces the deadline.
    val issuer = Executors.newSingleThreadExecutor { r =>
      val t = new Thread(r, "covbench-issuer"); t.setDaemon(true); t
    }
    def timedPass(pass: Int, traced: Boolean, deadline: Double): Either[String, PassRecord] = {
      val f = issuer.submit(() => pipeline.run(pass, traced))
      try Right(f.get((deadline * 1000).toLong, TimeUnit.MILLISECONDS))
      catch {
        case _: TimeoutException =>
          spark.sparkContext.cancelAllJobs()
          Left(f"pass $pass overran its ${deadline}%.0f s deadline")
        case e: java.util.concurrent.ExecutionException =>
          Left(s"pass $pass threw ${e.getCause}")
      }
    }

    val cold = timedPass(0, traced = false, a.deadline * 2)
    val coldDoneMs = System.currentTimeMillis()
    val passes = Vector.newBuilder[PassRecord]
    var errors = cold.left.toSeq
    var attempted = 0
    // A traced run needs an untraced pass too, to measure the overhead.
    val minPasses = if (a.trace) 2 else 1
    val t0 = System.nanoTime()
    while (errors.isEmpty && (attempted < minPasses || (System.nanoTime() - t0) / 1e9 < a.seconds)) {
      attempted += 1
      timedPass(attempted, traced = a.trace && attempted % 2 == 1, a.deadline) match {
        case Right(r) => passes += r
        case Left(e)  => errors :+= e
      }
    }
    val measuredS = (System.nanoTime() - t0) / 1e9

    val doc = Map(
      "workload"        -> a.workload.name,
      "seed"            -> a.seed,
      "default_seed"    -> a.workload.defaultSeed,
      "params"          -> Map(
        "n" -> a.workload.n, "cards" -> a.workload.cards, "tau_rate" -> a.workload.tauRate,
        "max_level" -> (if (a.workload.maxLevel == Int.MaxValue) "full" else a.workload.maxLevel),
        "lambda" -> a.workload.lambda, "comparisons" -> a.workload.comparisons.map(_.name),
      ),
      "env"             -> environment(spark, a),
      "jvm_start_ms"    -> ManagementFactory.getRuntimeMXBean.getStartTime,
      "session_ready_ms" -> sessionReadyMs,
      "cold_done_ms"    -> coldDoneMs,
      "cold"            -> cold.toOption.map(passJson).orNull,
      "passes"          -> passes.result().map(passJson),
      "attempted"       -> attempted,
      "errors"          -> errors,
      "measured_s"      -> measuredS,
      "spans"           -> tracer.spans.map(s => Map(
        "id" -> s.id, "parent" -> s.parent, "pass" -> s.pass, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs, "counters" -> s.counters)),
    )
    Files.write(Paths.get(a.out), Serialization.write(doc)(DefaultFormats).getBytes(StandardCharsets.UTF_8))

    if (errors.nonEmpty) {
      // The issuing thread may still be inside a search that cannot be
      // interrupted; end the process rather than wait for it.
      System.out.flush()
      Runtime.getRuntime.halt(0)
    }
    issuer.shutdown()
    spark.stop()
  }

  private def passJson(r: PassRecord): Map[String, Any] = Map(
    "pass" -> r.pass, "traced" -> r.traced, "samples" -> r.samples,
    "layers" -> r.layers, "failures" -> r.failures)

  private def environment(spark: SparkSession, a: Args): Map[String, Any] = Map(
    "nproc"                -> Runtime.getRuntime.availableProcessors,
    "spark_master"         -> spark.sparkContext.master,
    "k"                    -> cores,
    "shuffle_partitions"   -> spark.conf.get("spark.sql.shuffle.partitions"),
    "driver_heap_mb"       -> Runtime.getRuntime.maxMemory / (1024 * 1024),
    "jvm"                  -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
    "spark_version"        -> spark.version,
    "scala_version"        -> scala.util.Properties.versionNumberString,
    "seed"                 -> a.seed,
    "deadline_s"           -> a.deadline,
  )
}
