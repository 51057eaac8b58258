package covbench

import org.apache.spark.CovbenchBus
import org.apache.spark.sql.SparkSession
import repro.core.InvertedIndex
import repro.core.enhance.{GreedyHitter, LevelExpansion}
import repro.core.mup.{DeepDiver, MupResult}
import repro.spark.SparkCoverage
import scala.collection.mutable

/** What one pass measured: end-to-end samples (always taken), the per-layer
  * counters of a traced pass, and the output checks that failed.
  */
final case class PassRecord(
    pass: Int,
    traced: Boolean,
    samples: Map[String, Double],
    layers: Map[String, Double],
    failures: Seq[String],
)

/** One pass of the paper's pipeline on a workload, followed by the
  * comparison searches on the same compressed data and the output checks.
  *
  * The pipeline is DataFrame → `SparkCoverage.collectCompressed` →
  * `DeepDiver.findMups` → `LevelExpansion.uncoveredAtLevel` →
  * `GreedyHitter.run`. Every call is timed from outside the program.
  */
final class Pipeline(
    spark: SparkSession,
    w: Workload,
    seed: Int,
    tracer: Tracer,
    tasks: TaskCounters,
) {
  /** MUPs and M_λ patterns checked against the scan oracle per pass. */
  private val checkSample = 12

  /** The generator seed of a pass: the run's seed for the cold pass, then a
    * new dataset for every warm pass, so a run's medians span many datasets.
    * The AirBnB-like generator draws its attribute rates from the seed; with
    * one dataset per run the spread between runs would mostly be the spread
    * between datasets. Like a job on new data, each pass plans its query
    * anew, and compiles it again where the generator's constants differ.
    */
  def datasetSeed(pass: Int): Int = seed + 100003 * pass

  private def secs(t0: Long, t1: Long): Double = (t1 - t0) / 1e9

  private def searchCounters(r: MupResult): Seq[(String, Double)] = Seq(
    "cov_calls"     -> r.covCalls.toDouble,
    "nodes_visited" -> r.nodesVisited.toDouble,
    "mups"          -> r.mups.size.toDouble,
    "cov_per_mup"   -> (if (r.mups.isEmpty) r.covCalls.toDouble else r.covCalls.toDouble / r.mups.size),
  )

  def run(pass: Int, traced: Boolean): PassRecord = {
    tracer.active = traced
    val samples = mutable.LinkedHashMap.empty[String, Double]
    val gc0 = Probe.gcMillis
    val a0  = Probe.allocBytes
    val shuffle0 = tasks.shuffleWriteBytes
    val cpu0     = tasks.executorCpuNanos

    // ---- the pipeline pass
    var tDeep, tRemedy = 0L
    val t0 = System.nanoTime()
    val (data, tau, dd, patterns, greedy) = tracer.span(pass, "pipeline") {
      val data = tracer.span(pass, "spark.SparkCoverage") {
        SparkCoverage.collectCompressed(w.generate(spark, datasetSeed(pass)), w.attrs, w.cards)
      } { d =>
        // Task metrics reach the listener asynchronously; this wait falls in
        // the harness's own time, not in the compress span.
        CovbenchBus.drain(spark.sparkContext)
        Seq(
          "combos"         -> d.distinctCombos.toDouble,
          "rows_per_combo" -> d.total.toDouble / math.max(1, d.distinctCombos),
          "shuffle_mb"     -> (tasks.shuffleWriteBytes - shuffle0) / Probe.MiB,
          "executor_cpu_s" -> (tasks.executorCpuNanos - cpu0) / 1e9,
        )
      }
      val tau = w.tau(data.total)
      tDeep = System.nanoTime()
      val dd = tracer.span(pass, "core.mup.DeepDiver") {
        DeepDiver.findMups(data, tau, w.maxLevel)
      }(searchCounters)
      tRemedy = System.nanoTime()
      val patterns = tracer.span(pass, "core.enhance.LevelExpansion") {
        LevelExpansion.uncoveredAtLevel(dd.mups, w.cards, w.lambda)
      }(m => Seq(
        "mups_in"  -> dd.mups.count(_.level <= w.lambda).toDouble,
        "patterns" -> m.size.toDouble,
      ))
      val greedy = tracer.span(pass, "core.enhance.GreedyHitter") {
        GreedyHitter.run(patterns.toVector, w.cards)
      }(g => Seq(
        "tree_nodes"      -> g.nodesExplored.toDouble,
        "combos"          -> g.combos.size.toDouble,
        "nodes_per_combo" -> g.nodesExplored.toDouble / math.max(1, g.combos.size),
      ))
      (data, tau, dd, patterns, greedy)
    }(_ => Nil)
    val t1 = System.nanoTime()
    samples("driver_alloc_mb") = (Probe.allocBytes - a0) / Probe.MiB
    samples("jvm.gc_s")        = (Probe.gcMillis - gc0) / 1e3
    samples("pipeline_s")      = secs(t0, t1)
    samples("mup_s.DeepDiver") = secs(tDeep, tRemedy)
    samples("remedy_s")        = secs(tRemedy, t1)

    // ---- comparison searches on the same compressed data
    tracer.span(pass, "core.InvertedIndex") {
      new InvertedIndex(data)
    }(_ => Seq("words" -> w.cards.map(_.toLong).sum.toDouble * ((data.distinctCombos + 63) / 64)))
    val others = w.comparisons.map { algo =>
      val c0 = System.nanoTime()
      val r = tracer.span(pass, s"core.mup.${algo.name}") {
        algo.findMups(data, tau, w.maxLevel)
      }(searchCounters)
      samples(s"mup_s.${algo.name}") = secs(c0, System.nanoTime())
      algo.name -> r.mups
    }
    tracer.active = false

    // ---- output checks (harness time, outside every timed segment)
    val c0 = System.nanoTime()
    val failures =
      Checks.total(data, w.n) ++
        Checks.agree(DeepDiver.name, dd.mups, others) ++
        Checks.definition5(data, tau, w.maxLevel, dd.mups, checkSample) ++
        Checks.expansion(data, tau, w.lambda, patterns, checkSample) ++
        Checks.hitting(patterns, greedy.combos) ++
        (if (datasetSeed(pass) == w.defaultSeed)
           Checks.expected(w.expected, dd.mups.size, patterns.size, greedy.combos.size)
         else Nil)
    samples("check_s")  = secs(c0, System.nanoTime())
    samples("mups")     = dd.mups.size.toDouble
    samples("patterns") = patterns.size.toDouble
    samples("combos")   = greedy.combos.size.toDouble
    samples("tau")      = tau.toDouble

    PassRecord(pass, traced, samples.toMap, if (traced) layerMetrics(pass) else Map.empty, failures)
  }

  /** Per-layer metrics of a traced pass, from its spans. */
  private def layerMetrics(pass: Int): Map[String, Double] = {
    val spans = tracer.spans.filter(_.pass == pass)
    val out   = mutable.LinkedHashMap.empty[String, Double]
    def layer(span: String, prefix: String, keys: String*): Unit =
      spans.find(_.name == span).foreach { s =>
        out(s"$prefix.s") = tracer.selfSeconds(s)
        keys.foreach(k => s.counters.get(k).foreach(v => out(s"$prefix.$k") = v))
      }
    layer("spark.SparkCoverage", "compress",
      "alloc_mb", "combos", "rows_per_combo", "shuffle_mb", "executor_cpu_s")
    layer("core.InvertedIndex", "index", "words")
    for (name <- DeepDiver.name +: w.comparisons.map(_.name))
      layer(s"core.mup.$name", s"search.$name",
        "cov_calls", "nodes_visited", "mups", "alloc_mb", "gc_s", "cov_per_mup")
    layer("core.enhance.LevelExpansion", "expand", "mups_in", "patterns")
    layer("core.enhance.GreedyHitter", "greedy",
      "tree_nodes", "combos", "nodes_per_combo", "alloc_mb")
    spans.find(_.name == "pipeline").foreach { s =>
      out("trace.pipeline_s") = s.seconds
      out("trace.harness_s")  = tracer.selfSeconds(s)
    }
    out.toMap
  }
}
