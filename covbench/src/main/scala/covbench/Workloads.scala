package covbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.mup.{MupAlgorithm, PatternBreaker, PatternCombiner}
import repro.spark.CoverageData

/** Counts measured on the unmodified program at a workload's default seed. */
final case class Expected(mups: Int, patterns: Int, combos: Int)

/** One benchmark workload: a generated dataset and the pipeline parameters.
  *
  * `maxLevel` caps the DEEPDIVER search and the comparison searches;
  * `lambda` is the level the coverage enhancement must reach. `tauRate` is
  * turned into τ from the real row count of the compressed data.
  */
final case class Workload(
    name: String,
    n: Long,
    cards: IndexedSeq[Int],
    tauRate: Double,
    maxLevel: Int,
    lambda: Int,
    comparisons: Seq[MupAlgorithm],
    defaultSeed: Int,
    expected: Expected,
    generate: (SparkSession, Int) => DataFrame,
) {
  def attrs: Seq[String] = CoverageData.attrNames(cards.length)
  def tau(total: Long): Long = math.max(1L, (tauRate * total).toLong)
}

object Workloads {
  val all: Seq[Workload] = Seq(
    Workload(
      name = "bluenile-identify",
      n = 116300L,
      cards = CoverageData.bluenileCards,
      tauRate = 1e-4,
      maxLevel = Int.MaxValue,
      lambda = 3,
      comparisons = Seq(PatternBreaker, PatternCombiner),
      defaultSeed = 7,
      expected = Expected(mups = 44878, patterns = 3, combos = 3),
      generate = (spark, seed) => CoverageData.bluenile(spark, 116300L, seed),
    ),
    Workload(
      name = "airbnb-remedy",
      n = 100000L,
      cards = CoverageData.airbnbCards(14),
      tauRate = 1e-2,
      maxLevel = 5,
      lambda = 5,
      comparisons = Seq(PatternBreaker),
      defaultSeed = 42,
      expected = Expected(mups = 1143, patterns = 43310, combos = 94),
      generate = (spark, seed) => CoverageData.airbnb(spark, 100000L, 14, seed),
    ),
    Workload(
      name = "airbnb-wide-scan",
      n = 1000000L,
      cards = CoverageData.airbnbCards(35),
      tauRate = 1e-3,
      maxLevel = 2,
      lambda = 2,
      comparisons = Seq(PatternBreaker),
      defaultSeed = 42,
      expected = Expected(mups = 26, patterns = 26, combos = 1),
      generate = (spark, seed) => CoverageData.airbnb(spark, 1000000L, 35, seed),
    ),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
