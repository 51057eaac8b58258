package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{CompressedData, Pattern}

/** The distributed scan/aggregate layer.
  *
  * The paper's searches never touch raw tuples: Appendix A first aggregates
  * identical value combinations into (combo, count) pairs. Over a large
  * dataset that is exactly one Catalyst `groupBy(attrs).count()` — the single
  * full scan. The resulting table is bounded by `min(n, Π c_i)` rows and
  * either (a) is collected to the driver to feed the in-memory searches, or
  * (b) stays distributed and answers batched pattern-coverage queries via
  * `GROUP BY GROUPING SETS` (one grouping set per candidate attribute set),
  * which [[SparkMupFinder]] uses for a distributed level-wise search.
  */
object SparkCoverage {

  /** One scan: aggregate identical value combinations. Output columns are
    * `attrs :+ "cnt"`.
    */
  def compress(df: DataFrame, attrs: Seq[String]): DataFrame =
    df.groupBy(attrs.map(col): _*).agg(count(lit(1)).as("cnt"))

  /** Collect the compressed form into the in-memory search representation.
    * Values must be non-NULL integer codes in `[0, c_i)`.
    */
  def collectCompressed(df: DataFrame, attrs: Seq[String], cards: IndexedSeq[Int]): CompressedData = {
    val rows = compress(df, attrs).collect()
    val pairs = rows.iterator.map { r =>
      val combo = attrs.indices.map { i =>
        if (r.isNullAt(i)) throw new IllegalArgumentException(s"NULL value in attribute column '${attrs(i)}'")
        r.getAs[Number](i).intValue()
      }: IndexedSeq[Int]
      (combo, r.getAs[Number](attrs.length).longValue())
    }.toVector
    CompressedData.fromAggregated(pairs, cards)
  }

  /** Coverage of every given pattern, computed distributed.
    *
    * Patterns are grouped by deterministic attribute set; each group of sets
    * becomes one `GROUP BY GROUPING SETS` aggregation over the *compressed*
    * table (so the raw data is scanned once, in [[compress]]). A result row's
    * NULLed-out columns identify its pattern (input data has no NULLs), and
    * `sum(cnt)` is the coverage. Patterns absent from the result match no
    * tuple — coverage 0.
    *
    * @param compressed output of [[compress]] (will be re-used across calls —
    *                   cache it upstream)
    * @param batchSize  grouping sets per aggregation job (Catalyst expands
    *                   each set into a projection, so keep this modest)
    */
  def patternCoverage(
      compressed: DataFrame,
      attrs: Seq[String],
      patterns: Seq[Pattern],
      batchSize: Int = 32,
  ): Map[Pattern, Long] = {
    if (patterns.isEmpty) return Map.empty
    val spark = compressed.sparkSession
    val detSets: Seq[Seq[Int]] =
      patterns.map(p => (0 until p.dim).filter(p.isDet).toSeq).distinct
    val wanted = patterns.toSet

    val view = s"repro_cov_${java.util.UUID.randomUUID().toString.replace("-", "")}"
    compressed.createOrReplaceTempView(view)
    try {
      val found = scala.collection.mutable.HashMap.empty[Pattern, Long]
      for (batch <- detSets.grouped(batchSize)) {
        val sets = batch.map { s =>
          if (s.isEmpty) "()" else s.map(attrs(_)).mkString("(", ", ", ")")
        }.mkString(", ")
        // Spark only allows selecting columns that appear in some grouping
        // set of the query; attributes outside this batch's union are
        // constant-X for every batched pattern, so project them as NULL.
        val union = batch.flatten.toSet
        val sel = attrs.indices.map { i =>
          if (union.contains(i)) attrs(i) else s"CAST(NULL AS INT) AS ${attrs(i)}"
        }
        val sql =
          s"""SELECT ${sel.mkString(", ")}, sum(cnt) AS cov
             |FROM $view
             |GROUP BY GROUPING SETS ($sets)""".stripMargin
        for (r <- spark.sql(sql).collect()) {
          val elems = attrs.indices.map { i =>
            if (r.isNullAt(i)) Pattern.X else r.getAs[Number](i).intValue()
          }.toVector
          val p = Pattern(elems)
          if (wanted.contains(p)) found(p) = r.getAs[Number](attrs.length).longValue()
        }
      }
      patterns.iterator.map(p => p -> found.getOrElse(p, 0L)).toMap
    } finally spark.catalog.dropTempView(view)
  }

  /** A coverage-assessment report: the MUP set plus per-level counts — the
    * "nutritional label widget" of the introduction. Runs the one distributed
    * scan, then DEEPDIVER in memory.
    */
  final case class Assessment(
      mups: Set[Pattern],
      levelHistogram: Map[Int, Int],
      distinctCombos: Int,
      totalRows: Long,
  )

  def assess(df: DataFrame, attrs: Seq[String], cards: IndexedSeq[Int], tau: Long,
             maxLevel: Int = Int.MaxValue): Assessment = {
    val data = collectCompressed(df, attrs, cards)
    val res  = repro.core.mup.DeepDiver.findMups(data, tau, maxLevel)
    Assessment(res.mups, res.levelHistogram, data.distinctCombos, data.total)
  }
}
