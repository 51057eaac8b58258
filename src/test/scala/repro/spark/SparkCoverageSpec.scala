package repro.spark

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.{CompressedData, InvertedIndex, Pattern}

/** The distributed scan/aggregate layer vs the DuckDB oracle and the
  * in-memory coverage oracle.
  */
class SparkCoverageSpec extends SparkSpec {

  private lazy val compas: DataFrame = CoverageData.compas(spark).cache()
  private val attrs = CoverageData.compasAttrs
  private val cards = CoverageData.compasCards

  test("compress matches DuckDB GROUP BY (full combo aggregation)") {
    val compressed = SparkCoverage.compress(compas.select(attrs.map(org.apache.spark.sql.functions.col): _*), attrs)
    Oracle.assertEquivalent(
      compressed,
      s"SELECT ${attrs.mkString(", ")}, count(*) AS cnt FROM compas GROUP BY ${attrs.mkString(", ")}",
      "compas" -> compas.select(attrs.map(org.apache.spark.sql.functions.col): _*),
    )
  }

  test("GROUPING SETS coverage matches DuckDB running the identical query") {
    val proj = compas.select(attrs.map(org.apache.spark.sql.functions.col): _*)
    val compressed = SparkCoverage.compress(proj, attrs).cache()
    compressed.createOrReplaceTempView("compressed_oracle_check")
    val sql =
      s"""SELECT ${attrs.mkString(", ")}, sum(CAST(cnt AS BIGINT)) AS cov
         |FROM compressed_oracle_check
         |GROUP BY GROUPING SETS ((sex), (race), (sex, race), (age, marital), ())""".stripMargin
    val sparkRes = spark.sql(sql)
    Oracle.assertEquivalent(
      sparkRes,
      sql.replace("compressed_oracle_check", "t"),
      "t" -> compressed,
    )
  }

  test("collectCompressed equals an in-memory aggregation of the same rows") {
    val rows = compas.select(attrs.map(org.apache.spark.sql.functions.col): _*).collect()
      .map(r => (0 until 4).map(r.getInt): IndexedSeq[Int]).toVector
    val viaSpark  = SparkCoverage.collectCompressed(compas, attrs, cards)
    val viaMemory = CompressedData.fromRows(rows, cards)
    assert(viaSpark.total == viaMemory.total)
    assert(viaSpark.distinctCombos == viaMemory.distinctCombos)
    val idxS = new InvertedIndex(viaSpark)
    val idxM = new InvertedIndex(viaMemory)
    for (p <- Seq("XXXX", "1XXX", "XX23", "X1X2", "0303").map(Pattern.parse))
      assert(idxS.cov(p) == idxM.cov(p), s"pattern $p")
  }

  test("patternCoverage matches the in-memory oracle for a mixed pattern batch") {
    val data  = SparkCoverage.collectCompressed(compas, attrs, cards)
    val index = new InvertedIndex(data)
    val compressed = SparkCoverage.compress(compas, attrs).cache()
    val patterns = Seq(
      "XXXX", "0XXX", "1XXX", "XX2X", "XX23", "X12X", "01X3", "1X23", "0000", "1323",
    ).map(Pattern.parse)
    val got = SparkCoverage.patternCoverage(compressed, attrs, patterns)
    for (p <- patterns) assert(got(p) == index.cov(p), s"pattern $p")
  }

  test("patternCoverage returns 0 for patterns matching nothing") {
    val compressed = SparkCoverage.compress(compas, attrs).cache()
    // marital = 3 (widowed) with race = 3 (other) does not occur for age = 0
    val none = Pattern.parse("X033")
    val data  = SparkCoverage.collectCompressed(compas, attrs, cards)
    val exp   = new InvertedIndex(data).cov(none)
    val got = SparkCoverage.patternCoverage(compressed, attrs, Seq(none))
    assert(got(none) == exp)
  }

  test("patternCoverage batches: small batch size gives the same answer") {
    val compressed = SparkCoverage.compress(compas, attrs).cache()
    val patterns = Seq("XXXX", "0XXX", "X0XX", "XX0X", "XXX0", "00XX", "0X0X").map(Pattern.parse)
    val a = SparkCoverage.patternCoverage(compressed, attrs, patterns, batchSize = 2)
    val b = SparkCoverage.patternCoverage(compressed, attrs, patterns, batchSize = 100)
    assert(a == b)
  }

  test("patternCoverage on the root equals the row count") {
    val compressed = SparkCoverage.compress(compas, attrs).cache()
    val got = SparkCoverage.patternCoverage(compressed, attrs, Seq(Pattern.root(4)))
    assert(got(Pattern.root(4)) == 6889L)
  }

  test("assess reports the widowed-Hispanic gap: cov(XX23) = 2 < τ = 10") {
    val data = SparkCoverage.collectCompressed(compas, attrs, cards)
    assert(new InvertedIndex(data).cov(Pattern.parse("XX23")) == 2L)
    val a = SparkCoverage.assess(compas, attrs, cards, tau = 10)
    assert(a.totalRows == 6889L)
    // XX23 itself is uncovered: either it is a MUP or some ancestor MUP dominates it
    val covered = a.mups.exists(m => m == Pattern.parse("XX23") || m.dominates(Pattern.parse("XX23")))
    assert(covered, s"XX23 not explained by MUPs ${a.mups}")
    assert(a.levelHistogram.values.sum == a.mups.size)
  }

  test("collectCompressed rejects a NULL attribute value, naming the column") {
    val df = spark.createDataFrame(Seq((0, Option(1)), (1, Option.empty[Int]))).toDF("a0", "a1")
    val err = intercept[IllegalArgumentException](
      SparkCoverage.collectCompressed(df, Seq("a0", "a1"), Vector(2, 2)))
    assert(err.getMessage.contains("'a1'"), err.getMessage)
  }

  test("assess agrees with running DeepDiver on collectCompressed") {
    val data = SparkCoverage.collectCompressed(compas, attrs, cards)
    val direct = repro.core.mup.DeepDiver.findMups(data, 10).mups
    val a = SparkCoverage.assess(compas, attrs, cards, tau = 10)
    assert(a.mups == direct)
  }
}
