package repro.jobs

import org.apache.spark.sql.SparkSession

/** What the spark-submit entrypoints share: option parsing, and session
  * management that reuses an already-running SparkSession (so the jobs are
  * callable in-process, e.g. from tests) and only stops a session this job
  * itself created.
  */
object JobEnv {
  /** The `k=v` command-line options; an argument without `=` is rejected. */
  def options(args: Array[String]): Map[String, String] =
    args.map { a =>
      a.split("=", 2) match {
        case Array(k, v) => k -> v
        case _ => throw new IllegalArgumentException(s"argument '$a' is not of the form key=value")
      }
    }.toMap

  def withSpark(appName: String)(body: SparkSession => Unit): Unit = {
    val preExisting = SparkSession.getActiveSession.orElse(SparkSession.getDefaultSession)
    val spark = preExisting.getOrElse(
      SparkSession.builder.appName(appName).getOrCreate())
    try body(spark)
    finally if (preExisting.isEmpty) spark.stop()
  }
}
