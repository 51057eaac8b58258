package org.apache.spark

/** Lets the benchmark wait until its listener has seen every event of a
  * finished Spark job. The listener bus is asynchronous and only reachable
  * from inside the `org.apache.spark` package.
  */
object CovbenchBus {
  def drain(sc: SparkContext, timeoutMillis: Long = 10000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMillis)
}
