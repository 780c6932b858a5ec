package repro.jobs

import java.nio.file.Paths

import org.apache.spark.sql.functions._

import repro.core.{ByteBrain, ModelCodec}

/** spark-submit entrypoint: query-time precision adjustment (paper §3 "Query").
  *
  * Usage:
  *   QueryJob <matchedParquet> <modelPath> <threshold>
  * Prints the distinct display templates at the requested saturation
  * threshold with their log counts (what the TLS UI slider shows).
  */
object QueryJob {
  def main(args: Array[String]): Unit = {
    require(args.length >= 3, "usage: QueryJob <matchedParquet> <modelPath> <threshold>")
    val spark = JobSession.create("bytebrain-query")
    try {
      val model = ModelCodec.load(Paths.get(args(1)))
      val threshold = args(2).toDouble
      val matched = spark.read.parquet(args(0))
      val resolved = ByteBrain.queryDf(spark, model, matched, threshold)
      resolved.groupBy(col("query_template")).agg(count(lit(1)).as("logs"))
        .orderBy(desc("logs"))
        .show(50, truncate = false)
    } finally spark.stop()
  }
}
