package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.core.{ByteBrain, ByteBrainConfig}
import repro.eval.GroupingAccuracy
import repro.logdata.Datasets

/** spark-submit entrypoint: distributed train + match + GA on one synthetic
  * dataset (the Spark-dataflow variant of what Table 2/3 benches run locally).
  *
  * Usage: AccuracyJob <DatasetName> [loghub|loghub2] [threshold]
  */
object AccuracyJob {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: AccuracyJob <DatasetName> [loghub|loghub2] [threshold]")
    val spark = JobSession.create("bytebrain-accuracy")
    try {
      val ds =
        if (args.length > 1 && args(1) == "loghub") Datasets.loghub(args(0))
        else Datasets.loghub2(args(0))
      val threshold = if (args.length > 2) args(2).toDouble else 0.5
      val cfg = ByteBrainConfig()

      val df = ds.toDF(spark).cache()
      val model = ByteBrain.train(spark, df, cfg)
      val matched = ByteBrain.matchDf(spark, model, df, cfg)

      val assignments = ByteBrain.queryDf(spark, model, matched, threshold)
        .select(col("query_template_id").as("pred"), col("truth_id").as("truth"))
      val ga = GroupingAccuracy.computeDf(spark, assignments)
      println(f"dataset=${ds.name} logs=${ds.numLogs} templates=${ds.numTemplates} " +
        f"modelNodes=${model.size} GA@$threshold%.2f = $ga%.4f")
    } finally spark.stop()
  }
}
