package repro.jobs

import java.nio.file.Paths

import repro.core.{ByteBrain, ByteBrainConfig, ModelCodec}
import repro.logdata.Datasets

/** spark-submit entrypoint: online matching (paper §3, §4.8).
  *
  * Usage:
  *   MatchJob <input|synth:Name> <modelPath> <outputDir>
  * Writes (message, template_id, saturation, template) as parquet.
  */
object MatchJob {
  def main(args: Array[String]): Unit = {
    require(args.length >= 3, "usage: MatchJob <input|synth:Name> <modelPath> <outputDir>")
    val spark = JobSession.create("bytebrain-match")
    try {
      val cfg = ByteBrainConfig()
      val model = ModelCodec.load(Paths.get(args(1)))
      val logs =
        if (args(0).startsWith("synth:")) Datasets.loghub2(args(0).stripPrefix("synth:")).toDF(spark)
        else spark.read.text(args(0)).toDF("message")
      val matched = ByteBrain.matchDf(spark, model, logs, cfg)
      matched.write.mode("overwrite").parquet(args(2))
      val misses = matched.where(matched("template_id") < 0).count()
      println(s"matched ${matched.count()} logs (${misses} unmatched) -> ${args(2)}")
    } finally spark.stop()
  }
}
