package repro.jobs

import java.nio.file.Paths

import repro.core.{ByteBrain, ByteBrainConfig, ModelCodec}
import repro.logdata.Datasets

/** spark-submit entrypoint: offline training (paper §3).
  *
  * Usage:
  *   TrainJob <input> <modelOut> [stopThreshold] [prefixTokens]
  * where <input> is either a text file/directory of raw logs (one per line)
  * or `synth:<DatasetName>` to train on the synthetic LogHub-2.0 substitute.
  */
object TrainJob {
  def main(args: Array[String]): Unit = {
    require(args.length >= 2, "usage: TrainJob <input|synth:Name> <modelOut> [stopThreshold] [prefixTokens]")
    val spark = JobSession.create("bytebrain-train")
    try {
      val cfg = ByteBrainConfig(
        stopThreshold = if (args.length > 2) args(2).toDouble else 1.0,
        prefixTokens = if (args.length > 3) args(3).toInt else 0,
      )
      val logs =
        if (args(0).startsWith("synth:")) Datasets.loghub2(args(0).stripPrefix("synth:")).toDF(spark)
        else spark.read.text(args(0)).toDF("message")
      val t0 = System.nanoTime()
      val model = ByteBrain.train(spark, logs, cfg)
      val secs = (System.nanoTime() - t0) / 1e9
      ModelCodec.save(model, Paths.get(args(1)))
      println(f"trained ${model.size} templates (maxDepth=${model.maxDepth}) " +
        f"in $secs%.2fs; model=${ModelCodec.sizeInBytes(model)} bytes -> ${args(1)}")
    } finally spark.stop()
  }
}
