package repro.jobs

import org.apache.spark.sql.SparkSession

/** SparkSession factory for the job entrypoints: under `spark-submit` the
  * master comes from the launcher (spark.master is set); under plain
  * `sbt runMain` we fall back to `local[*]`.
  */
object JobSession {
  def create(appName: String): SparkSession = {
    val builder = SparkSession.builder().appName(appName)
      .config("spark.ui.enabled", value = false)
    val withMaster =
      if (sys.props.contains("spark.master") || sys.env.contains("SPARK_MASTER_URL")) builder
      else builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    withMaster.getOrCreate()
  }
}
