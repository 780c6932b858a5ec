package repro.eval

import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Grouping Accuracy (paper §5.1.3): the ratio of correctly grouped logs.
  * A log is correct only when its predicted group contains *exactly* the set
  * of logs sharing its ground-truth template — both over-splitting and
  * over-merging disqualify the whole group.
  */
object GroupingAccuracy {

  /** GA over parallel arrays of predicted group id and ground-truth id. */
  def compute(pred: IndexedSeq[Int], truth: IndexedSeq[Int]): Double = {
    require(pred.length == truth.length, "pred/truth length mismatch")
    if (pred.isEmpty) return 1.0

    val truthSize = mutable.HashMap.empty[Int, Int]
    truth.foreach(t => truthSize.update(t, truthSize.getOrElse(t, 0) + 1))

    // per predicted group: size and the unique truth id (or -1 if mixed)
    val predSize = mutable.HashMap.empty[Int, Int]
    val predTruth = mutable.HashMap.empty[Int, Int]
    var i = 0
    while (i < pred.length) {
      val p = pred(i); val t = truth(i)
      predSize.update(p, predSize.getOrElse(p, 0) + 1)
      predTruth.get(p) match {
        case None => predTruth.update(p, t)
        case Some(x) if x != t => predTruth.update(p, -1)
        case _ => ()
      }
      i += 1
    }

    var correct = 0L
    predSize.foreach { case (p, size) =>
      val t = predTruth(p)
      if (t >= 0 && truthSize(t) == size) correct += size
    }
    correct.toDouble / pred.length
  }

  /** Same metric as a Spark aggregation over a (pred, truth) DataFrame —
    * used by the distributed accuracy job and oracle-checked against DuckDB.
    */
  def computeDf(assignments: DataFrame, predCol: String = "pred", truthCol: String = "truth"): Double = {
    val total = assignments.count()
    if (total == 0) return 1.0
    val pred = assignments.groupBy(col(predCol))
      .agg(count(lit(1)).as("psize"),
           countDistinct(col(truthCol)).as("ntruth"),
           first(col(truthCol)).as("t"))
    val truthSizes = assignments.groupBy(col(truthCol).as("t2"))
      .agg(count(lit(1)).as("tsize"))
    val correct = pred
      .where(col("ntruth") === 1)
      .join(truthSizes, col("t") === col("t2"))
      .where(col("psize") === col("tsize"))
      .agg(coalesce(sum(col("psize")), lit(0L)))
      .head().getLong(0)
    correct.toDouble / total
  }
}
