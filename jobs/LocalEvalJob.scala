package repro.jobs

import repro.eval.{Harness, Methods}
import repro.logdata.Datasets

/** Driver-local evaluation runner (no Spark): GA + throughput for one or all
  * methods on one or all datasets. Handy for debugging the table benches.
  *
  * Usage: LocalEvalJob [loghub|loghub2] [dataset|all] [method|all] [timeoutSec]
  */
object LocalEvalJob {
  def main(args: Array[String]): Unit = {
    val suite = if (args.length > 0) args(0) else "loghub"
    val dsFilter = if (args.length > 1) args(1) else "all"
    val mFilter = if (args.length > 2) args(2) else "ByteBrain"
    val timeout = if (args.length > 3) args(3).toInt else 120

    val names =
      (if (suite == "loghub2") Datasets.loghub2Names else Datasets.loghubNames)
        .filter(n => dsFilter == "all" || n == dsFilter)

    names.foreach { name =>
      val ds = if (suite == "loghub2") Datasets.loghub2(name) else Datasets.loghub(name)
      val methods = Methods.all(ds).filter(m => mFilter == "all" || m.name == mFilter)
      methods.foreach { m =>
        val r = Harness.evaluate(m, ds, timeout)
        println(f"${r.dataset}%-12s ${r.method}%-10s GA=${r.ga}%.4f " +
          f"t=${r.seconds}%.2fs adj=${r.adjustedSeconds}%.2fs thr=${r.throughput}%.0f logs/s " +
          (if (r.finished) "" else "TIMEOUT"))
      }
    }
  }
}
