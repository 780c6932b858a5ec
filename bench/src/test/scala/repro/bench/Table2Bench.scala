package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{Harness, Methods}
import repro.logdata.Datasets

/** Reproduces the paper's Table 2: Grouping Accuracy of all 17 methods on the
  * 16 LogHub datasets (2,000 lines each). Prints the table in the paper's row
  * order with per-dataset GA and mean±std, and asserts the paper's headline
  * shape: ByteBrain's average GA is near-SOTA (within a few points of the
  * best method) and clearly above the classic syntax baselines.
  */
class Table2Bench extends AnyFunSuite {

  test("Table 2: GA comparison on LogHub") {
    val datasets = Datasets.loghubNames.map(n => BenchCache.dataset(s"loghub:$n", Datasets.loghub(n)))

    val results =
      for (ds <- datasets; m <- Methods.all(ds))
        yield Harness.evaluate(m, ds, timeoutSec = 120)
    val byMethod = results.groupBy(_.method)

    println("=== Table 2: Grouping Accuracy on LogHub (16 datasets × 2000 logs) ===")
    println(("Method" +: datasets.map(_.name) :+ "Average").mkString("\t"))
    Methods.rowOrder.foreach { m =>
      val row = datasets.map { ds =>
        byMethod(m).find(_.dataset == ds.name).filter(_.finished).map(_.ga)
      }
      println(Harness.formatRow(m, row))
    }

    def avg(m: String): Double = {
      val ok = byMethod(m).filter(_.finished)
      ok.map(_.ga).sum / math.max(1, ok.size)
    }

    val byteBrain = avg("ByteBrain")
    val bestOther = Methods.rowOrder.filter(_ != "ByteBrain").map(avg).max
    val classicBest = Seq("AEL", "Drain", "IPLoM", "LenMa", "LFA", "LogCluster",
      "LogMine", "Logram", "LogSig", "MoLFI", "SHISO", "SLCT", "Spell").map(avg).max

    println(f"\nByteBrain avg GA = $byteBrain%.3f (paper: 0.98); best other = $bestOther%.3f " +
      f"(paper SOTA: 0.99); best classic baseline = $classicBest%.3f")
    assert(byteBrain >= 0.90, f"ByteBrain avg $byteBrain%.3f below the paper band")
    assert(byteBrain >= bestOther - 0.05, "ByteBrain must be near-SOTA (paper Fig 2)")
    assert(byteBrain > classicBest + 0.05, "ByteBrain must beat every classic baseline clearly")
  }
}
