package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{Harness, Methods}
import repro.logdata.Datasets

/** Reproduces the paper's Table 3: Grouping Accuracy on LogHub-2.0 (14
  * large-scale datasets; lines scaled 1/50, capped at 80k — DESIGN.md §3).
  * Methods that exceed the 120 s time box are reported "\" exactly like the
  * paper's failed-to-finish entries. Asserts the paper's shape: ByteBrain
  * stays in its Table 3 band while the baselines degrade at scale.
  */
class Table3Bench extends AnyFunSuite {

  test("Table 3: GA comparison on LogHub-2.0") {
    val datasets = Datasets.loghub2Names.map(n => BenchCache.dataset(s"loghub2:$n", Datasets.loghub2(n)))

    val results =
      for (ds <- datasets; m <- Methods.all(ds))
        yield Harness.evaluate(m, ds, timeoutSec = 120)
    val byMethod = results.groupBy(_.method)

    println("=== Table 3: Grouping Accuracy on LogHub-2.0 (14 datasets, scaled) ===")
    println(("Method" +: datasets.map(_.name) :+ "Average").mkString("\t"))
    Methods.rowOrder.foreach { m =>
      val row = datasets.map { ds =>
        byMethod(m).find(_.dataset == ds.name).filter(_.finished).map(_.ga)
      }
      println(Harness.formatRow(m, row))
    }

    def avg(m: String): Double = {
      val ok = byMethod(m).filter(_.finished)
      if (ok.isEmpty) 0.0 else ok.map(_.ga).sum / ok.size
    }

    val byteBrain = avg("ByteBrain")
    println(f"\nByteBrain avg GA = $byteBrain%.3f (paper: 0.90±0.11)")
    assert(byMethod("ByteBrain").forall(_.finished), "ByteBrain completes every dataset (paper)")
    assert(byteBrain >= 0.80, f"ByteBrain avg $byteBrain%.3f below the paper band")

    // scale degrades the baselines more than ByteBrain (paper's key Table 3 story)
    val classic = Seq("AEL", "Drain", "IPLoM", "LenMa", "LFA", "LogCluster",
      "LogMine", "Logram", "LogSig", "MoLFI", "SHISO", "SLCT", "Spell")
    assert(byteBrain > classic.map(avg).max, "ByteBrain beats every classic baseline at scale")
  }
}
