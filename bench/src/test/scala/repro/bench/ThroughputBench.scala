package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.ByteBrainParser
import repro.core.ByteBrainConfig
import repro.eval.{Harness, Methods}
import repro.logdata.Datasets

/** Reproduces the §5.3 efficiency comparison (the headline behind Fig. 6 and
  * the abstract's 229k logs/s / 840% claims): throughput of every method on
  * the four largest LogHub-2.0 datasets, plus the single-core "ByteBrain
  * Sequential" variant. Surrogate methods report analytically adjusted
  * throughput (simulated NN/LLM inference — DESIGN.md §3). Each method is
  * timed warm: the median of three passes after one warm-up pass.
  */
class ThroughputBench extends AnyFunSuite {

  private val big = Seq("Thunderbird", "Spark", "HDFS", "BGL")

  test("Throughput on the four largest datasets (logs/second)") {
    val datasets = big.map(n => BenchCache.dataset(s"loghub2:$n", Datasets.loghub2(n)))

    val methodNames = Methods.rowOrder :+ "ByteBrain-Sequential"
    val results =
      for (ds <- datasets; m <- Methods.all(ds) :+ sequential) yield
        Harness.evaluateWarm(m, ds, timeoutSec = 120)
    val byMethod = results.groupBy(_.method)

    println("=== Throughput (logs/second), LogHub-2.0 largest datasets ===")
    println(("Method" +: big :+ "Average").mkString("\t"))
    methodNames.foreach { m =>
      val per = datasets.map { ds =>
        byMethod(m).find(_.dataset == ds.name).filter(_.finished).map(_.throughput)
      }
      val ok = per.flatten
      val avg = if (ok.isEmpty) "\\" else f"${ok.sum / ok.size}%.0f"
      println((m +: per.map(_.map(v => f"$v%.0f").getOrElse("\\")) :+ avg).mkString("\t"))
    }

    def avgThr(m: String): Double = {
      val ok = byMethod(m).filter(_.finished)
      if (ok.isEmpty) 0.0 else ok.map(_.throughput).sum / ok.size
    }

    val bb = avgThr("ByteBrain")
    val bbSeq = avgThr("ByteBrain-Sequential")
    val baselines = Methods.rowOrder.filter(_ != "ByteBrain")
    val fastest = baselines.maxBy(avgThr)
    println(f"\nByteBrain avg = $bb%.0f logs/s (paper: 229k on their hardware); " +
      f"sequential = $bbSeq%.0f (paper: 166k); " +
      f"fastest baseline = $fastest at ${avgThr(fastest)}%.0f logs/s " +
      f"(speedup ${bb / math.max(1e-9, avgThr(fastest))}%.2fx; paper: 8.41x over LogCluster)")

    // shape claims: ByteBrain is the fastest method; sequential stays close
    // (paper: parallelism gains are modest at these sizes, Fig. 12)
    assert(bb > avgThr(fastest), "ByteBrain must be the fastest method overall")
    assert(bbSeq > 0.3 * bb, "sequential ByteBrain stays within a small factor")
    // semantic/LLM methods sit orders of magnitude below (paper Fig. 6)
    Seq("UniParser", "LogPPT", "LILAC").foreach { m =>
      assert(avgThr(m) < bb / 5.0, s"$m must be far slower than ByteBrain")
    }
  }

  private def sequential = new ByteBrainParser(
    ByteBrainConfig(), threshold = 0.9, parallelism = 1, name = "ByteBrain-Sequential")
}
