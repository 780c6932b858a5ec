package repro.eval

import java.util.concurrent.atomic.AtomicReference

import repro.baselines.{LilacSurrogate, LogParser, ParseInput, SemanticSurrogate, SimCost}
import repro.logdata.GeneratedDataset

/** Result of evaluating one parser on one dataset.
  *
  * @param seconds          wall-clock train+match time actually measured
  * @param adjustedSeconds  seconds plus the analytic simulated-inference cost
  *                         for surrogate methods (= seconds for real methods)
  * @param finished         false when the run exceeded the time box — reported
  *                         as "\" in the tables, like the paper's failures
  */
final case class MethodResult(
    method: String,
    dataset: String,
    ga: Double,
    seconds: Double,
    adjustedSeconds: Double,
    numLogs: Int,
    finished: Boolean,
) {
  def throughput: Double = if (adjustedSeconds > 0) numLogs / adjustedSeconds else 0.0
}

/** Runs a parser against a dataset with a wall-clock time box, computing GA
  * and (adjusted) throughput. The time box mirrors the paper's "failed to
  * finish" entries: slow baselines genuinely cannot keep up at scale.
  */
object Harness {

  def evaluate(parser: LogParser, ds: GeneratedDataset, timeoutSec: Int = 120): MethodResult = {
    val resultRef = new AtomicReference[Array[Int]]()
    val errorRef = new AtomicReference[Throwable]()

    val t0 = System.nanoTime()
    val worker = new Thread(() => {
      // preprocessing (variable replacement + tokenization) is part of every
      // method's measured time, exactly like the paper's train+match timing
      try {
        val input = ParseInput.of(ds)
        resultRef.set(parser.parse(input))
      }
      catch { case t: Throwable => errorRef.set(t) }
    }, s"eval-${parser.name}-${ds.name}")
    worker.setDaemon(true)
    worker.start()
    worker.join(timeoutSec * 1000L)
    val seconds = (System.nanoTime() - t0) / 1e9

    val pred = resultRef.get()
    if (pred == null) {
      if (errorRef.get() != null) throw errorRef.get()
      // timed out: interrupt the worker, so a parser that checks for
      // interruption stops instead of sharing the cores with later timings
      worker.interrupt()
      MethodResult(parser.name, ds.name, ga = 0.0, seconds = seconds,
        adjustedSeconds = seconds, numLogs = ds.numLogs, finished = false)
    } else {
      val ga = GroupingAccuracy.compute(pred.toIndexedSeq, ds.truth)
      val adjusted = seconds + simulatedCost(parser, ds.numLogs)
      MethodResult(parser.name, ds.name, ga, seconds, adjusted, ds.numLogs, finished = true)
    }
  }

  private val WarmPasses = 3

  /** [[evaluate]] timed warm: one untimed warm-up pass, then the result of
    * the median-time pass among [[WarmPasses]] timed ones. A pass that does
    * not finish is returned as it is, and ends the series.
    */
  def evaluateWarm(parser: LogParser, ds: GeneratedDataset, timeoutSec: Int = 120): MethodResult = {
    val warmUp = evaluate(parser, ds, timeoutSec)
    if (!warmUp.finished) return warmUp
    val timed = Vector.newBuilder[MethodResult]
    var i = 0
    while (i < WarmPasses) {
      val r = evaluate(parser, ds, timeoutSec)
      if (!r.finished) return r
      timed += r
      i += 1
    }
    timed.result().sortBy(_.seconds).apply(WarmPasses / 2)
  }

  /** Analytic inference cost for surrogate methods (DESIGN.md §3). */
  private def simulatedCost(parser: LogParser, numLogs: Int): Double = parser match {
    case l: LilacSurrogate    => l.oracleCalls * SimCost.LlmCallSeconds
    case _: SemanticSurrogate => numLogs * SimCost.NnPerLogSeconds
    case _                    => 0.0
  }

  /** Render one table row: per-dataset values plus mean±std, paper style. */
  def formatRow(method: String, values: Seq[Option[Double]]): String = {
    val cells = values.map {
      case Some(v) => f"$v%.2f"
      case None    => "\\"
    }
    val present = values.flatten
    val meanStd =
      if (present.isEmpty) "\\"
      else {
        val mean = present.sum / present.size
        val std = math.sqrt(present.map(v => (v - mean) * (v - mean)).sum / present.size)
        f"$mean%.2f±$std%.2f"
      }
    (method +: cells :+ meanStd).mkString("\t")
  }
}
