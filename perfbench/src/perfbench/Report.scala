package perfbench

import scala.collection.mutable

/** Median, quartiles and sample count of one timed metric. Quartiles follow
  * Python's `statistics.quantiles(values, n=4)` (the "exclusive" method), so
  * the spread printed here is the spread the run-to-run comparison uses.
  */
final case class Summary(median: Double, q1: Double, q3: Double, n: Int) {
  def spread: Double = if (median == 0) 0.0 else (q3 - q1) / math.abs(median)
}

object Summary {
  def of(values: Iterable[Double]): Summary = {
    val s = values.toArray.sorted
    val n = s.length
    require(n > 0, "no samples")
    val median = if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    if (n == 1) return Summary(median, s(0), s(0), 1)
    def quartile(i: Int): Double = {
      val m = n + 1
      val j = math.min(math.max(i * m / 4, 1), n - 1)
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4.0
    }
    Summary(median, quartile(1), quartile(3), n)
  }
}

/** Metrics, operation counts and output checks of one benchmark run. Every
  * line it prints starts with '#', except the final result object.
  */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val failures = mutable.ArrayBuffer.empty[String]
  var attempted = 0L
  var failed = 0L

  def note(msg: String): Unit = println("# " + msg)

  def metric(name: String, value: Double, unit: String): Unit = {
    require(!value.isNaN && !value.isInfinite, s"$name is not a number")
    metrics(name) = (value, unit)
    note(f"$name%-44s $value%.6g $unit")
  }

  /** A timed metric: its median goes into the result, quartiles and count
    * into the progress output.
    */
  def timed(name: String, samples: Iterable[Double], unit: String): Unit = {
    val s = Summary.of(samples)
    metrics(name) = (s.median, unit)
    note(f"$name%-44s median ${s.median}%.6g $unit  q1 ${s.q1}%.6g  q3 ${s.q3}%.6g  " +
      f"n=${s.n}  iqr/median=${s.spread}%.3f")
  }

  /** A throughput metric: total work ÷ total time of a run's timed passes
    * goes into the result; the median, quartiles and count of the per-pass
    * rates go into the progress output.
    */
  def throughput(name: String, work: Double, passSeconds: Seq[Double], unit: String): Unit = {
    val value = work * passSeconds.size / passSeconds.sum
    val s = Summary.of(passSeconds.map(work / _))
    metrics(name) = (value, unit)
    note(f"$name%-44s $value%.6g $unit  per pass: median ${s.median}%.6g  q1 ${s.q1}%.6g  " +
      f"q3 ${s.q3}%.6g  n=${s.n}  iqr/median=${s.spread}%.3f")
  }

  def check(ok: Boolean, what: => String): Unit =
    if (!ok) { failures += what; note("CHECK FAILED: " + what) }

  def correct: Boolean = failures.isEmpty && failed == 0

  def resultJson: String = {
    val ms = metrics.map { case (k, (v, u)) =>
      s""""$k": {"value": ${jsonNumber(v)}, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": $correct, "attempted": ${math.max(1L, attempted)}, "failed": $failed, "metrics": {$ms}}"""
  }

  private def jsonNumber(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
}
