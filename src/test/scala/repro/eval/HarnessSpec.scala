package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{LogParser, ParseInput}
import repro.logdata.{DatasetSpec, LogSynth}

class HarnessSpec extends AnyFunSuite {
  private val ds = LogSynth.generate(DatasetSpec("Tiny", 5, Vector("w1", "w2")), 200, 3)

  private final class Constant extends LogParser {
    override def name = "Const"
    override def parse(input: ParseInput): Array[Int] = Array.fill(input.lines.size)(0)
  }

  private final class Sleeper extends LogParser {
    override def name = "Sleeper"
    override def parse(input: ParseInput): Array[Int] = {
      Thread.sleep(60_000); Array.empty
    }
  }

  test("evaluate computes GA and timing for a finishing parser") {
    val r = Harness.evaluate(new Constant, ds, timeoutSec = 30)
    assert(r.finished)
    assert(r.ga >= 0.0 && r.ga <= 1.0)
    assert(r.seconds > 0 && r.numLogs == 200)
  }

  test("evaluate times out a stuck parser and reports not-finished") {
    val r = Harness.evaluate(new Sleeper, ds, timeoutSec = 1)
    assert(!r.finished)
    assert(r.ga == 0.0)
  }

  /** Spins until its thread is interrupted, recording that thread. */
  private final class Spinner extends LogParser {
    @volatile var thread: Thread = _
    override def name = "Spinner"
    override def parse(input: ParseInput): Array[Int] = {
      thread = Thread.currentThread()
      while (!Thread.interrupted()) {}
      throw new InterruptedException("Spinner interrupted")
    }
  }

  test("evaluate interrupts a worker that exceeds the time box, which then ends") {
    val p = new Spinner
    val r = Harness.evaluate(p, ds, timeoutSec = 1)
    assert(!r.finished)
    p.thread.join(5000)
    assert(!p.thread.isAlive)
  }

  /** Sleeps `millis(k)` ms on its k-th parse, counting parses. */
  private final class Paced(millis: Int*) extends LogParser {
    @volatile var calls = 0
    override def name = "Paced"
    override def parse(input: ParseInput): Array[Int] = {
      Thread.sleep(millis(calls)); calls += 1
      Array.fill(input.lines.size)(0)
    }
  }

  test("evaluateWarm reports the median of the timed passes after an untimed warm-up") {
    val p = new Paced(1000, 20, 500, 200)
    val r = Harness.evaluateWarm(p, ds, timeoutSec = 30)
    assert(p.calls == 4)
    assert(r.finished && r.numLogs == 200)
    assert(r.seconds >= 0.2 && r.seconds < 0.5, r.seconds) // the 200 ms pass
  }

  test("evaluateWarm stops at a pass that does not finish") {
    val p = new Paced(10, 3000, 10, 10)
    val r = Harness.evaluateWarm(p, ds, timeoutSec = 1)
    assert(!r.finished)
    assert(p.calls <= 2)
  }

  test("throughput = logs / adjusted seconds") {
    val r = MethodResult("m", "d", 1.0, 2.0, 4.0, 100, finished = true)
    assert(r.throughput == 25.0)
  }

  test("formatRow renders missing cells as backslash") {
    val row = Harness.formatRow("X", Seq(Some(0.5), None, Some(1.0)))
    assert(row.startsWith("X\t0.50\t\\\t1.00"))
    assert(row.endsWith("0.75±0.25"))
  }

  test("formatRow with all-missing shows backslash mean") {
    assert(Harness.formatRow("X", Seq(None, None)).endsWith("\\"))
  }
}
