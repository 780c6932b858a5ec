package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ClusterStatsSpec extends AnyFunSuite {
  private def log(count: Long, toks: String*): UniqueLog =
    UniqueLog(toks.toArray, count)

  test("counts and uniques accumulate") {
    val s = ClusterStats.of(Seq(log(3, "a", "x"), log(2, "a", "y")), 2)
    assert(s.totalCount == 5)
    assert(s.uniqueCount == 2)
  }

  test("constant detection") {
    val s = ClusterStats.of(Seq(log(1, "a", "x"), log(1, "a", "y")), 2)
    assert(s.isConstant(0))
    assert(!s.isConstant(1))
  }

  test("distinct counts per position") {
    val s = ClusterStats.of(Seq(log(1, "a", "x"), log(1, "b", "x"), log(1, "c", "x")), 2)
    assert(s.distinctAt(0) == 3)
    assert(s.distinctAt(1) == 1)
  }

  test("frequencies are duplicate-weighted") {
    val s = ClusterStats.of(Seq(log(3, "a", "x"), log(1, "a", "y")), 2)
    assert(s.freqAt(0, HashEncoder.hash64("a")) == 1.0)
    assert(s.freqAt(1, HashEncoder.hash64("x")) == 0.75)
    assert(s.freqAt(1, HashEncoder.hash64("y")) == 0.25)
  }

  test("frequency of absent token is zero") {
    val s = ClusterStats.of(Seq(log(1, "a")), 1)
    assert(s.freqAt(0, HashEncoder.hash64("zzz")) == 0.0)
  }

  test("unresolvedPositions lists non-constant positions") {
    val s = ClusterStats.of(Seq(log(1, "a", "x", "q"), log(1, "a", "y", "q")), 3)
    assert(s.unresolvedPositions.toSeq == Seq(1))
  }

  test("empty stats") {
    val s = new ClusterStats(3)
    assert(s.totalCount == 0)
    assert(s.uniqueCount == 0)
    assert((0 until 3).forall(s.isConstant)) // vacuously constant
  }
}
