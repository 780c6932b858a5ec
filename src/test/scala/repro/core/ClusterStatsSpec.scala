package repro.core

import scala.collection.mutable

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
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

  test("HashCounts agrees with a HashMap on random adds, hash 0 and colliding hashes included (ScalaCheck)") {
    // few distinct keys, so adds repeat keys; multiples of 2^32 share the
    // low bits; 0 and Long.MinValue are the values open addressing trips on
    val keys = Gen.oneOf(
      Gen.choose(-3L, 3L), Gen.choose(0L, 40L).map(_ << 32), Gen.const(Long.MinValue),
      Gen.const(Long.MaxValue), Gen.choose(Long.MinValue, Long.MaxValue))
    val adds = Gen.choose(0, 300).flatMap(Gen.listOfN(_, Gen.zip(keys, Gen.choose(0L, 5L))))
    val prop = Prop.forAll(adds) { xs =>
      val got = new HashCounts
      val want = mutable.HashMap.empty[Long, Long]
      xs.foreach { case (h, c) => got.add(h, c); want(h) = want.getOrElse(h, 0L) + c }
      val probes = want.keys ++ xs.map(_._1 + 1) ++ Seq(0L, 17L << 32, Long.MinValue)
      (got.size == want.size) :| s"size ${got.size} vs ${want.size}" &&
        probes.forall(h => got(h) == want.getOrElse(h, 0L)) :| "a count differs"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(7L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }
}
