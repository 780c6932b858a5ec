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
    // few distinct keys, so adds repeat keys and counts return to 0;
    // multiples of 2^32 share the low bits; 0 and Long.MinValue are the
    // values open addressing trips on
    val keys = Gen.oneOf(
      Gen.choose(-3L, 3L), Gen.choose(0L, 40L).map(_ << 32), Gen.const(Long.MinValue),
      Gen.const(Long.MaxValue), Gen.choose(Long.MinValue, Long.MaxValue))
    val adds = Gen.choose(0, 300).flatMap(Gen.listOfN(_, Gen.zip(keys, Gen.choose(-5L, 5L))))
    val prop = Prop.forAll(adds) { xs =>
      val got = new HashCounts
      val want = mutable.HashMap.empty[Long, Long]
      xs.foreach { case (h, c) => got.add(h, c); want(h) = want.getOrElse(h, 0L) + c }
      want.filterInPlace((_, c) => c != 0L)
      val probes = xs.map(_._1) ++ xs.map(_._1 + 1) ++ Seq(0L, 17L << 32, Long.MinValue)
      (got.size == want.size) :| s"size ${got.size} vs ${want.size}" &&
        probes.forall(h => got(h) == want.getOrElse(h, 0L)) :| "a count differs"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(7L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  test("HashCounts keeps its capacity bounded while keys come and go") {
    val counts = new HashCounts
    (1L to 100000L).foreach { h =>
      counts.add(h, 1L)
      counts.add(h, -1L)
    }
    assert(counts.size == 0)
    assert(counts.capacity <= 8, s"capacity ${counts.capacity}")
  }

  test("ClusterStats after adds and removes equals the stats of the logs left, similarities bit for bit (ScalaCheck)") {
    // few hashes per position, so logs share tokens; hash 0 and keys that
    // share low bits included
    val hash = Gen.oneOf(Gen.const(0L), Gen.choose(-2L, 2L), Gen.choose(1L, 6L).map(_ << 32))
    def logOf(m: Int): Gen[UniqueLog] = for {
      hs <- Gen.listOfN(m, hash)
      c <- Gen.choose(1L, 5L)
    } yield UniqueLog(Array.fill(m)("t"), hs.toArray, c, 0L)
    // a step adds a log (Left) or removes the (i % size)-th log present (Right);
    // one config per case, so the cached weights are read across mutations
    val cases = for {
      m <- Gen.choose(1, 4)
      steps <- Gen.choose(1, 40).flatMap(Gen.listOfN(_,
        Gen.frequency(3 -> logOf(m).map(Left(_)), 2 -> Gen.choose(0, 1000).map(Right(_)))))
      probes <- Gen.listOfN(3, Gen.listOfN(m, hash).map(_.toArray))
      importance <- Gen.oneOf(true, false)
    } yield (m, steps, probes, ByteBrainConfig(positionImportance = importance))
    def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)
    val prop = Prop.forAll(cases) { case (m, steps, probes, cfg) =>
      val got = new ClusterStats(m)
      val present = mutable.ArrayBuffer.empty[UniqueLog]
      val failure = steps.iterator.map { step =>
        step match {
          case Left(l) => got.add(l); present += l
          case Right(i) => if (present.nonEmpty) got.remove(present.remove(i % present.size))
        }
        val want = ClusterStats.of(present, m)
        val sameCounts = got.totalCount == want.totalCount && got.uniqueCount == want.uniqueCount &&
          (0 until m).forall { i =>
            got.distinctAt(i) == want.distinctAt(i) && got.isConstant(i) == want.isConstant(i) &&
              (probes.map(_(i)) ++ present.map(_.hashes(i))).forall(h => got.freqAt(i, h) == want.freqAt(i, h))
          }
        // read after every step, so weights cached before it are read after it
        val sameSimilarities = (probes ++ present.map(_.hashes)).forall { h =>
          bits(PositionalDistance.similarity(h, got, cfg)) == bits(PositionalDistance.similarity(h, want, cfg))
        }
        if (!sameCounts) Some(s"counts differ after $step")
        else if (!sameSimilarities) Some(s"a similarity differs after $step")
        else None
      }.collectFirst { case Some(e) => e }
      failure.isEmpty :| failure.getOrElse("")
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(1000).withInitialSeed(Seed(11L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }
}
