package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SingleClusteringSpec extends AnyFunSuite {
  private val cfg = ByteBrainConfig()

  private def logs(lines: String*): IndexedSeq[UniqueLog] =
    lines.toIndexedSeq.map(l => UniqueLog(l.split(" ")))

  private def split(ls: IndexedSeq[UniqueLog], c: ByteBrainConfig = cfg, seed: Long = 1) = {
    val stats = ClusterStats.of(ls, ls.head.numTokens)
    SingleClustering.split(ls, stats, Saturation.analyze(ls, stats, c), c, new Random(seed))
  }

  test("single log: no split") {
    assert(split(logs("a b c")).isEmpty)
  }

  test("early stop (1): two logs split into singletons") {
    val r = split(logs("a b c", "a x y"))
    assert(r.contains(Vector(Vector(0), Vector(1))))
  }

  test("early stop (2): single unresolved position splits by its token") {
    // position 2 is a declared variable, so position 1 is the only unresolved one
    val ls = (0 until 20).map(i => UniqueLog(Array("svc", if (i % 2 == 0) "start" else "stop", s"v$i", "ok"), 5))
    val stats = ClusterStats.of(ls, 4)
    assert(Saturation.analyze(ls, stats, cfg).unresolved.toSeq == Seq(1))
    val evens = ls.indices.filter(_ % 2 == 0).toVector
    val odds = ls.indices.filter(_ % 2 == 1).toVector
    assert(split(ls).contains(Vector(evens, odds)))
  }

  test("single unresolved position partitions by token value") {
    val base = IndexedSeq(
      UniqueLog(Array("svc", "start", "ok"), 5),
      UniqueLog(Array("svc", "stop", "ok"), 4),
      UniqueLog(Array("svc", "pause", "ok"), 7),
    )
    val r = split(base).get
    assert(r.size == 3)
    assert(r.forall(_.size == 1))
  }

  test("early stop (3): all-distinct unresolved positions with heavy repeats → singleton clusters") {
    // heavy counts → not a Set-1 variable; two unresolved all-distinct positions
    val ls = IndexedSeq(
      UniqueLog(Array("a", "p1", "q1", "z"), 50),
      UniqueLog(Array("a", "p2", "q2", "z"), 60),
      UniqueLog(Array("a", "p3", "q3", "z"), 70),
    )
    val r = split(ls).get
    assert(r.size == 3 && r.forall(_.size == 1))
  }

  test("Fig 5 Set 2 splits into {4,6} and {5}") {
    val ls = logs(
      "UserService createUser token abc123 success",
      "UserService deleteUser token xyz789 failed",
      "UserService queryUser token def456 success",
    )
    // counts of 1 → Set-1-ish rules could fire; verify across several seeds
    // that the family/status structure separates log 1 (failed) from 0 and 2
    val r = split(ls, seed = 3)
    r match {
      case Some(groups) =>
        val gOf = Array.fill(3)(-1)
        groups.zipWithIndex.foreach { case (g, gi) => g.foreach(i => gOf(i) = gi) }
        assert(gOf(0) == gOf(2), "logs 4 and 6 share structure and stay together")
        assert(gOf(1) != gOf(0), "log 5 (deleteUser/failed) separates")
      case None => fail("Set 2 must split")
    }
  }

  test("clusters form a partition of the input") {
    val ls = (0 until 40).map(i =>
      UniqueLog(Array("x", s"fam${i % 4}", s"v$i", "end"), 1 + i % 3))
    split(ls).foreach { groups =>
      val all = groups.flatten.sorted
      assert(all == ls.indices.toVector)
    }
  }

  test("deterministic given the same seed") {
    val ls = (0 until 30).map(i => UniqueLog(Array("x", s"f${i % 3}", s"v$i"), 2))
    assert(split(ls, seed = 7) == split(ls, seed = 7))
  }

  test("random centroid ablation still partitions") {
    val ls = (0 until 30).map(i => UniqueLog(Array("x", s"f${i % 3}", s"v$i", "e"), 2))
    val r = split(ls, cfg.copy(kmeansPlusPlus = false))
    r.foreach(groups => assert(groups.flatten.sorted == ls.indices.toVector))
  }

  test("w/o early stop still terminates and partitions") {
    val ls = logs("a b", "a c")
    val r = split(ls, cfg.copy(earlyStop = false))
    r.foreach(groups => assert(groups.flatten.sorted == ls.indices.toVector))
  }

  test("outlier reabsorption keeps genuinely distinct statements separate") {
    // one rare distinct statement among a big uniform family must not be absorbed
    val ls = (0 until 20).map(i => UniqueLog(Array("run", "job", s"v$i", "done"), 3)) :+
      UniqueLog(Array("run", "FAIL", "x9", "done"), 1)
    split(ls).foreach { groups =>
      val failGroup = groups.find(_.contains(20)).get
      // the FAIL statement must not sit in the same cluster as the whole family
      assert(failGroup.size < 20)
    }
  }
}
