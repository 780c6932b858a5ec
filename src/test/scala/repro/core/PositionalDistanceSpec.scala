package repro.core

import org.scalatest.funsuite.AnyFunSuite

class PositionalDistanceSpec extends AnyFunSuite {
  private def log(toks: String*): UniqueLog = UniqueLog(toks.toArray)

  test("identical log has similarity 1 to its own singleton cluster") {
    val l = log("a", "b", "c")
    val stats = ClusterStats.of(Seq(l), 3)
    assert(PositionalDistance.similarity(l.hashes, stats) == 1.0)
  }

  test("completely different log has similarity 0") {
    val stats = ClusterStats.of(Seq(log("a", "b")), 2)
    assert(PositionalDistance.similarity(log("x", "y").hashes, stats) == 0.0)
  }

  test("Fig 5 Set 2: log 6 is closer to cluster {4} than to cluster {5}") {
    val l4 = log("UserService", "createUser", "token", "abc123", "success")
    val l5 = log("UserService", "deleteUser", "token", "xyz789", "failed")
    val l6 = log("UserService", "queryUser", "token", "def456", "success")
    val c4 = ClusterStats.of(Seq(l4), 5)
    val c5 = ClusterStats.of(Seq(l5), 5)
    val s4 = PositionalDistance.similarity(l6.hashes, c4)
    val s5 = PositionalDistance.similarity(l6.hashes, c5)
    assert(s4 > s5, s"expected l6 closer to {4} ($s4) than {5} ($s5)")
  }

  test("position importance downweights high-cardinality positions") {
    // cluster: constant at 0, 10 distinct values at 1
    val ls = (0 until 10).map(i => log("fixed", s"v$i"))
    val stats = ClusterStats.of(ls, 2)
    // a log agreeing on the constant but not the variable should still be close
    val probe = log("fixed", "unseen")
    val sim = PositionalDistance.similarity(probe.hashes, stats)
    assert(sim > 0.99, s"constant agreement should dominate, sim=$sim")
  }

  test("duplicate counts weight the frequencies") {
    val ls = Seq(UniqueLog(Array("x", "a"), 9), UniqueLog(Array("x", "b"), 1))
    val stats = ClusterStats.of(ls, 2)
    val simA = PositionalDistance.similarity(log("x", "a").hashes, stats)
    val simB = PositionalDistance.similarity(log("x", "b").hashes, stats)
    assert(simA > simB)
  }

  test("similarity is in [0, 1]") {
    val ls = (0 until 20).map(i => log(s"t${i % 3}", s"v$i", "end"))
    val stats = ClusterStats.of(ls, 3)
    ls.foreach { l =>
      val s = PositionalDistance.similarity(l.hashes, stats)
      assert(s >= 0.0 && s <= 1.0)
    }
  }
}
