package repro.core

import scala.util.Random

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class HierarchicalClusteringSpec extends AnyFunSuite {
  private val cfg = ByteBrainConfig()

  private def build(lines: Seq[(String, Long)], prefix: Seq[String] = Nil): Vector[TemplateNode] = {
    val logs = lines.map { case (l, c) => UniqueLog(l.split(" "), c) }.toIndexedSeq
    HierarchicalClustering.buildGroupTree(GroupKey(logs.head.numTokens, prefix), logs, cfg)
  }

  private val set2 = Seq(
    "UserService createUser token abc123 success" -> 1L,
    "UserService deleteUser token xyz789 failed" -> 1L,
    "UserService queryUser token def456 success" -> 1L,
  )

  test("root node has id 0, parent -1, depth 0") {
    val nodes = build(set2)
    val root = nodes.find(_.depth == 0).get
    assert(root.id == 0 && root.parentId == -1)
  }

  test("every non-root node links to an existing parent with smaller depth") {
    val nodes = build(set2)
    val byId = nodes.map(n => n.id -> n).toMap
    nodes.filter(!_.isRoot).foreach { n =>
      val p = byId(n.parentId)
      assert(p.depth == n.depth - 1)
    }
  }

  test("Fig 5 Set 2 tree: root, {4,6}, {5}, and singleton leaves") {
    val nodes = build(set2)
    // expect: root(3) -> [{4,6}, {5}] and {4,6} -> [{4}, {6}]
    assert(nodes.exists(n => n.depth == 0 && n.count == 3))
    assert(nodes.exists(n => n.depth == 1 && n.count == 2))
    assert(nodes.count(n => n.count == 1) >= 3)
  }

  test("Fig 5 Set 1: single node with saturation 1 (no split)") {
    val set1 = Seq(
      "UserService createUser token abc123 success" -> 1L,
      "UserService createUser token xyz789 success" -> 1L,
      "UserService createUser token def456 success" -> 1L,
    )
    val nodes = build(set1)
    assert(nodes.size == 1)
    assert(nodes.head.saturation == 1.0)
    assert(nodes.head.templateText == s"UserService createUser token ${CommonVariables.Wildcard} success")
  }

  test("effective saturation is non-decreasing along every root-to-leaf path") {
    val lines = (0 until 60).map(i => (s"svc f${i % 3} v$i end${i % 2}", 1L + i % 4))
    val nodes = build(lines)
    val byId = nodes.map(n => n.id -> n).toMap
    nodes.filter(!_.isRoot).foreach { n =>
      assert(n.effectiveSaturation >= byId(n.parentId).effectiveSaturation - 1e-12)
    }
  }

  test("children counts sum to parent count") {
    val lines = (0 until 60).map(i => (s"svc f${i % 3} v$i end${i % 2}", 2L))
    val nodes = build(lines)
    val children = nodes.filter(!_.isRoot).groupBy(_.parentId)
    children.foreach { case (pid, cs) =>
      val p = nodes.find(_.id == pid).get
      assert(cs.map(_.count).sum == p.count)
    }
  }

  test("template wildcards exactly the non-constant positions") {
    val nodes = build(set2)
    val root = nodes.find(_.depth == 0).get
    assert(root.template(0) == "UserService")
    assert(root.template(2) == "token")
    assert(root.template(1) == CommonVariables.Wildcard)
    assert(root.template(3) == CommonVariables.Wildcard)
    assert(root.template(4) == CommonVariables.Wildcard)
  }

  test("deterministic for a fixed config and group key") {
    val lines = (0 until 50).map(i => (s"a b${i % 5} c$i", 1L))
    assert(build(lines) == build(lines))
  }

  test("group key is propagated to every node") {
    val nodes = build(set2, prefix = Seq("UserService"))
    assert(nodes.forall(_.groupKey == GroupKey(5, Seq("UserService"))))
  }

  test("maxDepth caps recursion") {
    val c = cfg.copy(maxDepth = 1)
    val lines = (0 until 40).map(i => (s"x f${i % 4} g${i % 8} v$i", 1L))
    val logs = lines.map { case (l, cnt) => UniqueLog(l.split(" "), cnt) }.toIndexedSeq
    val nodes = HierarchicalClustering.buildGroupTree(GroupKey(4, Nil), logs, c)
    assert(nodes.forall(_.depth <= 2)) // children of depth-1 nodes are not expanded
  }

  test("a saturated group stays a single leaf") {
    val lines = (0 until 30).map(i => (s"fixed text v$i here", 1L))
    val nodes = build(lines)
    assert(nodes.size == 1)
  }

  test("log order is total: tokens whose joined key collides still give one tree") {
    // control characters, separator-bearing tokens and prefix pairs (a/ab),
    // so joined-string keys collide and element-wise order is what decides
    val alphabet = Seq("a", "ab", "b", "x", "\u0000", "\u0001", "a\u0000", "a\u0001", "\u0001b")
    val groups = for {
      m <- Gen.choose(1, 4)
      rows <- Gen.choose(1, 12).flatMap(n => Gen.listOfN(n, Gen.listOfN(m, Gen.oneOf(alphabet))))
      counts <- Gen.listOfN(rows.size, Gen.choose(1L, 5L))
      seed <- Gen.long
    } yield (m, rows.distinct.zip(counts).map { case (t, c) => UniqueLog(t.toArray, c) }.toVector, seed)
    val prop = Prop.forAll(groups) { case (m, logs, seed) =>
      val key = GroupKey(m, Nil)
      val expected = HierarchicalClustering.buildGroupTree(key, logs, cfg)
      Seq(logs.reverse, new Random(seed).shuffle(logs))
        .forall(p => HierarchicalClustering.buildGroupTree(key, p, cfg) == expected)
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(11L))
    val result = Test.check(params, prop)
    assert(result.passed, result)
  }
}
