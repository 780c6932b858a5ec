package repro.core

import scala.util.Random

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class QuerySpec extends AnyFunSuite {
  private val W = CommonVariables.Wildcard

  private def node(id: Int, parent: Int, tpl: Seq[String], sat: Double, depth: Int,
                   count: Long = 1): TemplateNode =
    TemplateNode(id, parent, GroupKey(tpl.size, Nil), tpl.toIndexedSeq, sat, sat, depth, count)

  // chain: 0 (0.2) -> 1 (0.6) -> 2 (0.9) -> 3 (1.0)
  private val model = new TemplateModel(Vector(
    node(0, -1, Seq(W, W, W), 0.2, 0, 100),
    node(1, 0, Seq("a", W, W), 0.6, 1, 60),
    node(2, 1, Seq("a", "b", W), 0.9, 2, 30),
    node(3, 2, Seq("a", "b", "c"), 1.0, 3, 10),
  ))

  test("threshold below root saturation returns the root (coarsest)") {
    assert(Query.resolve(model, 3, 0.1).id == 0)
  }

  test("mid threshold returns the coarsest ancestor meeting it") {
    assert(Query.resolve(model, 3, 0.5).id == 1)
    assert(Query.resolve(model, 3, 0.7).id == 2)
  }

  test("threshold 1.0 returns the matched node itself") {
    assert(Query.resolve(model, 3, 1.0).id == 3)
  }

  test("resolving an interior node stays within its chain") {
    assert(Query.resolve(model, 2, 0.5).id == 1)
    assert(Query.resolve(model, 2, 0.95).id == 2) // matched node below threshold → itself
  }

  test("threshold above every saturation returns the matched node") {
    val m = new TemplateModel(Vector(node(0, -1, Seq("x", W), 0.4, 0)))
    assert(Query.resolve(m, 0, 0.99).id == 0)
  }

  /** The chain as a `List`, root first, by `byId` lookups, and the coarsest
    * node on it meeting the threshold: resolve's definition.
    */
  private def referenceChain(m: TemplateModel, id: Int): List[TemplateNode] = {
    var cur = m.byId.get(id)
    var acc = List.empty[TemplateNode]
    while (cur.isDefined) {
      acc = cur.get :: acc
      cur = if (cur.get.isRoot) None else m.byId.get(cur.get.parentId)
    }
    acc
  }

  private def reference(m: TemplateModel, id: Int, threshold: Double): TemplateNode = {
    val chain = referenceChain(m, id)
    chain.find(_.effectiveSaturation >= threshold - 1e-9).getOrElse(chain.last)
  }

  test("resolve and ancestry equal the List reference on random forests") {
    val ids = Gen.frequency(
      4 -> Gen.choose(-3, 40),
      2 -> Gen.choose(Int.MinValue, Int.MaxValue),
      1 -> Gen.oneOf(Int.MaxValue, Int.MinValue, Int.MaxValue - 1, -1))
    val sats = Gen.frequency(3 -> Gen.oneOf(0.0, 0.3, 0.5, 0.9, 1.0), 2 -> Gen.choose(0.0, 1.0))
    val forests = for {
      n <- Gen.choose(1, 14)
      nodeIds <- Gen.listOfN(n, ids).map(_.distinct)
      // parent of node i: a root marker, an id that names no node
      // (dangling) or an earlier node, so the links form no cycle
      dangling = List(0, 7, 41, 1000003, Int.MaxValue - 1, Int.MaxValue).filterNot(nodeIds.contains)
      parents <- Gen.sequence[List[Int], Int](nodeIds.indices.map { i =>
        Gen.frequency(List(2 -> Gen.oneOf(-1, -7, Int.MinValue)) ++
          (if (dangling.isEmpty) Nil else List(1 -> Gen.oneOf(dangling))) ++
          (if (i == 0) Nil else List(3 -> Gen.oneOf(nodeIds.take(i)))): _*)
      })
      nodeSats <- Gen.listOfN(nodeIds.size, sats)
      seed <- Gen.long
    } yield new TemplateModel(new Random(seed).shuffle(nodeIds.indices.toVector).map { i =>
      TemplateNode(nodeIds(i), parents(i), GroupKey(1, Nil), Vector("t"), nodeSats(i), nodeSats(i), 0, 1)
    })
    val prop = Prop.forAll(forests) { m =>
      val thresholds = m.nodes.flatMap(n => Seq(-1e-9, 0.0, 1e-9).map(n.effectiveSaturation + _)) ++ Seq(0.0, 1.5)
      m.nodes.forall { n =>
        m.ancestry(n.id) == referenceChain(m, n.id) &&
          thresholds.forall(th => Query.resolve(m, n.id, th) eq reference(m, n.id, th))
      } :| m.nodes.mkString("\n")
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(6L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  test("resolving an unknown id throws NoSuchElementException naming the id") {
    val e = intercept[NoSuchElementException](Query.resolve(model, 42, 0.5))
    assert(e.getMessage.contains("42"))
    assert(model.ancestry(42).isEmpty)
  }

  test("a parent cycle makes resolve and ancestry fail instead of looping") {
    val cyclic = new TemplateModel(Vector(
      node(0, 1, Seq("a", W), 0.5, 1),
      node(1, 0, Seq(W, W), 0.2, 0),
      node(2, -1, Seq("b", "c"), 1.0, 0)))
    Seq(0, 1).foreach { id =>
      assertThrows[IllegalStateException](Query.resolve(cyclic, id, 0.9))
      assertThrows[IllegalStateException](cyclic.ancestry(id))
    }
    assert(Query.resolve(cyclic, 2, 0.9).id == 2)
  }

  test("templatesAt dedups and orders by count") {
    val res = Query.templatesAt(model, Seq(3, 3, 2, 3), 0.5)
    assert(res.map(_.id) == Seq(1))
  }

  test("templatesAt at max precision keeps distinct nodes") {
    val res = Query.templatesAt(model, Seq(3, 2), 1.0)
    assert(res.map(_.id).toSet == Set(3, 2))
  }

  test("mergeConsecutiveWildcards collapses runs (§7 users * * * → users *)") {
    assert(Query.mergeConsecutiveWildcards(Seq("users", W, W, W)) == Seq("users", W))
  }

  test("mergeConsecutiveWildcards keeps separated wildcards") {
    assert(Query.mergeConsecutiveWildcards(Seq(W, "x", W)) == Seq(W, "x", W))
  }

  test("mergeConsecutiveWildcards on no-wildcard template is identity") {
    assert(Query.mergeConsecutiveWildcards(Seq("a", "b")) == Seq("a", "b"))
  }
}
