package repro.core

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
