package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TemplateTreeSpec extends AnyFunSuite {
  private val W = CommonVariables.Wildcard

  private def node(id: Int, parent: Int, tpl: Seq[String], sat: Double, depth: Int,
                   count: Long = 1): TemplateNode =
    TemplateNode(id, parent, GroupKey(tpl.size, Nil), tpl.toIndexedSeq, sat, sat, depth, count)

  private val model = new TemplateModel(Vector(
    node(0, -1, Seq("a", W, W), 0.3, 0, 10),
    node(1, 0, Seq("a", "b", W), 0.8, 1, 6),
    node(2, 0, Seq("a", "c", W), 0.9, 1, 4),
    node(3, 1, Seq("a", "b", "x"), 1.0, 2, 3),
    node(4, 1, Seq("a", "b", "y"), 1.0, 2, 3),
  ))

  test("byId covers all nodes") {
    assert((0 to 4).forall(id => model.byId(id).id == id))
    assert(intercept[NoSuchElementException](model.byId(5)).getMessage.contains("5"))
  }

  test("duplicate ids are rejected") {
    val e = intercept[IllegalArgumentException](
      new TemplateModel(Vector(node(1, -1, Seq("a"), 1, 0), node(1, -1, Seq("b"), 1, 0))))
    assert(e.getMessage.contains("node 1"))
  }

  test("an unknown or negative parent id other than -1 is rejected, naming the node") {
    Seq(7, -3, -7, Int.MinValue).foreach { parent =>
      val e = intercept[IllegalArgumentException](
        new TemplateModel(Vector(node(0, -1, Seq("a"), 1, 0), node(1, parent, Seq("b"), 1, 1))))
      assert(e.getMessage == s"node 1 has unknown parent id $parent")
    }
    // a parent id naming a node is a link, whatever its sign
    val m = new TemplateModel(Vector(node(-3, -1, Seq("a"), 0.5, 0), node(5, -3, Seq("b"), 1, 1)))
    assert(m.ancestry(5).map(_.id) == List(-3, 5))
    assert(Query.resolve(m, 5, 0.1).id == -3)
  }

  test("leaves are the nodes no node names as parent") {
    assert(model.leaves.map(_.id) == Vector(2, 3, 4))
  }

  test("ancestry runs root to node") {
    assert(model.ancestry(3).map(_.id) == List(0, 1, 3))
    assert(model.ancestry(0).map(_.id) == List(0))
  }

  test("byLength orders by saturation desc then specificity") {
    val order = model.byLength(3).map(_.id)
    assert(order.take(2).toSet == Set(3, 4)) // saturation 1.0 first
    assert(order.indexOf(2) < order.indexOf(1)) // 0.9 before 0.8
    assert(order.last == 0)
  }

  test("template match: exact tokens") {
    assert(model.byId(3).matches(Array("a", "b", "x")))
    assert(!model.byId(3).matches(Array("a", "b", "z")))
  }

  test("template match: wildcard positions accept anything") {
    assert(model.byId(1).matches(Array("a", "b", "anything")))
    assert(!model.byId(1).matches(Array("a", "zzz", "anything")))
  }

  test("template match: length mismatch fails") {
    assert(!model.byId(1).matches(Array("a", "b")))
  }

  test("withNodes appends and nextId advances") {
    val extra = node(99, -1, Seq("q", "r", "s"), 1.0, 0)
    val m2 = model.withNodes(Seq(extra))
    assert(m2.size == 6)
    assert(m2.nextId == 100)
  }

  test("maxDepth") {
    assert(model.maxDepth == 2)
  }

  test("empty model") {
    assert(TemplateModel.empty.size == 0)
    assert(TemplateModel.empty.nextId == 0)
  }

  test("templateText joins tokens") {
    assert(model.byId(3).templateText == "a b x")
  }
}
