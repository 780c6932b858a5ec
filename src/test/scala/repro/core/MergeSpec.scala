package repro.core

import scala.collection.immutable.ArraySeq

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class MergeSpec extends AnyFunSuite {
  private val W = CommonVariables.Wildcard
  private val cfg = ByteBrainConfig()

  private def node(id: Int, parent: Int, tpl: Seq[String], sat: Double, depth: Int,
                   count: Long = 1, gk: GroupKey = null): TemplateNode =
    TemplateNode(id, parent,
      if (gk == null) GroupKey(tpl.size, Nil) else gk,
      tpl.toIndexedSeq, sat, sat, depth, count)

  private val oldModel = new TemplateModel(Vector(
    node(0, -1, Seq("get", W, "done"), 0.5, 0, 10),
    node(1, 0, Seq("get", "a", "done"), 1.0, 1, 6),
    node(2, 0, Seq("get", "b", "done"), 1.0, 1, 4),
  ))

  test("templateSimilarity: identical templates are 1") {
    assert(Merge.templateSimilarity(IndexedSeq("a", "b"), IndexedSeq("a", "b")) == 1.0)
  }

  test("templateSimilarity: wildcard agrees with anything") {
    assert(Merge.templateSimilarity(IndexedSeq("a", W), IndexedSeq("a", "x")) == 1.0)
  }

  test("templateSimilarity: disjoint templates are 0") {
    assert(Merge.templateSimilarity(IndexedSeq("a", "b"), IndexedSeq("x", "y")) == 0.0)
  }

  test("templateSimilarity requires equal lengths") {
    assertThrows[IllegalArgumentException](
      Merge.templateSimilarity(IndexedSeq("a"), IndexedSeq("a", "b")))
  }

  test("merging an empty old model adopts the new one") {
    assert(Merge.merge(TemplateModel.empty, oldModel, cfg) eq oldModel)
  }

  test("merging an empty new model keeps the old one") {
    assert(Merge.merge(oldModel, TemplateModel.empty, cfg) eq oldModel)
  }

  test("similar new leaf merges into the old node, adding counts") {
    val newModel = new TemplateModel(Vector(
      node(0, -1, Seq("get", "a", "done"), 1.0, 0, 7)))
    val merged = Merge.merge(oldModel, newModel, cfg)
    assert(merged.size == oldModel.size)
    assert(merged.byId(1).count == 13) // 6 + 7
  }

  test("dissimilar new leaf attaches under the old group root") {
    val newModel = new TemplateModel(Vector(
      node(0, -1, Seq("put", "x", "now"), 1.0, 0, 3)))
    val merged = Merge.merge(oldModel, newModel, cfg)
    assert(merged.size == oldModel.size + 1)
    val added = merged.nodes.find(_.template == IndexedSeq("put", "x", "now")).get
    assert(added.parentId == 0)
    assert(!added.temporary)
  }

  test("an unseen group key adopts the whole new tree") {
    val gk = GroupKey(2, Nil)
    val newModel = new TemplateModel(Vector(
      node(0, -1, Seq("up", W), 0.6, 0, 5, gk),
      node(1, 0, Seq("up", "x"), 1.0, 1, 3, gk),
    ))
    val merged = Merge.merge(oldModel, newModel, cfg)
    assert(merged.size == oldModel.size + 2)
    val root = merged.nodes.find(_.template == IndexedSeq("up", W)).get
    val leaf = merged.nodes.find(_.template == IndexedSeq("up", "x")).get
    assert(leaf.parentId == root.id)
  }

  test("merging an unseen group into a model holding id Int.MaxValue fails: the id space is exhausted") {
    val full = new TemplateModel(Vector(node(Int.MaxValue, -1, Seq("get", W, "done"), 0.5, 0)))
    val unseen = new TemplateModel(Vector(node(0, -1, Seq("put", "x"), 1.0, 0)))
    val e = intercept[IllegalStateException](Merge.merge(full, unseen, cfg))
    assert(e.getMessage.contains("id space is exhausted"), e.getMessage)
  }

  test("merge is idempotent for identical models") {
    val merged = Merge.merge(oldModel, oldModel, cfg)
    // every leaf of the new model merges into its identical old counterpart
    assert(merged.size == oldModel.size)
  }

  test("temporary singletons from online matching get merged in") {
    val om = new OnlineMatcher(oldModel)
    om.matchOrInsert(Array("put", "q", "now"))
    val withTemp = om.modelWithTemporaries
    val retrained = new TemplateModel(Vector(
      node(0, -1, Seq("put", W, "now"), 1.0, 0, 5)))
    val merged = Merge.merge(withTemp, retrained, cfg)
    // the retrained template matches the temporary: it replaces it
    assert(!merged.nodes.exists(_.temporary))
    val learned = new CompiledMatcher(merged).matchTokens(Array("put", "q", "now")).get
    assert(learned.template == IndexedSeq("put", W, "now") && learned.count == 5 && !learned.temporary)
  }

  test("a temporary the new model does not match survives the merge") {
    val om = new OnlineMatcher(oldModel)
    om.matchOrInsert(Array("put", "q", "now"))
    om.matchOrInsert(Array("zap", "q", "now"))
    om.matchOrInsert(Array("zap", "q", "now"))
    val withTemp = om.modelWithTemporaries
    val retrained = new TemplateModel(Vector(
      node(0, -1, Seq("put", W, "now"), 1.0, 0, 5)))
    val merged = Merge.merge(withTemp, retrained, cfg)
    assert(merged.nodes.filter(_.temporary) == withTemp.nodes.filter(_.template.head == "zap"))
    assert(merged.nodes.filter(_.temporary).map(_.count) == Seq(2L))
  }

  test("two new leaves merging into one old node both add their counts") {
    val newModel = new TemplateModel(Vector(
      node(0, -1, Seq("get", "a", "done"), 1.0, 0, 7),
      node(1, -1, Seq("get", "a", "done"), 1.0, 0, 2)))
    val merged = Merge.merge(oldModel, newModel, cfg)
    assert(merged.size == oldModel.size)
    assert(merged.byId(1).count == 15) // 6 + 7 + 2
  }

  /** The old node choice as a tuple `maxBy`: most similar, then fewest
    * wildcards, then deepest, the first maximum winning.
    */
  private def referenceBest(nodes: IndexedSeq[TemplateNode], leaf: IndexedSeq[String]): TemplateNode =
    nodes.maxBy(o => (Merge.templateSimilarity(o.template, leaf), -o.template.count(_ == W), o.depth))

  test("the old node scan picks what the tuple maxBy picks") {
    // few tokens and depths, so similarity, wildcard and depth ties are common
    val token = Gen.frequency(3 -> Gen.const(W), 2 -> Gen.const("a"), 2 -> Gen.const("b"), 1 -> Gen.const("c"))
    val groups = for {
      len <- Gen.choose(0, 4)
      tpls <- Gen.choose(1, 8).flatMap(n => Gen.listOfN(n, Gen.listOfN(len, token)))
      allWildcard <- Gen.oneOf(true, false)
      depths <- Gen.listOfN(tpls.size + 1, Gen.choose(0, 2))
      copies <- Gen.choose(0, 3)
      leaf <- Gen.listOfN(len, token)
    } yield {
      val distinct = (tpls ++ (if (allWildcard) Seq(List.fill(len)(W)) else Nil)).zip(depths)
        .zipWithIndex.map { case ((t, d), i) => node(i, if (d == 0) -1 else 0, t, 0.5, d) }
      // exact copies under other ids: only the first may win
      val nodes = (distinct ++ distinct.take(copies).map(n => n.copy(id = n.id + 100))).toVector
      (nodes, leaf.toVector)
    }
    val prop = Prop.forAll(groups) { case (nodes, leaf) =>
      val (got, sim) = new Merge.OldGroup(nodes).best(leaf)
      val expected = referenceBest(nodes, leaf)
      (got == nodes.indexWhere(_ eq expected) &&
        sim == Merge.templateSimilarity(expected.template, leaf)) :|
        s"leaf $leaf: got $got ($sim), expected ${expected.id} in\n${nodes.mkString("\n")}"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(1000).withInitialSeed(Seed(9L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  test("merged counts add up: old counts + new leaves in seen groups + new nodes of unseen groups") {
    val token = Gen.oneOf(W, "a", "b", "c")
    // one group's tree: node i hangs under a random earlier node
    def tree(gk: GroupKey, firstId: Int): Gen[Vector[TemplateNode]] = for {
      n <- Gen.choose(1, 6)
      parents <- Gen.sequence[Vector[Int], Int]((0 until n).map(i => if (i == 0) Gen.const(-1) else Gen.choose(0, i - 1)))
      tpls <- Gen.listOfN(n, Gen.listOfN(gk.numTokens, token))
      counts <- Gen.listOfN(n, Gen.choose(1L, 20L))
    } yield {
      val depth = new Array[Int](n)
      (0 until n).toVector.map { i =>
        if (parents(i) >= 0) depth(i) = depth(parents(i)) + 1
        TemplateNode(firstId + i, if (parents(i) < 0) -1 else firstId + parents(i), gk, tpls(i).toVector,
          0.5, 0.5, depth(i), counts(i))
      }
    }
    def model(keys: Seq[GroupKey]): Gen[TemplateModel] =
      Gen.sequence[Vector[Vector[TemplateNode]], Vector[TemplateNode]](
        keys.zipWithIndex.map { case (gk, g) => tree(gk, 10 * g) })
        .map(ts => new TemplateModel(ts.flatten))
    val keys = Seq(GroupKey(1, Nil), GroupKey(2, Nil), GroupKey(3, Nil), GroupKey(3, Seq("x")))
    val cases = for {
      oldKeys <- Gen.someOf(keys)
      newKeys <- Gen.someOf(keys)
      oldModel <- model(oldKeys.toSeq)
      newModel <- model(newKeys.toSeq)
      threshold <- Gen.oneOf(0.0, 0.5, 0.8, 1.0)
    } yield (oldModel, newModel, threshold)
    val prop = Prop.forAll(cases) { case (oldModel, newModel, threshold) =>
      val merged = Merge.merge(oldModel, newModel, cfg.copy(mergeThreshold = threshold))
      val seen = oldModel.nodes.map(_.groupKey).toSet
      val expected = oldModel.nodes.map(_.count).sum +
        newModel.leaves.filter(n => seen(n.groupKey)).map(_.count).sum +
        newModel.nodes.filter(n => !seen(n.groupKey)).map(_.count).sum
      (merged.nodes.map(_.count).sum == expected) :|
        s"old\n${oldModel.nodes.mkString("\n")}\nnew\n${newModel.nodes.mkString("\n")}"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(10L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }
}
