package repro.core

import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.logdata.{Datasets, LogSynth}

class MatcherSpec extends AnyFunSuite {
  private val W = CommonVariables.Wildcard

  private def node(id: Int, parent: Int, tpl: Seq[String], sat: Double, depth: Int): TemplateNode =
    TemplateNode(id, parent, GroupKey(tpl.size, Nil), tpl.toIndexedSeq, sat, sat, depth, 1)

  private val model = new TemplateModel(Vector(
    node(0, -1, Seq("get", W, "done"), 0.7, 0),
    node(1, 0, Seq("get", "a", "done"), 1.0, 1),
    node(2, 0, Seq("get", W, "done"), 1.0, 1),
    node(3, -1, Seq("put", W), 1.0, 0),
  ))
  private val matcher = new CompiledMatcher(model)

  test("exact wildcard-free template wins over equal-saturation wildcard one") {
    assert(matcher.matchTokens(Array("get", "a", "done")).get.id == 1)
  }

  test("wildcard template matches unseen value") {
    assert(matcher.matchTokens(Array("get", "zz", "done")).get.id == 2)
  }

  test("length routes to the right template set") {
    assert(matcher.matchTokens(Array("put", "x")).get.id == 3)
  }

  test("no match returns None") {
    assert(matcher.matchTokens(Array("delete", "x", "now")).isEmpty)
    assert(matcher.matchTokens(Array("get")).isEmpty)
  }

  test("higher-saturation template is preferred") {
    // node 2 (sat 1.0) precedes node 0 (sat 0.7) with identical text
    assert(matcher.matchTokens(Array("get", "q", "done")).get.id == 2)
  }

  test("OnlineMatcher inserts a temporary singleton on miss") {
    val om = new OnlineMatcher(model)
    val n = om.matchOrInsert(Array("delete", "x", "now"))
    assert(n.temporary)
    assert(n.template == IndexedSeq("delete", "x", "now"))
    assert(n.effectiveSaturation == 1.0)
  }

  test("OnlineMatcher returns the same temporary for a repeated miss, counting it") {
    val om = new OnlineMatcher(model)
    val a = om.matchOrInsert(Array("delete", "x", "now"))
    val b = om.matchOrInsert(Array("delete", "x", "now"))
    assert(a.id == b.id)
    assert(b.count == 2)
  }

  test("OnlineMatcher temporaries get fresh distinct ids") {
    val om = new OnlineMatcher(model)
    val a = om.matchOrInsert(Array("miss", "one", "x"))
    val b = om.matchOrInsert(Array("miss", "two", "x"))
    assert(a.id != b.id)
    assert(a.id >= model.nextId && b.id >= model.nextId)
  }

  test("a model holding id Int.MaxValue loads, matches and queries, but has no id for a temporary") {
    val full = ModelCodec.deserialize(ModelCodec.serialize(new TemplateModel(Vector(
      node(Int.MaxValue, -1, Seq("get", W, "done"), 0.7, 0),
      node(Int.MinValue, Int.MaxValue, Seq("get", "a", "done"), 1.0, 1)))))
    val om = new OnlineMatcher(full)
    assert(om.matchOrInsert(Array("get", "a", "done")).id == Int.MinValue)
    assert(Query.resolve(full, Int.MinValue, 0.5).id == Int.MaxValue)
    val e = intercept[IllegalStateException](om.matchOrInsert(Array("novel", "log")))
    assert(e.getMessage.contains("id space is exhausted"), e.getMessage)
    assert(om.modelWithTemporaries.nodes == full.nodes)
  }

  test("modelWithTemporaries includes collected misses") {
    val om = new OnlineMatcher(model)
    om.matchOrInsert(Array("miss", "one", "x"))
    val m2 = om.modelWithTemporaries
    assert(m2.size == model.size + 1)
  }

  test("updateModel clears temporaries and matches against the new model") {
    val om = new OnlineMatcher(model)
    om.matchOrInsert(Array("miss", "one", "x"))
    om.updateModel(model)
    assert(om.modelWithTemporaries.size == model.size)
  }

  test("OnlineMatcher rejects a log without tokens and inserts nothing") {
    val om = new OnlineMatcher(model)
    intercept[IllegalArgumentException](om.matchOrInsert(Array.empty[String]))
    assert(om.modelWithTemporaries.size == model.size)
  }

  test("matched hits do not create temporaries") {
    val om = new OnlineMatcher(model)
    om.matchOrInsert(Array("get", "a", "done"))
    assert(om.modelWithTemporaries.size == model.size)
  }

  /** §4.8 by definition: the first node of the log's length, in `byLength`
    * order, whose template matches.
    */
  private def linearScan(model: TemplateModel, tokens: Array[String]): Option[TemplateNode] =
    model.byLength.get(tokens.length).flatMap(_.find(_.matches(tokens)))

  test("matchTokens equals a linear scan in §4.8 order on trained, merged and temporary-bearing models (ScalaCheck)") {
    val tok = Tokenizer.default
    val cases = for {
      name <- Gen.oneOf("Linux", "Mac", "HDFS", "BGL", "Apache", "OpenSSH")
      seed <- Gen.choose(0L, 1000L)
      heldOutShare <- Gen.oneOf(0.0, 0.2, 0.5)
      stop <- Gen.oneOf(0.7, 0.9, 1.0)
      variableInSaturation <- Gen.oneOf(true, false)
    } yield (name, seed, heldOutShare, stop, variableInSaturation)
    val prop = Prop.forAllNoShrink(cases) { case (name, seed, heldOutShare, stop, variableInSaturation) =>
      val cfg = ByteBrainConfig(stopThreshold = stop, variableInSaturation = variableInSaturation)
      val data = LogSynth.generate(Datasets.loghubSpec(name), 1500, seed)
      val heldOut = new scala.util.Random(seed).shuffle(data.templates.map(_.id))
        .take((data.templates.size * heldOutShare).toInt).toSet
      val train = data.lines.indices.filter(i => !heldOut.contains(data.truth(i))).map(data.lines)
      val (first, second) = train.splitAt(train.size / 2)
      val trained = ByteBrain.trainLocal(train, cfg, parallelism = 1)
      val merged = Merge.merge(ByteBrain.trainLocal(first, cfg, 1), ByteBrain.trainLocal(second, cfg, 1), cfg)
      val logs = data.lines.map(ByteBrain.preprocess(_, cfg, tok))
      // novel logs: one token changed, one dropped, one appended
      val rng = new scala.util.Random(seed + 1)
      val novel = logs.take(300).filter(_.nonEmpty).flatMap { t =>
        val i = rng.nextInt(t.length)
        Seq(t.updated(i, s"novel$i"), t.patch(i, Nil, 1), t :+ "tail")
      }
      val withTemporaries = {
        val om = new OnlineMatcher(trained)
        novel.foreach(om.matchOrInsert)
        om.modelWithTemporaries
      }
      val disagreements = for {
        (label, m) <- Seq("trained" -> trained, "merged" -> merged, "with temporaries" -> withTemporaries)
        matcher = new CompiledMatcher(m)
        t <- logs ++ novel
        got = matcher.matchTokens(t).map(_.id)
        want = linearScan(m, t).map(_.id)
        if got != want
      } yield s"$label model, ${t.mkString(" ")}: $got vs $want"
      disagreements.isEmpty :| s"$name seed $seed: ${disagreements.take(3).mkString("; ")}"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(24).withInitialSeed(Seed(31L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  /** A model of `n` wildcard templates of one length over a 4-word vocabulary,
    * with tied saturations and depths (so ids break ties) and a share of
    * all-wildcard templates, and logs of that length: templates with their
    * wildcards filled (some with the literal `<*>`) and random token rows.
    */
  private def synthetic(n: Int): Gen[(TemplateModel, Seq[Array[String]])] = {
    val vocab = Gen.oneOf("a", "b", "c", "d")
    val logToken = Gen.frequency(8 -> vocab, 1 -> Gen.const(W))
    for {
      len <- Gen.choose(1, 7)
      templates <- Gen.listOfN(n, Gen.frequency(
        1 -> Gen.const(Seq.fill(len)(W)),
        9 -> Gen.zip(Gen.listOfN(len, Gen.frequency(3 -> vocab, 2 -> Gen.const(W))), Gen.choose(0, len - 1))
          .map { case (ts, p) => if (ts.contains(W)) ts else ts.updated(p, W) }))
      sats <- Gen.listOfN(n, Gen.oneOf(0.5, 0.8, 1.0))
      depths <- Gen.listOfN(n, Gen.choose(0, 2))
      filled = Gen.oneOf(templates).flatMap(t => Gen.sequence[List[String], String](
        t.map(x => if (x == W) logToken else Gen.const(x))))
      logs <- Gen.listOfN(300, Gen.frequency(3 -> filled, 1 -> Gen.listOfN(len, logToken)))
    } yield {
      val nodes = templates.indices.map(i => node(i, -1, templates(i), sats(i), depths(i)))
      (new TemplateModel(nodes.toVector), logs.map(_.toArray))
    }
  }

  test("matchTokens equals a linear scan on 63, 64, 65, 128 and 129 wildcard templates of one length (ScalaCheck)") {
    var pastFirstWord = 0 // matches the scan finds after the 64th template
    val prop = Prop.forAllNoShrink(Gen.oneOf(63, 64, 65, 128, 129).flatMap(synthetic)) { case (m, logs) =>
      val matcher = new CompiledMatcher(m)
      val order = m.byLength.values.flatten.toSeq
      val disagreements = logs.filter { t =>
        val want = linearScan(m, t)
        if (want.exists(w => order.indexOf(w) >= 64)) pastFirstWord += 1
        matcher.matchTokens(t).map(_.id) != want.map(_.id)
      }
      disagreements.isEmpty :| disagreements.take(3).map(_.mkString(" ")).mkString("; ")
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(60).withInitialSeed(Seed(37L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
    assert(pastFirstWord > 0)
  }

  test("matchTokens equals a linear scan when fully-constant templates rank below wildcard ones (ScalaCheck)") {
    // a 3-word vocabulary and at most 4 tokens, so logs often equal a
    // fully-constant template that a wildcard template outranks
    val vocab = Gen.oneOf("a", "b", "c")
    val models = for {
      len <- Gen.choose(1, 4)
      n <- Gen.choose(2, 40)
      templates <- Gen.listOfN(n, Gen.frequency(
        1 -> Gen.listOfN(len, vocab),
        1 -> Gen.listOfN(len, Gen.frequency(2 -> vocab, 1 -> Gen.const(W)))))
      sats <- Gen.listOfN(n, Gen.frequency(1 -> Gen.oneOf(0.3, 0.5, 0.9, 1.0), 1 -> Gen.choose(0.3, 1.0)))
      depths <- Gen.listOfN(n, Gen.choose(0, 2))
      logs <- Gen.listOfN(100, Gen.listOfN(len, vocab))
    } yield {
      val nodes = templates.indices.map(i => node(i, -1, templates(i), sats(i), depths(i)))
      (new TemplateModel(nodes.toVector), logs.map(_.toArray))
    }
    val prop = Prop.forAllNoShrink(models) { case (m, logs) =>
      val matcher = new CompiledMatcher(m)
      val disagreements = logs.filter(t => matcher.matchTokens(t).map(_.id) != linearScan(m, t).map(_.id))
      disagreements.isEmpty :| disagreements.take(3).map(_.mkString(" ")).mkString("; ")
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(43L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  test("one CompiledMatcher shared by 4 threads gives each thread the serial answers") {
    val (m, logs) = synthetic(129).pureApply(Gen.Parameters.default, Seed(41L))
    val matcher = new CompiledMatcher(m)
    val serial = logs.map(matcher.matchTokens(_).map(_.id))
    val pool = Executors.newFixedThreadPool(4)
    try {
      val start = new CountDownLatch(1)
      val threads = (0 until 4).map { t =>
        pool.submit(new Callable[Boolean] {
          def call(): Boolean = {
            start.await()
            (0 until 1000 * logs.length).forall { k =>
              val i = (k + 77 * t) % logs.length
              matcher.matchTokens(logs(i)).map(_.id) == serial(i)
            }
          }
        })
      }
      start.countDown()
      assert(threads.forall(_.get(120, TimeUnit.SECONDS)))
    } finally pool.shutdownNow()
  }
}
