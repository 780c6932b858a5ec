package repro.core

import java.util.concurrent.ExecutionException

import scala.jdk.CollectionConverters._
import scala.util.Random

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.eval.GroupingAccuracy

class ByteBrainLocalSpec extends AnyFunSuite {
  private val cfg = ByteBrainConfig()

  private def corpus(n: Int): (IndexedSeq[String], IndexedSeq[Int]) = {
    val rng = new scala.util.Random(1)
    val out = Vector.newBuilder[(String, Int)]
    (0 until n).foreach { _ =>
      rng.nextInt(3) match {
        case 0 => out += ((s"accept connection from 10.0.${rng.nextInt(20)}.${rng.nextInt(99)} ok", 0))
        case 1 => out += ((s"reject connection from 10.0.${rng.nextInt(20)}.${rng.nextInt(99)} ok", 1))
        case 2 => out += ((s"worker ${rng.nextInt(1000000)} finished batch ${rng.nextInt(1000000)}", 2))
      }
    }
    val v = out.result()
    (v.map(_._1), v.map(_._2))
  }

  test("trainLocal builds a non-empty model") {
    val (lines, _) = corpus(300)
    val model = ByteBrain.trainLocal(lines, cfg)
    assert(model.size > 0)
    assert(model.nodes.exists(_.depth == 0))
  }

  test("parseLocal groups a clean 3-template corpus perfectly at threshold 0.9") {
    val (lines, truth) = corpus(600)
    val (model, matched) = ByteBrain.parseLocal(lines, cfg)
    val resolved = matched.map(id => Query.resolve(model, id, 0.9).id).toIndexedSeq
    assert(GroupingAccuracy.compute(resolved, truth) == 1.0)
  }

  test("every log matches some template after training on itself") {
    val (lines, _) = corpus(400)
    val model = ByteBrain.trainLocal(lines, cfg)
    val matcher = new CompiledMatcher(model)
    val tok = new Tokenizer(cfg.tokenizerRegex)
    lines.foreach { l =>
      val toks = ByteBrain.preprocess(l, cfg, tok)
      assert(matcher.matchTokens(toks).isDefined, s"unmatched: $l")
    }
  }

  test("training is deterministic in (input, config)") {
    val (lines, _) = corpus(200)
    val a = ByteBrain.trainLocal(lines, cfg)
    val b = ByteBrain.trainLocal(lines, cfg)
    assert(a.nodes == b.nodes)
  }

  test("sequential (parallelism=1) training gives the same model") {
    val (lines, _) = corpus(200)
    val a = ByteBrain.trainLocal(lines, cfg, parallelism = 1)
    val b = ByteBrain.trainLocal(lines, cfg, parallelism = 8)
    assert(a.nodes.toSet == b.nodes.toSet)
  }

  test("dedup=false ablation still parses correctly on a clean corpus") {
    val (lines, truth) = corpus(300)
    val c = cfg.copy(dedup = false)
    val (m, matched) = ByteBrain.parseLocal(lines, c)
    val resolved = matched.map(id => Query.resolve(m, id, 0.9).id).toIndexedSeq
    assert(GroupingAccuracy.compute(resolved, truth) >= 0.95)
  }

  test("different token counts end in different initial groups") {
    val lines = Vector("a b c", "a b c d", "a b c", "a b c d e")
    val model = ByteBrain.trainLocal(lines, cfg)
    assert(model.nodes.map(_.groupKey.numTokens).toSet == Set(3, 4, 5))
  }

  test("prefix grouping (k=1) separates groups by first token") {
    val c = cfg.copy(prefixTokens = 1)
    val lines = Vector("alpha x 1", "alpha x 2", "beta x 1", "beta x 2")
    val model = ByteBrain.trainLocal(lines, c)
    val prefixes = model.nodes.map(_.groupKey.prefix).toSet
    assert(prefixes == Set(Seq("alpha"), Seq("beta")))
  }

  test("sampling keeps exactly sampleMaxLogs lines and every template, for any seed") {
    val (lines, _) = corpus(500)
    (0L until 20L).foreach { seed =>
      val model = ByteBrain.trainLocal(lines, cfg.copy(sampleMaxLogs = 100, seed = seed))
      assert(model.nodes.filter(_.isRoot).map(_.count).sum == 100, s"seed $seed")
      val leaves = model.leaves.map(_.templateText)
      Seq("accept", "reject", "worker").foreach { t =>
        assert(leaves.exists(_.startsWith(t)), s"seed $seed lost template $t")
      }
    }
  }

  test("a sampled model depends only on the multiset of lines") {
    val (lines, _) = corpus(500)
    val c = cfg.copy(sampleMaxLogs = 100)
    val bytes = ModelCodec.serialize(ByteBrain.trainLocal(lines, c))
    val shuffled = new scala.util.Random(3).shuffle(lines)
    assert(ModelCodec.serialize(ByteBrain.trainLocal(shuffled, c, parallelism = 1)) sameElements bytes)
    assert(ModelCodec.serialize(ByteBrain.parseLocal(shuffled, c)._1) sameElements bytes)
  }

  test("group quotas split the cap exactly, in proportion to group totals") {
    val keys = Seq("a", "b", "c").map(p => GroupKey(2, Seq(p)))
    val c = cfg.copy(sampleMaxLogs = 10)
    assert(Trainer.groupQuotas(keys.zip(Seq(50L, 30L, 20L)), c) == keys.zip(Seq(5L, 3L, 2L)).toMap)
    // equal remainders: the seeded tie-break hands the 2 units to 2 of 3 groups
    val tied = Trainer.groupQuotas(keys.map(_ -> 1L), c.copy(sampleMaxLogs = 2))
    assert(tied.size == 2 && tied.values.forall(_ == 1L))
    // under the cap the totals pass through unchanged
    assert(Trainer.groupQuotas(keys.map(_ -> 3L), c) == keys.map(_ -> 3L).toMap)
  }

  test("null, empty and whitespace-only lines are dropped by both local entries") {
    val (lines, _) = corpus(200)
    val noisy = (lines.take(50) :+ null :+ "" :+ "   ") ++ lines.drop(50) :+ null
    val clean = ModelCodec.serialize(ByteBrain.trainLocal(lines, cfg))
    assert(ModelCodec.serialize(ByteBrain.trainLocal(noisy, cfg)) sameElements clean)
    val (model, matched) = ByteBrain.parseLocal(noisy, cfg)
    assert(ModelCodec.serialize(model) sameElements clean)
    assert(matched.count(_ == -1) == 4)
    assert(matched.zip(noisy).forall { case (id, l) => (id == -1) == (l == null || l.trim.isEmpty) })
  }

  test("empty input gives the empty model") {
    assert(ByteBrain.trainLocal(Vector.empty[String], cfg).size == 0)
  }

  test("config validation rejects bad thresholds") {
    assertThrows[IllegalArgumentException](ByteBrainConfig(stopThreshold = 0.0))
    assertThrows[IllegalArgumentException](ByteBrainConfig(stopThreshold = 1.5))
  }

  test("config validation rejects variable patterns with look-around, backreferences or bad syntax") {
    for ((name, p) <- Seq(
           "look-ahead" -> raw"id(?=\d)",
           "backreference" -> raw"(\w)\1",
           "named-backreference" -> raw"(?<c>\w)\k<c>",
           "unbalanced" -> raw"(\d+")) {
      val e = intercept[IllegalArgumentException](
        ByteBrainConfig(variablePatterns = CommonVariables.defaultPatterns :+ (name -> p)))
      assert(e.getMessage.contains(name) && e.getMessage.contains(p), e.getMessage)
    }
    val ok = ByteBrainConfig(variablePatterns = Seq("user-id" -> raw"\bu\d+\b"))
    assert(ok.variablePatterns.size == 1)
  }

  test("config validation rejects a tokenizer regex with look-around, backreferences or bad syntax") {
    for (r <- Seq("(?=a)", raw"(?<!\s)\s", raw"([,;])\1", raw"(?<d>[,;])\k<d>", "[", raw"(\s+"))
      assert(intercept[IllegalArgumentException](ByteBrainConfig(tokenizerRegex = r)).getMessage.contains(r), r)
    assert(ByteBrainConfig(tokenizerRegex = "[|]+").tokenizerRegex == "[|]+")
  }

  /** A batch with exactly `uniques` distinct raw lines: three token-less
    * ones (null, empty, whitespace-only) and the rest from four templates,
    * with some lines repeated.
    */
  private def batch(uniques: Int, seed: Long): IndexedSeq[String] = {
    val rng = new Random(seed)
    val distinct = (0 until uniques - 3).map { i =>
      rng.nextInt(4) match {
        case 0 => s"accept connection from 10.0.${i % 250}.${i / 250} ok"
        case 1 => s"reject user u$i after ${rng.nextInt(5)} retries"
        case 2 => s"worker $i finished batch ${rng.nextInt(1000)}"
        case 3 => s"session s$i closed"
      }
    } ++ Seq(null, "", " \t ")
    val repeats = IndexedSeq.fill(rng.nextInt(uniques))(distinct(rng.nextInt(distinct.size)))
    rng.shuffle(distinct ++ repeats)
  }

  test("trainLocal and parseLocal give the same model and ids at any parallelism and input order") {
    val m = ByteBrain.MinChunkLines
    val cases = for {
      // below one chunk, exactly one and two chunks, and several
      uniques <- Gen.oneOf(Gen.choose(4, m - 1), Gen.const(m), Gen.const(2 * m), Gen.choose(2 * m + 1, 3 * m))
      seed <- Gen.long
      capped <- Gen.oneOf(true, false)
    } yield (uniques, seed, capped)
    val prop = Prop.forAllNoShrink(cases) { case (uniques, seed, capped) =>
      val lines = batch(uniques, seed)
      // a cap below the token-bearing line count, so sampling applies
      val c = if (capped) cfg.copy(sampleMaxLogs = lines.size / 2) else cfg
      val expected = ModelCodec.serialize(ByteBrain.trainLocal(lines, c, 1))
      Prop.all(Seq(lines, new Random(seed + 1).shuffle(lines)).zipWithIndex.flatMap { case (perm, order) =>
        val ids1 = ByteBrain.parseLocal(perm, c, 1)._2
        Seq(1, 2, 3, 8).map { p =>
          val (model, ids) = ByteBrain.parseLocal(perm, c, p)
          ((ModelCodec.serialize(ByteBrain.trainLocal(perm, c, p)) sameElements expected) &&
            (ModelCodec.serialize(model) sameElements expected) &&
            (ids sameElements ids1)) :| s"order $order, parallelism $p"
        }
      }: _*) :| s"uniques $uniques, seed $seed, capped $capped"
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(16).withInitialSeed(Seed(12L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  /** Threads of a default-factory pool started since `before`, once they
    * have had time to end.
    */
  private def poolThreadsLeft(before: Set[Thread]): Seq[Thread] = {
    val started = Thread.getAllStackTraces.keySet.asScala.toSeq
      .filter(t => !before(t) && t.getName.matches("pool-\\d+-thread-\\d+"))
    started.foreach(_.join(10000))
    started.filter(_.isAlive)
  }

  test("a preprocessing task's exception surfaces from Future.get and leaves no pool thread running") {
    val (lines, _) = corpus(2000)
    // Java's regex engine recurses once per repetition of a grouped
    // alternation, so a long run overflows the stack of the task that scans it
    val hostile = lines.patch(1000, Seq("xy" * 200000), 0)
    val configs = Seq(
      "variable pattern" -> cfg.copy(variablePatterns = Seq("xy-run" -> "(x|y)+")),
      "tokenizer" -> cfg.copy(tokenizerRegex = "(?:x|y)+|\\s+"))
    for ((what, c) <- configs; p <- Seq(1, 4)) {
      val before = Thread.getAllStackTraces.keySet.asScala.toSet
      val e = intercept[ExecutionException](ByteBrain.trainLocal(hostile, c, p))
      assert(e.getCause.isInstanceOf[StackOverflowError], s"$what, parallelism $p: $e")
      assert(poolThreadsLeft(before).isEmpty, s"$what, parallelism $p")
    }
    val before = Thread.getAllStackTraces.keySet.asScala.toSet
    assert(ByteBrain.trainLocal(lines, configs.head._2, 4).size > 0)
    assert(poolThreadsLeft(before).isEmpty)
  }
}
