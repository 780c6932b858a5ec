package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, IntegerType, StringType, StructField, StructType}

import repro.{Oracle, SparkSpec}
import repro.eval.GroupingAccuracy
import repro.logdata.Datasets

/** Distributed training/matching/query over Spark, with DuckDB oracle checks
  * on every aggregation-shaped result (dedup counts, grouping histogram, GA).
  */
class TrainerSparkSpec extends SparkSpec {
  private val cfg = ByteBrainConfig()
  private lazy val ds = Datasets.loghub("HDFS")
  private lazy val logsDf: DataFrame = ds.toDF(spark).cache()

  import spark.implicits._

  test("dedup counts match DuckDB (paper §4.1.3)") {
    val sparkDedup = logsDf.groupBy($"message").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      sparkDedup,
      "SELECT message, COUNT(*) AS cnt FROM logs GROUP BY message",
      "logs" -> logsDf.select("message"))
  }

  test("initial grouping histogram (token count) matches DuckDB (§4.2)") {
    val patterns = cfg.variablePatterns
    val regex = cfg.tokenizerRegex
    val lenUdf = udf { (msg: String) =>
      new Tokenizer(regex).tokenize(CommonVariables.replace(msg, patterns)).length
    }
    val tokenized = logsDf.select(lenUdf($"message").as("len"))
    val sparkHist = tokenized.groupBy($"len").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      sparkHist,
      "SELECT len, COUNT(*) AS cnt FROM lens GROUP BY len",
      "lens" -> tokenized)
  }

  test("Spark training equals local training (same templates, counts, tree)") {
    val distributed = Trainer.train(spark, logsDf, cfg)
    val local = ByteBrain.trainLocal(ds.lines, cfg)
    assert(ModelCodec.serialize(distributed) sameElements ModelCodec.serialize(local))
  }

  test("Spark training equals local training when sampling applies (sampleMaxLogs = 500)") {
    val c = cfg.copy(sampleMaxLogs = 500)
    val distributed = Trainer.train(spark, logsDf, c)
    val local = ByteBrain.trainLocal(ds.lines, c)
    assert(ModelCodec.serialize(distributed) sameElements ModelCodec.serialize(local))
    Seq(distributed, local).foreach { m =>
      assert(m.nodes.filter(_.isRoot).map(_.count).sum <= 500)
    }
  }

  test("Spark training equals local training over any input and shuffle partitioning") {
    val lines = ds.lines ++ Seq(null, "", " \t ")
    val df = lines.toDF("message")
    val key = "spark.sql.shuffle.partitions"
    val shufflePartitions = spark.conf.get(key)
    try {
      for (c <- Seq(cfg, cfg.copy(sampleMaxLogs = 500), cfg.copy(dedup = false))) {
        val local = ModelCodec.serialize(ByteBrain.trainLocal(lines, c))
        for (shuffle <- Seq(1, 7); in <- Seq(1, 7)) {
          spark.conf.set(key, shuffle.toLong)
          assert(ModelCodec.serialize(Trainer.train(spark, df.repartition(in), c)) sameElements local,
            s"$c, $in input partitions, $shuffle shuffle partitions")
        }
      }
    } finally spark.conf.set(key, shufflePartitions)
  }

  test("an empty frame trains the empty model") {
    val model = Trainer.train(spark, Seq.empty[String].toDF("message"), cfg)
    assert(model.nodes.isEmpty)
    assert(ModelCodec.serialize(model) sameElements ModelCodec.serialize(ByteBrain.trainLocal(Nil, cfg)))
  }

  test("both drivers drop null, empty and whitespace-only lines") {
    val lines = ds.lines.take(2000)
    val noisy = (lines.take(100) :+ null :+ "" :+ " \t ") ++ lines.drop(100) :+ null
    val clean = ModelCodec.serialize(ByteBrain.trainLocal(lines, cfg))
    assert(ModelCodec.serialize(ByteBrain.trainLocal(noisy, cfg)) sameElements clean)
    assert(ModelCodec.serialize(Trainer.train(spark, noisy.toDF("message"), cfg)) sameElements clean)
    val unique = cfg.copy(dedup = false)
    assert(ModelCodec.serialize(Trainer.train(spark, noisy.toDF("message"), unique)) sameElements
      ModelCodec.serialize(ByteBrain.trainLocal(noisy, unique)))
  }

  test("matchDf matches every trained log to a template") {
    val model = Trainer.train(spark, logsDf, cfg)
    val matched = ByteBrain.matchDf(spark, model, logsDf, cfg).cache()
    assert(matched.where($"template_id" < 0).count() == 0)
    assert(matched.count() == ds.numLogs)
    val sats = matched.select(min($"saturation"), max($"saturation")).head()
    assert(sats.getDouble(0) >= 0.0 && sats.getDouble(1) <= 1.0)
  }

  test("matchDf equals CompiledMatcher.matchTokens row by row, over 1 and 7 partitions") {
    val model = ByteBrain.trainLocal(ds.lines.take(4000), cfg)
    // heavy duplication, token-less and non-ASCII lines, and held-out lines:
    // HDFS lines past the trained ones, other topics' lines, a novel length
    val base = ds.lines.take(300) ++ ds.lines.drop(4000).take(300) ++ Datasets.loghub("Linux").lines.take(100) ++
      Seq(null, "", " \t ", "   ", "блок 日志 écrit 42", "PacketResponder 1 for block 日志 terminating",
        Seq.fill(60)("novel").mkString(" "))
    val lines = (0 until 20000).map(i => base((i * 7919L % base.size).toInt)) ++ base
    val matcher = new CompiledMatcher(model)
    val tokenizer = new Tokenizer(cfg.tokenizerRegex)
    val expected: Map[String, (Int, Double, String)] = base.distinct.map { line =>
      line -> (matcher.matchTokens(ByteBrain.preprocess(line, cfg, tokenizer)) match {
        case Some(n) => (n.id, n.effectiveSaturation, n.templateText)
        case None    => (-1, 0.0, null: String)
      })
    }.toMap
    assert(expected.values.count(_._1 < 0) > 10)
    assert(expected.values.count(_._1 >= 0) > 100)

    val schema = StructType(Seq(
      StructField("message", StringType), StructField("template_id", IntegerType),
      StructField("saturation", DoubleType), StructField("template", StringType)))
    val df = lines.toDF("message")
    Seq(df.repartition(1), df.repartition(7)).foreach { in =>
      val matched = ByteBrain.matchDf(spark, model, in, cfg)
      assert(matched.schema == schema)
      val rows = matched.collect()
      assert(rows.length == lines.length)
      assert(rows.map(_.getString(0)).groupBy(identity).map { case (k, v) => k -> v.length } ==
        lines.groupBy(identity).map { case (k, v) => k -> v.length })
      rows.foreach { r =>
        val got = (r.getInt(1), r.getDouble(2), r.getString(3))
        assert(got == expected(r.getString(0)), s"line ${r.getString(0)}")
      }
    }
    assert(ByteBrain.queryDf(spark, model, ByteBrain.matchDf(spark, model, df, cfg), 0.9).schema ==
      schema.add("query_template_id", IntegerType).add("query_template", StringType))
  }

  test("match counts per template match DuckDB") {
    val model = Trainer.train(spark, logsDf, cfg)
    val matched = ByteBrain.matchDf(spark, model, logsDf, cfg)
      .select($"template_id".cast("string").as("tid")).cache()
    val sparkCounts = matched.groupBy($"tid").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      sparkCounts,
      "SELECT tid, COUNT(*) AS cnt FROM m GROUP BY tid",
      "m" -> matched)
  }

  test("GA via Spark aggregation equals the local GA and the DuckDB oracle") {
    val model = Trainer.train(spark, logsDf, cfg)
    val matched = ByteBrain.matchDf(spark, model, logsDf, cfg)
    val assignments = ByteBrain.queryDf(spark, model, matched, 0.9)
      .select($"query_template_id".as("pred"), $"truth_id".as("truth"))
      .cache()

    // Spark GA == local GA
    val sparkGa = GroupingAccuracy.computeDf(spark, assignments)
    val rows = assignments.collect()
    val localGa = GroupingAccuracy.compute(
      rows.map(_.getInt(0)).toIndexedSeq, rows.map(_.getInt(1)).toIndexedSeq)
    assert(math.abs(sparkGa - localGa) < 1e-12)

    // correct-log count re-derived in DuckDB SQL
    val sparkCorrect = {
      val pred = assignments.groupBy($"pred")
        .agg(count(lit(1)).as("psize"), countDistinct($"truth").as("nt"), first($"truth").as("t"))
      val ts = assignments.groupBy($"truth".as("t2")).agg(count(lit(1)).as("tsize"))
      pred.where($"nt" === 1).join(ts, $"t" === $"t2").where($"psize" === $"tsize")
        .agg(coalesce(sum($"psize"), lit(0L)).cast("long").as("correct"))
    }
    Oracle.assertEquivalent(
      sparkCorrect,
      """WITH p AS (SELECT pred, COUNT(*) AS psize, COUNT(DISTINCT truth) AS nt,
        |                  MIN(truth) AS t FROM a GROUP BY pred),
        |     ts AS (SELECT truth AS t2, COUNT(*) AS tsize FROM a GROUP BY truth)
        |SELECT CAST(COALESCE(SUM(psize), 0) AS BIGINT) AS correct
        |FROM p JOIN ts ON p.t = ts.t2 WHERE nt = 1 AND psize = tsize""".stripMargin,
      "a" -> assignments)
  }

  test("distributed GA on HDFS-lite reaches the paper's band") {
    val model = Trainer.train(spark, logsDf, cfg)
    val matched = ByteBrain.matchDf(spark, model, logsDf, cfg)
    val assignments = ByteBrain.queryDf(spark, model, matched, 0.9)
      .select($"query_template_id".as("pred"), $"truth_id".as("truth"))
    val ga = GroupingAccuracy.computeDf(spark, assignments)
    assert(ga > 0.85, f"GA=$ga%.3f")
  }

  test("queryDf resolves to coarser templates at low thresholds") {
    val model = Trainer.train(spark, logsDf, cfg)
    val matched = ByteBrain.matchDf(spark, model, logsDf, cfg)
    val coarse = ByteBrain.queryDf(spark, model, matched, 0.1)
    val fine = ByteBrain.queryDf(spark, model, matched, 1.0)
    val nCoarse = coarse.select(countDistinct($"query_template_id")).head().getLong(0)
    val nFine = fine.select(countDistinct($"query_template_id")).head().getLong(0)
    assert(nCoarse <= nFine)
    assert(nCoarse > 0)
  }

  test("queryDf equals Query.resolve and the merged display text row by row") {
    val model = Trainer.train(spark, logsDf, cfg)
    // token-less and novel-length lines match no template (−1)
    val lines = ds.lines.take(3000) ++ Seq("", "   ", null, Seq.fill(60)("novel").mkString(" "))
    val matched = ByteBrain.matchDf(spark, model, lines.toDF("message"), cfg).cache()
    Seq(0.1, 0.5, 0.9, 1.0).foreach { th =>
      val rows = ByteBrain.queryDf(spark, model, matched, th)
        .select($"template_id", $"query_template_id", $"query_template").collect()
      assert(rows.length == lines.length)
      assert(rows.count(_.getInt(0) < 0) == 4)
      rows.foreach { r =>
        val (id, qid, text) = (r.getInt(0), r.getInt(1), r.getString(2))
        if (id < 0) assert(qid == -1 && text == null)
        else {
          val q = Query.resolve(model, id, th)
          assert(qid == q.id, s"θ=$th id=$id")
          assert(text == Query.mergeConsecutiveWildcards(q.template).mkString(" "), s"θ=$th id=$id")
        }
      }
    }
  }

  test("sampling caps the trained volume on oversized topics (§3)") {
    val c = cfg.copy(sampleMaxLogs = 500)
    val model = Trainer.train(spark, logsDf, c)
    assert(model.nodes.filter(_.isRoot).map(_.count).sum == 500)
  }
}
