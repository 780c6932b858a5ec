package perfbench

import java.nio.file.Path
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.core._
import repro.eval.GroupingAccuracy

/** What one round of train → match → query produced: pass times and the
  * outputs that must be identical in every round of one seed.
  */
final case class RoundOut(trainS: Double, matchS: Double, queryS: Double,
                          modelBytes: Array[Byte], ga: Double, outputHash: Int)

/** What the traced run calls each layer on: the lines a train pass trains
  * on, the lines a match pass matches, the model they are matched against,
  * trainLocal's model of the train lines, the previous cycle's model and the
  * model the service stores.
  */
final case class LayerData(trainLines: Array[String], trainTruth: Array[Int],
                           matchLines: Array[String], matchTruth: Array[Int],
                           matchModel: TemplateModel, trained: TemplateModel,
                           previous: TemplateModel, stored: TemplateModel)

/** One benchmark workload. Construction generates the inputs (untimed);
  * `setup` holds the program calls the timed rounds need and is timed.
  */
trait Workload {
  def name: String
  /** Lines one train pass turns into a model. */
  def trainLines: Int
  /** Raw lines one match pass preprocesses and matches. */
  def matchLines: Int
  /** Matched ids one query pass resolves. */
  def queryIds: Int
  def setupRepeats: Int
  def warmupRounds: Int
  def threads: Int
  def describe(r: Report): Unit
  def setup(): Unit
  /** One train → match → query round; `t` records a span per pass and per
    * call into the program.
    */
  def round(r: Report, t: Tracer = Tracer.Off): RoundOut
  /** Inputs and models the traced run drives each layer with. */
  def layerData: LayerData
  def sparkSession: Option[SparkSession] = None
  /** Checks that need the whole run, after the last round. */
  def finish(r: Report): Unit
  def close(): Unit = ()
}

object Workload {
  def apply(name: String, seed: Long, nproc: Int, work: Path): Workload = name match {
    case "local-service"  => new LocalService(seed, nproc)
    case "spark-hdfs"     => new SparkHdfs(seed, nproc, work)
  }

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** GA at θ = 0.9 of resolved ids against the generator's truth. */
  def ga(resolved: Array[Int], truth: Array[Int]): Double =
    GroupingAccuracy.compute(resolved.toIndexedSeq, truth.toIndexedSeq)
}

/** One local service process, in the order of paper §3: each round
  * refreshes a low-duplication topic's model (trainLocal at `threads`,
  * Merge into the previous cycle's model, ModelCodec), matches a fresh
  * held-out stream of a template-rich topic one raw line at a time through
  * a stateful `OnlineMatcher` (no dedup cache), then resolves every matched
  * id with `Query.resolve` at each fixed threshold.
  */
final class LocalService(seed: Long, val threads: Int) extends Workload {
  import Workload.seconds

  val name = "local-service"
  private val cfg: ByteBrainConfig = Inputs.cfg
  private val tokenizer = new Tokenizer(cfg.tokenizerRegex)
  private val stream = Inputs.stream(seed)
  private val refresh = Inputs.lowdup(seed)
  private val lines = stream.stream.lines

  val Thresholds: Array[Double] = Array(0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99)
  private val GaThreshold = Thresholds.indexOf(0.9)

  def trainLines: Int = refresh.batch.size
  def matchLines: Int = lines.length
  def queryIds: Int = lines.length * Thresholds.length
  val setupRepeats = 3
  val warmupRounds = 2

  private var model: TemplateModel = _
  private var matcher: OnlineMatcher = _
  private var previous: TemplateModel = _
  private var trained: TemplateModel = _
  private var merged: TemplateModel = _
  /** The model queries resolve against: trained nodes plus temporaries. */
  private var queryModel: TemplateModel = _
  private val ids = new Array[Int](lines.length)
  private val resolved = Array.fill(Thresholds.length)(new Array[Int](lines.length))

  def describe(r: Report): Unit = {
    val ts = Inputs.StreamTopic.spec
    val ls = Inputs.LowdupTopic.spec
    r.note(s"stream topic ${ts.name} (${ts.numTemplates} templates): model trained on " +
      s"${stream.train.size} lines of ${ts.numTemplates - Inputs.HeldOut.size} templates; " +
      f"stream ${lines.length} lines, held-out-template ${stream.heldOutLines.toDouble / lines.length}%.4f, " +
      f"novel-length ${stream.novelLines.toDouble / lines.length}%.4f, raw-unique ${stream.stream.rawUniqueShare}%.4f")
    r.note(s"refresh topic ${ls.name} (${ls.numTemplates} templates, unbounded slot fraction " +
      f"${ls.unboundedSlotFraction}): batch ${refresh.batch.size} lines, raw-unique ${refresh.batch.rawUniqueShare}%.4f, " +
      s"previous cycle ${refresh.previous.size} lines")
  }

  def setup(): Unit = {
    model = ByteBrain.trainLocal(stream.train.lines, cfg, threads)
    matcher = new OnlineMatcher(model)
    previous = ByteBrain.trainLocal(refresh.previous.lines, cfg, threads)
    queryModel = null
  }

  def round(r: Report, tr: Tracer): RoundOut = {
    var t0 = System.nanoTime()
    val bytes = tr.span("train") {
      trained = tr.span("ByteBrain.trainLocal")(ByteBrain.trainLocal(refresh.batch.lines, cfg, threads))
      merged = tr.span("Merge.merge")(Merge.merge(previous, trained, cfg))
      tr.span("ModelCodec.serialize")(ModelCodec.serialize(merged))
    }
    val trainS = seconds(t0)
    r.attempted += 1

    t0 = System.nanoTime()
    var i = 0
    tr.span("match: ByteBrain.preprocess + OnlineMatcher.matchOrInsert") {
      while (i < lines.length) {
        ids(i) = try matcher.matchOrInsert(ByteBrain.preprocess(lines(i), cfg, tokenizer)).id
        catch { case NonFatal(_) => r.failed += 1; -1 }
        i += 1
      }
    }
    val matchS = seconds(t0)
    r.attempted += lines.length
    // temporaries are inserted by the first pass only; later passes find them
    if (queryModel == null) queryModel = matcher.modelWithTemporaries

    t0 = System.nanoTime()
    tr.span("query: Query.resolve") {
      var t = 0
      while (t < Thresholds.length) {
        val th = Thresholds(t); val out = resolved(t)
        i = 0
        while (i < ids.length) {
          out(i) = try Query.resolve(queryModel, ids(i), th).id
          catch { case NonFatal(_) => r.failed += 1; -1 }
          i += 1
        }
        t += 1
      }
    }
    val queryS = seconds(t0)
    r.attempted += queryIds

    val hash = java.util.Arrays.hashCode(ids) * 31 +
      java.util.Arrays.deepHashCode(resolved.asInstanceOf[Array[AnyRef]])
    RoundOut(trainS, matchS, queryS, bytes, Workload.ga(resolved(GaThreshold), stream.stream.truth), hash)
  }

  def layerData: LayerData = LayerData(refresh.batch.lines, refresh.batch.truth, lines, stream.stream.truth,
    model, trained, previous, merged)

  def finish(r: Report): Unit = {
    r.check(matcher.modelWithTemporaries.size == queryModel.size,
      "a timed pass inserted temporaries the first pass did not")
    val matched = ids.map(queryModel.byId)
    val exact = matched.count(n => !n.temporary && !n.template.contains(CommonVariables.Wildcard))
    val temp = matched.count(_.temporary)
    r.check(temp > 0, "no stream line became a temporary")
    r.check(stream.stream.truth.indices.forall(i =>
      stream.stream.truth(i) < Inputs.NovelTruthBase || matched(i).temporary),
      "a novel-length line was matched to a trained template")
    r.note(f"match shares: exact ${exact.toDouble / ids.length}%.4f  " +
      f"wildcard ${(ids.length - exact - temp).toDouble / ids.length}%.4f  " +
      f"temporary ${temp.toDouble / ids.length}%.4f  (${queryModel.size - model.size} temporaries)")
  }
}

/** The Spark driver on a cached, highly duplicated topic. */
final class SparkHdfs(seed: Long, nproc: Int, work: Path) extends Workload {
  def threads: Int = nproc
  import Workload.seconds

  val name = "spark-hdfs"
  private val cfg = Inputs.cfg
  private val in = Inputs.hdfs(seed)
  def trainLines: Int = in.size
  def matchLines: Int = in.size
  def queryIds: Int = in.size * Thresholds.length
  val setupRepeats = 5
  val warmupRounds = 2
  /** One queryDf job per threshold; GA is read from the θ = 0.9 one. */
  val Thresholds: Array[Double] = Array(0.5, 0.8, 0.9, 0.95)

  private var spark: SparkSession = _
  private var df: DataFrame = _
  private var model: TemplateModel = _
  private var matched: DataFrame = _
  private lazy val truthSize: Map[Int, Long] =
    in.truth.groupBy(identity).map { case (t, xs) => t -> xs.length.toLong }

  def describe(r: Report): Unit = {
    r.note(s"topic ${Inputs.HdfsTopic.spec.name} (${Inputs.HdfsTopic.spec.numTemplates} templates), " +
      f"${in.size} lines, raw-unique ${in.rawUniqueShare}%.4f, Spark local[$nproc]")
  }

  def setup(): Unit = {
    close()
    spark = SparkBench.session(nproc, work)
    df = SparkBench.frame(spark, in.lines, in.truth)
  }

  override def sparkSession: Option[SparkSession] = Option(spark)

  def layerData: LayerData = LayerData(in.lines, in.truth, in.lines, in.truth, model, model, model, model)

  def round(r: Report, tr: Tracer): RoundOut = {
    var t0 = System.nanoTime()
    val m = tr.span("train: ByteBrain.train")(ByteBrain.train(spark, df, cfg))
    val trainS = seconds(t0)
    r.attempted += 1
    if (model == null) {
      model = m
      matched = SparkBench.matched(spark, model, df)
    }

    t0 = System.nanoTime()
    val hist = tr.span("match: ByteBrain.matchDf")(SparkBench.matchAgg(spark, model, df))
    val matchS = seconds(t0)
    r.attempted += in.size

    t0 = System.nanoTime()
    val groups = tr.span("query: ByteBrain.queryDf") {
      Thresholds.map(th => SparkBench.queryAgg(spark, model, matched, th))
    }
    val queryS = seconds(t0)
    r.attempted += queryIds

    // every line was in the training set, so a line without a template failed
    r.failed += hist.collectFirst { case Row(-1, c: Long) => c }.getOrElse(0L)
    val counts = (hist +: groups).map(_.map(row => (row.getInt(0), row.getLong(1))).sorted.toSeq)
    RoundOut(trainS, matchS, queryS, ModelCodec.serialize(m), ga(groups(Thresholds.indexOf(0.9))),
      counts.toSeq.hashCode)
  }

  /** GA from per-group (size, min truth, max truth): a group is correct when
    * it holds one truth template and all of that template's lines.
    */
  private def ga(groups: Array[Row]): Double = {
    val correct = groups.iterator.map { g =>
      val size = g.getLong(1); val lo = g.getInt(2); val hi = g.getInt(3)
      if (lo == hi && truthSize(lo) == size) size else 0L
    }.sum
    correct.toDouble / in.size
  }

  def finish(r: Report): Unit = {
    val local = ByteBrain.trainLocal(in.lines, cfg, nproc)
    r.check(java.util.Arrays.equals(ModelCodec.serialize(local), ModelCodec.serialize(model)),
      "ByteBrain.train and ByteBrain.trainLocal give different models on the same lines")
    r.note(s"model ${model.size} nodes")
  }

  override def close(): Unit = if (spark != null) {
    spark.stop()
    spark = null
  }
}

/** Spark session and the aggregates that force each Spark job. */
object SparkBench {
  private val cfg = Inputs.cfg

  def session(nproc: Int, work: Path): SparkSession =
    SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (nproc * 4).toString)
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("spark-warehouse").toString)
      .getOrCreate()

  /** A cached (message, truth_id) DataFrame, materialized. */
  def frame(spark: SparkSession, lines: Array[String], truth: Array[Int]): DataFrame = {
    import spark.implicits._
    val df = lines.indices.map(i => (lines(i), truth(i))).toDF("message", "truth_id").cache()
    df.count()
    df
  }

  /** Cached (template_id, truth_id) of every line, materialized. */
  def matched(spark: SparkSession, model: TemplateModel, df: DataFrame): DataFrame = {
    val m = ByteBrain.matchDf(spark, model, df, cfg).select(col("template_id"), col("truth_id")).cache()
    m.count()
    m
  }

  /** matchDf forced by a count per template id. */
  def matchAgg(spark: SparkSession, model: TemplateModel, df: DataFrame): Array[Row] =
    ByteBrain.matchDf(spark, model, df, cfg).groupBy(col("template_id")).agg(count(lit(1))).collect()

  /** queryDf forced by (count, min truth, max truth) per resolved template. */
  def queryAgg(spark: SparkSession, model: TemplateModel, matched: DataFrame, threshold: Double): Array[Row] =
    ByteBrain.queryDf(spark, model, matched, threshold).groupBy(col("query_template_id"))
      .agg(count(lit(1)), min(col("truth_id")), max(col("truth_id"))).collect()
}
