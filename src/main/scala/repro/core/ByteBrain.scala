package repro.core

import java.util.concurrent.{Callable, ExecutorService, Executors, TimeUnit}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.reflect.runtime.universe.TypeTag

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** End-to-end ByteBrain facade.
  *
  * `train`/`matchDf` are the distributed Spark paths (the repro target);
  * `trainLocal`/`parseLocal` are driver-local equivalents, sharing
  * [[Trainer]]'s per-group training step, used by the
  * per-dataset accuracy and throughput benches — the paper's own evaluation
  * harness is likewise single-machine (§5.3), with groups clustered on a
  * small thread pool (§3 "Parallel": 1–5 cores in production).
  */
object ByteBrain {

  // ---------------------------------------------------------------- local path

  /** Preprocess one message: common variable replacement + tokenization.
    * A null message has no tokens, like an empty one.
    */
  def preprocess(message: String, cfg: ByteBrainConfig, tokenizer: Tokenizer): Array[String] =
    if (message == null) Array.empty
    else tokenizer.tokenize(CommonVariables.replace(message, cfg.variablePatterns))

  /** Offline training on an in-memory batch (dedup → preprocess → group →
    * sample → cluster), the local twin of [[Trainer.train]]. Preprocessing
    * and clustering share one pool of `parallelism` threads.
    */
  def trainLocal(messages: IterableOnce[String], cfg: ByteBrainConfig,
                 parallelism: Int = Runtime.getRuntime.availableProcessors()): TemplateModel = {
    val (uniques, counts, _) = rawUniques(messages.iterator.toIndexedSeq)
    withPool(parallelism) { pool =>
      trainRows(preprocessAll(uniques, cfg, pool, parallelism), counts, cfg, pool)
    }
  }

  /** Train + match a batch locally, returning the model and the matched
    * template id per input message (the grouping the GA metric scores), −1
    * for messages without tokens. Raw lines are deduplicated first (§4.1.3),
    * so each unique line is preprocessed and matched once: log streams are
    * massively repetitive (paper Fig. 4), which makes this a key part of
    * ByteBrain's measured throughput edge over per-line streaming parsers.
    * Matching stays on the calling thread: temporary ids follow input order.
    */
  def parseLocal(lines: IndexedSeq[String], cfg: ByteBrainConfig,
                 parallelism: Int = Runtime.getRuntime.availableProcessors()): (TemplateModel, Array[Int]) = {
    val (uniques, counts, uniqueOf) = rawUniques(lines)
    val (tokens, model) = withPool(parallelism) { pool =>
      val tokens = preprocessAll(uniques, cfg, pool, parallelism)
      (tokens, trainRows(tokens, counts, cfg, pool))
    }
    val matcher = new OnlineMatcher(model)
    val matched = tokens.map(t => if (t.isEmpty) -1 else matcher.matchOrInsert(t).id)
    (model, uniqueOf.map(matched))
  }

  /** Raw-line dedup (§4.1.3): the distinct lines in first-seen order, the
    * count of each, and every input line's index into them.
    */
  private def rawUniques(lines: IndexedSeq[String]): (IndexedSeq[String], Array[Long], Array[Int]) = {
    val uniques = mutable.ArrayBuffer.empty[String]
    val counts = mutable.ArrayBuffer.empty[Long]
    val index = mutable.HashMap.empty[String, Int]
    val uniqueOf = lines.iterator.map { line =>
      val id = index.getOrElseUpdate(line, { uniques += line; counts += 0L; uniques.size - 1 })
      counts(id) += 1L
      id
    }.toArray
    (uniques.toIndexedSeq, counts.toArray, uniqueOf)
  }

  /** Preprocessing tasks per pool thread, so a slow range does not hold up
    * the rest; and the fewest lines a task gets, so small batches stay in
    * one or a few tasks.
    */
  private val ChunksPerThread = 4
  private[core] val MinChunkLines = 256

  /** [[preprocess]] of every message, in order, on `pool`: the messages are
    * split into contiguous index ranges, each preprocessed by one task with
    * its own [[Tokenizer]] into its slots of the result.
    */
  private def preprocessAll(messages: IndexedSeq[String], cfg: ByteBrainConfig,
                            pool: ExecutorService, parallelism: Int): Array[Array[String]] = {
    val n = messages.length
    val out = new Array[Array[String]](n)
    val chunks = math.max(1, math.min(ChunksPerThread * math.max(1, parallelism), n / MinChunkLines))
    runAll(pool, (0 until chunks).map { c =>
      val from = (n.toLong * c / chunks).toInt
      val until = (n.toLong * (c + 1) / chunks).toInt
      () => {
        val tokenizer = new Tokenizer(cfg.tokenizerRegex)
        var i = from
        while (i < until) {
          out(i) = preprocess(messages(i), cfg, tokenizer)
          i += 1
        }
      }
    })
    out
  }

  /** Trains on preprocessed rows and their counts: rows without tokens are
    * dropped, the rest grouped (§4.2) and every group trained by
    * [[Trainer.trainGroup]] on `pool` (§3 "Parallel").
    */
  private def trainRows(tokens: Array[Array[String]], counts: Array[Long], cfg: ByteBrainConfig,
                        pool: ExecutorService): TemplateModel = {
    val groups = tokens.iterator.zip(counts).filter(_._1.nonEmpty).toSeq
      .groupBy { case (t, _) => Trainer.groupKey(ArraySeq.unsafeWrapArray(t), cfg) }
    val quotas = Trainer.groupQuotas(groups.iterator.map { case (k, rs) => k -> rs.map(_._2).sum }.toSeq, cfg)
    Trainer.assemble(runAll(pool, groups.toSeq.map { case (key, rs) =>
      () => Trainer.trainGroup(key, rs.iterator, quotas.getOrElse(key, 0L), cfg)
    }).flatten)
  }

  /** A fixed pool of `parallelism` threads (at least one) for `body`, shut
    * down and drained when `body` returns or throws.
    */
  private def withPool[A](parallelism: Int)(body: ExecutorService => A): A = {
    val pool = Executors.newFixedThreadPool(math.max(1, parallelism))
    try body(pool)
    finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }

  /** Runs every task on `pool` and returns their results in task order once
    * all have ended; a task's exception surfaces from `Future.get` as an
    * `ExecutionException`.
    */
  private def runAll[A](pool: ExecutorService, tasks: Seq[() => A]): Seq[A] =
    pool.invokeAll(tasks.map(t => new Callable[A] { override def call(): A = t() }).asJava)
      .asScala.toSeq.map(_.get())

  // ---------------------------------------------------------------- spark path

  /** Distributed training (see [[Trainer]]). */
  def train(spark: SparkSession, logs: DataFrame, cfg: ByteBrainConfig,
            messageCol: String = "message"): TemplateModel =
    Trainer.train(spark, logs, cfg, messageCol)

  /** Online matching as a Spark job: broadcast the compiled model and map
    * every log to (templateId, saturation, templateText). Unmatched logs get
    * templateId −1, saturation 0 and no text (they would become temporary
    * singletons in the service).
    *
    * Each task preprocesses and matches each distinct line once: the match
    * UDF answers repeats from its [[MatchMemo]] and returns only the id. The
    * saturation and text columns are looked up from that id, so Catalyst
    * drops them when a caller reads only `template_id`.
    */
  def matchDf(spark: SparkSession, model: TemplateModel, logs: DataFrame, cfg: ByteBrainConfig,
              messageCol: String = "message"): DataFrame = {
    val bc = spark.sparkContext.broadcast(new CompiledMatcher(model))
    // shipped inside the UDF's closure: one instance of each per task, not per row
    val tokenizer = new Tokenizer(cfg.tokenizerRegex)
    val memo = new MatchMemo(msg => bc.value.matchTokens(preprocess(msg, cfg, tokenizer)).fold(-1)(_.id))
    val matchUdf = udf((msg: String) => memo(msg))
    val nodes = model.nodeAt
    val id = col("template_id")
    logs.withColumn("template_id", matchUdf(col(messageCol)))
      .withColumn("saturation", byTemplateId(spark, model, nodes.map(n => Double.box(n.effectiveSaturation)),
        Double.box(0.0))(id))
      .withColumn("template", byTemplateId(spark, model, nodes.map(_.templateText), null: String)(id))
  }

  /** Query-time precision adjustment over a matched DataFrame: map each
    * matched template id to the coarsest ancestor meeting `threshold` (§3
    * "Query") and its §7 display text. Every model node is resolved once on
    * the driver; tasks look both columns up by id, so a caller that reads only
    * `query_template_id` never builds the text.
    */
  def queryDf(spark: SparkSession, model: TemplateModel, matched: DataFrame,
              threshold: Double): DataFrame = {
    val resolved = model.nodeAt.map(n => Query.resolve(model, n.id, threshold))
    val id = col("template_id")
    matched
      .withColumn("query_template_id", byTemplateId(spark, model, resolved.map(q => Int.box(q.id)),
        Int.box(-1))(id))
      .withColumn("query_template", byTemplateId(spark, model,
        resolved.map(q => Query.mergeConsecutiveWildcards(q.template).mkString(" ")), null: String)(id))
  }

  /** The column of `values(p)` for each template id in `id`, where `p` is the
    * id's node position in `model.nodeAt` and `values` holds one entry
    * per node in that order; `none` for a negative id (no match), and a
    * `NoSuchElementException` for an id the model lacks. The id → position
    * table and `values` are broadcast, so a task only indexes them.
    */
  private def byTemplateId[A <: AnyRef : TypeTag](spark: SparkSession, model: TemplateModel,
                                                 values: Array[A], none: A)(id: Column): Column = {
    val bc = spark.sparkContext.broadcast((model.positionOf, values))
    val lookup = udf { (templateId: Int) =>
      if (templateId < 0) none
      else {
        val (position, byPosition) = bc.value
        byPosition(position.of(templateId))
      }
    }
    lookup(id)
  }
}
