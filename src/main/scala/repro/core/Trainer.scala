package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** One node of a group's tree, as [[Trainer.trainGroup]] returns it and
  * [[Trainer.assemble]] takes it: ids are local to the initial group and
  * re-based globally by `assemble`. perfbench builds these too.
  */
final case class LocalNode(
    groupLen: Int,
    groupPrefix: Seq[String],
    localId: Int,
    parentLocalId: Int,
    template: Seq[String],
    saturation: Double,
    effectiveSaturation: Double,
    depth: Int,
    count: Long,
)

/** Offline training (paper §3 "Offline Training", §4.1–4.7): the training
  * core shared by both drivers, and the Spark driver.
  *
  * Both drivers run the same steps: deduplicate raw lines, preprocess only
  * the unique lines into (tokens, count) rows, group the rows by
  * [[groupKey]], split the sampling cap across the groups by [[groupQuotas]],
  * run [[trainGroup]] on every group and [[assemble]] the nodes. The Spark
  * dataflow:
  *
  *  1. raw-line deduplication — `groupBy(message).count()` (§4.1.3), the
  *     first shuffle;
  *  2. common variable replacement + tokenization of the unique lines —
  *     `mapPartitions` with one [[Tokenizer]] per partition (§4.1.1–4.1.2),
  *     each row keyed by its initial group (§4.2);
  *  3. `partitionBy` the group key — the second and last shuffle;
  *  4. the group totals — `reduceByKey` on that partitioning, collected for
  *     [[groupQuotas]];
  *  5. [[trainGroup]] on every group — `groupByKey` on the same
  *     partitioning, so this job reads the shuffle output step 4 wrote;
  *     groups are independent, so Spark parallelizes them across cores
  *     exactly as §3 "Parallel" describes;
  *  6. the collected nodes are re-based to global ids by [[assemble]].
  *
  * A topic over `cfg.sampleMaxLogs` lines is sampled down to exactly that
  * many to bound memory (§3): [[groupQuotas]] splits the cap across groups,
  * [[trainGroup]] splits each group's quota across its unique logs.
  */
object Trainer {

  def train(spark: SparkSession, logs: DataFrame, cfg: ByteBrainConfig,
            messageCol: String = "message"): TemplateModel = {
    val raw =
      if (cfg.dedup) logs.groupBy(col(messageCol)).count()
      else logs.select(col(messageCol), lit(1L))
    val partitioner = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
    val rows = raw.rdd.mapPartitions { it =>
      val tokenizer = new Tokenizer(cfg.tokenizerRegex)
      it.map(r => (ByteBrain.preprocess(r.getString(0), cfg, tokenizer), r.getLong(1)))
        .collect { case row @ (t, _) if t.nonEmpty => (groupKey(ArraySeq.unsafeWrapArray(t), cfg), row) }
    }.partitionBy(partitioner)
    val quotas = groupQuotas(rows.mapValues(_._2).reduceByKey(partitioner, _ + _).collect().toSeq, cfg)
    assemble(rows.groupByKey(partitioner)
      .flatMap { case (key, rs) => trainGroup(key, rs.iterator, quotas.getOrElse(key, 0L), cfg) }
      .collect().toSeq)
  }

  /** Initial-grouping key of a token sequence (§4.2). */
  def groupKey(tokens: Seq[String], cfg: ByteBrainConfig): GroupKey =
    GroupKey(tokens.length, tokens.take(cfg.prefixTokens).toList)

  /** Sampling quota of every group (§3): the group totals themselves while
    * the topic fits `cfg.sampleMaxLogs`, else the cap split across groups in
    * proportion to their totals by [[apportion]]. Groups that get nothing
    * are left out.
    */
  def groupQuotas(totals: Seq[(GroupKey, Long)], cfg: ByteBrainConfig): Map[GroupKey, Long] =
    if (totals.iterator.map(_._2).sum <= cfg.sampleMaxLogs) totals.toMap
    else apportion(totals.toIndexedSeq, cfg.sampleMaxLogs, cfg.seed)(k => k.numTokens.toString +: k.prefix).toMap

  /** The per-group training step both drivers run, over the group's
    * (tokens, count) rows in any order: token-level dedup (§4.1.3; the rows
    * stay as they are under `dedup = false`), sampling down to `quota` lines,
    * hash encoding and hierarchical clustering (§4.3–4.7).
    */
  def trainGroup(key: GroupKey, rows: Iterator[(Array[String], Long)], quota: Long,
                 cfg: ByteBrainConfig): Seq[LocalNode] = {
    val deduped: IndexedSeq[(Array[String], Long)] =
      if (!cfg.dedup) rows.toIndexedSeq
      else {
        val counts = mutable.HashMap.empty[Seq[String], Long]
        rows.foreach { case (t, c) =>
          counts.updateWith(ArraySeq.unsafeWrapArray(t))(prev => Some(prev.getOrElse(0L) + c))
        }
        counts.iterator.map { case (t, c) => (t.toArray, c) }.toIndexedSeq
      }
    val sampled =
      if (deduped.iterator.map(_._2).sum <= quota) deduped
      else apportion(deduped, quota, cfg.seed)(t => ArraySeq.unsafeWrapArray(t))
    if (sampled.isEmpty) Seq.empty
    else HierarchicalClustering.buildGroupTree(key, sampled.map { case (t, c) => UniqueLog(t, c) }, cfg)
      .map { n =>
        LocalNode(key.numTokens, key.prefix, n.id, n.parentId, n.template, n.saturation,
          n.effectiveSaturation, n.depth, n.count)
      }
  }

  /** Exact proportional apportionment by largest remainder: item i of weight
    * w_i out of W gets ⌊w_i·target/W⌋, and the units still missing from
    * `target` go one each to the largest remainders, ties broken by a seeded
    * hash of the item's tokens, then by the tokens. Items that get nothing
    * are dropped. The result sums to exactly `target` (< W) and depends only
    * on the set of items, not their order.
    */
  private[core] def apportion[K](items: IndexedSeq[(K, Long)], target: Long, seed: Long)(
      tokensOf: K => Seq[String]): IndexedSeq[(K, Long)] = {
    val total = BigInt(items.iterator.map(_._2).sum)
    val shares = items.map { case (k, w) =>
      val (q, r) = (BigInt(w) * target) /% total
      (k, q.toLong, r.toLong)
    }
    val missing = (target - shares.iterator.map(_._2).sum).toInt
    val order = Ordering.Tuple3(Ordering.Long, Ordering.Long, Ordering.Implicits.seqOrdering[Seq, String])
    val extra = shares.indices
      .sortBy { i => val (k, _, r) = shares(i); (-r, tieHash(tokensOf(k), seed), tokensOf(k)) }(order)
      .take(missing).toSet
    shares.indices.iterator
      .map { i => (shares(i)._1, shares(i)._2 + (if (extra(i)) 1L else 0L)) }
      .filter(_._2 > 0).toIndexedSeq
  }

  private def tieHash(tokens: Seq[String], seed: Long): Long = {
    // murmur finalizer: FNV's raw high bits are not uniform enough
    var h = HashEncoder.hash64(tokens.mkString(" ") + seed)
    h ^= h >>> 33; h *= 0xff51afd7ed558ccdL
    h ^= h >>> 33; h *= 0xc4ceb9fe1a85ec53L
    h ^ (h >>> 33)
  }

  /** Re-base per-group local ids into one global id space (deterministic:
    * groups ordered by key, nodes by local id).
    */
  def assemble(localNodes: Seq[LocalNode]): TemplateModel = {
    val byGroup = localNodes.groupBy(n => (n.groupLen, n.groupPrefix.toList)).toSeq.sortBy(_._1.toString)
    var offset = 0
    val nodes = byGroup.flatMap { case ((len, prefix), ns) =>
      val sortedNs = ns.sortBy(_.localId)
      val base = offset
      offset += sortedNs.size
      sortedNs.map { n =>
        TemplateNode(
          id = base + n.localId,
          parentId = if (n.parentLocalId < 0) -1 else base + n.parentLocalId,
          groupKey = GroupKey(len, prefix),
          template = n.template.toIndexedSeq,
          saturation = n.saturation,
          effectiveSaturation = n.effectiveSaturation,
          depth = n.depth,
          count = n.count,
        )
      }
    }
    new TemplateModel(nodes.toVector)
  }
}
