package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.util.concurrent.atomic.AtomicLong
import javax.management.NotificationEmitter
import javax.management.openmbean.CompositeData
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.sql.SparkSession

import repro.core._

/** Spans recorded around calls into the program's layers. Spans stay in
  * memory and are written out when the run ends. The disabled tracer only
  * evaluates the body, so traced and untraced rounds run the same calls.
  */
class Tracer {
  def span[T](name: String)(body: => T): T = body
}

object Tracer {
  val Off: Tracer = new Tracer
}

final case class Span(id: Int, parent: Int, name: String, start: Long, end: Long)

final class Recorder extends Tracer {
  val spans = mutable.ArrayBuffer.empty[Span]
  private var open = List.empty[Int]
  private var nextId = 0

  override def span[T](name: String)(body: => T): T = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val start = System.nanoTime()
    try body
    finally {
      spans += Span(id, parent, name, start, System.nanoTime())
      open = open.tail
    }
  }

  /** Total self time per span name: duration minus the time child spans cover. */
  def selfTimes: Seq[(String, Double)] = {
    val childNs = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.end - s.start)
    spans.groupBy(_.name).map { case (n, ss) =>
      n -> ss.map(s => s.end - s.start - childNs(s.id)).sum / 1e9
    }.toSeq.sortBy(-_._2)
  }

  def write(path: Path): Unit = {
    val lines = spans.sortBy(_.id).map(s =>
      s"""{"id": ${s.id}, "parent": ${s.parent}, "name": "${s.name}", "start_ns": ${s.start}, "end_ns": ${s.end}}""")
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

/** Allocation and GC counters of the JVM. Heap allocation across all
  * threads (short-lived pool threads included) is the heap growth plus what
  * every collection freed, taken from GC notifications.
  */
object JvmCounters {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val freed = new AtomicLong
  private val notified = new AtomicLong

  gcs.foreach(_.asInstanceOf[NotificationEmitter].addNotificationListener((n, _) => {
    if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
      val before = info.getMemoryUsageBeforeGc.values.asScala.map(_.getUsed).sum
      val after = info.getMemoryUsageAfterGc.values.asScala.map(_.getUsed).sum
      freed.addAndGet(before - after)
      notified.incrementAndGet()
    }
  }, null, null))

  private def gcCount: Long = gcs.map(_.getCollectionCount).sum

  def gcSeconds: Double = gcs.map(_.getCollectionTime).sum / 1e3

  /** Bytes the heap has allocated since start-up. */
  def heapAllocated: Long = {
    val deadline = System.nanoTime() + 500000000L
    while (notified.get < gcCount && System.nanoTime() < deadline) Thread.sleep(1)
    freed.get + ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Bytes the calling thread has allocated (exact, per thread). */
  def threadAllocated: Long = threads.getCurrentThreadAllocatedBytes
}

/** The traced run: tracing overhead on the workload's own rounds, then each
  * layer's public functions called one layer at a time, single-threaded, on
  * the workload's inputs, with counts taken where the work happens.
  */
object Trace {
  private val cfg = Inputs.cfg

  def run(w: Workload, r: Report, seconds: Double, work: Path): Unit = {
    val rec = new Recorder
    val t0 = System.nanoTime()
    overhead(w, r, rec, seconds * 0.4)
    rec.span("layers")(layers(w, r, rec))
    spark(w, r, rec, work)
    r.note(f"traced run took ${Workload.seconds(t0)}%.1f s; self time per span:")
    rec.selfTimes.foreach { case (n, s) => r.note(f"  $n%-36s $s%10.4f s") }
    val out = work.resolve(s"trace-${w.name}.jsonl")
    rec.write(out)
    r.note(s"${rec.spans.size} spans written to $out")
  }

  /** Untraced and traced rounds alternate, so both see the same machine. */
  private def overhead(w: Workload, r: Report, rec: Recorder, seconds: Double): Unit = {
    val plain = mutable.ArrayBuffer.empty[Double]
    val traced = mutable.ArrayBuffer.empty[Double]
    val gc = mutable.ArrayBuffer.empty[Double]
    val alloc = mutable.ArrayBuffer.empty[Double]
    val t0 = System.nanoTime()
    while (plain.size < 2 || Workload.seconds(t0) < seconds) {
      val gc0 = JvmCounters.gcSeconds; val a0 = JvmCounters.heapAllocated
      val p = w.round(r)
      gc += JvmCounters.gcSeconds - gc0; alloc += (JvmCounters.heapAllocated - a0).toDouble
      plain += p.trainS + p.matchS + p.queryS
      val t = rec.span("round")(w.round(r, rec))
      traced += t.trainS + t.matchS + t.queryS
    }
    val ov = Summary.of(traced).median / Summary.of(plain).median - 1
    r.note(f"tracing overhead ${ov * 100}%.2f%% over ${plain.size} untraced and ${traced.size} traced rounds")
    r.metric("trace.overhead", ov, "ratio")
    r.metric("jvm.gc_s", Summary.of(gc).median, "s")
    r.metric("jvm.alloc_bytes", Summary.of(alloc).median, "B")
  }

  private def perLine(ns: Long, n: Int): Double = ns.toDouble / math.max(1, n)

  /** Time and allocation of `body` on the calling thread. */
  private def measure[T](rec: Recorder, name: String)(body: => T): (T, Long, Long) = {
    val a0 = JvmCounters.threadAllocated
    val t0 = System.nanoTime()
    val out = rec.span(name)(body)
    (out, System.nanoTime() - t0, JvmCounters.threadAllocated - a0)
  }

  private def layers(w: Workload, r: Report, rec: Recorder): Unit = {
    val d = w.layerData
    val tokenizer = new Tokenizer(cfg.tokenizerRegex)

    // preprocessing, on the lines the workload matches
    val lines = d.matchLines
    val (replaced, cvNs, cvAlloc) =
      measure(rec, "CommonVariables.replace")(lines.map(CommonVariables.replace(_, cfg.variablePatterns)))
    r.metric("CommonVariables.ns_per_line", perLine(cvNs, lines.length), "ns")
    r.metric("CommonVariables.alloc_bytes_per_line", cvAlloc.toDouble / lines.length, "B")
    val (tokens, tkNs, tkAlloc) = measure(rec, "Tokenizer.tokenize")(replaced.map(tokenizer.tokenize))
    r.metric("Tokenizer.ns_per_line", perLine(tkNs, lines.length), "ns")
    r.metric("Tokenizer.alloc_bytes_per_line", tkAlloc.toDouble / lines.length, "B")

    val trained = rec.span("train")(train(d, r, rec, tokenizer))
    matching(d, r, rec, tokens)
    merge(d, trained, r, rec)

    val codecNs = (1 to 5).map(_ => measure(rec, "ModelCodec.serialize")(ModelCodec.serialize(d.stored))._2)
    val bytes = ModelCodec.serialize(d.stored)
    val decodeNs = (1 to 5).map(_ => measure(rec, "ModelCodec.deserialize")(ModelCodec.deserialize(bytes))._2)
    r.check(java.util.Arrays.equals(ModelCodec.serialize(ModelCodec.deserialize(bytes)), bytes),
      "model codec round trip changed the model")
    r.metric("ModelCodec.serialize_ms", Summary.of(codecNs.map(_ / 1e6)).median, "ms")
    r.metric("ModelCodec.deserialize_ms", Summary.of(decodeNs.map(_ / 1e6)).median, "ms")
  }

  /** trainLocal's steps called one by one (dedup, grouping, hash encoding,
    * per-group clustering, assembly); the result must equal trainLocal's.
    */
  private def train(d: LayerData, r: Report, rec: Recorder, tokenizer: Tokenizer): TemplateModel = {
    val lines = d.trainLines
    val tokens = rec.span("preprocess")(lines.map(ByteBrain.preprocess(_, cfg, tokenizer)))
    val counts = rec.span("dedup") {
      val m = mutable.LinkedHashMap.empty[String, (Array[String], Long)]
      tokens.foreach { t =>
        if (t.nonEmpty) m.updateWith(t.mkString(" ")) {
          case Some((k, c)) => Some((k, c + 1))
          case None         => Some((t, 1L))
        }
      }
      m
    }
    r.metric("dedup.raw_unique_share", lines.distinct.length.toDouble / lines.length, "ratio")
    r.metric("dedup.token_unique_share", counts.size.toDouble / lines.length, "ratio")

    val (uniques, heNs, _) = measure(rec, "HashEncoder.encode")(
      counts.valuesIterator.map { case (t, c) => UniqueLog(t, HashEncoder.encode(t), c, 0L) }.toVector)
    r.metric("HashEncoder.ns_per_line", perLine(heNs, uniques.size), "ns")

    val groups = rec.span("grouping") {
      val g = mutable.LinkedHashMap.empty[(Int, List[String]), mutable.ArrayBuffer[UniqueLog]]
      uniques.foreach { u =>
        g.getOrElseUpdate((u.tokens.length, u.tokens.take(cfg.prefixTokens).toList), mutable.ArrayBuffer.empty) += u
      }
      g
    }
    r.metric("grouping.groups", groups.size.toDouble, "count")
    r.metric("grouping.max_group_uniques", groups.valuesIterator.map(_.size).max.toDouble, "count")

    val perGroup = mutable.ArrayBuffer.empty[((Int, List[String]), Double)]
    val nodes = rec.span("HierarchicalClustering.buildGroupTree") {
      groups.toSeq.flatMap { case (key @ (len, prefix), logs) =>
        val t0 = System.nanoTime()
        val tree = HierarchicalClustering.buildGroupTree(GroupKey(len, prefix), logs.toIndexedSeq, cfg)
        perGroup += key -> Workload.seconds(t0)
        tree.map(n => LocalNode(len, prefix, n.id, n.parentId, n.template, n.saturation,
          n.effectiveSaturation, n.depth, n.count))
      }
    }
    val (slowKey, slowS) = perGroup.maxBy(_._2)
    r.metric("HierarchicalClustering.s_sum", perGroup.map(_._2).sum, "s")
    r.metric("HierarchicalClustering.s_max_group", slowS, "s")
    r.note(s"slowest group: ${slowKey._1} tokens, prefix [${slowKey._2.mkString(" ")}], " +
      s"${groups(slowKey).size} unique logs")
    r.metric("HierarchicalClustering.nodes", nodes.size.toDouble, "count")

    val (model, asNs, _) = measure(rec, "Trainer.assemble")(Trainer.assemble(nodes))
    r.metric("Trainer.assemble_ms", asNs / 1e6, "ms")
    r.check(java.util.Arrays.equals(ModelCodec.serialize(model), ModelCodec.serialize(d.trained)),
      "the layer-by-layer training differs from ByteBrain.trainLocal")
    model
  }

  private def matching(d: LayerData, r: Report, rec: Recorder, tokens: Array[Array[String]]): Unit = {
    val model = d.matchModel
    val compileNs = (1 to 5).map(_ => measure(rec, "CompiledMatcher.compile")(new CompiledMatcher(model))._2)
    r.metric("CompiledMatcher.compile_ms", Summary.of(compileNs.map(_ / 1e6)).median, "ms")
    val cm = new CompiledMatcher(model)

    val (hits, mNs, _) = measure(rec, "CompiledMatcher.matchTokens")(tokens.map(cm.matchTokens))
    r.metric("CompiledMatcher.ns_per_line", perLine(mNs, tokens.length), "ns")
    val lat = new Array[Long](tokens.length)
    rec.span("CompiledMatcher.matchTokens (per-line timed)") {
      var i = 0
      while (i < tokens.length) {
        val t0 = System.nanoTime(); cm.matchTokens(tokens(i)); lat(i) = System.nanoTime() - t0
        i += 1
      }
    }
    java.util.Arrays.sort(lat)
    r.metric("CompiledMatcher.p99_ns", lat(math.min(lat.length - 1, (lat.length * 0.99).toInt)).toDouble, "ns")

    val isExact = (n: TemplateNode) => !n.template.contains(CommonVariables.Wildcard)
    val exact = hits.count(_.exists(isExact))
    val miss = hits.count(_.isEmpty)
    r.metric("CompiledMatcher.exact_share", exact.toDouble / tokens.length, "ratio")
    r.metric("CompiledMatcher.wildcard_share", (tokens.length - exact - miss).toDouble / tokens.length, "ratio")
    r.metric("CompiledMatcher.miss_share", miss.toDouble / tokens.length, "ratio")
    // wildcard templates tried per line, in model.byLength's match order
    val wildcards = model.byLength.map { case (len, ns) => len -> ns.filterNot(isExact) }
    val scanned = tokens.indices.iterator.map { i =>
      if (hits(i).exists(isExact)) 0
      else {
        val ts = wildcards.getOrElse(tokens(i).length, IndexedSeq.empty)
        val at = ts.indexWhere(_.matches(tokens(i)))
        if (at < 0) ts.size else at + 1
      }
    }.sum
    r.metric("CompiledMatcher.wildcard_candidates_per_line", scanned.toDouble / tokens.length, "count")

    val om = new OnlineMatcher(model)
    val ids = rec.span("OnlineMatcher.matchOrInsert")(tokens.map(om.matchOrInsert(_).id))
    val withTemps = om.modelWithTemporaries
    r.metric("OnlineMatcher.temporaries", (withTemps.size - model.size).toDouble, "count")

    val (_, qNs, _) = measure(rec, "Query.resolve")(ids.map(Query.resolve(withTemps, _, 0.9)))
    r.metric("Query.ns_per_resolve", perLine(qNs, ids.length), "ns")
    r.metric("Query.chain_len_mean", ids.iterator.map(withTemps.ancestry(_).length.toLong).sum.toDouble / ids.length, "count")
  }

  /** Merge.merge of the freshly trained model into the previous one. */
  private def merge(d: LayerData, trained: TemplateModel, r: Report, rec: Recorder): Unit = {
    val (old, fresh) = (d.previous, trained)
    val (merged, ns, _) = measure(rec, "Merge.merge")(Merge.merge(old, fresh, cfg))
    r.metric("Merge.ms", ns / 1e6, "ms")
    val oldKeys = old.nodes.map(_.groupKey).toSet
    val adopted = fresh.nodes.count(n => !oldKeys.contains(n.groupKey))
    val leavesInOld = fresh.leaves.count(n => oldKeys.contains(n.groupKey))
    val attached = merged.size - old.size - adopted
    r.metric("Merge.merged_leaf_share", (leavesInOld - attached).toDouble / fresh.leaves.size, "ratio")
  }

  /** The Spark driver's train, match and query jobs on the workload's lines,
    * with stage, shuffle and task-CPU counts from a listener.
    */
  private def spark(w: Workload, r: Report, rec: Recorder, work: Path): Unit = {
    val owned = w.sparkSession.isEmpty
    val s = w.sparkSession.getOrElse(rec.span("SparkSession")(SparkBench.session(w.threads, work)))
    try {
      val listener = new org.apache.spark.PerfbenchListener
      s.sparkContext.addSparkListener(listener)
      val d = w.layerData
      val (trainDf, matchDf) = rec.span("spark.cache") {
        val a = SparkBench.frame(s, d.trainLines, d.trainTruth)
        val b = if (d.matchLines eq d.trainLines) a else SparkBench.frame(s, d.matchLines, d.matchTruth)
        (a, b)
      }
      val passes = if (owned) 1 else 2
      val train = mutable.ArrayBuffer.empty[Double]
      val mtch = mutable.ArrayBuffer.empty[Double]
      val query = mutable.ArrayBuffer.empty[Double]
      listener.reset(s)
      for (_ <- 1 to passes) {
        var t0 = System.nanoTime()
        val model = rec.span("ByteBrain.train")(ByteBrain.train(s, trainDf, cfg))
        train += Workload.seconds(t0)
        t0 = System.nanoTime()
        val matched = rec.span("ByteBrain.matchDf")(SparkBench.matchAgg(s, model, matchDf))
        mtch += Workload.seconds(t0)
        val ids = listener.uncounted(s)(rec.span("spark.cache")(SparkBench.matched(s, model, matchDf)))
        t0 = System.nanoTime()
        rec.span("ByteBrain.queryDf")(SparkBench.queryAgg(s, model, ids, 0.9))
        query += Workload.seconds(t0)
        ids.unpersist()
        r.check(matched.nonEmpty, "matchDf returned no rows")
      }
      listener.drain(s)
      r.metric("spark.train_s", Summary.of(train).median, "s")
      r.metric("spark.match_s", Summary.of(mtch).median, "s")
      r.metric("spark.query_s", Summary.of(query).median, "s")
      r.metric("spark.shuffle_write_bytes", listener.shuffleBytes.get.toDouble / passes, "B")
      r.metric("spark.task_cpu_s", listener.cpuNs.get / 1e9 / passes, "s")
      r.metric("spark.stages", listener.stages.get.toDouble / passes, "count")
      s.sparkContext.removeSparkListener(listener)
    } finally if (owned) s.stop()
  }
}
