package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.util.Random

/** Hierarchical clustering of one initial group into a template tree (§4.3).
  *
  * The group is the root; nodes whose saturation is below the stop threshold
  * are split by [[SingleClustering]] and the children recursed into. Node ids
  * are local to the group (0 = root); [[Trainer]] re-bases them globally.
  */
object HierarchicalClustering {

  def buildGroupTree(
      groupKey: GroupKey,
      unordered: IndexedSeq[UniqueLog],
      cfg: ByteBrainConfig,
  ): Vector[TemplateNode] = {
    require(unordered.nonEmpty, "empty initial group")
    // canonical order: Spark's groupByKey yields logs in partition order, the
    // local path in insertion order — sorting makes the seeded clustering
    // identical in both (distributed == local training, pinned by tests).
    // Token arrays compare element-wise: a joined-string key would be
    // ambiguous, since tokens may contain any separator.
    val logs = unordered.sortBy(l => ArraySeq.unsafeWrapArray(l.tokens): Seq[String])(
      Ordering.Implicits.seqOrdering[Seq, String]).toArray
    val m = groupKey.numTokens
    val rng = new Random(cfg.seed ^ groupKey.hashCode().toLong)
    val out = mutable.ArrayBuffer.empty[TemplateNode]
    var nextId = 0

    final case class Work(logIdx: Array[Int], parentId: Int, parentEffSat: Double, depth: Int)

    val stack = mutable.Stack(Work(logs.indices.toArray, -1, 0.0, 0))
    while (stack.nonEmpty) {
      val w = stack.pop()
      // array-backed: clustering indexes the node's logs in its inner loops
      val nodeLogs = ArraySeq.unsafeWrapArray(w.logIdx.map(logs(_)))
      val stats = ClusterStats.of(nodeLogs, m)
      val analysis = Saturation.analyze(nodeLogs, stats, cfg)
      val sat = analysis.score
      val effSat = math.max(sat, w.parentEffSat)
      val id = nextId
      nextId += 1
      out += TemplateNode(
        id = id,
        parentId = w.parentId,
        groupKey = groupKey,
        template = renderTemplate(nodeLogs, stats),
        saturation = sat,
        effectiveSaturation = effSat,
        depth = w.depth,
        count = stats.totalCount,
      )

      val saturated = sat >= cfg.stopThreshold - 1e-9
      if (!saturated && nodeLogs.size > 1 && w.depth < cfg.maxDepth) {
        SingleClustering.split(nodeLogs, stats, analysis, cfg, rng) match {
          case Some(children) if children.size > 1 =>
            children.foreach { child =>
              stack.push(Work(child.iterator.map(w.logIdx(_)).toArray, id, effSat, w.depth + 1))
            }
          case _ => // no meaningful split — leaf
        }
      }
    }
    out.toVector
  }

  /** Template text of a node: the shared token at constant positions, the
    * wildcard elsewhere.
    */
  def renderTemplate(nodeLogs: IndexedSeq[UniqueLog], stats: ClusterStats): IndexedSeq[String] = {
    val rep = nodeLogs.head.tokens
    (0 until stats.numPositions).map { i =>
      if (stats.isConstant(i)) rep(i) else CommonVariables.Wildcard
    }
  }
}
