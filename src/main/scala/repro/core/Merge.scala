package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Merging a newly trained model into the previous one (paper §3: "The newly
  * trained model is merged with the previous one. Templates with similarity
  * scores above a given threshold are merged; otherwise, they remain separate
  * child nodes.").
  *
  * Template similarity is the fraction of positions that agree (equal tokens,
  * or a wildcard on either side). New leaf templates that merge into an old
  * node just add their counts there; the rest are attached as children of the
  * old group root (or the whole new group tree is adopted when the group key
  * is unseen). The old model's temporaries (online singletons, §3) take no
  * part in that: one that the new model matches is dropped, the others are
  * kept as they are.
  */
object Merge {

  /** Fraction of agreeing positions between two same-length templates. */
  def templateSimilarity(a: IndexedSeq[String], b: IndexedSeq[String]): Double =
    similarity(agreeing(a, b), a.length)

  private def similarity(same: Int, length: Int): Double =
    if (length == 0) 1.0 else same.toDouble / length

  def merge(oldModel: TemplateModel, newModel: TemplateModel, cfg: ByteBrainConfig): TemplateModel = {
    if (oldModel.nodes.isEmpty) return newModel
    if (newModel.nodes.isEmpty) return oldModel

    // an old temporary that the new model matches is dropped: its log is learned
    lazy val matcher = new CompiledMatcher(newModel)
    val kept = oldModel.nodes.filter(n => !n.temporary || matcher.matchTokens(n.template.toArray).isEmpty)
    val merged = mutable.LinkedHashMap.from(kept.map(n => n.id -> n))
    var nextId = math.max(oldModel.nextId, newModel.nextId)

    // temporaries are neither merge targets nor group roots
    val oldGroups: Map[GroupKey, IndexedSeq[TemplateNode]] =
      oldModel.nodes.filterNot(_.temporary).groupBy(_.groupKey)
    val newLeaves: Map[GroupKey, IndexedSeq[TemplateNode]] = newModel.leaves.groupBy(_.groupKey)

    newModel.nodes.groupBy(_.groupKey).foreach { case (gk, newNodes) =>
      oldGroups.get(gk) match {
        case None =>
          // unseen group: adopt the whole new tree under fresh ids
          val idMap = newNodes.map(_.id).map { oid => oid -> { val i = TemplateModel.freshId(nextId); nextId += 1; i } }.toMap
          newNodes.foreach { n =>
            val nn = n.copy(
              id = idMap(n.id),
              parentId = if (n.isRoot) -1 else idMap(n.parentId),
              temporary = false,
            )
            merged.put(nn.id, nn)
          }

        case Some(oldNodes) =>
          val oldRoot = oldNodes.minBy(_.depth)
          val old = new OldGroup(oldNodes)
          newLeaves.getOrElse(gk, Nil).foreach { leaf =>
            val (bestIndex, sim) = old.best(leaf.template)
            if (sim >= cfg.mergeThreshold) {
              val best = oldNodes(bestIndex)
              // add to the node as merged so far: earlier leaves may have landed there
              val cur = merged(best.id)
              merged.update(best.id, cur.copy(count = cur.count + leaf.count))
            } else {
              val nn = leaf.copy(
                id = TemplateModel.freshId(nextId),
                parentId = oldRoot.id,
                depth = oldRoot.depth + 1,
                effectiveSaturation = math.max(leaf.saturation, oldRoot.effectiveSaturation),
                temporary = false,
              )
              nextId += 1
              merged.put(nn.id, nn)
            }
          }
      }
    }
    new TemplateModel(merged.values.toVector)
  }

  /** One old group's templates as arrays, with each node's wildcard count
    * and depth, built once for the scans of all new leaves in the group.
    */
  private[core] final class OldGroup(nodes: IndexedSeq[TemplateNode]) {
    private val templates: Array[ArraySeq[String]] =
      nodes.iterator.map(n => ArraySeq.unsafeWrapArray(n.template.toArray)).toArray
    private val wildcards: Array[Int] = templates.map(_.count(_ == CommonVariables.Wildcard))
    private val depths: Array[Int] = nodes.iterator.map(_.depth).toArray

    /** Index of the node most similar to `leaf`, with its
      * [[templateSimilarity]]; among equally similar ones the most specific
      * (fewest wildcards, then deepest), so counts land on a leaf rather than
      * its wildcarded ancestors; the first of exact ties. Similarity is
      * compared as agreeing-position counts, which order like
      * [[templateSimilarity]] because all templates of a group have one
      * length. Index `-1` for an empty group.
      */
    def best(leaf: IndexedSeq[String]): (Int, Double) = {
      var best = -1
      var bestSame, bestWildcards, bestDepth = 0
      var i = 0
      while (i < templates.length) {
        val same = agreeing(templates(i), leaf)
        if (best < 0 || same > bestSame ||
            (same == bestSame && (wildcards(i) < bestWildcards ||
              (wildcards(i) == bestWildcards && depths(i) > bestDepth)))) {
          best = i; bestSame = same; bestWildcards = wildcards(i); bestDepth = depths(i)
        }
        i += 1
      }
      (best, similarity(bestSame, leaf.length))
    }
  }

  /** Positions where two same-length templates agree: equal tokens, or a
    * wildcard on either side.
    */
  private def agreeing(a: IndexedSeq[String], b: IndexedSeq[String]): Int = {
    require(a.length == b.length, "similarity is defined per length group")
    var same = 0
    var i = 0
    while (i < a.length) {
      val x = a(i); val y = b(i)
      if (x == y || x == CommonVariables.Wildcard || y == CommonVariables.Wildcard) same += 1
      i += 1
    }
    same
  }
}
