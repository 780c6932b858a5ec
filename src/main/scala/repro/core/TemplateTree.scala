package repro.core

/** Initial-grouping key (paper §4.2): token count plus the first k tokens. */
final case class GroupKey(numTokens: Int, prefix: Seq[String])

/** One node of a clustering tree = one log template (paper §3, §4.3).
  *
  * @param id          model-global node id
  * @param parentId    parent node id, or -1 for an initial-group root
  * @param groupKey    the initial group this tree belongs to
  * @param template    per-position token, [[CommonVariables.Wildcard]] for variables
  * @param saturation  raw saturation score of the node's log set
  * @param effectiveSaturation saturation clamped to be non-decreasing with
  *                    depth (the paper guarantees strict increase by
  *                    construction; clamping makes query navigation total even
  *                    in degenerate splits)
  * @param depth       0 for group roots
  * @param count       raw (duplicate-weighted) log count at training time
  * @param temporary   true for unmatched-log singletons inserted online (§3)
  */
final case class TemplateNode(
    id: Int,
    parentId: Int,
    groupKey: GroupKey,
    template: IndexedSeq[String],
    saturation: Double,
    effectiveSaturation: Double,
    depth: Int,
    count: Long,
    temporary: Boolean = false,
) {
  def templateText: String = template.mkString(" ")
  def isRoot: Boolean = parentId == -1

  /** Position-based template match (§4.8): every token must equal the
    * template token or the template token must be the wildcard.
    */
  def matches(tokens: Array[String]): Boolean = {
    if (tokens.length != template.length) return false
    var i = 0
    while (i < tokens.length) {
      val t = template(i)
      if (t != CommonVariables.Wildcard && t != tokens(i)) return false
      i += 1
    }
    true
  }
}

/** An immutable trained model: the forest of clustering trees over all initial
  * groups, with the indices online matching and querying need.
  *
  * The constructor checks that the nodes form a forest, and is the only place
  * that does: ids are distinct, every parent id is −1 or the id of another
  * node, and every parent chain reaches a root. A model failing any check is
  * an `IllegalArgumentException` naming the node, so every walk up a chain
  * ends at a root.
  */
final class TemplateModel(val nodes: IndexedSeq[TemplateNode]) extends Serializable {

  /** The nodes as an array, each node's position in it by id, its parent's
    * position (−1 for a root) and its effective saturation: the flat arrays
    * [[Query]] walks parent chains over.
    */
  private[core] val nodeAt: Array[TemplateNode] = nodes.toArray
  private[core] val positionOf: IdPositions = new IdPositions(nodeAt.map(_.id))
  private[core] val parentAt: Array[Int] = nodeAt.map { n =>
    if (n.isRoot) -1
    else {
      val p = positionOf(n.parentId)
      if (p < 0) throw new IllegalArgumentException(s"node ${n.id} has unknown parent id ${n.parentId}")
      p
    }
  }
  TemplateModel.checkChains(nodeAt, parentAt)
  private[core] val saturationAt: Array[Double] = nodeAt.map(_.effectiveSaturation)

  /** The node with `id`; a `NoSuchElementException` for an unknown id. */
  def byId(id: Int): TemplateNode = nodeAt(positionOf.of(id))

  /** Leaves = most precise templates (what online matching assigns): the
    * nodes no node names as its parent, in model order.
    */
  def leaves: IndexedSeq[TemplateNode] = nodes.indices.filterNot(parentAt.toSet).map(nodeAt)

  /** All nodes per token count in §4.8 matching order: descending effective
    * saturation, then most-specific first (fewest wildcards, greatest depth),
    * id as the deterministic tie-break.
    */
  val byLength: Map[Int, IndexedSeq[TemplateNode]] =
    nodes.groupBy(_.groupKey.numTokens).map { case (len, ns) =>
      len -> ns.sortBy(n => (-n.effectiveSaturation,
        n.template.count(_ == CommonVariables.Wildcard), -n.depth, n.id))
    }

  /** Ancestor chain of a node, ordered root first, the node itself last;
    * empty for an unknown id.
    */
  def ancestry(id: Int): List[TemplateNode] = {
    var p = positionOf(id)
    var acc = List.empty[TemplateNode]
    while (p >= 0) {
      acc = nodeAt(p) :: acc // prepending while walking up yields root..node
      p = parentAt(p)
    }
    acc
  }

  def size: Int = nodes.size
  def maxDepth: Int = if (nodes.isEmpty) 0 else nodes.map(_.depth).max

  /** New model with extra nodes appended (used for temporary online inserts). */
  def withNodes(extra: Seq[TemplateNode]): TemplateModel =
    new TemplateModel(nodes ++ extra)

  /** The id after every node's, as a `Long`: past `Int.MaxValue` when a
    * node holds that id, which [[TemplateModel.freshId]] then refuses.
    */
  def nextId: Long = if (nodes.isEmpty) 0L else nodes.map(_.id).max + 1L
}

object TemplateModel {
  val empty: TemplateModel = new TemplateModel(Vector.empty)

  /** `next` as a node id, for a node that the online matcher or [[Merge]]
    * adds; an `IllegalStateException` once ids pass `Int.MaxValue`.
    */
  def freshId(next: Long): Int =
    if (next > Int.MaxValue)
      throw new IllegalStateException(s"template id space is exhausted: no id after ${Int.MaxValue} is free")
    else next.toInt

  /** Every parent chain reaches a root. Each node is walked up once in all: a
    * walk stops at a node an earlier walk has shown to reach a root, and
    * reaching a node of its own walk again is a cycle.
    */
  private def checkChains(node: Array[TemplateNode], parent: Array[Int]): Unit = {
    val OnWalk: Byte = 1
    val ReachesRoot: Byte = 2
    val state = new Array[Byte](node.length)
    node.indices.foreach { start =>
      var p = start
      while (p >= 0 && state(p) == 0) { state(p) = OnWalk; p = parent(p) }
      if (p >= 0 && state(p) != ReachesRoot)
        throw new IllegalArgumentException(s"parent cycle through node ${node(p).id}")
      p = start
      while (p >= 0 && state(p) == OnWalk) { state(p) = ReachesRoot; p = parent(p) }
    }
  }
}

/** Open-addressing `id → position` table over distinct ids, sized by their
  * count rather than by the largest id: a model file may carry any `Int` id,
  * negative ones included. Absent ids map to −1; a repeated id is an
  * `IllegalArgumentException`.
  */
private[core] final class IdPositions(ids: Array[Int]) extends Serializable {
  private val mask: Int = {
    var cap = 2
    while (cap < 2 * ids.length) cap <<= 1 // load ≤ 1/2: every probe run ends at a free slot
    cap - 1
  }
  private val keys = new Array[Int](mask + 1)
  private val positions = Array.fill(mask + 1)(-1)

  ids.indices.foreach { p =>
    var s = slot(ids(p))
    while (positions(s) >= 0) {
      if (keys(s) == ids(p))
        throw new IllegalArgumentException(s"duplicate node ids: node ${ids(p)} occurs twice")
      s = (s + 1) & mask
    }
    keys(s) = ids(p)
    positions(s) = p
  }

  private def slot(id: Int): Int = {
    val h = id * 0x9E3779B9
    (h ^ (h >>> 16)) & mask
  }

  def apply(id: Int): Int = {
    var s = slot(id)
    while (positions(s) >= 0 && keys(s) != id) s = (s + 1) & mask
    positions(s)
  }

  /** Position of `id`; a `NoSuchElementException` naming it when absent. */
  def of(id: Int): Int = {
    val p = apply(id)
    if (p < 0) throw new NoSuchElementException(s"no template node with id $id")
    p
  }
}
