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
  def isRoot: Boolean = parentId < 0

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
  */
final class TemplateModel(val nodes: IndexedSeq[TemplateNode]) extends Serializable {
  val byId: Map[Int, TemplateNode] = nodes.map(n => n.id -> n).toMap
  require(byId.size == nodes.size, "duplicate node ids in model")

  val childrenOf: Map[Int, IndexedSeq[TemplateNode]] =
    nodes.filter(!_.isRoot).groupBy(_.parentId).map { case (p, cs) => p -> cs.sortBy(_.id) }

  /** Leaves = most precise templates (what online matching assigns). */
  val leaves: IndexedSeq[TemplateNode] = nodes.filter(n => !childrenOf.contains(n.id))

  /** All nodes per token count in §4.8 matching order: descending effective
    * saturation, then most-specific first (fewest wildcards, greatest depth),
    * id as the deterministic tie-break.
    */
  val byLength: Map[Int, IndexedSeq[TemplateNode]] =
    nodes.groupBy(_.groupKey.numTokens).map { case (len, ns) =>
      len -> ns.sortBy(n => (-n.effectiveSaturation,
        n.template.count(_ == CommonVariables.Wildcard), -n.depth, n.id))
    }

  /** Query's resolution index, built on the first query or ancestry call
    * (training, [[Merge]] and [[ModelCodec]] never pay for it) and never
    * serialized.
    */
  @transient private[core] lazy val resolveIndex: ResolveIndex = new ResolveIndex(nodes)

  /** Ancestor chain of a node, ordered root first, the node itself last;
    * empty for an unknown id.
    */
  def ancestry(id: Int): List[TemplateNode] = {
    val ix = resolveIndex
    var p = ix.position(id)
    var acc = List.empty[TemplateNode]
    var steps = 0
    while (p >= 0) {
      acc = ix.node(p) :: acc // prepending while walking up yields root..node
      steps += 1
      p = ix.up(p, steps)
    }
    acc
  }

  def size: Int = nodes.size
  def maxDepth: Int = if (nodes.isEmpty) 0 else nodes.map(_.depth).max

  /** New model with extra nodes appended (used for temporary online inserts). */
  def withNodes(extra: Seq[TemplateNode]): TemplateModel =
    new TemplateModel(nodes ++ extra)

  def nextId: Int = if (nodes.isEmpty) 0 else nodes.map(_.id).max + 1
}

object TemplateModel {
  val empty: TemplateModel = new TemplateModel(Vector.empty)
}

/** Open-addressing `id → position` table over distinct ids, sized by their
  * count rather than by the largest id: a model file may carry any `Int` id,
  * negative ones included. Absent ids map to −1.
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
    while (positions(s) >= 0) s = (s + 1) & mask
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
}

/** A model's nodes as flat arrays for walking parent chains: each node's
  * position by id, its parent's position (−1 for a root or a parent id absent
  * from the model) and its effective saturation.
  */
private[core] final class ResolveIndex(nodes: IndexedSeq[TemplateNode]) {
  val node: Array[TemplateNode] = nodes.toArray
  val position: IdPositions = new IdPositions(node.map(_.id))
  val parent: Array[Int] = node.map(n => if (n.isRoot) -1 else position(n.parentId))
  val saturation: Array[Double] = node.map(_.effectiveSaturation)

  /** Parent position of the node at `pos`, `steps` nodes into a walk up the
    * tree. A chain has at most one node per model node, so a longer walk
    * means the parent links form a cycle (a corrupted model).
    */
  def up(pos: Int, steps: Int): Int = {
    val p = parent(pos)
    if (p >= 0 && steps >= node.length)
      throw new IllegalStateException(s"parent cycle through template node id ${node(pos).id}")
    p
  }
}
