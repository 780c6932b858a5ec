package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Text-based online matching (paper §4.8).
  *
  * Incoming logs are matched against template *texts* — never by re-running
  * distances over the tree — in descending (effective saturation, depth) order,
  * stopping at the first position-wise match. Fully-constant templates (no
  * wildcard) are indexed in a hash map for O(1) exact hits; they all sit at
  * saturation 1 and are at least as precise as any wildcard template, so the
  * fast path preserves the §4.8 ordering semantics. The wildcard templates of
  * each length are found through a [[WildcardIndex]] instead of one by one.
  */
final class CompiledMatcher(val model: TemplateModel) extends Serializable {

  /** (length → exact-template lookup) for wildcard-free templates, keyed by
    * structural `Seq` equality so a log's token array is looked up wrapped,
    * not copied.
    */
  private val exactByLength: Map[Int, Map[Seq[String], TemplateNode]] =
    model.byLength.map { case (len, ns) =>
      len -> ns.filter(!_.template.contains(CommonVariables.Wildcard))
        .map(n => (n.template: Seq[String]) -> n)
        .reverse // earlier (higher-priority) nodes win the map build
        .toMap
    }

  /** (length → index over its wildcard templates in §4.8 match order). */
  private val wildcardByLength: Map[Int, WildcardIndex] =
    model.byLength.map { case (len, ns) =>
      len -> new WildcardIndex(len, ns.filter(_.template.contains(CommonVariables.Wildcard)))
    }

  /** Match one tokenized log; `None` when no trained template fits. */
  def matchTokens(tokens: Array[String]): Option[TemplateNode] = {
    val len = tokens.length
    exactByLength.get(len).flatMap(_.get(ArraySeq.unsafeWrapArray(tokens))) match {
      case some @ Some(_) => some
      case None =>
        wildcardByLength.get(len) match {
          case None => None
          case Some(ix) => Option(ix.first(tokens))
        }
    }
  }
}

/** The wildcard templates of one token count, in §4.8 match order, as
  * bitsets over that order: for each position, the templates holding each
  * constant there and the templates holding the wildcard there. The
  * templates a log matches are the AND, over its positions, of
  * `constant(token) | wildcard`, and the lowest set bit is the template a
  * scan in that order would stop at.
  */
private final class WildcardIndex(len: Int, templates: IndexedSeq[TemplateNode]) extends Serializable {
  // a template of another length never matches a log of this one
  private val nodes = templates.filter(_.template.length == len).toArray
  private val words = (nodes.length + 63) >>> 6

  /** Per position where some template holds a constant: the bitset of the
    * templates holding the wildcard there, and per constant the bitset of the
    * templates holding it. The positions come fewest wildcards first, so a
    * mismatch empties the AND early; a position that is the wildcard in every
    * template matches any token and is left out.
    */
  private val (positions, wildcard, constant) = {
    val byPosition = (0 until len).map { p =>
      val wild = new Array[Long](words)
      val consts = new java.util.HashMap[String, Array[Long]]()
      nodes.indices.foreach { t =>
        val tok = nodes(t).template(p)
        val b = if (tok == CommonVariables.Wildcard) wild else consts.computeIfAbsent(tok, _ => new Array[Long](words))
        b(t >>> 6) |= 1L << t
      }
      (p, wild, consts)
    }.filter(!_._3.isEmpty).sortBy(_._2.map(java.lang.Long.bitCount).sum)
    (byPosition.map(_._1).toArray, byPosition.map(_._2).toArray, byPosition.map(_._3).toArray)
  }

  /** The first template in §4.8 order that `tokens` (of this length)
    * matches, or null.
    */
  def first(tokens: Array[String]): TemplateNode = {
    if (nodes.length == 0) return null
    // allocated per call: a broadcast matcher is shared by every task thread
    val acc = new Array[Long](words)
    java.util.Arrays.fill(acc, -1L)
    var k = 0
    while (k < positions.length) {
      val p = positions(k)
      val c = constant(k).get(tokens(p))
      val w = wildcard(k)
      var any = 0L
      var i = 0
      while (i < words) {
        val v = acc(i) & (if (c == null) w(i) else c(i) | w(i))
        acc(i) = v
        any |= v
        i += 1
      }
      if (any == 0L) return null
      k += 1
    }
    var i = 0
    while (acc(i) == 0L) i += 1
    nodes((i << 6) + java.lang.Long.numberOfTrailingZeros(acc(i)))
  }
}

/** Stateful online session: unmatched logs become temporary singleton
  * templates inserted into the tree (paper §3 "Online Matching"), picked up by
  * the next training cycle via [[Merge]].
  */
final class OnlineMatcher(initial: TemplateModel) {
  private var compiled = new CompiledMatcher(initial)
  private val temporaries = mutable.LinkedHashMap.empty[Seq[String], TemplateNode]
  private var nextId = initial.nextId

  /** Template id for one tokenized log, inserting a temporary node on miss.
    * A log without tokens has no template: it is an `IllegalArgumentException`,
    * as training and the batch matchers leave such a log unmatched.
    */
  def matchOrInsert(tokens: Array[String]): TemplateNode = {
    require(tokens.nonEmpty, "a log without tokens has no template")
    compiled.matchTokens(tokens).getOrElse {
      val bumped = temporaries.get(ArraySeq.unsafeWrapArray(tokens)) match {
        case Some(n) => n.copy(count = n.count + 1)
        case None =>
          val node = TemplateNode(
            id = nextId,
            parentId = -1,
            groupKey = GroupKey(tokens.length, Seq.empty),
            template = tokens.toIndexedSeq,
            saturation = 1.0,
            effectiveSaturation = 1.0,
            depth = 0,
            count = 1L,
            temporary = true,
          )
          nextId += 1
          node
      }
      // the template is an immutable copy of the tokens, so it is the key
      temporaries.update(bumped.template, bumped)
      bumped
    }
  }

  /** Model including the temporaries collected so far (input to retraining). */
  def modelWithTemporaries: TemplateModel = compiled.model.withNodes(temporaries.values.toSeq)

  /** Swap in a freshly trained model (keeps collecting new temporaries). */
  def updateModel(m: TemplateModel): Unit = {
    compiled = new CompiledMatcher(m)
    temporaries.clear()
    nextId = m.nextId
  }
}
