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
  * fast path preserves the §4.8 ordering semantics.
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

  /** (length → wildcard templates in §4.8 match order). */
  private val wildcardByLength: Map[Int, IndexedSeq[TemplateNode]] =
    model.byLength.map { case (len, ns) =>
      len -> ns.filter(_.template.contains(CommonVariables.Wildcard))
    }

  /** Match one tokenized log; `None` when no trained template fits. */
  def matchTokens(tokens: Array[String]): Option[TemplateNode] = {
    val len = tokens.length
    exactByLength.get(len).flatMap(_.get(ArraySeq.unsafeWrapArray(tokens))) match {
      case some @ Some(_) => some
      case None =>
        wildcardByLength.get(len) match {
          case None => None
          case Some(ts) =>
            var i = 0
            while (i < ts.length) {
              if (ts(i).matches(tokens)) return Some(ts(i))
              i += 1
            }
            None
        }
    }
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

  /** Template id for one tokenized log, inserting a temporary node on miss. */
  def matchOrInsert(tokens: Array[String]): TemplateNode =
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

  /** Model including the temporaries collected so far (input to retraining). */
  def modelWithTemporaries: TemplateModel = compiled.model.withNodes(temporaries.values.toSeq)

  /** Swap in a freshly trained model (keeps collecting new temporaries). */
  def updateModel(m: TemplateModel): Unit = {
    compiled = new CompiledMatcher(m)
    temporaries.clear()
    nextId = m.nextId
  }
}
