package repro.core

/** Query-time precision control (paper §3 "Query", §4.6, §7).
  *
  * Online matching stores the most precise template id per log; at query time
  * the user supplies a saturation threshold and the system walks the ancestor
  * chain to the *coarsest* template whose (effective) saturation still meets
  * it — precision changes in real time without re-parsing any log.
  */
object Query {

  /** Coarsest ancestor of `nodeId` with saturation ≥ `threshold`; when even
    * the matched node is below the threshold, the matched node itself (the
    * most precise template available).
    */
  def resolve(model: TemplateModel, nodeId: Int, threshold: Double): TemplateNode = {
    val parent = model.parentAt
    val saturation = model.saturationAt
    val min = threshold - 1e-9
    // walking up from the node, the last qualifying node seen is the coarsest
    var best = model.positionOf.of(nodeId)
    var p = best
    while (p >= 0) {
      if (saturation(p) >= min) best = p
      p = parent(p)
    }
    model.nodeAt(best)
  }

  /** Distinct display templates for a set of matched ids at a threshold,
    * most frequent first.
    */
  def templatesAt(model: TemplateModel, matchedIds: Seq[Int], threshold: Double): Seq[TemplateNode] =
    matchedIds.map(id => resolve(model, id, threshold))
      .groupBy(_.id).values.map(_.head).toSeq
      .sortBy(n => (-n.count, n.id))

  /** §7: merge runs of consecutive wildcards for display, so templates that
    * differ only in the length of a printed list (`users * * *`) collapse to
    * one intuitive template (`users *`). Parsing/matching keeps the original
    * fixed-length templates.
    */
  def mergeConsecutiveWildcards(template: Seq[String]): Seq[String] =
    template.foldLeft(Vector.empty[String]) { (acc, t) =>
      if (t == CommonVariables.Wildcard && acc.lastOption.contains(CommonVariables.Wildcard)) acc
      else acc :+ t
    }
}
