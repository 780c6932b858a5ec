package repro.baselines

import scala.collection.mutable
import ParserUtil._

/** Drain (He et al., ICWS'17): online parsing with a fixed-depth parse tree.
  *
  * Logs are routed by token count, then by their first `depth` tokens
  * (digit-bearing tokens route through the wildcard branch), to a leaf that
  * holds log groups. The most similar group's template (simSeq ≥ `st`) absorbs
  * the log, differing positions turning into wildcards; otherwise a new group
  * starts. Faithful to the published algorithm including the `maxChildren`
  * overflow branch.
  */
final class Drain(depth: Int = 4, st: Double = 0.4, maxChildren: Int = 100) extends LogParser {
  override def name: String = "Drain"

  private final class Group(var template: Array[String], val id: Int)

  override def parse(input: ParseInput): Array[Int] = {
    // tree: (length, routing token path) -> groups at the leaf
    val leaves = mutable.HashMap.empty[List[String], mutable.ArrayBuffer[Group]]
    val children = mutable.HashMap.empty[List[String], mutable.HashSet[String]]
    var nextId = 0
    val out = new Array[Int](input.tokens.length)

    var li = 0
    while (li < input.tokens.length) {
      val toks = input.tokens(li)
      // internal routing path: length, then first `depth`-2 tokens
      var path: List[String] = List(toks.length.toString)
      var d = 0
      val routeLen = math.min(depth - 2, toks.length)
      while (d < routeLen) {
        val raw = toks(d)
        val tok0 = if (hasDigit(raw)) Wildcard else raw
        val siblings = children.getOrElseUpdate(path, mutable.HashSet.empty)
        val tok =
          if (siblings.contains(tok0) || tok0 == Wildcard) tok0
          else if (siblings.size < maxChildren) { siblings += tok0; tok0 }
          else Wildcard
        path = tok :: path
        d += 1
      }

      val groups = leaves.getOrElseUpdate(path, mutable.ArrayBuffer.empty)
      var best: Group = null
      var bestSim = -1.0
      groups.foreach { g =>
        // Drain's simSeq: a template wildcard counts toward the length only
        val sim = seqSim(g.template, toks)
        if (sim > bestSim) { bestSim = sim; best = g }
      }
      if (best != null && bestSim >= st) {
        best.template = mergeTemplate(best.template, toks)
        out(li) = best.id
      } else {
        val g = new Group(toks.clone(), nextId)
        nextId += 1
        groups += g
        out(li) = g.id
      }
      li += 1
    }
    out
  }
}
