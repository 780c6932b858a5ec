package repro.jobs

import scala.collection.mutable

import repro.core.{ByteBrain, ByteBrainConfig, Query}
import repro.logdata.Datasets

/** Diagnostic: per ground-truth template, how ByteBrain grouped its logs —
  * shows splits (one truth → many groups) and merges (one group → many
  * truths) with template texts. Not part of the evaluation; a debugging aid.
  *
  * Usage: DebugJob <dataset> [loghub|loghub2] [threshold]
  */
object DebugJob {
  def main(args: Array[String]): Unit = {
    val name = if (args.nonEmpty) args(0) else "HealthApp"
    val suite = if (args.length > 1) args(1) else "loghub"
    val threshold = if (args.length > 2) args(2).toDouble else 0.9
    val ds = if (suite == "loghub2") Datasets.loghub2(name) else Datasets.loghub(name)
    val cfg = ByteBrainConfig()

    val (model, matched) = ByteBrain.parseLocal(ds.lines, cfg)
    val resolved = matched.map(id => Query.resolve(model, id, threshold).id)

    val truthToGroups = mutable.HashMap.empty[Int, mutable.HashMap[Int, Int]]
    val groupToTruths = mutable.HashMap.empty[Int, mutable.HashSet[Int]]
    resolved.indices.foreach { i =>
      val t = ds.truth(i); val g = resolved(i)
      truthToGroups.getOrElseUpdate(t, mutable.HashMap.empty)
        .updateWith(g) { c => Some(c.getOrElse(0) + 1) }
      groupToTruths.getOrElseUpdate(g, mutable.HashSet.empty) += t
    }

    println(s"dataset=$name logs=${ds.numLogs} gtTemplates=${ds.numTemplates} modelNodes=${model.size}")
    var badLogs = 0
    truthToGroups.toSeq.sortBy(-_._2.values.sum).foreach { case (t, groups) =>
      val total = groups.values.sum
      val pure = groups.size == 1 && groupToTruths(groups.head._1).size == 1
      if (!pure) {
        badLogs += total
        println(s"--- truth $t ($total logs) split into ${groups.size} groups:")
        println(s"    gt: ${ds.templates(t).tokens.map {
          case repro.logdata.Tok.Const(s) => s
          case _ => "<VAR>"
        }.mkString(" ")}")
        groups.toSeq.sortBy(-_._2).take(5).foreach { case (g, c) =>
          val node = model.byId(g)
          val others = groupToTruths(g).size - 1
          println(f"    group $g ($c logs, sat=${node.effectiveSaturation}%.3f, +$others other truths): " +
            node.templateText)
          if (args.length > 3 && args(3) == "chain") {
            model.ancestry(g).foreach { a =>
              println(f"        chain ${a.id}%5d d=${a.depth} sat=${a.saturation}%.3f " +
                f"eff=${a.effectiveSaturation}%.3f cnt=${a.count}: ${a.templateText}")
            }
          }
        }
      }
    }
    println(s"badly grouped logs: $badLogs / ${ds.numLogs}")
  }
}
