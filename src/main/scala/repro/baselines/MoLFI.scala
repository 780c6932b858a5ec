package repro.baselines

import scala.util.Random
import ParserUtil._

/** MoLFI (Messaoudi et al., ICPC'18): search-based log format identification.
  *
  * A lightweight NSGA-II-style search per token-count group over candidate
  * template sets: chromosomes are sets of wildcarded templates seeded from
  * unique messages; mutation toggles tokens to wildcards and back; fitness
  * trades off specificity (fraction of constant tokens) against frequency
  * (coverage of messages). Small population/generation budgets reflect the
  * published configuration; the stochastic search is the source of MoLFI's
  * instability on large corpora.
  */
final class MoLFI(population: Int = 10, generations: Int = 8, seed: Long = 13L) extends LogParser {
  override def name: String = "MoLFI"

  override def parse(input: ParseInput): Array[Int] = {
    val rng = new Random(seed)
    val out = new Array[Int](input.tokens.length)
    var idBase = 0

    input.tokens.indices.groupBy(i => input.tokens(i).length).foreach { case (len, idxs) =>
      if (len == 0) { idxs.foreach(out(_) = idBase); idBase += 1 }
      else {
        // unique messages of this group (MoLFI's published preprocessing)
        val uniq = idxs.groupBy(i => input.tokens(i).toList).keys.map(_.toArray).toVector
        val best = evolve(uniq, len, rng)
        // assign each log to the first matching template (most specific first)
        val ordered = best.sortBy(t => -t.count(_ != Wildcard))
        idxs.foreach { i =>
          val toks = input.tokens(i)
          val m = ordered.indexWhere(t => matches(t, toks))
          out(i) = idBase + (if (m < 0) ordered.size else m)
        }
        idBase += ordered.size + 1
      }
    }
    out
  }

  private def matches(tpl: Array[String], toks: Array[String]): Boolean = {
    var i = 0
    while (i < tpl.length) {
      if (tpl(i) != Wildcard && tpl(i) != toks(i)) return false
      i += 1
    }
    true
  }

  private def evolve(uniq: Vector[Array[String]], len: Int, rng: Random): Vector[Array[String]] = {
    if (uniq.size <= 1) return uniq

    def randomChromosome(): Vector[Array[String]] = {
      val k = 1 + rng.nextInt(math.min(uniq.size, 20))
      Vector.fill(k) {
        val t = uniq(rng.nextInt(uniq.size)).clone()
        var i = 0
        while (i < len) { if (rng.nextDouble() < 0.3) t(i) = Wildcard; i += 1 }
        if (t.forall(_ == Wildcard)) t(rng.nextInt(len)) = uniq.head(rng.nextInt(len))
        t
      }
    }

    def fitness(ch: Vector[Array[String]]): Double = {
      // specificity: constants per template; coverage: matched unique messages
      val spec = ch.map(t => t.count(_ != Wildcard).toDouble / len).sum / ch.size
      val covered = uniq.count(u => ch.exists(t => matches(t, u)))
      val cov = covered.toDouble / uniq.size
      spec * cov * cov
    }

    var pop = Vector.fill(population)(randomChromosome())
    var g = 0
    while (g < generations) {
      val scored = pop.map(ch => (fitness(ch), ch)).sortBy(-_._1)
      val elite = scored.take(population / 2).map(_._2)
      val offspring = elite.map { ch =>
        ch.map { t =>
          val c = t.clone()
          val i = rng.nextInt(len)
          if (c(i) == Wildcard) c(i) = uniq(rng.nextInt(uniq.size))(i) else c(i) = Wildcard
          c
        }
      }
      pop = elite ++ offspring
      g += 1
    }
    pop.maxBy(fitness)
  }
}
