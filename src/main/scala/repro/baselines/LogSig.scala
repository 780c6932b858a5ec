package repro.baselines

import scala.collection.mutable
import scala.util.Random

/** LogSig (Tang et al., CIKM'11): message-signature-based clustering.
  *
  * Requires the number of categories k up front (its documented weakness —
  * the harness supplies a guess). Logs are randomly assigned to k groups and
  * a local search moves each log to the group maximizing the potential
  * function Φ based on shared ordered token pairs. After convergence (or an
  * iteration cap) the groups are the parse result.
  */
final class LogSig(k: Int, iterations: Int = 3, seed: Long = 11L) extends LogParser {
  override def name: String = "LogSig"

  override def parse(input: ParseInput): Array[Int] = {
    val n = input.tokens.length
    if (n == 0) return Array.empty
    val rng = new Random(seed)
    val kk = math.max(1, math.min(k, n))
    val assign = Array.fill(n)(rng.nextInt(kk))

    // token-pair sets per log (sampled to bound cost on long lines)
    val pairs: IndexedSeq[Array[Long]] = input.tokens.map { toks =>
      val b = mutable.ArrayBuffer.empty[Long]
      val lim = math.min(toks.length, 12)
      var i = 0
      while (i < lim) {
        var j = i + 1
        while (j < lim) {
          b += (toks(i).hashCode.toLong << 32) ^ (toks(j).hashCode.toLong & 0xffffffffL)
          j += 1
        }
        i += 1
      }
      b.toArray
    }

    // group pair-count maps
    val groupPairs = Array.fill(kk)(mutable.LongMap.empty[Int])
    val groupSize = new Array[Int](kk)
    def addTo(g: Int, li: Int, sign: Int): Unit = {
      pairs(li).foreach { p =>
        val c = groupPairs(g).getOrElse(p, 0) + sign
        if (c <= 0) groupPairs(g).subtractOne(p) else groupPairs(g).update(p, c)
      }
      groupSize(g) += sign
    }
    (0 until n).foreach(i => addTo(assign(i), i, +1))

    var it = 0
    var moved = true
    while (it < iterations && moved) {
      moved = false
      var i = 0
      while (i < n) {
        // a time-boxed caller interrupts a search it has given up on
        if (Thread.interrupted()) throw new InterruptedException("LogSig interrupted")
        var bestG = assign(i); var bestPhi = -1.0
        var g = 0
        while (g < kk) {
          if (groupSize(g) > 0 || g == assign(i)) {
            var phi = 0.0
            pairs(i).foreach { p =>
              val c = groupPairs(g).getOrElse(p, 0)
              if (groupSize(g) > 0) phi += (c.toDouble / groupSize(g)) * (c.toDouble / groupSize(g))
            }
            if (phi > bestPhi) { bestPhi = phi; bestG = g }
          }
          g += 1
        }
        if (bestG != assign(i)) {
          addTo(assign(i), i, -1)
          addTo(bestG, i, +1)
          assign(i) = bestG
          moved = true
        }
        i += 1
      }
      it += 1
    }
    assign
  }
}
