package repro.core

import scala.collection.mutable

/** Per-position token statistics for a set of logs (one cluster or tree node).
  *
  * Backs both the positional similarity distance (paper §4.4) and the
  * saturation score (§4.5): for every position it tracks how often each token
  * hash occurs (weighted by duplicate counts) and how many distinct tokens
  * appear there.
  */
final class ClusterStats(val numPositions: Int) {
  private val counts: Array[mutable.LongMap[Long]] =
    Array.fill(numPositions)(mutable.LongMap.empty[Long])

  /** Total log count including duplicates. */
  var totalCount: Long = 0L

  /** Number of unique (deduplicated) logs. */
  var uniqueCount: Int = 0

  def add(log: UniqueLog): Unit = {
    var i = 0
    while (i < numPositions) {
      val m = counts(i)
      m.put(log.hashes(i), m.getOrElse(log.hashes(i), 0L) + log.count)
      i += 1
    }
    totalCount += log.count
    uniqueCount += 1
  }

  /** Distinct token count n_i at position `i`. */
  def distinctAt(i: Int): Int = counts(i).size

  /** Frequency f_i of token hash `h` at position `i` (paper Eq. 2 numerator). */
  def freqAt(i: Int, h: Long): Double =
    if (totalCount == 0) 0.0 else counts(i).getOrElse(h, 0L).toDouble / totalCount

  /** True when all logs share one token at position `i`. */
  def isConstant(i: Int): Boolean = counts(i).size <= 1

  /** Indices of non-constant positions. */
  def unresolvedPositions: Array[Int] =
    (0 until numPositions).iterator.filter(i => !isConstant(i)).toArray
}

object ClusterStats {
  def of(logs: IterableOnce[UniqueLog], numPositions: Int): ClusterStats = {
    val s = new ClusterStats(numPositions)
    logs.iterator.foreach(s.add)
    s
  }
}
