package repro.core

/** Per-position token statistics for a set of logs (one cluster or tree node).
  *
  * Backs both the positional similarity distance (paper §4.4) and the
  * saturation score (§4.5): for every position it tracks how often each token
  * hash occurs (weighted by duplicate counts) and how many distinct tokens
  * appear there.
  */
final class ClusterStats(val numPositions: Int, expectedDistinct: Int => Int = _ => 0) {
  private val counts: Array[HashCounts] =
    Array.tabulate(numPositions)(i => new HashCounts(expectedDistinct(i)))

  /** Total log count including duplicates. */
  var totalCount: Long = 0L

  /** Number of unique (deduplicated) logs. */
  var uniqueCount: Int = 0

  def add(log: UniqueLog): Unit = {
    var i = 0
    while (i < numPositions) {
      counts(i).add(log.hashes(i), log.count)
      i += 1
    }
    totalCount += log.count
    uniqueCount += 1
  }

  /** Distinct token count n_i at position `i`. */
  def distinctAt(i: Int): Int = counts(i).size

  /** Frequency f_i of token hash `h` at position `i` (paper Eq. 2 numerator). */
  def freqAt(i: Int, h: Long): Double =
    if (totalCount == 0) 0.0 else counts(i)(h).toDouble / totalCount

  /** True when all logs share one token at position `i`. */
  def isConstant(i: Int): Boolean = counts(i).size <= 1

  /** Empty stats with every position's table sized for this one's distinct
    * count: a clustering pass rebuilds each cluster's stats from a set of
    * logs close to the last one, so the tables then rarely have to grow.
    */
  def emptyLike: ClusterStats = new ClusterStats(numPositions, distinctAt)

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

/** Token hash → summed count at one position: open addressing with linear
  * probing over one interleaved (key, count) array, so a lookup is one probe
  * run in one array — no boxed counts, no second array to chase. The
  * similarity loop of every clustering pass reads these for every log and
  * position. Slot key 0 marks an empty slot; hash 0 itself is kept aside.
  */
private[core] final class HashCounts(expected: Int = 0) {
  private var mask = HashCounts.capacityFor(expected) - 1
  private var slots = new Array[Long](2 * (mask + 1))
  private var used = 0
  private var hasZero = false
  private var zeroCount = 0L

  /** Number of distinct hashes added. */
  def size: Int = if (hasZero) used + 1 else used

  /** Summed count of `h`, 0 when it was never added. */
  def apply(h: Long): Long =
    if (h == 0L) zeroCount
    else {
      var i = HashCounts.index(h, mask)
      while (true) {
        val k = slots(2 * i)
        if (k == h) return slots(2 * i + 1)
        if (k == 0L) return 0L
        i = (i + 1) & mask
      }
      0L
    }

  def add(h: Long, count: Long): Unit =
    if (h == 0L) { hasZero = true; zeroCount += count }
    else {
      var i = HashCounts.index(h, mask)
      while (slots(2 * i) != h && slots(2 * i) != 0L) i = (i + 1) & mask
      if (slots(2 * i) == h) slots(2 * i + 1) += count
      else {
        slots(2 * i) = h
        slots(2 * i + 1) = count
        used += 1
        if (2 * used > mask + 1) grow()
      }
    }

  private def grow(): Unit = {
    val old = slots
    slots = new Array[Long](2 * old.length)
    mask = old.length - 1
    var j = 0
    while (j < old.length) {
      val k = old(j)
      if (k != 0L) {
        var i = HashCounts.index(k, mask)
        while (slots(2 * i) != 0L) i = (i + 1) & mask
        slots(2 * i) = k
        slots(2 * i + 1) = old(j + 1)
      }
      j += 2
    }
  }
}

private object HashCounts {
  /** Slots (a power of two) for `expected` keys at most half full; at
    * least 4, as most positions hold few tokens.
    */
  def capacityFor(expected: Int): Int =
    if (expected <= 2) 4 else Integer.highestOneBit(2 * expected - 1) << 1

  /** Fibonacci hashing: the high bits of h·φ, so clustered hashes spread. */
  def index(h: Long, mask: Int): Int = ((h * 0x9E3779B97F4A7C15L) >>> 32).toInt & mask
}
