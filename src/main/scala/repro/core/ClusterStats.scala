package repro.core

/** Per-position token statistics for a set of logs (one cluster or tree node).
  *
  * Backs both the positional similarity distance (paper §4.4) and the
  * saturation score (§4.5): for every position it tracks how often each token
  * hash occurs (weighted by duplicate counts) and how many distinct tokens
  * appear there.
  */
final class ClusterStats(val numPositions: Int) {
  private val counts: Array[HashCounts] = Array.fill(numPositions)(new HashCounts)

  /** Total log count including duplicates. */
  var totalCount: Long = 0L

  /** Number of unique (deduplicated) logs. */
  var uniqueCount: Int = 0

  /** w_0 … w_{m−1} and their sum at index m, for the `positionImportance`
    * they were computed under; null until asked for after an add or remove.
    */
  private var weights: Array[Double] = null
  private var weightsImportance = false

  def add(log: UniqueLog): Unit = move(log, log.count, 1)

  /** Takes back an earlier [[add]] of `log`, as a clustering pass moves it to
    * another cluster.
    */
  def remove(log: UniqueLog): Unit = move(log, -log.count, -1)

  private def move(log: UniqueLog, count: Long, unique: Int): Unit = {
    var i = 0
    while (i < numPositions) {
      counts(i).add(log.hashes(i), count)
      i += 1
    }
    totalCount += count
    uniqueCount += unique
    weights = null
  }

  /** Position weights w_i of [[PositionalDistance]] with their sum at index
    * `numPositions`, cached until the next add or remove.
    */
  private[core] def positionWeights(positionImportance: Boolean): Array[Double] = {
    if (weights == null || weightsImportance != positionImportance) {
      weights = PositionalDistance.weights(this, positionImportance)
      weightsImportance = positionImportance
    }
    weights
  }

  /** Distinct token count n_i at position `i`. */
  def distinctAt(i: Int): Int = counts(i).size

  /** Frequency f_i of token hash `h` at position `i` (paper Eq. 2 numerator). */
  def freqAt(i: Int, h: Long): Double =
    if (totalCount == 0) 0.0 else counts(i)(h).toDouble / totalCount

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

/** Token hash → summed count at one position: open addressing with linear
  * probing over one interleaved (key, count) array, so a lookup is one probe
  * run in one array — no boxed counts, no second array to chase. The
  * similarity loop of every clustering pass reads these for every log and
  * position. Slot key 0 marks an empty slot; hash 0 itself is kept aside.
  *
  * Counts are signed, so a log that leaves a cluster is subtracted. A key
  * whose count returns to 0 keeps its slot, as removing it would break the
  * probe runs through it, but no longer counts in [[size]]; [[grow]] drops
  * such dead keys.
  */
private[core] final class HashCounts {
  private var mask = HashCounts.MinCapacity - 1
  private var slots = new Array[Long](2 * (mask + 1))
  /** Occupied slots, dead keys included: what the load factor bounds. */
  private var used = 0
  /** Occupied slots with a non-zero count. */
  private var live = 0
  private var zeroCount = 0L

  /** Number of hashes whose count is not 0. */
  def size: Int = if (zeroCount != 0L) live + 1 else live

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
    if (h == 0L) zeroCount += count
    else if (count != 0L) {
      var i = HashCounts.index(h, mask)
      while (slots(2 * i) != h && slots(2 * i) != 0L) i = (i + 1) & mask
      if (slots(2 * i) == h) {
        val before = slots(2 * i + 1)
        val after = before + count
        slots(2 * i + 1) = after
        if (before == 0L) live += 1
        else if (after == 0L) live -= 1
      } else {
        slots(2 * i) = h
        slots(2 * i + 1) = count
        used += 1
        live += 1
        if (2 * used > mask + 1) grow()
      }
    }

  /** Slot capacity, for tests of the churn bound. */
  private[core] def capacity: Int = mask + 1

  /** Rehashes the live keys: into twice the slots when more than a quarter
    * of them are live, else into as many, so a table whose keys come and go
    * stays as large as its live keys need.
    */
  private def grow(): Unit = {
    val old = slots
    val next = if (4 * live > mask + 1) 2 * (mask + 1) else mask + 1
    slots = new Array[Long](2 * next)
    mask = next - 1
    var j = 0
    while (j < old.length) {
      val k = old(j)
      if (k != 0L && old(j + 1) != 0L) {
        var i = HashCounts.index(k, mask)
        while (slots(2 * i) != 0L) i = (i + 1) & mask
        slots(2 * i) = k
        slots(2 * i + 1) = old(j + 1)
      }
      j += 2
    }
    used = live
  }
}

private object HashCounts {
  /** Slots of a new table, a power of two: most positions hold few tokens. */
  val MinCapacity = 4

  /** Fibonacci hashing: the high bits of h·φ, so clustered hashes spread. */
  def index(h: Long, mask: Int): Int = ((h * 0x9E3779B97F4A7C15L) >>> 32).toInt & mask
}
