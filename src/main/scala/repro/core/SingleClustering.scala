package repro.core

import scala.util.Random

/** The single clustering process applied at each tree node (paper §4.4, §4.6, §4.7).
  *
  * A K-Means-like loop adapted to log data:
  *   1. early-stop shortcuts (§4.7) that skip clustering entirely;
  *   2. K-Means++-style seeding: one random log, plus the log farthest from it;
  *   3. assignment by positional similarity distance, with *balanced grouping*
  *      (§4.6): ties are broken uniformly at random so no cluster dominates;
  *   4. iterative refinement; whenever some cluster's saturation fails to
  *      improve on the parent's, a new cluster is seeded with the log farthest
  *      from all existing clusters — naturally bounded by the token positions
  *      (we additionally cap at `MaxClustersPerSplit`).
  *
  * Returns the partition of log indices, or `None` when the node should stay a
  * leaf (no meaningful split exists).
  */
object SingleClustering {

  /** Refinement iterations per single clustering process. */
  private val MaxIterations = 8

  /** Cap on the clusters one split may expand to. */
  private val MaxClustersPerSplit = 16

  def split(
      logs: IndexedSeq[UniqueLog],
      parentStats: ClusterStats,
      parent: Saturation.Analysis,
      cfg: ByteBrainConfig,
      rng: Random,
  ): Option[Vector[Vector[Int]]] = {
    val n = logs.size
    val m = parentStats.numPositions
    if (n <= 1) return None

    // declared-variable positions are resolved (§4.5) — they carry no
    // structure, so neither early stop nor clustering should key on them
    val unresolved = parent.unresolved

    if (cfg.earlyStop) {
      // (1) Few logs: each unique log naturally forms its own cluster.
      if (n <= 2) return Some(logs.indices.map(i => Vector(i)).toVector)
      // (2) Single unresolved position: K-Means cannot do better than the
      //     partition by that position's token — split directly.
      if (unresolved.length == 1) {
        val p = unresolved(0)
        val parts = logs.indices.groupBy(i => logs(i).hashes(p)).values
          .map(_.toVector).toVector.sortBy(_.head)
        return if (parts.size <= 1) None else Some(parts)
      }
      // (3) Completely distinct unresolved positions: every unresolved position
      //     has a different token in every unique log → logs are inherently
      //     dissimilar; one cluster per unique log (bounded to avoid blowup on
      //     pathological groups — beyond the cap the node stays a leaf).
      if (unresolved.nonEmpty && unresolved.forall(i => parentStats.distinctAt(i) == n))
        return if (n > 8192) None
               else Some(logs.indices.map(i => Vector(i)).toVector)
    }
    if (unresolved.isEmpty) return None

    // --- seeding -----------------------------------------------------------
    val first = rng.nextInt(n)
    val firstStats = ClusterStats.of(Iterator(logs(first)), m)
    val second =
      if (cfg.kmeansPlusPlus) {
        // the log farthest from the first (lowest positional similarity)
        var best = -1; var bestSim = Double.MaxValue
        var i = 0
        while (i < n) {
          if (i != first) {
            val s = PositionalDistance.similarity(logs(i).hashes, firstStats, cfg)
            if (s < bestSim || (s == bestSim && best == -1)) { bestSim = s; best = i }
          }
          i += 1
        }
        best
      } else {
        var b = rng.nextInt(n)
        while (b == first) b = rng.nextInt(n)
        b
      }

    // cluster c's stats hold the logs that `synced` assigns to c; a pass
    // changes `assignment`, then applyMoves carries its moves into the stats
    val assignment = Array.fill(n)(-1)
    assignment(first) = 0
    assignment(second) = 1
    val synced = assignment.clone()
    var stats = Array(firstStats, ClusterStats.of(Iterator(logs(second)), m))

    // initial assignment of the remaining logs
    assignAll(logs, assignment, stats, first, second, cfg, rng)
    applyMoves(logs, synced, assignment, stats)

    // --- refinement --------------------------------------------------------
    var iter = 0
    var changed = true
    while (iter < MaxIterations && changed) {
      changed = assignAll(logs, assignment, stats, -1, -1, cfg, rng)
      applyMoves(logs, synced, assignment, stats)

      // once assignments converge, expand if some non-trivial cluster shows
      // no saturation improvement over the parent (checking only at
      // convergence keeps the cost of saturation evaluation off the hot loop)
      if (!changed && stats.length < math.min(MaxClustersPerSplit, n)) {
        val members = Array.fill(stats.length)(Vector.newBuilder[UniqueLog])
        logs.indices.foreach(i => if (assignment(i) >= 0) members(assignment(i)) += logs(i))
        val stuck = stats.zipWithIndex.exists { case (s, c) =>
          s.uniqueCount > 1 &&
            Saturation.score(members(c).result(), s, cfg) <= parent.score + 1e-12
        }
        if (stuck) {
          val seedIdx = farthestFromAll(logs, stats, cfg)
          if (seedIdx >= 0) {
            assignment(seedIdx) = stats.length
            stats :+= new ClusterStats(m)
            applyMoves(logs, synced, assignment, stats)
            changed = true
          }
        }
      }
      iter += 1
    }

    // Outlier reabsorption (balanced grouping hygiene): a cluster stuck at a
    // single unique log is absorbing — its member's self-similarity is exactly
    // 1 (every position constant) — so rare variable values seeded during
    // expansion would survive as junk singleton templates. Merge such a log
    // into its most similar other cluster iff that cluster's saturation does
    // not decrease: genuine distinct statements (Fig. 5 Set 2 log [5]) would
    // lower the target's saturation and therefore stay separate. A pass
    // scores against the clusters as they were at its start.
    var passes = 0
    var moved = true
    while (moved && passes < 4) {
      moved = false
      applyMoves(logs, synced, assignment, stats)
      val members = Array.fill(stats.length)(Vector.newBuilder[UniqueLog])
      logs.indices.foreach(i => if (assignment(i) >= 0) members(assignment(i)) += logs(i))
      val memberLists = members.map(_.result())
      logs.indices.foreach { i =>
        val own = assignment(i)
        if (own >= 0 && stats(own).uniqueCount <= 2) {
          var best = -1
          var bestSim = -1.0
          var c = 0
          while (c < stats.length) {
            if (c != own && stats(c).uniqueCount > 0) {
              val s = PositionalDistance.similarity(logs(i).hashes, stats(c), cfg)
              if (s > bestSim) { bestSim = s; best = c }
            }
            c += 1
          }
          if (best >= 0) {
            val target = stats(best)
            val before = Saturation.score(memberLists(best), target, cfg)
            target.add(logs(i))
            val after = Saturation.score(memberLists(best) :+ logs(i), target, cfg)
            target.remove(logs(i))
            if (after >= before - 1e-12) {
              assignment(i) = best
              moved = true
            }
          }
        }
      }
      passes += 1
    }

    val groups = logs.indices.groupBy(assignment).values
      .map(_.toVector).toVector.sortBy(_.head)
    if (groups.size <= 1) None else Some(groups)
  }

  /** Assign every log but the seeds `seedA` and `seedB` (−1 for none) to its
    * most similar cluster; balanced grouping breaks exact ties uniformly at
    * random (§4.6). Returns whether anything moved.
    */
  private def assignAll(
      logs: IndexedSeq[UniqueLog],
      assignment: Array[Int],
      stats: Array[ClusterStats],
      seedA: Int,
      seedB: Int,
      cfg: ByteBrainConfig,
      rng: Random,
  ): Boolean = {
    var changed = false
    val ties = new Array[Int](stats.length)
    var i = 0
    while (i < logs.length) {
      if (i != seedA && i != seedB) {
        var bestSim = -1.0
        var numTies = 0
        var c = 0
        while (c < stats.length) {
          if (stats(c).uniqueCount > 0) {
            val s = PositionalDistance.similarity(logs(i).hashes, stats(c), cfg)
            if (s > bestSim + 1e-12) { bestSim = s; ties(0) = c; numTies = 1 }
            else if (math.abs(s - bestSim) <= 1e-12) { ties(numTies) = c; numTies += 1 }
          }
          c += 1
        }
        val pick =
          if (numTies == 0) assignment(i)
          else if (numTies == 1) ties(0)
          else ties(rng.nextInt(numTies))
        if (pick != assignment(i)) { assignment(i) = pick; changed = true }
      }
      i += 1
    }
    changed
  }

  /** The log with the lowest best-similarity to every existing cluster —
    * the seed for an expansion cluster (§4.4).
    */
  private def farthestFromAll(
      logs: IndexedSeq[UniqueLog],
      stats: Array[ClusterStats],
      cfg: ByteBrainConfig,
  ): Int = {
    var best = -1
    var bestScore = Double.MaxValue
    var i = 0
    while (i < logs.length) {
      var maxSim = -1.0
      var c = 0
      while (c < stats.length) {
        if (stats(c).uniqueCount > 0) {
          val s = PositionalDistance.similarity(logs(i).hashes, stats(c), cfg)
          if (s > maxSim) maxSim = s
        }
        c += 1
      }
      // only logs that are not alone in their cluster are useful seeds
      if (maxSim < bestScore && maxSim < 1.0) { bestScore = maxSim; best = i }
      i += 1
    }
    best
  }

  /** Moves every log whose cluster in `assignment` differs from `synced`
    * out of its old cluster's stats and into its new one's, then records it
    * in `synced`.
    */
  private def applyMoves(
      logs: IndexedSeq[UniqueLog],
      synced: Array[Int],
      assignment: Array[Int],
      stats: Array[ClusterStats],
  ): Unit = {
    var i = 0
    while (i < logs.length) {
      val from = synced(i)
      val to = assignment(i)
      if (from != to) {
        if (from >= 0) stats(from).remove(logs(i))
        if (to >= 0) stats(to).add(logs(i))
        synced(i) = to
      }
      i += 1
    }
  }
}
