package repro.core

import scala.collection.mutable

/** Saturation score (paper §4.5): how completely a node's positions are
  * resolved into constants or variables. Controls hierarchical-clustering
  * termination and is the precision knob users query with.
  *
  * Unlike prior work, the score counts *both* confirmed constants and likely
  * variables as resolved:
  *
  *  - a position is **constant** when all logs share one token;
  *  - a position is **declared variable** when its distinct-token count
  *    reaches `DeclareRatio` (0.8) of the node's *effective* unique-log count —
  *    computed iteratively: once a position is declared, unique logs are
  *    re-projected onto the remaining positions, so one truly unbounded
  *    variable (fresh value per record) cannot mask the variable nature of a
  *    co-occurring bounded one. Declaration needs at least `DeclareMinUnique`
  *    (8) effective uniques — a handful of distinct tokens at one position is a
  *    template family (Fig. 5 Set 2), not a variable;
  *  - a **single** remaining unresolved position whose tokens are all
  *    distinct *and* mostly unrepeated (average ≤ 3 occurrences per value)
  *    is a variable even in tiny nodes (Fig. 5 Set 1 — the `token=abc123`
  *    case); heavily repeated values at a single differing position are a
  *    family of distinct log statements instead and must keep splitting.
  *
  * With every position resolved, s = 1. Otherwise, over the unresolved
  * positions:
  *
  *   s(C) = (f_v · p_c + (1 − p_c)) · f_c, with
  *     f_c = m_r / m                       (resolved fraction),
  *     f_v = min_i log(n_u^{(i)}) / log(n) (variability of unresolved
  *                                          positions; the least variable one
  *                                          dominates),
  *     p_c = 1 / (2m − m_r − 1)            (confidence factor).
  *
  * This reading reproduces every saturation value printed in the paper's
  * Fig. 5 (Set 1 root = 1.0; Set 2 root ≈ 0.4, [4,6] = 0.6, singletons = 1.0)
  * — pinned by unit tests; see DESIGN.md §1 for why the formula as printed
  * cannot match its own figure.
  *
  * Ablations: `variableInSaturation = false` → s = m_c/m over strict
  * constants only; `confidenceFactor = false` → s = f_v · f_c.
  */
object Saturation {

  private val DeclareRatio = 0.8
  private val DeclareMinUnique = 8

  /** A node's score plus the unresolved positions it was derived from —
    * tree building scores a node and splits it on the same analysis.
    */
  final case class Analysis(score: Double, unresolved: Array[Int])

  def analyze(logs: IndexedSeq[UniqueLog], stats: ClusterStats, cfg: ByteBrainConfig): Analysis = {
    val m = stats.numPositions
    if (!cfg.variableInSaturation) {
      // ablation "w/o variable in saturation": s = f_c over strict constants
      val u = stats.unresolvedPositions
      Analysis(if (u.isEmpty) 1.0 else (m - u.length).toDouble / m, u)
    } else {
      val nonConstant = stats.unresolvedPositions
      val declared = declaredVariables(logs, stats, nonConstant)
      val u = nonConstant.filter(i => !declared.contains(i))
      Analysis(formula(stats, u, cfg), u)
    }
  }

  def score(logs: IndexedSeq[UniqueLog], stats: ClusterStats, cfg: ByteBrainConfig): Double =
    analyze(logs, stats, cfg).score

  /** Positions resolved as declared variables, via iterative projection. A
    * position's distinct-token count does not change under projection — only
    * the effective unique count shrinks — so `stats` supplies it.
    */
  private def declaredVariables(logs: IndexedSeq[UniqueLog], stats: ClusterStats,
                                candidates: Array[Int]): mutable.BitSet = {
    val m = stats.numPositions
    val declared = mutable.BitSet.empty
    var effUniques = stats.uniqueCount
    var changed = candidates.nonEmpty
    var passes = 0
    while (changed && passes < m) {
      changed = false
      if (effUniques >= DeclareMinUnique) {
        candidates.foreach { i =>
          val nu = stats.distinctAt(i)
          if (!declared.contains(i) && nu >= DeclareRatio * effUniques) {
            declared += i
            changed = true
          }
        }
      }
      if (changed) effUniques = projectedUniqueCount(logs, m, declared)
      passes += 1
    }
    declared
  }

  /** Number of distinct unique-log projections onto undeclared positions. */
  private def projectedUniqueCount(logs: IndexedSeq[UniqueLog], m: Int,
                                   declared: mutable.BitSet): Int = {
    val seen = mutable.HashSet.empty[Long]
    logs.foreach { l =>
      var h = 0xcbf29ce484222325L
      var i = 0
      while (i < m) {
        if (!declared.contains(i)) {
          h = (h ^ l.hashes(i)) * 0x100000001b3L
          h = (h ^ i) * 0x100000001b3L
        }
        i += 1
      }
      seen += h
    }
    seen.size
  }

  /** The §4.5 formula given the unresolved positions (none when there are
    * no positions or at most one unique log).
    */
  private def formula(stats: ClusterStats, unresolved: Array[Int], cfg: ByteBrainConfig): Double = {
    val m = stats.numPositions
    if (unresolved.isEmpty) return 1.0
    // Fig. 5 Set 1: unresolved positions whose tokens are all-distinct and
    // essentially unrepeated are variables even below the declaration bar —
    // splitting on them yields no meaningful templates. With several such
    // positions we additionally require ≥ 4 uniques: two or three logs
    // differing everywhere are inherently dissimilar statements instead
    // (Fig. 5 Set 2 node [4,6] stays at 0.6 and splits).
    val allDistinct = unresolved.forall(i => stats.distinctAt(i) == stats.uniqueCount)
    val lowRepeat = stats.totalCount <= 3L * stats.uniqueCount
    if (allDistinct && lowRepeat && (unresolved.length == 1 || stats.uniqueCount >= 4)) return 1.0

    val mr = m - unresolved.length
    val fc = mr.toDouble / m
    val n = math.max(2.0, stats.totalCount.toDouble)
    var fv = Double.MaxValue
    unresolved.foreach { i =>
      val nu = stats.distinctAt(i).toDouble
      val v = math.log(nu) / math.log(n)
      if (v < fv) fv = v
    }
    fv = math.max(0.0, math.min(fv, 1.0))

    if (!cfg.confidenceFactor) fv * fc
    else {
      val pc = 1.0 / math.max(1.0, 2.0 * m - mr - 1.0)
      (fv * pc + (1.0 - pc)) * fc
    }
  }
}
