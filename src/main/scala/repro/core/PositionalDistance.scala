package repro.core

/** Positional similarity distance (paper §4.4, Eq. 2).
  *
  * Similarity of log L to cluster C averages, over positions, the frequency of
  * L's token at that position within C, weighted by position importance
  * w_i = 1/(n_i − 1): positions with many distinct tokens are likely variables
  * and get low weight, constant positions dominate. The paper's "smallest
  * distance" assignment rule is "highest similarity" here (d = 1 − similarity).
  *
  * Constant positions (n_i = 1) would give w_i = ∞; they receive one large
  * uniform weight so agreement on constants dominates, and a cluster of a
  * single log degenerates to plain token-overlap averaging — the behaviour
  * the K-Means++-style seeding (two single-log clusters) relies on.
  */
object PositionalDistance {

  /** Weight used for constant positions (stand-in for 1/(n_i−1) → ∞). */
  val ConstantWeight: Double = 1e6

  /** Similarity in [0, 1]; 1 = every token matches the cluster's majority. */
  def similarity(hashes: Array[Long], stats: ClusterStats, cfg: ByteBrainConfig): Double = {
    val m = stats.numPositions
    var num = 0.0
    var den = 0.0
    var i = 0
    while (i < m) {
      val ni = stats.distinctAt(i)
      val w =
        if (!cfg.positionImportance) 1.0
        else if (ni <= 1) ConstantWeight
        else 1.0 / (ni - 1).toDouble
      num += w * stats.freqAt(i, hashes(i))
      den += w
      i += 1
    }
    if (den == 0.0) 0.0 else num / den
  }
}
