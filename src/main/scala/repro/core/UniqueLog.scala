package repro.core

/** One deduplicated log record inside an initial group (paper §4.1.3–4.1.4).
  *
  * @param tokens raw tokens (after common-variable replacement) — kept so
  *               constant positions can be rendered back into template text
  * @param hashes 64-bit hash encoding of `tokens` (same length)
  * @param count  number of raw records collapsed into this unique log
  * @param firstId original record id; training does not read it (logs are
  *                ordered by their tokens alone)
  */
final case class UniqueLog(tokens: Array[String], hashes: Array[Long], count: Long, firstId: Long) {
  def numTokens: Int = tokens.length
}

object UniqueLog {
  def apply(tokens: Array[String], count: Long = 1L, firstId: Long = 0L): UniqueLog =
    UniqueLog(tokens, HashEncoder.encode(tokens), count, firstId)
}
