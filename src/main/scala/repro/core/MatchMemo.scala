package repro.core

/** Raw message → matched template id for one Spark task: `compute` runs once
  * per distinct message and repeats are answered from the memo, LILAC's
  * adaptive parsing cache (Jiang et al., FSE 2024) kept per task. Log streams
  * are massively repetitive (paper Fig. 4, §4.1.3), so most rows of a task
  * repeat a line it has already matched.
  *
  * The memo travels empty inside a UDF's closure (its table is transient), so
  * every task deserializes its own copy: nothing is shared or locked, and one
  * copy serves one thread at a time. A `null` message is a key like any other.
  *
  * Each entry is charged two bytes per key char plus [[MatchMemo.EntryBytes]];
  * an entry that would take the total past [[MatchMemo.BudgetBytes]] is not
  * inserted, and its message is computed on every call. An unbounded stream
  * of distinct lines therefore holds a bounded memo.
  */
final class MatchMemo(compute: String => Int) extends Serializable {
  @transient private lazy val ids = new java.util.HashMap[String, Integer]()
  @transient private var charged = 0L

  /** The id `compute` gives `message`, boxed: a UDF returns the stored box
    * as a nullable int column without boxing per row.
    */
  def apply(message: String): Integer = {
    val hit = ids.get(message)
    if (hit != null) hit
    else {
      val id = Int.box(compute(message))
      val cost = MatchMemo.cost(message)
      if (charged + cost <= MatchMemo.BudgetBytes) {
        ids.put(message, id)
        charged += cost
      }
      id
    }
  }

  /** Entries held. */
  def size: Int = ids.size

  /** Bytes charged for the entries held, at most [[MatchMemo.BudgetBytes]]. */
  def footprint: Long = charged
}

object MatchMemo {
  /** The most bytes one memo charges: with a few tasks per executor core,
    * small next to an executor's heap.
    */
  val BudgetBytes: Long = 8L << 20

  /** Bytes per entry besides the key's chars: the hash node, its table slot,
    * the key's `String` and array headers and the boxed id.
    */
  val EntryBytes: Int = 96

  private def cost(message: String): Long =
    EntryBytes + 2L * (if (message == null) 0 else message.length)
}
