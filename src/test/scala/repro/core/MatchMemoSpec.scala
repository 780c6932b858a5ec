package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MatchMemoSpec extends AnyFunSuite {

  /** A memo over `id`, counting its calls. */
  private final class Counted(id: String => Int) {
    var calls = 0
    val memo = new MatchMemo(m => { calls += 1; id(m) })
  }

  test("repeated keys are computed once, null and the empty line included") {
    val c = new Counted(m => if (m == null) -1 else m.length)
    val keys = Seq("a b c", "", null, "блок 日志", "x" * 100)
    (1 to 50).foreach(_ => keys.foreach(k => assert(c.memo(k) == (if (k == null) -1 else k.length))))
    assert(c.calls == keys.size)
    assert(c.memo.size == keys.size)
    assert(c.memo.footprint == keys.map(k => MatchMemo.EntryBytes + 2L * (if (k == null) 0 else k.length)).sum)
  }

  test("distinct keys past the budget leave the footprint bounded and every answer computed") {
    val keyChars = 4096
    val n = (2 * MatchMemo.BudgetBytes / (2L * keyChars)).toInt // twice what the budget holds
    val keys = (0 until n).map(i => f"$i%08d" + "k" * (keyChars - 8))
    val c = new Counted(_.take(8).toInt)
    keys.indices.foreach(i => assert(c.memo(keys(i)) == i))
    assert(c.calls == n)
    assert(c.memo.footprint <= MatchMemo.BudgetBytes)
    val held = c.memo.size
    assert(held > 0 && held < n)
    assert(held.toLong * (MatchMemo.EntryBytes + 2L * keyChars) == c.memo.footprint)

    // the first `held` keys are answered from the memo, the rest computed again
    keys.indices.foreach(i => assert(c.memo(keys(i)) == i))
    assert(c.calls == n + (n - held))
    assert(c.memo.size == held && c.memo.footprint <= MatchMemo.BudgetBytes)
  }

  test("a memo ships empty: a deserialized copy holds no entries") {
    val memo = new MatchMemo(_.length)
    memo("seen")
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(memo)
    out.close()
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[MatchMemo]
    assert(copy.size == 0 && copy.footprint == 0)
    assert(copy("seen") == 4)
    assert(copy.size == 1 && memo.size == 1)
  }
}
