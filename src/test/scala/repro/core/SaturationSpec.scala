package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Pins the saturation semantics to the paper's Fig. 5 (see DESIGN.md §1). */
class SaturationSpec extends AnyFunSuite {
  private def logs(lines: String*): IndexedSeq[UniqueLog] =
    lines.toIndexedSeq.map(l => UniqueLog(l.split(" ")))

  private def analyze(ls: IndexedSeq[UniqueLog], m: Int): Saturation.Analysis =
    Saturation.analyze(ls, ClusterStats.of(ls, m))

  private def score(ls: IndexedSeq[UniqueLog], m: Int): Double = analyze(ls, m).score

  // Fig. 5 Set 1 — tokenized: UserService createUser token abc123 success
  private val set1 = logs(
    "UserService createUser token abc123 success",
    "UserService createUser token xyz789 success",
    "UserService createUser token def456 success",
  )

  // Fig. 5 Set 2
  private val set2 = logs(
    "UserService createUser token abc123 success", // log 4
    "UserService deleteUser token xyz789 failed",  // log 5
    "UserService queryUser token def456 success",  // log 6
  )

  test("Fig 5 Set 1: saturation is 1.0 (token value is a variable)") {
    assert(score(set1, 5) == 1.0)
  }

  test("Fig 5 Set 2 root: saturation prints as 0.4") {
    val s = score(set2, 5)
    assert(math.abs(s - 0.4) < 0.05, s"s=$s") // figure prints one decimal
    assert(s < 0.5 && s > 0.3)
  }

  test("Fig 5 Set 2 node [4,6]: saturation is exactly 0.6") {
    val s = score(IndexedSeq(set2(0), set2(2)), 5)
    assert(math.abs(s - 0.6) < 1e-9, s"s=$s")
  }

  test("Fig 5 singleton nodes: saturation 1.0") {
    set2.foreach(l => assert(score(IndexedSeq(l), 5) == 1.0))
  }

  test("saturation of fully constant node is 1.0") {
    val ls = IndexedSeq(UniqueLog(Array("a", "b"), 5), UniqueLog(Array("a", "b"), 3))
    // identical token arrays are one unique log after dedup; simulate both ways
    assert(score(ls.take(1), 2) == 1.0)
  }

  test("heavily repeated values at a single differing position are NOT a variable (family)") {
    // 3 'variants' with ~100 logs each — distinct statements, must keep splitting
    val fam = IndexedSeq(
      UniqueLog(Array("at", "bulk", "createX", "config"), 100),
      UniqueLog(Array("at", "bulk", "deleteX", "config"), 120),
      UniqueLog(Array("at", "bulk", "queryX", "config"), 90),
    )
    assert(score(fam, 4) < 1.0)
  }

  test("declared variable: a position distinct in nearly every unique log resolves") {
    val ls = (0 until 50).map(i => UniqueLog(Array("get", s"v$i", "done"), 1))
    assert(score(ls, 3) == 1.0)
  }

  test("two correlated declared variables both resolve via projection") {
    // two positions, each distinct per unique log (correlated values)
    val ls = (0 until 50).map(i => UniqueLog(Array("get", s"v$i", "from", s"u$i"), 1))
    assert(score(ls, 4) == 1.0)
  }

  test("unbounded variable does not mask a bounded one (iterative projection)") {
    // position 1: fresh value per record (all distinct); position 3: 10 values
    val ls = (0 until 100).map(i => UniqueLog(Array("get", s"fresh$i", "from", s"u${i % 10}"), 1))
    assert(score(ls, 4) == 1.0)
  }

  test("a family slot does NOT get declared even among declared variables") {
    // 2 'actions' × 30 correlated values: action position must stay unresolved
    val ls = (0 until 60).map { i =>
      UniqueLog(Array("svc", if (i % 2 == 0) "start" else "stop", s"v${i / 2}", "ok"), 5)
    }
    val s = score(ls, 4)
    assert(s < 1.0, s"family node should stay splittable, s=$s")
  }

  test("saturation is within [0, 1]") {
    Seq(set1, set2).foreach { ls =>
      val s = score(ls, 5)
      assert(s >= 0.0 && s <= 1.0)
    }
  }

  test("empty position set scores 1") {
    assert(score(IndexedSeq(UniqueLog(Array.empty[String], 1)), 0) == 1.0)
  }

  test("declaredVariables returns empty below the unique-count floor") {
    // 3 uniques: every non-constant position stays unresolved
    assert(analyze(set2, 5).unresolved.toSeq == Seq(1, 3, 4))
  }

  test("unresolvedPositions excludes constants and declared variables") {
    val ls = (0 until 50).map(i => UniqueLog(Array("get", s"v$i", if (i % 2 == 0) "a" else "b"), 1))
    assert(analyze(ls, 3).unresolved.toSeq == Seq(2)) // position 1 declared, position 0 constant
  }
}
