package repro.baselines

import repro.core.{ByteBrain, ByteBrainConfig, CommonVariables, Tokenizer}
import repro.logdata.GeneratedDataset

/** Uniform input handed to every parser: raw lines plus their shared
  * preprocessing (common-variable replacement + the default tokenizer — the
  * same per-dataset regex preprocessing the Logparser toolkit applies to all
  * methods). `tokens` is lazy: per-line preprocessing is computed (and hence
  * billed by the timing harness) only for parsers that actually consume it —
  * ByteBrain deduplicates raw lines first and preprocesses only the uniques
  * (§4.1.3), which is a large part of its measured speed advantage.
  * Semantic baselines additionally receive ground-truth access, standing in
  * for their labeled training data / LLM (see DESIGN.md §3).
  */
final class ParseInput(
    val lines: IndexedSeq[String],
    tokensFn: => IndexedSeq[Array[String]],
    val groundTruth: Option[GroundTruthAccess],
) {
  lazy val tokens: IndexedSeq[Array[String]] = tokensFn

  def copy(lines: IndexedSeq[String] = lines,
           tokens: IndexedSeq[Array[String]] = null,
           groundTruth: Option[GroundTruthAccess] = groundTruth): ParseInput =
    new ParseInput(lines, if (tokens == null) this.tokens else tokens, groundTruth)
}

/** Ground-truth access for semantic-surrogate baselines: the true template id
  * per line and, per line, which token positions are variables.
  */
final case class GroundTruthAccess(
    truthIds: IndexedSeq[Int],
    variableMask: Int => Array[Boolean],
)

object ParseInput {
  /** Explicit-token constructor (tests, custom corpora). */
  def apply(lines: IndexedSeq[String], tokens: IndexedSeq[Array[String]],
            groundTruth: Option[GroundTruthAccess]): ParseInput =
    new ParseInput(lines, tokens, groundTruth)

  def of(ds: GeneratedDataset, cfg: ByteBrainConfig = ByteBrainConfig()): ParseInput = {
    lazy val toks: IndexedSeq[Array[String]] = {
      val tokenizer = new Tokenizer(cfg.tokenizerRegex)
      ds.lines.map(ByteBrain.preprocess(_, cfg, tokenizer))
    }
    val mask: Int => Array[Boolean] = { i =>
      val t = ds.templates(ds.truth(i))
      val head = t.tokens.map {
        case repro.logdata.Tok.Const(_) => false
        case _ => true
      }.toArray
      val total = toks(i).length
      if (total <= head.length) head.take(total)
      else head ++ Array.fill(total - head.length)(true) // list tail positions
    }
    new ParseInput(ds.lines, toks, Some(GroundTruthAccess(ds.truth, mask)))
  }
}

/** A log parser under evaluation: assigns a group id to every input line.
  * Grouping Accuracy only needs the partition, not template text.
  */
trait LogParser {
  def name: String
  def parse(input: ParseInput): Array[Int]
}

/** Helpers shared by the token-based baselines. */
object ParserUtil {
  val Wildcard: String = CommonVariables.Wildcard

  def hasDigit(s: String): Boolean = {
    var i = 0
    while (i < s.length) { if (Character.isDigit(s.charAt(i))) return true; i += 1 }
    false
  }

  /** Sequence similarity: fraction of positions with equal tokens. */
  def seqSim(a: Array[String], b: Array[String]): Double = {
    if (a.length != b.length) return 0.0
    if (a.length == 0) return 1.0
    var same = 0; var i = 0
    while (i < a.length) { if (a(i) == b(i)) same += 1; i += 1 }
    same.toDouble / a.length
  }

  /** Merge a log into a template: differing positions become wildcards. */
  def mergeTemplate(tpl: Array[String], log: Array[String]): Array[String] = {
    val out = tpl.clone()
    var i = 0
    while (i < out.length) { if (out(i) != log(i)) out(i) = Wildcard; i += 1 }
    out
  }
}
