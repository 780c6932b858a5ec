package repro.core

import java.util.regex.Pattern

/** Regex tokenization (paper §4.1.1).
  *
  * The paper segments each log record with one delimiter regex:
  * {{{
  * (?:://)|(?:(?:[\s\'\";=()\[\]{}?@&<>:\n\t\r,])|(?:[\.](\s+|$))|(?:\\[\"\']))+
  * }}}
  * i.e. URL protocol separators (`://`), common punctuation/whitespace
  * delimiters, sentence-ending periods (periods inside numbers survive), and
  * escaped quotes. We translate it verbatim to a JVM [[java.util.regex.Pattern]]
  * and split on it, dropping empty tokens.
  *
  * Users may supply a custom delimiter regex per topic; look-around and other
  * super-linear constructs are rejected (paper: worst case O(2^n)).
  */
final class Tokenizer(delimiterRegex: String = Tokenizer.DefaultDelimiters) extends Serializable {
  require(!Tokenizer.hasForbiddenConstruct(delimiterRegex),
    s"look-around/backreference constructs are not allowed in topic tokenizers: $delimiterRegex")

  private val pattern = Pattern.compile(delimiterRegex)

  /** Split one raw log message into its token sequence (no empty tokens). */
  def tokenize(message: String): Array[String] =
    pattern.split(message).filter(_.nonEmpty)
}

object Tokenizer {
  /** The paper's default delimiter regex, translated to JVM syntax. */
  val DefaultDelimiters: String =
    """(?:://)|(?:(?:[\s'";=()\[\]{}?@&<>:,])|(?:\.(?:\s+|$))|(?:\\["']))+"""

  /** Super-linear regex features the service forbids in user tokenizers:
    * look-ahead `(?=`/`(?!`, look-behind `(?<=`/`(?<!`, and backreferences.
    */
  def hasForbiddenConstruct(regex: String): Boolean = {
    val lookAround = Seq("(?=", "(?!", "(?<=", "(?<!")
    lookAround.exists(regex.contains) || raw"\\[1-9]".r.findFirstIn(regex).isDefined
  }

  /** Shared default instance ([[Pattern]] is thread-safe). */
  val default: Tokenizer = new Tokenizer()
}
