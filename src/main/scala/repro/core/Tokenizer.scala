package repro.core

import java.util.regex.{Pattern, PatternSyntaxException}

import scala.collection.mutable

/** Regex tokenization (paper §4.1.1).
  *
  * The paper segments each log record with one delimiter regex:
  * {{{
  * (?:://)|(?:(?:[\s\'\";=()\[\]{}?@&<>:\n\t\r,])|(?:[\.](\s+|$))|(?:\\[\"\']))+
  * }}}
  * i.e. URL protocol separators (`://`), common punctuation/whitespace
  * delimiters, sentence-ending periods (periods inside numbers survive), and
  * escaped quotes. We translate it verbatim to a JVM [[java.util.regex.Pattern]];
  * tokens are the pieces between its matches, empty ones dropped. For that
  * default regex a hand-written scanner ([[Tokenizer.scanDefault]]) gives the
  * same tokens as `Pattern.split` without running a regex per line; any other
  * regex is split with its compiled `Pattern`.
  *
  * Users may supply a custom delimiter regex per topic; look-around and other
  * super-linear constructs are rejected (paper: worst case O(2^n)).
  */
final class Tokenizer(delimiterRegex: String = Tokenizer.DefaultDelimiters) extends Serializable {
  require(!Tokenizer.hasForbiddenConstruct(delimiterRegex),
    s"look-around/backreference constructs are not allowed in topic tokenizers: $delimiterRegex")

  /** `None` for the default regex, which the scanner implements. */
  private val pattern: Option[Pattern] =
    if (delimiterRegex == Tokenizer.DefaultDelimiters) None
    else try Some(Pattern.compile(delimiterRegex)) catch {
      case e: PatternSyntaxException =>
        throw new IllegalArgumentException(s"topic tokenizer does not compile: $delimiterRegex", e)
    }

  /** Split one raw log message into its token sequence (no empty tokens). */
  def tokenize(message: String): Array[String] = pattern match {
    case None    => Tokenizer.scanDefault(message)
    case Some(p) => p.split(message).filter(_.nonEmpty)
  }
}

object Tokenizer {
  /** The paper's default delimiter regex, translated to JVM syntax. */
  val DefaultDelimiters: String =
    """(?:://)|(?:(?:[\s'";=()\[\]{}?@&<>:,])|(?:\.(?:\s+|$))|(?:\\["']))+"""

  /** Super-linear regex features the service forbids in user tokenizers and
    * variable patterns: look-ahead `(?=`/`(?!`, look-behind `(?<=`/`(?<!`,
    * and backreferences (`\1`…`\9`, `\k<name>`). Escapes are read in pairs,
    * so an escaped backslash before a digit (`\\1`, a literal) is allowed.
    */
  def hasForbiddenConstruct(regex: String): Boolean = {
    val lookAround = Seq("(?=", "(?!", "(?<=", "(?<!")
    var i = 0
    while (i < regex.length) {
      val c = regex.charAt(i)
      if (c == '\\' && i + 1 < regex.length) {
        val e = regex.charAt(i + 1)
        if ((e >= '1' && e <= '9') || e == 'k') return true
        i += 2
      } else if (c == '(' && lookAround.exists(regex.startsWith(_, i))) return true
      else i += 1
    }
    false
  }

  /** Shared default instance (stateless, so thread-safe). */
  val default: Tokenizer = new Tokenizer()

  /** `Pattern.compile(DefaultDelimiters).split(message).filter(_.nonEmpty)`
    * without a regex. A match can start at every position where
    * [[delimiterAt]] is positive, and never consumes less than one char, so
    * the tokens are the maximal runs of chars no match starts at.
    */
  private[core] def scanDefault(message: String): Array[String] = {
    val out = mutable.ArrayBuilder.make[String]
    val n = message.length
    var start = 0
    var i = 0
    while (i < n) {
      val d = delimiterAt(message, i)
      if (d == 0) i += 1
      else {
        if (i > start) out += message.substring(start, i)
        i += d
        start = i
      }
    }
    if (n > start) out += message.substring(start)
    out.result()
  }

  /** Length of the default regex's match starting at `i`, 0 for none. The
    * first alternative `://` wins where it matches; otherwise the greedy
    * `(?:X|\.(?:\s+|$)|\\["'])+` loop runs, and inside it `:` is a plain
    * delimiter char, so a run ending in `:` stops before a following `//`.
    */
  private def delimiterAt(s: String, i: Int): Int =
    if (s.startsWith("://", i)) 3
    else {
      val n = s.length
      var j = i
      var more = true
      while (more && j < n) {
        val c = s.charAt(j)
        if (isDelimiterChar(c)) j += 1
        else if (c == '.') {
          if (j + 1 < n && isSpace(s.charAt(j + 1))) {
            j += 2
            while (j < n && isSpace(s.charAt(j))) j += 1
          } else if (endsAt(s, j + 1)) j += 1
          else more = false
        } else if (c == '\\' && j + 1 < n && (s.charAt(j + 1) == '"' || s.charAt(j + 1) == '\'')) j += 2
        else more = false
      }
      j - i
    }

  /** `\s` without UNICODE_CHARACTER_CLASS: `[ \t\n\x0B\f\r]`. */
  private def isSpace(c: Char): Boolean =
    c == ' ' || (c >= '\t' && c <= '\r')

  /** The class `[\s'";=()\[\]{}?@&<>:,]`. */
  private def isDelimiterChar(c: Char): Boolean = (c: @annotation.switch) match {
    case ' ' | '\t' | '\n' | '\u000B' | '\f' | '\r' |
         '\'' | '"' | ';' | '=' | '(' | ')' | '[' | ']' | '{' | '}' |
         '?' | '@' | '&' | '<' | '>' | ':' | ',' => true
    case _ => false
  }

  /** Java's non-MULTILINE `$` at `i`: the end of input, or before a final
    * line terminator (`\n`, `\r`, `\u0085`, `\u2028`, `\u2029`, or `\r\n`).
    * Only called right after a `.`, so a `\n` here never follows a `\r`.
    */
  private def endsAt(s: String, i: Int): Boolean = {
    val n = s.length
    if (i == n) true
    else if (i == n - 1) {
      val c = s.charAt(i)
      c == '\n' || c == '\r' || c == '\u0085' || c == '\u2028' || c == '\u2029'
    } else i == n - 2 && s.charAt(i) == '\r' && s.charAt(i + 1) == '\n'
  }
}
