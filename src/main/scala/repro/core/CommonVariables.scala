package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.regex.{Pattern, PatternSyntaxException}

/** Common variable replacement (paper §4.1.2).
  *
  * Before clustering, obviously-variable fields (timestamps, IPs, hashes,
  * UUIDs, …) are replaced with the wildcard token so the automatic parser
  * never has to discover them. The paper ships default patterns per topic and
  * lets tenants add domain-specific ones.
  *
  * Patterns apply to the raw message before tokenization; each is anchored on
  * token-ish boundaries so we never nibble at substrings of larger words.
  */
object CommonVariables {

  /** The wildcard that marks a variable slot in templates and replaced text. */
  val Wildcard = "<*>"

  /** Default (name, regex) patterns, applied in order. */
  val defaultPatterns: Seq[(String, String)] = Seq(
    "iso-timestamp" -> raw"\d{4}-\d{2}-\d{2}[ T]\d{2}:\d{2}:\d{2}(?:[.,]\d+)?(?:Z|[+-]\d{2}:?\d{2})?",
    "uuid"          -> raw"\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b",
    "md5"           -> raw"\b[0-9a-fA-F]{32}\b",
    "ipv4"          -> raw"\b(?:\d{1,3}\.){3}\d{1,3}(?::\d{1,5})?\b",
    "mac-address"   -> raw"\b(?:[0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}\b",
    "hex-long"      -> raw"\b0x[0-9a-fA-F]+\b",
  )

  /** Replace every pattern, in list order, in one raw message. The same as
    * `patterns.foldLeft(message)(_.replaceAll(_, Wildcard))`, which is how the
    * JDK defines `String.replaceAll`, but each list is compiled only once and
    * a default pattern is skipped when the message lacks a character it needs.
    *
    * The skip is exact: a replacement only removes characters and inserts
    * `<*>`, which holds none of the features below and keeps the characters
    * on either side apart, so no later string in the fold has a feature the
    * original message lacks — whatever the list order and whatever other
    * patterns sit before or between the defaults.
    */
  def replace(message: String, patterns: Seq[(String, String)] = defaultPatterns): String = {
    val c = compiled(patterns)
    val has = features(message)
    var m = message
    var i = 0
    while (i < c.patterns.length) {
      val need = c.needs(i)
      if ((need & has) == need) m = c.patterns(i).matcher(m).replaceAll(Wildcard)
      i += 1
    }
    m
  }

  private final val Digit = 1     // ASCII 0-9, all that `\d` matches without (?U)
  private final val Dash = 2
  private final val Colon = 4
  private final val Dot = 8
  private final val HexPrefix = 16 // "0x"
  private final val HexRun = 32    // 32 or more ASCII hex digits in a row

  /** The features a message has, in one pass over its chars. */
  private def features(s: String): Int = {
    var has = 0
    var run = 0
    var i = 0
    while (i < s.length) {
      val c = s.charAt(i)
      if (c >= '0' && c <= '9') { has |= Digit; run += 1 }
      else if ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')) run += 1
      else {
        run = 0
        if (c == '-') has |= Dash
        else if (c == ':') has |= Colon
        else if (c == '.') has |= Dot
        else if (c == 'x' && i > 0 && s.charAt(i - 1) == '0') has |= HexPrefix
      }
      if (run >= 32) has |= HexRun
      i += 1
    }
    has
  }

  /** The features every match of a default regex contains, keyed by regex
    * text, so a custom list reusing one under another name is gated the same.
    * Any other regex needs nothing and always runs.
    */
  private val needsByRegex: Map[String, Int] = {
    val regex = defaultPatterns.toMap
    Map(
      regex("iso-timestamp") -> (Digit | Dash | Colon),
      regex("uuid") -> Dash,
      regex("md5") -> HexRun,
      regex("ipv4") -> (Digit | Dot),
      regex("mac-address") -> Colon,
      regex("hex-long") -> HexPrefix,
    )
  }

  /** One list compiled: its patterns and, per pattern, the features it needs. */
  private[core] final class Compiled(val list: Seq[(String, String)], val patterns: Array[Pattern],
                                     val needs: Array[Int])

  /** The compiled form of one list, memoized per distinct list (a topic's
    * config holds one; executors see the same few). The list used last is
    * recognized by reference before the memo hashes it. A pattern that does
    * not compile is an `IllegalArgumentException` naming it.
    */
  private[core] def compiled(patterns: Seq[(String, String)]): Compiled = {
    val l = last
    if (l != null && (l.list eq patterns)) l
    else {
      var c = memo.get(patterns)
      if (c == null) {
        if (memo.size >= MemoCapacity) memo.clear()
        c = memo.computeIfAbsent(patterns, _ => compile(patterns))
      }
      last = c
      c
    }
  }

  private def compile(patterns: Seq[(String, String)]): Compiled = {
    val ps = patterns.iterator.map { case (name, p) =>
      try Pattern.compile(p)
      catch {
        case e: PatternSyntaxException =>
          throw new IllegalArgumentException(s"variable pattern $name does not compile: $p", e)
      }
    }.toArray
    new Compiled(patterns, ps, patterns.iterator.map { case (_, p) => needsByRegex.getOrElse(p, 0) }.toArray)
  }

  /** Distinct pattern lists kept compiled; past this the memo starts over. */
  private val MemoCapacity = 64
  private val memo = new ConcurrentHashMap[Seq[(String, String)], Compiled]()
  @volatile private var last: Compiled = _
}
