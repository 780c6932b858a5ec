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
    * a default regex is tried only at the positions where its anchor says a
    * match can start.
    */
  def replace(message: String, patterns: Seq[(String, String)] = defaultPatterns): String = {
    val c = compiled(patterns)
    var m = message
    var i = 0
    while (i < c.patterns.length) {
      val anchor = c.anchors(i)
      m = if (anchor < 0) c.patterns(i).matcher(m).replaceAll(Wildcard) else replaceAnchored(c.patterns(i), anchor, m)
      i += 1
    }
    m
  }

  /** `p.matcher(s).replaceAll(Wildcard)` for a default regex `p`, whose
    * matches can start only at its [[candidate]] positions. `replaceAll` tries
    * each start in turn and resumes after a match; this tries the candidates
    * in the same order with the same `Pattern`, over the whole text (the
    * bounds are transparent, so `\b` sees the characters outside the region),
    * so it finds the same matches.
    */
  private def replaceAnchored(p: Pattern, anchor: Int, s: String): String = {
    var i = candidate(anchor, s, 0)
    if (i < 0) return s
    val m = p.matcher(s).useTransparentBounds(true).useAnchoringBounds(false)
    var out: java.lang.StringBuilder = null
    var copied = 0
    while (i >= 0) {
      m.region(i, s.length)
      if (m.lookingAt()) {
        if (out == null) out = new java.lang.StringBuilder(s.length)
        out.append(s, copied, i).append(Wildcard)
        copied = m.end()
        i = candidate(anchor, s, copied)
      } else i = candidate(anchor, s, i + 1)
    }
    if (out == null) s else out.append(s, copied, s.length).toString
  }

  // the default regexes, each with its own candidate search
  private final val Timestamp = 0
  private final val Uuid = 1
  private final val Md5 = 2
  private final val Ipv4 = 3
  private final val Mac = 4
  private final val HexLong = 5

  /** The anchor of each default regex, keyed by regex text, so a custom list
    * reusing one under another name takes the same search. Any other regex
    * has none and goes through `replaceAll`.
    */
  private val anchorByRegex: Map[String, Int] = {
    val regex = defaultPatterns.toMap
    Map(
      regex("iso-timestamp") -> Timestamp,
      regex("uuid") -> Uuid,
      regex("md5") -> Md5,
      regex("ipv4") -> Ipv4,
      regex("mac-address") -> Mac,
      regex("hex-long") -> HexLong,
    )
  }

  /** The first position ≥ `from` where the default regex `anchor` may start
    * a match, or −1. Each match holds a literal at a fixed offset from its
    * start (the timestamp's `-` at +4, the uuid's `-` at +8, the mac's `:` at
    * +2, the ipv4's first `.` right after its 1–3 leading digits, the hex
    * literal's `0x` at +0) or, for md5, a run of 32 hex digits, and starts
    * with an ASCII digit or hex digit. All but the timestamp begin with `\b`
    * before a word character, which cannot hold after an ASCII letter, digit
    * or `_`, so such a left neighbour rules the position out. Every other
    * boundary case (non-ASCII letters and digits, combining marks) is left to
    * the regex, so the running JVM's own `\b` decides it.
    */
  private def candidate(anchor: Int, s: String, from: Int): Int = anchor match {
    case Timestamp => atOffset(s, '-', 4, from, decimal = true, bounded = false)
    case Uuid => atOffset(s, '-', 8, from, decimal = false, bounded = true)
    case Mac => atOffset(s, ':', 2, from, decimal = false, bounded = true)
    case HexLong =>
      var p = s.indexOf("0x", from)
      while (p > 0 && isWordChar(s.charAt(p - 1))) p = s.indexOf("0x", p + 1)
      p
    case Ipv4 =>
      var p = s.indexOf('.', from)
      while (p >= 0) {
        // the start of the 1-3 digits before this `.`; in a longer run, a digit is left of any start
        var i = p
        while (i > from && p - i < 3 && isDigit(s.charAt(i - 1))) i -= 1
        if (i < p && !(i > 0 && isWordChar(s.charAt(i - 1)))) return i
        p = s.indexOf('.', p + 1)
      }
      -1
    case Md5 =>
      // a run of 32 hex digits covers one of every 32 positions from `from` + 31 on
      var k = from + 31
      while (k < s.length) {
        if (!isHex(s.charAt(k))) k += 32
        else {
          var i = k
          while (i > from && isHex(s.charAt(i - 1))) i -= 1
          var j = k + 1
          while (j < s.length && isHex(s.charAt(j))) j += 1
          // a start inside the run [i, j) has a hex digit on its left
          if (j - i >= 32 && !(i > 0 && isWordChar(s.charAt(i - 1)))) return i
          k = j + 32
        }
      }
      -1
  }

  /** The first i ≥ `from` with `c` at i + `off` and an ASCII digit at i (an
    * ASCII hex digit unless `decimal`), and, when the regex starts with `\b`
    * (`bounded`), no ASCII word character left of i; −1 when none.
    */
  private def atOffset(s: String, c: Char, off: Int, from: Int, decimal: Boolean, bounded: Boolean): Int = {
    var p = s.indexOf(c, from + off)
    while (p >= 0) {
      val i = p - off
      val first = s.charAt(i)
      if ((if (decimal) isDigit(first) else isHex(first)) && !(bounded && i > 0 && isWordChar(s.charAt(i - 1))))
        return i
      p = s.indexOf(c, p + 1)
    }
    -1
  }

  private def isDigit(c: Char): Boolean = c >= '0' && c <= '9'
  private def isHex(c: Char): Boolean = isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
  private def isWordChar(c: Char): Boolean = isHex(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'

  /** One list compiled: its patterns and, per pattern, its anchor (−1 for a
    * regex that is not a default one).
    */
  private[core] final class Compiled(val list: Seq[(String, String)], val patterns: Array[Pattern],
                                     val anchors: Array[Int])

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
    new Compiled(patterns, ps, patterns.iterator.map { case (_, p) => anchorByRegex.getOrElse(p, -1) }.toArray)
  }

  /** Distinct pattern lists kept compiled; past this the memo starts over. */
  private val MemoCapacity = 64
  private val memo = new ConcurrentHashMap[Seq[(String, String)], Compiled]()
  @volatile private var last: Compiled = _
}
