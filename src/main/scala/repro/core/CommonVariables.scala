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
    * JDK defines `String.replaceAll`, but each list is compiled only once.
    */
  def replace(message: String, patterns: Seq[(String, String)] = defaultPatterns): String =
    compiled(patterns).foldLeft(message)((m, p) => p.matcher(m).replaceAll(Wildcard))

  /** The compiled patterns of one list, memoized per distinct list (a
    * topic's config holds one; executors see the same few). A pattern that
    * does not compile is an `IllegalArgumentException` naming it.
    */
  private[core] def compiled(patterns: Seq[(String, String)]): Array[Pattern] = {
    val ps = memo.get(patterns)
    if (ps != null) ps
    else {
      if (memo.size >= MemoCapacity) memo.clear()
      memo.computeIfAbsent(patterns, _ => compile(patterns))
    }
  }

  private def compile(patterns: Seq[(String, String)]): Array[Pattern] =
    patterns.iterator.map { case (name, p) =>
      try Pattern.compile(p)
      catch {
        case e: PatternSyntaxException =>
          throw new IllegalArgumentException(s"variable pattern $name does not compile: $p", e)
      }
    }.toArray

  /** Distinct pattern lists kept compiled; past this the memo starts over. */
  private val MemoCapacity = 64
  private val memo = new ConcurrentHashMap[Seq[(String, String)], Array[Pattern]]()
}
