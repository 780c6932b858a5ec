package repro.core

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

  /** Replace all default patterns in one raw message (driver/executor local). */
  def replace(message: String, patterns: Seq[(String, String)] = defaultPatterns): String =
    patterns.foldLeft(message) { case (m, (_, p)) => m.replaceAll(p, Wildcard) }
}
