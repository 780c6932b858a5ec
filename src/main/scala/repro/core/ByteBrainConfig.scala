package repro.core

/** Configuration for the ByteBrain parser (paper §3–§4).
  *
  * Training always runs the paper's full method: raw and token dedup,
  * position importance, declared variables and the confidence factor in
  * saturation, K-Means++ seeding and the early stops. The §5.4 ablation
  * variants that switch these off are not available from the config.
  *
  * @param stopThreshold      saturation at which a node stops splitting (1.0 = fully resolved)
  * @param prefixTokens       k tokens of prefix used for initial grouping (paper default 0)
  * @param maxDepth           hard recursion cap (paper: bounded by token positions)
  * @param mergeThreshold     template similarity above which retrained templates merge (§3)
  * @param sampleMaxLogs      sampling cap to avoid OOM on huge topics (§3): a topic with
  *                           more lines trains on exactly this many (see [[Trainer]])
  * @param variablePatterns   (name, regex) common-variable patterns (§4.1.2); each must
  *                           compile and use no look-around or backreference
  *                           ([[Tokenizer.hasForbiddenConstruct]]), checked here
  *                           rather than on the first line an executor replaces
  * @param tokenizerRegex     delimiter regex of the topic's [[Tokenizer]] (§4.1.1); checked
  *                           the same way, by building a tokenizer here
  */
final case class ByteBrainConfig(
    stopThreshold: Double = 1.0,
    prefixTokens: Int = 0,
    maxDepth: Int = 32,
    mergeThreshold: Double = 0.8,
    sampleMaxLogs: Long = 5_000_000L,
    seed: Long = 17L,
    variablePatterns: Seq[(String, String)] = CommonVariables.defaultPatterns,
    tokenizerRegex: String = Tokenizer.DefaultDelimiters,
) {
  require(stopThreshold > 0 && stopThreshold <= 1.0, "stopThreshold must be in (0, 1]")
  require(sampleMaxLogs > 0, "sampleMaxLogs must be positive")
  for ((name, p) <- variablePatterns)
    require(!Tokenizer.hasForbiddenConstruct(p),
      s"look-around/backreference constructs are not allowed in variable pattern $name: $p")
  CommonVariables.compiled(variablePatterns)
  new Tokenizer(tokenizerRegex)
}
