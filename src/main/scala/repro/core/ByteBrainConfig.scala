package repro.core

/** Configuration for the ByteBrain parser (paper §3–§4).
  *
  * Defaults reproduce the paper's full method; the boolean flags switch off
  * individual techniques to reproduce the §5.4 ablation variants:
  *
  *  - `positionImportance = false`      → "w/o position importance" (w_i = 1)
  *  - `variableInSaturation = false`    → "w/o variable in saturation" (s = f_c)
  *  - `confidenceFactor = false`        → "w/o confidence factor" (s = f_v · f_c)
  *  - `kmeansPlusPlus = false`          → "random centroid selection"
  *  - `earlyStop = false`, `dedup = false`
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
    dedup: Boolean = true,
    positionImportance: Boolean = true,
    variableInSaturation: Boolean = true,
    confidenceFactor: Boolean = true,
    kmeansPlusPlus: Boolean = true,
    earlyStop: Boolean = true,
    maxDepth: Int = 32,
    mergeThreshold: Double = 0.8,
    sampleMaxLogs: Long = 5_000_000L,
    seed: Long = 17L,
    variablePatterns: Seq[(String, String)] = CommonVariables.defaultPatterns,
    tokenizerRegex: String = Tokenizer.DefaultDelimiters,
) {
  require(stopThreshold > 0 && stopThreshold <= 1.0, "stopThreshold must be in (0, 1]")
  for ((name, p) <- variablePatterns)
    require(!Tokenizer.hasForbiddenConstruct(p),
      s"look-around/backreference constructs are not allowed in variable pattern $name: $p")
  CommonVariables.compiled(variablePatterns)
  new Tokenizer(tokenizerRegex)
}
