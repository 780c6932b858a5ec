package repro.bench

import scala.collection.concurrent.TrieMap

import repro.logdata.GeneratedDataset

/** Bench suites share one JVM; each dataset is generated once per run, so
  * the tables that score the same corpora (Tables 1 and 3, the throughput
  * comparison) do not regenerate 80k-line sets.
  */
object BenchCache {
  private val datasets = TrieMap.empty[String, GeneratedDataset]
  def dataset(key: String, gen: => GeneratedDataset): GeneratedDataset =
    datasets.getOrElseUpdate(key, gen)
}
