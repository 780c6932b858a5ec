package perfbench

import scala.util.Random

import repro.core.{ByteBrain, ByteBrainConfig, Tokenizer}
import repro.logdata.{DatasetSpec, Datasets, GroundTemplate, LogSynth, SlotKind, Tok}

/** Raw lines with the generator's template id per line. */
final case class Labelled(lines: Array[String], truth: Array[Int]) {
  def size: Int = lines.length
  def rawUniqueShare: Double = lines.distinct.length.toDouble / size
}

/** Workload inputs. Every topic is fixed: its templates, their Zipf weights
  * and which of them are held out come from `repro.logdata.LogSynth` with the
  * catalog's default seed, so every run exercises the same template
  * structure. The run's seed draws the records: which template each line
  * renders and its variable values.
  */
object Inputs {
  val cfg: ByteBrainConfig = ByteBrainConfig()
  /** Seed of the topics' template sets (the catalog's default). */
  val TopicSeed = 7L

  def tokenCount(line: String): Int =
    ByteBrain.preprocess(line, cfg, Tokenizer.default).length

  /** A fixed topic: LogSynth's templates for `spec` with Zipf weights over
    * shuffled ranks and list tails on the lightest templates, as
    * `LogSynth.generate` builds them.
    */
  final class Topic(val spec: DatasetSpec) {
    private val base = LogSynth.buildTemplates(spec, TopicSeed)
    private val cdf: Array[Double] = {
      val rng = new Random(TopicSeed * 31 + spec.name.hashCode)
      val w = rng.shuffle((1 to base.size).toVector).map(r => 1.0 / math.pow(r, spec.zipfAlpha)).toArray
      val total = w.sum
      w.scanLeft(0.0)(_ + _ / total).tail.updated(base.size - 1, 1.0)
    }
    private val weight: Array[Double] = cdf.indices.map(i => if (i == 0) cdf(0) else cdf(i) - cdf(i - 1)).toArray
    val templates: Vector[GroundTemplate] = {
      val lightest = weight.indices.sortBy(weight(_)).take(spec.listTemplates).toSet
      base.map(t => if (lightest.contains(t.id)) t.copy(listTail = Some(Tok.Slot(SlotKind.Id, Vector.empty))) else t)
    }

    /** `n` records drawn with `rng` from the templates `allowed` admits. */
    def sample(n: Int, rng: Random, allowed: Int => Boolean = _ => true): Labelled = {
      val lines = new Array[String](n)
      val truth = new Array[Int](n)
      var i = 0
      while (i < n) {
        var t = java.util.Arrays.binarySearch(cdf, rng.nextDouble())
        if (t < 0) t = -t - 1
        if (allowed(t)) {
          lines(i) = templates(t).render(rng); truth(i) = t; i += 1
        }
      }
      Labelled(lines, truth)
    }
  }

  // --------------------------------------------- local-service: held-out stream

  val StreamTopic = new Topic(Datasets.loghub2Spec("Thunderbird"))
  val StreamTrainLines = 40000
  val StreamLines = 40000
  val HeldOutTemplateShare = 0.2
  /** Templates the model never trains on, fixed with the topic. */
  val HeldOut: Set[Int] = new Random(TopicSeed).shuffle(StreamTopic.templates.indices.toVector)
    .take(math.round(StreamTopic.templates.size * HeldOutTemplateShare).toInt).toSet
  /** Every NovelEvery-th stream line has a token count training never saw. */
  val NovelEvery = 50
  /** Truth ids of novel lines are offset so they never collide with the topic's. */
  val NovelTruthBase = 1000000

  final case class Stream(train: Labelled, stream: Labelled, heldOutLines: Int, novelLines: Int)

  /** Training lines come from 80% of the topic's templates; the stream is
    * fresh lines from all of them, with every NovelEvery-th line replaced by
    * one whose token count occurs nowhere in training, so the matcher's
    * insert path (temporaries) runs.
    */
  def stream(seed: Long): Stream = {
    val rng = new Random(seed)
    val train = StreamTopic.sample(StreamTrainLines, rng, t => !HeldOut.contains(t))
    val trainLengths = train.lines.iterator.map(tokenCount).toSet
    val novelTopic = new Topic(DatasetSpec("Novel", 40, Vector("novel", "unseen", "shape"),
      minLen = trainLengths.max + 3, maxLen = trainLengths.max + 8, listTemplates = 0))
    val fresh = StreamTopic.sample(StreamLines, rng)
    val novel = novelTopic.sample(StreamLines / NovelEvery, rng)
    require(novel.lines.forall(l => !trainLengths.contains(tokenCount(l))),
      "a novel line has a token count seen in training")
    var v = 0
    for (i <- NovelEvery - 1 until StreamLines by NovelEvery) {
      fresh.lines(i) = novel.lines(v); fresh.truth(i) = NovelTruthBase + novel.truth(v); v += 1
    }
    Stream(train, fresh, fresh.truth.count(HeldOut.contains), v)
  }

  // ----------------------------------------- local-service: low-dup refresh batch

  /** Mac's LogHub-2.0 template count with most slots rendering a fresh value
    * per line, so raw-line dedup has almost nothing to remove.
    */
  val LowdupTopic = new Topic(Datasets.loghub2Spec("Mac").copy(
    name = "Mac-lowdup", unboundedSlotFraction = 0.6))
  val LowdupLines = 30000

  final case class Lowdup(previous: Labelled, batch: Labelled)

  /** Two consecutive batches of one topic: the previous cycle's and this one's. */
  def lowdup(seed: Long): Lowdup = {
    val rng = new Random(seed)
    Lowdup(LowdupTopic.sample(LowdupLines, rng), LowdupTopic.sample(LowdupLines, rng))
  }

  // ---------------------------------------------------------------- spark-hdfs

  val HdfsTopic = new Topic(Datasets.loghub2Spec("HDFS"))
  val HdfsLines = 120000

  def hdfs(seed: Long): Labelled = HdfsTopic.sample(HdfsLines, new Random(seed))
}
