package perfbench

import java.nio.file.{Files, Paths}
import scala.collection.mutable

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>`.
  *
  * A run generates the workload's inputs (untimed), times its set-up several
  * times, discards warm-up rounds, then repeats train → match → query rounds
  * until `--seconds` have passed. `setup_s` is the median of the set-ups;
  * each throughput is the work of all timed rounds over the time of their
  * passes. Outputs of all rounds must be identical.
  */
object Main {
  /** At most this many worker threads, whatever the machine has. */
  val MaxThreads = 4

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val workload = args("workload")
    val seed = args("seed").toLong
    val seconds = args("seconds").toDouble
    val traced = args("trace") == "1"
    val work = Paths.get(args("work"))
    Files.createDirectories(work)
    val nproc = math.min(MaxThreads, Runtime.getRuntime.availableProcessors())

    val r = new Report
    r.note(s"workload $workload seed $seed seconds $seconds trace ${if (traced) 1 else 0} " +
      s"threads $nproc heap ${Runtime.getRuntime.maxMemory >> 20} MiB")
    val w = Workload(workload, seed, nproc, work)
    w.describe(r)
    try {
      val setups = (1 to w.setupRepeats).map { _ =>
        val t0 = System.nanoTime(); w.setup(); Workload.seconds(t0)
      }
      r.note("setup seconds: " + setups.map(s => f"$s%.3f").mkString(" "))
      val warmup = (1 to w.warmupRounds).map { i =>
        val out = w.round(r)
        r.note(f"warm-up $i: train ${out.trainS}%.3f s  match ${out.matchS}%.3f s  query ${out.queryS}%.3f s")
        out
      }

      if (traced) Trace.run(w, r, seconds, work)
      else {
        val rounds = timedRounds(w, r, seconds, warmup.head)
        r.timed("setup_s", setups, "s")
        r.throughput("train_lines_per_s", w.trainLines, rounds.map(_.trainS), "1/s")
        r.throughput("match_lines_per_s", w.matchLines, rounds.map(_.matchS), "1/s")
        r.throughput("query_ids_per_s", w.queryIds, rounds.map(_.queryS), "1/s")
        r.metric("ga", rounds.head.ga, "ratio")
        r.metric("model_bytes", rounds.head.modelBytes.length.toDouble, "B")
      }
      w.finish(r)
    } finally w.close()

    println(r.resultJson)
    if (!r.correct) sys.exit(1)
  }

  /** Rounds for about `seconds` (at least three): the last one starts only
    * if it should end nearer to `seconds` than stopping would. Each is
    * checked against the first warm-up round: same model bytes, same GA,
    * same matched ids.
    */
  def timedRounds(w: Workload, r: Report, seconds: Double, first: RoundOut): Seq[RoundOut] = {
    val rounds = mutable.ArrayBuffer.empty[RoundOut]
    val t0 = System.nanoTime()
    var last = 0.0
    while (rounds.size < 3 || Workload.seconds(t0) + last / 2 < seconds) {
      val r0 = System.nanoTime()
      val out = w.round(r)
      last = Workload.seconds(r0)
      rounds += out
      r.note(f"round ${rounds.size}: train ${out.trainS}%.3f s  match ${out.matchS}%.3f s  query ${out.queryS}%.3f s")
      r.check(java.util.Arrays.equals(out.modelBytes, first.modelBytes),
        s"round ${rounds.size}: serialized model differs from the first")
      r.check(out.ga == first.ga, s"round ${rounds.size}: GA ${out.ga} differs from the first (${first.ga})")
      r.check(out.outputHash == first.outputHash, s"round ${rounds.size}: matched ids differ from the first")
    }
    r.note(f"${rounds.size} timed rounds in ${Workload.seconds(t0)}%.1f s")
    rounds.toSeq
  }
}
