package org.apache.spark

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Stage, shuffle-write and task-CPU counts of the jobs Spark ran. Lives in
  * Spark's package to reach the listener bus, so counts are read only after
  * every event has been delivered.
  */
final class PerfbenchListener extends SparkListener {
  val stages = new AtomicLong
  val shuffleBytes = new AtomicLong
  val cpuNs = new AtomicLong

  @volatile private var counting = true

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = if (counting) stages.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = if (counting && e.taskMetrics != null) {
    shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    cpuNs.addAndGet(e.taskMetrics.executorCpuTime)
  }

  def drain(s: SparkSession): Unit = s.sparkContext.listenerBus.waitUntilEmpty()

  /** Runs `body` without counting the jobs it starts. */
  def uncounted[T](s: SparkSession)(body: => T): T = {
    drain(s)
    counting = false
    try body finally { drain(s); counting = true }
  }

  def reset(s: SparkSession): Unit = {
    drain(s)
    Seq(stages, shuffleBytes, cpuNs).foreach(_.set(0))
  }
}
