"""Benchmark of ByteBrain's train -> match -> query pipeline.

    python3 perfbench/run.py --workload local-service --seed 1 --seconds 30 --trace 0

Builds the program from source (see build.py), then runs one workload in one
JVM. The JVM prints progress lines starting with '#' and, as its last line,
the result object {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the metrics are the per-layer ones. Exits non-zero when the build
fails or an output check fails.
"""
import argparse
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
import build  # noqa: E402

WORKLOADS = ("local-service", "spark-hdfs")

# Spark needs these when started from a plain `java` (spark-submit adds them).
MODULE_OPTS = ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]

HEAP = "3g"
JVM_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        classpath = build.build()
    except build.BuildError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired:
        print("perfbench: compilation timed out", file=sys.stderr)
        return 2

    work = os.path.join(build.OUT, "work")
    os.makedirs(work, exist_ok=True)
    cmd = ["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+UseParallelGC", "-XX:+UseTransparentHugePages",
           "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + work,
           "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH_DIR, "log4j2.properties"),
           ] + MODULE_OPTS + [
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: workload timed out", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
