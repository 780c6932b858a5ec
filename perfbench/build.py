"""Build file of the benchmark: compiles the program's sources together with
the benchmark's own Scala sources, using the Scala compiler that ships in the
Spark distribution's jar directory (no dependency resolution, no network).

    python3 perfbench/build.py          # build into .bench_build/perfbench

The build is skipped when the stamp of the last build matches a hash of every
input file, so repeated benchmark runs in one checkout compile once.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(OUT, "stamp")

# The layers the benchmark drives: the ByteBrain core, the synthetic log
# generator and the grouping-accuracy metric. Baselines, jobs and the DuckDB
# oracle are not on the benchmark's path.
PROGRAM_SOURCES = [
    "src/main/scala/repro/core/*.scala",
    "src/main/scala/repro/logdata/*.scala",
    "src/main/scala/repro/eval/GroupingAccuracy.scala",
]


class BuildError(Exception):
    pass


def spark_jars():
    """Directory of the Spark distribution's jars: $SPARK_HOME/jars, else the
    directory next to the `spark-submit` found on PATH."""
    homes = [os.environ.get("SPARK_HOME", "")]
    submit = shutil.which("spark-submit")
    if submit:
        homes.append(os.path.dirname(os.path.dirname(os.path.realpath(submit))))
    for home in homes:
        jars = os.path.join(home, "jars")
        if home and glob.glob(os.path.join(jars, "spark-core_*.jar")):
            return jars
    raise BuildError("no Spark distribution found (set SPARK_HOME)")


def sources():
    program = []
    for pattern in PROGRAM_SOURCES:
        found = sorted(glob.glob(os.path.join(ROOT, pattern)))
        if not found:
            raise BuildError("program sources missing: " + pattern)
        program += found
    bench = sorted(glob.glob(os.path.join(BENCH_DIR, "src", "**", "*.scala"), recursive=True))
    if not bench:
        raise BuildError("benchmark sources missing")
    return program + bench


def build():
    """Compile if needed; returns the runtime classpath."""
    jars = spark_jars()
    srcs = sources()
    digest = hashlib.sha256(jars.encode())
    for path in srcs:
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    stamp = digest.hexdigest()
    classpath = CLASSES + os.pathsep + os.path.join(jars, "*")
    if os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read() == stamp:
                return classpath

    scalac = [glob.glob(os.path.join(jars, "scala-%s-2.*.jar" % n))
              for n in ("compiler", "library", "reflect")]
    if not all(scalac):
        raise BuildError("the Spark distribution ships no Scala compiler")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xmx1g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
           "-cp", os.pathsep.join(j[0] for j in scalac),
           "scala.tools.nsc.Main", "-usejavacp", "-deprecation:false", "-nowarn",
           "-d", CLASSES, "-cp", os.path.join(jars, "*")] + srcs
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise BuildError("compilation failed:\n" + proc.stdout[-4000:])
    with open(STAMP, "w") as f:
        f.write(stamp)
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print("build: " + str(e), file=sys.stderr)
        sys.exit(2)
