#!/usr/bin/env python3
"""Coverage-pipeline benchmark.

    python3 covbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program and the
benchmark harness from source with sbt (offline) into .bench_build/. Each run
then starts one JVM (covbench.Main) that creates a local SparkSession, makes
one cold, untimed pass of the pipeline on the workload, and runs warm passes
back to back for S seconds, checking every pass's output.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics. Everything a
run measured (every pass, the spans of traced passes, the environment) is
written to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROGRAM_SOURCES = [ROOT / "src" / "main" / "scala", ROOT / "jobs"]

RUN_LIMIT_S = 170          # a run must end within 180 s; keep a margin
BUILD_LIMIT_S = 840        # the first run may take 900 s, because it builds
HEAP = "4g"

JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"covbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over every source file the benchmark compiles."""
    h = hashlib.sha256()
    files = []
    for base in PROGRAM_SOURCES + [HERE / "src"]:
        files += [p for p in base.rglob("*.scala") if p.is_file()]
    files += [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build(digest):
    """Compile the program and the harness with sbt; return the classpath."""
    stamp = BUILD / "classpath.json"
    if stamp.exists():
        cached = json.loads(stamp.read_text())
        if cached.get("digest") == digest:
            return cached["classpath"]
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    if not (Path(os.environ.get("SPARK_HOME", "")) / "jars").is_dir():
        fail("SPARK_HOME must name a Spark distribution with a jars/ directory")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.exists():
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true -Xmx2g")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "compile", "export Runtime/fullClasspath"],
            cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=out, text=True,
            timeout=BUILD_LIMIT_S)
    out_lines = proc.stdout.splitlines()
    with open(log, "a") as out:
        out.write(proc.stdout)
    cp = [ln for ln in out_lines if "covbench" in ln and "classes" in ln and not ln.startswith("[")]
    if proc.returncode != 0 or not cp:
        fail(f"build failed (exit {proc.returncode}); see {log}")
    stamp.write_text(json.dumps({"digest": digest, "classpath": cp[-1].strip()}))
    return cp[-1].strip()


def run_jvm(classpath, args, raw, deadline_s):
    """Start covbench.Main for one run and wait for it; return its launch
    time in epoch ms."""
    for sub in ("tmp", "spark-local", "run", "logs"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["SPARK_LOCAL_DIRS"] = str(BUILD / "spark-local")
    cmd = ["java", f"-Xmx{HEAP}",
           "-Dspark.driver.host=127.0.0.1",
           f"-Djava.io.tmpdir={BUILD / 'tmp'}",
           f"-Dspark.local.dir={BUILD / 'spark-local'}",
           f"-Dspark.sql.warehouse.dir={BUILD / 'run' / 'spark-warehouse'}"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in JAVA_OPENS]
    cmd += ["-cp", classpath, "covbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(raw)]
    log = BUILD / "logs" / f"{raw.stem}.log"
    launch_ms = time.time() * 1000.0
    with open(log, "w") as out:
        proc = subprocess.Popen(cmd, cwd=BUILD / "run", env=env, stdout=out, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=deadline_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"the JVM did not finish within {deadline_s:.0f} s; see {log}")
    if code != 0:
        fail(f"the JVM exited with code {code}; see {log}")
    return launch_ms


def summary(values):
    """Median, the highest percentile with ten samples beyond it (the maximum
    when there are too few samples for one), and the sample count."""
    n = len(values)
    s = sorted(values)
    out = {"median": statistics.median(s), "n": n}
    pct = max((p for p in (99, 95, 90, 75, 50) if n * (100 - p) / 100 >= 10), default=None)
    if pct is None:
        out["max"] = s[-1]
    else:
        out[f"p{pct}"] = s[min(n - 1, int(round(pct / 100 * n)) - 1)]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file() or not all(p.is_dir() for p in PROGRAM_SOURCES):
        fail(f"{ROOT} is not a checkout of the program: BENCHMARK.json, src/main/scala and jobs are needed")
    spec = json.loads(spec_file.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    digest = source_digest()
    classpath = build(digest)
    started = time.time()

    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = BUILD / "results" / f"{tag}.raw.json"
    raw.unlink(missing_ok=True)
    launch_ms = run_jvm(classpath, args, raw, RUN_LIMIT_S - (time.time() - started))
    doc = json.loads(raw.read_text())

    passes = doc["passes"]
    cold = doc["cold"]
    failures = [f for p in ([cold] if cold else []) + passes for f in p["failures"]]
    failed_passes = sum(1 for p in passes if p["failures"]) + len(doc["errors"])
    attempted = max(1, doc["attempted"])

    samples = {}
    for p in passes:
        for k, v in p["samples"].items():
            samples.setdefault(k, []).append(v)
    samples["setup_s"] = [(doc["cold_done_ms"] - launch_ms) / 1000.0]
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    layers = {}
    for p in traced:
        for k, v in p["layers"].items():
            layers.setdefault(k, []).append(v)
        layers.setdefault("jvm.gc_s", []).append(p["samples"]["jvm.gc_s"])
    if traced and untraced:
        # Traced and untraced passes alternate over fresh datasets, so both
        # medians include the same mix of per-dataset costs.
        layers["trace.overhead_s"] = [
            statistics.median(p["samples"]["pipeline_s"] for p in traced)
            - statistics.median(p["samples"]["pipeline_s"] for p in untraced)]

    source = layers if args.trace else samples
    metrics, missing = {}, []
    for m in declared:
        if source.get(m["name"]):
            metrics[m["name"]] = {"value": statistics.median(source[m["name"]]), "unit": m["unit"]}
        else:
            missing.append(m["name"])
    if missing:
        failures.append(f"metrics not measured: {', '.join(missing)}")

    env = dict(doc["env"])
    env["nproc_os"] = os.cpu_count()
    env["source_sha256"] = digest
    env["commit"] = None
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                           text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass

    result = {
        "correct": not failures and not doc["errors"] and bool(passes),
        "attempted": attempted,
        "failed": failed_passes,
        "metrics": metrics,
    }
    detail = {
        "workload": doc["workload"], "seed": doc["seed"], "params": doc["params"], "env": env,
        "result": result,
        "summaries": {k: summary(v) for k, v in sorted({**samples, **layers}.items())},
        "failures": failures, "errors": doc["errors"],
        "passes": passes, "cold": cold, "spans": doc["spans"],
    }
    (BUILD / "results" / f"{tag}.json").write_text(json.dumps(detail, indent=1))

    print(f"workload={doc['workload']} seed={doc['seed']} params={json.dumps(doc['params'])}")
    print("env " + json.dumps(env))
    for k, s in detail["summaries"].items():
        print(f"  {k}: " + ", ".join(f"{a}={b:.6g}" if isinstance(b, float) else f"{a}={b}" for a, b in s.items()))
    for f in failures + doc["errors"]:
        print(f"FAILED: {f}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
