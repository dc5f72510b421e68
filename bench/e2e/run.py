#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench/e2e/README.md).

Three ways to call it, all from any directory:

  run.py [--reps N] [--traced] [--out FILE]
      Builds gcbench (Release) in .bench_build/e2e, runs N repetitions of
      every workload (repetition i uses seed i; workload order alternates
      between repetitions), optionally one traced run per workload, prints
      every metric with median, q1, q3 and n, and writes a fingerprinted
      result file that compare.py reads. Exits nonzero if any audit fails.

  run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The last line of standard output is one JSON object with
      correct/attempted/failed and the end-to-end metrics (--trace 0) or
      the per-layer metrics (--trace 1) that BENCHMARK.json names.

  run.py --smoke [--gcbench PATH]
      Every workload at about 1% scale, untraced and traced: audit clean,
      no failed op, every BENCHMARK.json metric present and finite, one
      op-latency sample per attempted op, and identical collection counts
      for equal seeds on the single-shard workloads.

Every GENGC_* environment variable is removed before gcbench starts, so
library defaults are defaults, except the one GCBENCH_ENV sets.
"""

import argparse
import datetime
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ["guardian-sessions", "scoped-sessions", "mesh-small", "mesh-bulk"]
SINGLE_SHARD = ["guardian-sessions", "scoped-sessions"]

# Untraced ops per second of each workload on the reference machine
# (README.md). A run of S seconds does S * rate ops: the work is fixed per
# workload, not per wall-clock second, so two commits do identical work
# and a seed reproduces its collection counts exactly.
OPS_PER_SECOND = {
    "guardian-sessions": 800_000,
    "scoped-sessions": 800_000,
    "mesh-small": 920_000,
    "mesh-bulk": 78_000,
}
# The one setting that is not the library default. The default scavenge
# width is the core count, so every shard adds three GC workers on a
# 4-core machine; with the executor that oversubscribes the cores, and
# runs of one commit spread twice as wide (README.md, "Noise").
GCBENCH_ENV = {"GENGC_GC_THREADS": "1"}
SMOKE_SCALE = 0.01
DEFAULT_SECONDS = 15


def load_spec():
    return json.loads(SPEC.read_text())


def gcbench_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GENGC_")}
    env.update(GCBENCH_ENV)
    return env


def build():
    """Configures and builds gcbench; returns its path. Build output goes
    to a log file so standard output stays reserved for results."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.exit(f"run.py: {ROOT / 'src'} not found; the benchmark builds "
                 "the libraries from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = [["cmake", "--build", str(BUILD), "--target", "gcbench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    # Once configured, the build step re-runs CMake itself when a
    # CMakeLists.txt changes.
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    return BUILD / "gcbench"


def ops_for(workload, seconds):
    return max(1, int(seconds * OPS_PER_SECOND[workload]))


def run_gcbench(binary, workload, seed, ops, traced=False):
    """One gcbench process; returns its result object with 'rc' added."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--ops", str(ops)]
    if traced:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=gcbench_env(), timeout=170)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"workload": workload, "seed": seed, "traced": traced,
                  "attempted": 0, "failed": 0, "op_samples": 0,
                  "audit": [f"gcbench exited {proc.returncode} without a "
                            "result"], "metrics": {}}
    result["rc"] = proc.returncode
    return result


def is_correct(result):
    return (result["rc"] == 0 and not result["audit"]
            and result["attempted"] >= 1
            and result["op_samples"] == result["attempted"])


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


#===--- One run, one JSON line -------------------------------------------===#

def single_run(args):
    spec = load_spec()
    binary = build()
    result = run_gcbench(binary, args.workload, args.seed,
                         ops_for(args.workload, args.seconds),
                         traced=bool(args.trace))
    section = "per_layer" if args.trace else "end_to_end"
    correct = is_correct(result)
    metrics = {}
    for m in spec[section]:
        value = result["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


#===--- Repetitions, summary and result file ------------------------------===#

def fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and not line.startswith(("//", "#")):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                              text=True)
        if head.returncode == 0:
            sha = head.stdout.strip()
            dirty = bool(subprocess.run(
                git + ["status", "--porcelain"], capture_output=True,
                text=True).stdout.strip())
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_sha": sha, "git_dirty": dirty,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds")}


def summarize(runs, spec):
    """{workload: {metric: (median, q1, q3, n, unit)}}. End-to-end metrics
    come from untraced runs only, per-layer metrics from traced runs."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = [m["name"] for m in spec["end_to_end"]]
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        out[w] = {}
        for traced, names in ((False, e2e),
                              (True, [m["name"] for m in spec["per_layer"]])):
            mine = [r for r in runs if r["workload"] == w
                    and r["traced"] == traced]
            for name in names:
                values = [r["metrics"][name] for r in mine
                          if name in r["metrics"]]
                if values:
                    out[w][name] = (*quartiles(values), len(values),
                                    units[name])
    return out


def print_summary(summary):
    print(f"{'workload':<18} {'metric':<40} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>3}  unit")
    for w, metrics in summary.items():
        for name, (med, q1, q3, n, unit) in metrics.items():
            print(f"{w:<18} {name:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{n:>3}  {unit}")


def repetitions(args):
    spec = load_spec()
    binary = build()
    workloads = WORKLOADS
    runs = []
    for rep in range(1, args.reps + 1):
        order = workloads if rep % 2 else list(reversed(workloads))
        for w in order:
            r = run_gcbench(binary, w, rep, ops_for(w, args.seconds))
            runs.append(r)
            print(f"run.py: rep {rep} {w}: "
                  f"{r['metrics'].get('throughput_ops_s', 0):.0f} ops/s"
                  f"{'' if is_correct(r) else '  AUDIT FAILED'}",
                  file=sys.stderr)
    if args.traced:
        for w in workloads:
            runs.append(run_gcbench(binary, w, 1, ops_for(w, args.seconds),
                                    traced=True))
    summary = summarize(runs, spec)
    print_summary(summary)
    out = Path(args.out) if args.out else HERE / "results" / (
        datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y%m%dT%H%M%SZ") + ".json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "fingerprint": fingerprint(), "seconds": args.seconds,
        "ops": {w: ops_for(w, args.seconds) for w in workloads},
        "runs": runs,
        "summary": {w: {name: dict(zip(("median", "q1", "q3", "n", "unit"), v))
                        for name, v in m.items()}
                    for w, m in summary.items()}}, indent=1) + "\n")
    print(f"run.py: results -> {out}", file=sys.stderr)
    bad = [r for r in runs if not is_correct(r)]
    for r in bad:
        print(f"run.py: AUDIT FAILED: {r['workload']} seed {r['seed']}: "
              f"{r['audit']} (exit {r['rc']})", file=sys.stderr)
    return 1 if bad else 0


#===--- Smoke test --------------------------------------------------------===#

def smoke(args):
    spec = load_spec()
    binary = Path(args.gcbench) if args.gcbench else build()
    problems = []
    for w in WORKLOADS:
        ops = ops_for(w, DEFAULT_SECONDS * SMOKE_SCALE)
        untraced = run_gcbench(binary, w, 1, ops)
        traced = run_gcbench(binary, w, 1, ops, traced=True)
        for r, section in ((untraced, "end_to_end"), (traced, "per_layer")):
            tag = f"{w} ({'traced' if r['traced'] else 'untraced'})"
            if r["rc"] != 0 or r["audit"]:
                problems.append(f"{tag}: audit {r['audit']} exit {r['rc']}")
            if r["failed"]:
                problems.append(f"{tag}: {r['failed']} ops failed")
            if r["op_samples"] != r["attempted"]:
                problems.append(f"{tag}: {r['op_samples']} op-latency "
                                f"samples for {r['attempted']} ops")
            for m in spec[section]:
                v = r["metrics"].get(m["name"])
                if v is None or not math.isfinite(v):
                    problems.append(f"{tag}: metric {m['name']} = {v}")
        if w in SINGLE_SHARD:
            again = run_gcbench(binary, w, 1, ops)
            for key in ("gc.collect.count", "gc.collect.bytes_copied"):
                a, b = untraced["metrics"].get(key), again["metrics"].get(key)
                if a != b:
                    problems.append(f"{w}: {key} differs for one seed: "
                                    f"{a} vs {b}")
        print(f"run.py: smoke {w}: {ops} ops, "
              f"{untraced['metrics'].get('gc.collect.count', 0):.0f} "
              f"collections", file=sys.stderr)
    for p in problems:
        print(f"run.py: SMOKE FAILURE: {p}", file=sys.stderr)
    print("run.py: smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--traced", action="store_true",
                   help="also run each workload once with tracing")
    p.add_argument("--out", help="result file (default bench/e2e/results/)")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--gcbench", help="use this binary instead of building")
    args = p.parse_args()
    if args.seconds <= 0 or args.reps < 1:
        p.error("--seconds and --reps must be positive")
    if args.smoke:
        return smoke(args)
    if args.workload:
        return single_run(args)
    return repetitions(args)


if __name__ == "__main__":
    sys.exit(main())
