#!/usr/bin/env python3
"""Aggregates Google Benchmark JSON files into one BENCH_<date>.json.

Called by scripts/bench.sh after every run (and by --summarize); also
usable standalone:

    python3 scripts/bench_summarize.py bench-results/
    python3 scripts/bench_summarize.py bench-results/ --output /tmp/s.json

Every counter key is derived from the JSON itself — there is no
hand-maintained list of collector counters, so a benchmark that starts
publishing a new gc_*/latency_* key shows up in the summary without
touching this script. Keys are classified by shape:

  - distribution keys (``..._p50_ns``, ``..._p99_ns``, ``..._max_ns``,
    high-water marks like ``executor_max_pending``): percentiles of
    independent runs can't be summed, so the summary reports the max
    and median across benchmarks instead, under
    ``distributions``;
  - ratio keys (``mmu_*``, ``slo_pass``): dimensionless per-run values,
    listed per row only;
  - everything else numeric (counts of events: collections, bytes,
    tickets, violations, sampled ops): summed into ``totals``.

Repetitions (``--benchmark_repetitions``, which scripts/bench.sh sets)
fold into one row per benchmark: ``real_time``/``cpu_time`` are the
median over repetitions, with the median absolute deviation beside them
(``real_time_mad``, ``cpu_time_mad``) and the repetition count
(``repetitions``); every counter is the median over repetitions, so a
five-repetition run sums into ``totals`` like a single one. The summary
is stamped with the machine and commit it measured (``machine``: CPU
model, ``nproc``, build type, git SHA and dirty flag).
"""

import argparse
import datetime
import glob
import json
import os
import re
import subprocess
import sys

# Counter prefixes folded into the summary. Anything else in a
# benchmark entry is benchmark-specific and stays per-row only.
PREFIXES = ("gc_", "latency_", "mmu_", "slo_", "alloc_", "executor_",
            "transfer_", "messages_")

# Percentile/extremum shape: aggregate as a distribution, never sum.
# gc_scope_max_depth is max-merged at the source (deepest nesting seen),
# so it aggregates the same way.
DISTRIBUTION_RE = re.compile(
    r"_(p\d+|max)_ns$|_max_pending$|_max_depth$")

# Dimensionless ratios/flags: meaningless to sum or take medians of
# across heterogeneous benchmarks; kept per-row only.
RATIO_RE = re.compile(r"^mmu_|^slo_pass$")


def classify(key):
    if DISTRIBUTION_RE.search(key):
        return "distribution"
    if RATIO_RE.search(key):
        return "ratio"
    return "total"


def median(vals):
    vals = sorted(vals)
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2


def mad(vals):
    """Median absolute deviation: the noise bar beside a median."""
    m = median(vals)
    return median([abs(v - m) for v in vals])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip() or None
    except (OSError, TypeError):
        pass
    return None


def git_state(repo):
    def git(*cmd):
        return subprocess.run(["git", "-C", repo, *cmd], capture_output=True,
                              text=True)
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return "unknown", None
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except OSError:  # No git on PATH.
        return "unknown", None
    return head.stdout.strip(), bool(dirty.stdout.strip())


def machine(build_dir):
    """Fingerprint of what the numbers were measured on and with: the
    commit is the one the build tree was configured from."""
    source = (cmake_cache(build_dir, "CMAKE_HOME_DIRECTORY")
              or os.path.dirname(os.path.abspath(__file__)))
    sha, dirty = git_state(source)
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE") or "unknown",
        "git_sha": sha,
        "git_dirty": dirty,
    }


def fold_repetitions(name, file, runs):
    """One row from every repetition of one benchmark."""
    row = {
        "file": file,
        "name": name,
        "repetitions": len(runs),
        "time_unit": runs[0].get("time_unit"),
        "iterations": median([r.get("iterations", 0) for r in runs]),
    }
    for key in ("real_time", "cpu_time"):
        vals = [r[key] for r in runs if isinstance(r.get(key), (int, float))]
        row[key] = median(vals) if vals else None
        row[key + "_mad"] = mad(vals) if vals else None
    for key in runs[0]:
        if not key.startswith(PREFIXES):
            continue
        vals = [r[key] for r in runs if isinstance(r.get(key), (int, float))]
        if vals:
            row[key] = median(vals)
    return row


def summarize(out_dir, build_dir=None):
    rows, totals, dists = [], {}, {}
    files_read, files_bad = 0, 0

    for path in sorted(glob.glob(os.path.join(out_dir, "*.json"))):
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_summarize: skipping malformed {path}: {e}",
                  file=sys.stderr)
            files_bad += 1
            continue
        files_read += 1
        # Repetitions of one benchmark share its run_name; keep first-seen
        # order so rows follow the binary's registration order.
        groups = {}
        for b in data.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue  # mean/median/stddev rows duplicate the raw runs
            groups.setdefault(b.get("run_name", b.get("name")), []).append(b)
        file = os.path.splitext(os.path.basename(path))[0]
        for name, runs in groups.items():
            row = fold_repetitions(name, file, runs)
            for key, val in row.items():
                if not key.startswith(PREFIXES):
                    continue
                kind = classify(key)
                if kind == "total":
                    totals[key] = totals.get(key, 0) + val
                elif kind == "distribution":
                    dists.setdefault(key, []).append(val)
            rows.append(row)

    return {
        "date": datetime.date.today().isoformat(),
        "source": out_dir,
        "machine": machine(build_dir),
        "files": files_read,
        "files_skipped": files_bad,
        "gc_totals": totals,
        # Fleet-wide view over every benchmark that published this
        # percentile/high-water counter: worst and median of the
        # per-benchmark values.
        "distributions": {
            key: {
                "max": max(vals),
                "median": sorted(vals)[len(vals) // 2],
                "benchmarks": len(vals),
            }
            for key, vals in sorted(dists.items())
        },
        "benchmarks": rows,
    }, files_read, files_bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", help="directory of per-binary benchmark JSON")
    ap.add_argument("--output", default=None,
                    help="summary path (default BENCH_<date>.json in cwd)")
    ap.add_argument("--build-dir", default=None,
                    help="build tree the benchmarks came from (its "
                         "CMakeCache.txt names the build type)")
    args = ap.parse_args()

    summary, files_read, files_bad = summarize(args.out_dir, args.build_dir)
    name = args.output or f"BENCH_{summary['date']}.json"
    with open(name, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    print(f"==> {name}: {len(summary['benchmarks'])} benchmarks from "
          f"{files_read} files"
          + (f" ({files_bad} skipped)" if files_bad else ""))


if __name__ == "__main__":
    main()
