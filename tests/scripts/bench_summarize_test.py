#!/usr/bin/env python3
"""Fixture test for scripts/bench_summarize.py key derivation.

Feeds a synthetic Google-Benchmark JSON through the summarizer and
asserts the property the hand-maintained GC_KEYS list used to violate:
every gc_*/latency_*/mmu_*/slo_*/alloc_*/executor_*/transfer_*/
messages_* counter present in the input — including ones this repo has never seen before — appears in
the summary, classified by shape (summed total, distribution, or
per-row ratio). Repetitions of one benchmark fold into one row: median
time with its median absolute deviation, counters as medians. The
summary carries the machine fingerprint.

Usage: bench_summarize_test.py <repo_root>
"""

import json
import os
import shutil
import sys
import tempfile

REPO = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                       os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(0, os.path.join(REPO, "scripts"))

import bench_summarize  # noqa: E402

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "summarize_fixture.json")


def main():
    tmp = tempfile.mkdtemp(prefix="bench_summarize_test.")
    try:
        shutil.copy(FIXTURE, os.path.join(tmp, "fixture.json"))
        # A malformed file must be skipped, not abort the summary.
        with open(os.path.join(tmp, "broken.json"), "w") as f:
            f.write("{not json")
        summary, files_read, files_bad = bench_summarize.summarize(tmp)
    finally:
        shutil.rmtree(tmp)

    assert files_read == 1, files_read
    assert files_bad == 1, files_bad

    rows = summary["benchmarks"]
    # Aggregate rows dropped; gamma's three repetitions are one row.
    assert [r["name"] for r in rows] == ["BM_Fixture/alpha",
                                         "BM_Fixture/beta",
                                         "BM_Fixture/gamma"], rows
    alpha = next(r for r in rows if r["name"] == "BM_Fixture/alpha")
    assert alpha["repetitions"] == 1 and alpha["real_time_mad"] == 0, alpha

    # Repetitions: times 10/30/12 -> median 12, deviations 2/18/0 -> MAD 2.
    gamma = rows[2]
    assert gamma["repetitions"] == 3, gamma
    assert gamma["real_time"] == 12.0 and gamma["real_time_mad"] == 2.0, gamma
    assert gamma["cpu_time"] == 11.0 and gamma["cpu_time_mad"] == 2.0, gamma
    assert gamma["gc_pause_p99_ns"] == 120, gamma  # median, not max or sum

    # The fingerprint of the machine and commit measured.
    mach = summary["machine"]
    assert mach["nproc"] == os.cpu_count(), mach
    for key in ("cpu_model", "build_type", "git_sha", "git_dirty"):
        assert key in mach, f"machine fingerprint missing {key}"
    # No git on PATH: the stamp says so instead of aborting the summary.
    path = os.environ.get("PATH")
    os.environ["PATH"] = ""
    try:
        assert bench_summarize.git_state(REPO) == ("unknown", None)
    finally:
        if path is None:
            del os.environ["PATH"]
        else:
            os.environ["PATH"] = path

    # Every tracked-prefix counter lands on the row, even ones no script
    # enumerates; untracked counters stay out.
    for key in ("gc_novel_counter_added_later", "latency_op_count",
                "mmu_10ms", "slo_pass", "alloc_sampled_sites",
                "executor_max_pending", "gc_pause_p999_ns",
                "transfer_donated_segments", "transfer_bytes_zero_copy",
                "messages_adopted"):
        assert key in alpha, f"row missing {key}"
    assert "unrelated_counter" not in alpha

    # Event counts sum across benchmarks — with no hand-kept key list,
    # the never-seen-before counter sums too.
    totals = summary["gc_totals"]
    # 4 + 6 + 5: aggregates excluded, gamma's repetitions counted once.
    assert totals["gc_collections"] == 15, totals
    assert totals["gc_bytes_copied"] == 1500, totals
    assert totals["gc_novel_counter_added_later"] == 10, totals
    assert totals["latency_op_count"] == 3000, totals
    assert totals["slo_pause_violations"] == 3, totals
    assert totals["alloc_sampled_sites"] == 3, totals
    # Request-scope counters: closes/bytes are event counts and sum;
    # max depth is max-merged at the source, so it must NOT be summed.
    assert totals["gc_scope_closes"] == 20, totals
    assert totals["gc_scope_bytes_reclaimed"] == 4608, totals
    assert "gc_scope_max_depth" not in totals, totals
    # Zero-copy transfer counters are event counts: they sum fleet-wide.
    assert totals["transfer_donated_segments"] == 24, totals
    assert totals["transfer_bytes_zero_copy"] == 98304, totals
    assert totals["messages_adopted"] == 11, totals

    # Percentiles and high-water marks must NOT be summed: they show up
    # as max/median distributions instead.
    for key in ("gc_pause_p50_ns", "gc_pause_p99_ns", "gc_pause_p999_ns",
                "gc_pause_max_ns", "latency_op_p99_ns",
                "executor_max_pending"):
        assert key not in totals, f"{key} wrongly summed"
    dists = summary["distributions"]
    assert dists["gc_pause_p99_ns"] == {"max": 120, "median": 90,
                                        "benchmarks": 3}, dists
    assert dists["gc_pause_p999_ns"]["benchmarks"] == 1, dists
    assert dists["latency_op_p99_ns"]["max"] == 600, dists
    assert dists["executor_max_pending"]["max"] == 30, dists
    assert dists["gc_scope_max_depth"] == {"max": 3, "median": 3,
                                           "benchmarks": 2}, dists

    # Ratios and flags are per-row only: never summed, never
    # distribution-folded.
    for key in ("mmu_10ms", "slo_pass"):
        assert key not in totals, f"{key} wrongly summed"
        assert key not in dists, f"{key} wrongly folded"

    print("bench_summarize_test: OK "
          f"({len(totals)} totals, {len(dists)} distributions)")


if __name__ == "__main__":
    main()
