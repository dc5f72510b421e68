#!/usr/bin/env python3
"""Compares two bench/e2e result files: compare.py PARENT.json CHANGE.json

Prints one row per workload and end-to-end metric with a verdict, using
the bounds in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than
              the bound (and both sides repeat within the bound);
  better      better by more than the bound, or -- when the spread is
              wider than the bound -- every change run beats every parent
              run;
  unchanged   the medians differ by no more than the bound;
  unresolved  the spread (IQR/median of either side) is wider than the
              bound, so a move of that size cannot be told from noise.

The claim column applies the rule for claiming a gain: the change wins at
least 9 of 10 seed-matched pairs (ties count for neither side) and the
medians differ by more than the parent's IQR.

Exits 1 on any "worse" row or when failed_op_frac rises on any workload,
2 on unreadable input, 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
FAILED = "failed_op_frac"


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def beats(x, y, better):
    return x < y if better == "lower" else x > y


def verdict(parent, change, better, bound):
    """(verdict, relative change of the median; positive is worse)."""
    mp, mc = statistics.median(parent), statistics.median(change)
    if mp != 0:
        worse_by = (mc - mp) / abs(mp)
    else:
        worse_by = 0.0 if mc == mp else float("inf") * (1 if mc > mp else -1)
    if better == "higher":
        worse_by = -worse_by
    if max(rel_spread(parent), rel_spread(change)) > bound:
        if all(beats(c, p, better) for c in change for p in parent):
            return "better", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "unchanged", worse_by


def claim(parent_by_seed, change_by_seed, better):
    """True when the change wins >= 9/10 of the seed-matched pairs and the
    medians differ, in its favour, by more than the parent's IQR."""
    seeds = sorted(set(parent_by_seed) & set(change_by_seed))
    if not seeds:
        return False
    wins = sum(beats(change_by_seed[s], parent_by_seed[s], better)
               for s in seeds)
    parent = list(parent_by_seed.values())
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change_by_seed.values())
    return (wins >= 0.9 * len(seeds) and beats(mc, mp, better)
            and abs(mc - mp) > q3 - q1)


def untraced_by_workload(result):
    """{workload: {seed: metrics}} over the untraced runs of a result file."""
    out = {}
    for run in result["runs"]:
        if not run.get("traced"):
            out.setdefault(run["workload"], {})[run["seed"]] = run["metrics"]
    return out


def compare(parent, change, spec):
    """Returns (rows, failing): one row per workload x end-to-end metric
    (plus failed_op_frac), and whether the change must be rejected."""
    metrics = [(m["name"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics.append((FAILED, "lower", 0.0))
    pw, cw = untraced_by_workload(parent), untraced_by_workload(change)
    rows, failing = [], False
    for w in pw:
        if w not in cw:
            continue
        for name, better, bound in metrics:
            p = {s: m[name] for s, m in pw[w].items() if name in m}
            c = {s: m[name] for s, m in cw[w].items() if name in m}
            if not p or not c:
                continue
            if name == FAILED:
                mp = statistics.median(p.values())
                mc = statistics.median(c.values())
                v = ("worse" if mc > mp else
                     "unchanged" if mc == mp else "better")
                change_frac = mc - mp
            else:
                v, change_frac = verdict(list(p.values()), list(c.values()),
                                         better, bound)
            failing |= v == "worse"
            rows.append({
                "workload": w, "metric": name,
                "parent": statistics.median(p.values()),
                "change": statistics.median(c.values()),
                "worse_by": change_frac,
                "spread": max(rel_spread(list(p.values())),
                              rel_spread(list(c.values()))),
                "bound": bound, "verdict": v,
                "claim": claim(p, c, better) if name != FAILED else False,
                "pairs": len(set(p) & set(c))})
    return rows, failing


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=str(SPEC),
                    help="BENCHMARK.json holding the bounds")
    args = ap.parse_args()
    try:
        spec = json.loads(Path(args.spec).read_text())
        parent = json.loads(Path(args.parent).read_text())
        change = json.loads(Path(args.change).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    rows, failing = compare(parent, change, spec)
    print(f"{'workload':<18} {'metric':<20} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  {'verdict':<10} "
          f"claim")
    for r in rows:
        print(f"{r['workload']:<18} {r['metric']:<20} {r['parent']:>12.5g} "
              f"{r['change']:>12.5g} {r['worse_by']:>+9.1%} "
              f"{r['spread']:>7.1%} {r['bound']:>6.0%}  {r['verdict']:<10} "
              f"{'yes' if r['claim'] else 'no'} ({r['pairs']} pairs)")
    worse = [r for r in rows if r["verdict"] == "worse"]
    print(f"compare.py: {len(rows)} rows, {len(worse)} worse, "
          f"{sum(r['verdict'] == 'unresolved' for r in rows)} unresolved")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
