#!/usr/bin/env python3
"""Golden test for the keys of loadgen's --json benchmark entry.

Runs a small fixed loadgen and compares the key set of its one
benchmark entry with the checked-in list; key order is not part of the
contract. A key listed as +key was added on purpose: those keys must
appear all together or not at all, so the list also holds for a loadgen
built before they were added.

Usage: check_json_keys.py <loadgen> <keys.txt> <out.json>
"""

import json
import subprocess
import sys

loadgen, keys_path, out_path = sys.argv[1:4]
words = []
with open(keys_path) as f:
    for line in f:
        words += line.split("#", 1)[0].split()
pinned = {w for w in words if not w.startswith("+")}
added = {w[1:] for w in words if w.startswith("+")}

subprocess.run([loadgen, "--shards", "1", "--sessions", "2", "--ops", "100",
                "--seed", "5", "--json", out_path],
               check=True, stdout=subprocess.DEVNULL)
with open(out_path) as f:
    (entry,) = json.load(f)["benchmarks"]
keys = set(entry)

errors = [f"missing key: {k}" for k in sorted(pinned - keys)]
errors += [f"unlisted key: {k}" for k in sorted(keys - pinned - added)]
if added & keys and not added <= keys:
    errors += [f"added key missing: {k}" for k in sorted(added - keys)]
print("\n".join(errors) or f"{len(keys)} keys match {keys_path}")
sys.exit(1 if errors else 0)
