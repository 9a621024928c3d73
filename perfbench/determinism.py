#!/usr/bin/env python3
"""Same seed, same figures: run each workload's client twice with one seed.

    python3 perfbench/determinism.py [--seed N] [WORKLOAD ...]

Run it from the root of the source tree.  Each workload runs twice with
tracing on (so the program counters are collected) and the shortest time
budget, which still runs every slot once.  The quality figures and the
program counters of the two runs must be identical; the script prints the
differences and exits 1 if there are any.
"""

import argparse
import json
import shutil
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after the flag, so no __pycache__ lands in the tree)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        workloads = args.workloads or [w["name"] for w in json.load(fh)["workloads"]]
    run.build()
    bad = 0
    try:
        for w in workloads:
            a, b = (run.run_client(w, args.seed, 1, 1) for _ in range(2))
            for part in ("quality", "counters"):
                diff = {k: (v, b[part].get(k)) for k, v in a[part].items() if b[part].get(k) != v}
                if diff or a[part].keys() != b[part].keys():
                    bad += 1
                    print("%s %s differ: %s" % (w, part, diff))
            print("%s: %d quality figures, %d counters compared" %
                  (w, len(a["quality"]), len(a["counters"])))
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
