#!/usr/bin/env python3
"""Run one perfbench workload and print its report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree.  It builds the benchmark client
(perfbench/bench.exe) and the CLI with dune, runs the client on one domain,
cross-checks the paper-pipeline figures against
`dcs spanner --general` on the same input file, and prints, as the last line
of standard output, one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones; a layer the workload does not reach reads 0.
The line before it carries the host facts.

Everything it writes stays inside the source tree: dune's _build and the
.perfbench_tmp scratch directory, which it removes again.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

CLIENT = "_build/default/perfbench/bench.exe"
CLI = "_build/default/bin/dcs_cli.exe"
TMP = ".perfbench_tmp"
# One domain: a parallel section waits for the slower of two shared cores.
# On a 2-vCPU VM shared with other tenants, the job times of an Elkin-Neiman
# build plus exact certification spread about twice as wide at 2 domains as
# at 1.
DOMAINS = 1
CLIENT_TIMEOUT_S = 110


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Build the client and the CLI from the source tree in the working directory."""
    for need in ["dune-project", "lib", "bin"]:
        if not os.path.exists(need):
            fail("run from the root of the source tree (%s is missing)" % need)
    done = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                           "./perfbench/bench.exe", "./bin/dcs_cli.exe"],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")


def client_env():
    return dict(os.environ, DCS_DOMAINS=str(DOMAINS))


def run_client(workload, seed, seconds, trace):
    """One client run; its perfbench-raw/1 record."""
    os.makedirs(TMP, exist_ok=True)
    cmd = [CLIENT, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", TMP]
    out = subprocess.run(cmd, capture_output=True, text=True, env=client_env(),
                         timeout=CLIENT_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    if out.returncode != 0 or not out.stdout.strip():
        fail("client exited %d" % out.returncode)
    return json.loads(out.stdout.strip().splitlines()[-1])


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-sha1:" + digest.hexdigest()


def cli_figures(text):
    """The figures `dcs spanner --general` prints that the client also reports."""
    pats = {
        "m_spanner": r"^spanner:\s+m=(\d+)",
        "dist_stretch": r"^dist stretch:\s+(\S+)",
        "max_congestion": r"^matching congestion: mean \S+, max (\d+)",
        "base_congestion": r"^permutation routing: C_G=(\d+)",
        "spanner_congestion": r"^permutation routing: C_G=\d+ C_H=(\d+)",
    }
    found = {}
    for key, pat in pats.items():
        m = re.search(pat, text, re.M)
        if m:
            found[key] = m.group(1)
    return found


def cross_check(xcheck):
    """Run the CLI on the instance the client wrote; [] when every figure matches."""
    cmd = [CLI, "spanner", "--input", xcheck["file"], "--algorithm", "algorithm1",
           "--general", "--trials", "5", "--seed", xcheck["seed"]]
    out = subprocess.run(cmd, capture_output=True, text=True, env=client_env(), timeout=60)
    if out.returncode != 0:
        return ["cli exited %d: %s" % (out.returncode, out.stderr.strip()[:200])]
    got = cli_figures(out.stdout)
    return ["cli %s=%s, in-process %s" % (k, got.get(k), v)
            for k, v in xcheck.items() if k not in ("file", "seed") and got.get(k) != v]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    if not os.path.exists("BENCHMARK.json"):
        fail("run from the root of the source tree (BENCHMARK.json is missing)")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    try:
        raw = run_client(args.workload, args.seed, args.seconds, args.trace)
        mismatches = cross_check(raw["xcheck"]) if raw["xcheck"] else []
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    names = [m["name"] for m in wanted]
    unknown = [n for n in raw["metrics"] if n not in names]
    missing = [n for n in names if n not in raw["metrics"]]
    if unknown or (missing and not args.trace):
        fail("client figures do not match BENCHMARK.json: %s" % (unknown or missing))
    for why in raw["failures"] + mismatches:
        print("perfbench: check failed: " + why, file=sys.stderr)

    host = {
        "nproc": os.cpu_count(),
        "domains": raw["domains"],
        "ocaml": raw["ocaml"],
        "rev": source_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(raw["samples"]),
        "cross_check": ("ok" if not mismatches else "mismatch") if raw["xcheck"] else "n/a",
    }
    print(json.dumps({"host": host}))
    metrics = {m["name"]: {"value": raw["metrics"].get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": raw["failed"] == 0 and not mismatches,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
