#!/usr/bin/env python3
"""Build the benchmark and the `thermsched` binary from source, then run it.

    python3 perfbench/run.py --workload rc_batch --seed 2005 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from the repository root. One workload runs in one process of the
benchmark binary, whose last line of standard output is the JSON result.
`--workload all` runs the four workloads one after another, each in its own
process, and prints a table of their metrics. Build output goes to
`$CARGO_TARGET_DIR` (default `.bench_build`).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["rc_batch", "grid_batch", "online_stream", "rc_sharded"]


def build():
    """Build both binaries; return their paths, or exit with cargo's code."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifests = [
        ["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "thermsched"],
    ]
    for manifest in manifests:
        command = ["cargo", "build", "--release", "--offline", "--quiet"] + manifest
        code = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if code != 0:
            sys.exit(code)
    release = os.path.join(target, "release")
    return (
        os.path.join(release, "thermsched_perfbench"),
        os.path.join(release, "thermsched"),
    )


def run_one(bench, worker, workload, args, capture):
    command = [
        bench,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--worker", worker,
    ]
    return subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True)


def run_all(bench, worker, args):
    results = {}
    for workload in WORKLOADS:
        done = run_one(bench, worker, workload, args, capture=True)
        if done.returncode != 0:
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print("\n%-28s %-6s" % ("metric", "unit") + "".join("%16s" % w for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        values = "".join("%16.6g" % results[w]["metrics"][name]["value"] for w in WORKLOADS)
        print("%-28s %-6s%s" % (name, unit, values))
    correct = all(r["correct"] for r in results.values())
    print("correctness: %s on every workload" % ("PASS" if correct else "FAIL"))
    print(json.dumps(results))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    bench, worker = build()
    if args.workload == "all":
        return run_all(bench, worker, args)
    return run_one(bench, worker, args.workload, args, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
