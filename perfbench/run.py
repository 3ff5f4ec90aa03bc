#!/usr/bin/env python3
"""Run one attestation benchmark workload and print its result.

    python3 perfbench/run.py --workload replay-bound --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Builds the gateway
(`bin/dialed_cli.exe`) and the load generator (`perfbench/bench.exe`)
with dune, then runs the load generator under a hard time limit. The last
line of standard output is the result object; `--trace 1` reports the
per-layer metrics instead of the end-to-end ones and writes a Chrome
trace to perfbench/out/. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("replay-inproc", "fleet-batch", "replay-bound")
BUILD_LIMIT_S = 840
# beyond --seconds: warm-up, set-ups (replay-bound: 101 gateway
# launches), the last pass or the drain limit, and
# the traced run
RUN_SLACK_S = 120


def revision():
    """The checkout's git revision, or "unknown" outside a git work tree
    of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    os.chdir(ROOT)
    missing = [p for p in ("dune-project", "lib", "bin/dialed_cli.ml")
               if not os.path.exists(p)]
    if missing:
        print("perfbench: not a source checkout, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "bin/dialed_cli.exe", "perfbench/bench.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out_dir = os.path.join("perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = ["_build/default/perfbench/bench.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", "_build/default/bin/dialed_cli.exe",
           "--out", out_dir, "--rev", revision()]
    # its own process group, so the gateways it launches die with it
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        kill_group(proc)
        return 3
    except KeyboardInterrupt:
        kill_group(proc)
        raise
    kill_group(proc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
