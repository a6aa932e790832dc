#!/usr/bin/env python3
"""Build ppdc and the benchmark driver from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-k12 --seed 1 --seconds 10 --trace 0

Workloads: solve-k12, telemetry-k8, churn-k12w (see perfbench/NOTES.md);
--workload all runs the three in turn and exits with the worst code.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Scratch files (the
daemon's socket and log, the span dump) go to .perfbench/ in the
checkout. The exit code is the driver's: 0 for a valid, correct run.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

# Wall-clock budget of one invocation, not counting the build.
BUDGET_S = 170.0


def kill_group(pgid):
    """SIGKILL every process left in the driver's group and wait until
    the group is empty (the daemon is the driver's child)."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--offered-scale", type=float, default=1.0,
                    help="multiply the workload's offered open-loop rate")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project")
            and os.path.isfile(os.path.join("bin", "ppdc.ml"))):
        print("run.py: no ppdc sources here (dune-project, bin/ppdc.ml); "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/ppdc.exe",
         "./perfbench/ledger.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [run_driver(args, w)
                 for w in ("solve-k12", "telemetry-k8", "churn-k12w")]
        return max(codes, key=lambda c: (c != 0, abs(c)))
    return run_driver(args, args.workload)


def run_driver(args, workload):
    """Run the driver on one workload; forward its output and its code."""
    started = time.monotonic()
    jobs = len(os.sched_getaffinity(0))
    cmd = [
        os.path.join("_build", "default", "perfbench", "ledger.exe"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--offered-scale", str(args.offered_scale),
        "--exe", os.path.join("_build", "default", "bin", "ppdc.exe"),
        "--jobs", str(jobs),
        "--dir", ".perfbench",
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=BUDGET_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        print("run.py: the driver overran its %.0f s budget" % BUDGET_S,
              file=sys.stderr)
        return 124
    finally:
        kill_group(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
