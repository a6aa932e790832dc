#!/usr/bin/env python3
"""Overload test of the benchmark driver.

Offers the solve-k12 workload at about ten times the daemon's capacity
(40 x its 5 req/s open-loop rate, against a closed-loop capacity of
about 20 req/s on 2 cores) and checks that the driver still finishes
on its own deadline, reports a result line that counts the unanswered
requests as failed, exits with the driver-timeout code 1, and leaves
no daemon behind. Run from the root of a checkout:

    python3 perfbench/test_overload.py
"""

import json
import os
import subprocess
import sys
import time

LIMIT_S = 170.0


def main():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "solve-k12", "--seed", "1", "--seconds", "4",
         "--trace", "0", "--offered-scale", "40"],
        stdout=subprocess.PIPE, text=True, timeout=LIMIT_S + 30)
    took = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    failures = []
    if took > LIMIT_S:
        failures.append("took %.1f s, limit %.0f s" % (took, LIMIT_S))
    if proc.returncode != 1:
        failures.append("exit code %d, expected 1 (driver timeout)"
                        % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
        failures.append("no result line")
    if result is not None:
        if result["attempted"] < 1 or result["failed"] < 1:
            failures.append("expected unanswered requests counted as failed: "
                            "%r" % {k: result[k] for k in ("attempted", "failed")})
        if not result["correct"]:
            failures.append("answers that did come back did not match the replay")
    if os.path.exists(os.path.join(".perfbench", "daemon.sock")):
        failures.append("the daemon's socket is still there")
    for line in lines[:-1]:
        print(line)
    if failures:
        for f in failures:
            print("FAIL: " + f)
        return 1
    print("ok: overload run finished in %.1f s and reported %d of %d failed"
          % (took, result["failed"], result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
