#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark on a tiny corpus.

    python3 e2ebench/tests/smoke_test.py

Run it from the repository root. For every workload in BENCHMARK.json it
runs e2ebench/run.py on a 20-project corpus for one second, untraced and
traced, and checks that the result line carries every end-to-end (or
per-layer) metric with its unit, that the output checks ran and passed,
and that the human-readable report names every metric too. Exits 1 on the
first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run(spec, workload, trace):
    command = [sys.executable, os.path.join("e2ebench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--projects", "20"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    label = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (label, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (label, sorted(result)))
    if not result["correct"] or result["failed"] != 0:
        fail("%s: output checks failed:\n%s" % (label, proc.stdout))
    if result["attempted"] < 1:
        fail("%s: no operation was checked" % label)
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in expected]
    if sorted(result["metrics"]) != sorted(names):
        fail("%s: metrics %s, expected %s" %
             (label, sorted(result["metrics"]), sorted(names)))
    report = "\n".join(lines[:-1])
    for metric in expected:
        got = result["metrics"][metric["name"]]
        if got["unit"] != metric["unit"]:
            fail("%s: %s has unit %s, expected %s" %
                 (label, metric["name"], got["unit"], metric["unit"]))
        if not isinstance(got["value"], (int, float)):
            fail("%s: %s is not a number" % (label, metric["name"]))
        if "# " + metric["name"] not in report:
            fail("%s: report does not name %s" % (label, metric["name"]))
    if "# meta {" not in report:
        fail("%s: run metadata missing" % label)
    print("ok   %s: %d op(s) checked" % (label, result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            run(spec, workload["name"], trace)
    print("smoke test passed")


if __name__ == "__main__":
    main()
