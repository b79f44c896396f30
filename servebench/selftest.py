#!/usr/bin/env python3
"""Self-test of the serve-level benchmark, at small sizes.

Runs every workload listed in BENCHMARK.json end to end in the small
mode (--small), and checks that

  * each untraced run ends with a correct JSON result that carries every
    end-to-end metric, with its unit;
  * two traced runs of one seed carry every per-layer metric, with its
    unit, and agree exactly on the count-valued ones (units count, bytes,
    ratio and log2: work counted by the program, not time).

Run from the repository root:

    python3 servebench/selftest.py

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_UNITS = {"count", "bytes", "ratio", "log2"}
SEED = 7


def run(workload, trace):
    cmd = ["sh", "servebench/run.sh", "--workload", workload, "--seed", str(SEED),
           "--seconds", "2", "--trace", str(trace), "--small"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd), out.returncode, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, "%s: incorrect result %s" % (workload, result)
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    return result["metrics"]


def check_names(workload, metrics, listed):
    want = {m["name"]: m["unit"] for m in listed}
    assert set(metrics) == set(want), "%s: metrics differ: %s" % (
        workload, sorted(set(metrics) ^ set(want)))
    for name, unit in want.items():
        got = metrics[name]
        assert got["unit"] == unit, "%s: %s has unit %s, not %s" % (workload, name, got["unit"], unit)
        assert isinstance(got["value"], (int, float)), "%s: %s is not a number" % (workload, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        name = w["name"]
        try:
            e2e = run(name, 0)
            check_names(name, e2e, bench["end_to_end"])
            for m in bench["end_to_end"]:
                assert e2e[m["name"]]["value"] > 0, "%s: %s is not positive" % (name, m["name"])
            first, second = run(name, 1), run(name, 1)
            check_names(name, first, bench["per_layer"])
            check_names(name, second, bench["per_layer"])
            for m in bench["per_layer"]:
                if m["unit"] in EXACT_UNITS:
                    a, b = first[m["name"]]["value"], second[m["name"]]["value"]
                    assert a == b, "%s: %s differs across traced runs: %r vs %r" % (name, m["name"], a, b)
            print("ok   %s" % name)
        except AssertionError as e:
            failures += 1
            print("FAIL %s: %s" % (name, e))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
