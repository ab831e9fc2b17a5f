#!/usr/bin/env python3
"""Smoke test of the repo benchmark at a tiny size.

    python3 perfbench/smoke_test.py

Runs every workload untraced and traced for one second on a small packet
pool and checks the shape of the result, not its speed: every named metric
is present with its unit, no operation failed, the traced run's spans cover
at least 90% of its wall time, the Chrome trace file loads, and BENCHMARK.json
matches the tables in run.py. It has no timing gates.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = 7


def check(condition, message, errors):
    if not condition:
        errors.append(message)


def main():
    errors = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        check(f.read() == run.spec_text(),
              "BENCHMARK.json is stale; run perfbench/run.py --write-spec",
              errors)
    for workload, _ in run.WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(SEED),
                   "--seconds", "1", "--trace", str(trace), "--pool", "4096"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=900)
            where = "%s trace=%d" % (workload, trace)
            if proc.returncode != 0 or not proc.stdout.strip():
                errors.append("%s: exit %d" % (where, proc.returncode))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], where + ": keys", errors)
            check(result["correct"] is True, where + ": not correct", errors)
            check(result["failed"] == 0, where + ": failed > 0", errors)
            check(result["attempted"] >= 1, where + ": attempted < 1", errors)
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(n for n, *_ in table),
                  where + ": metric names differ from the spec", errors)
            for name, unit, *_ in table:
                got = metrics.get(name, {})
                check(got.get("unit") == unit and
                      isinstance(got.get("value"), (int, float)) and
                      math.isfinite(got["value"]),
                      "%s: %s malformed: %r" % (where, name, got), errors)
            if trace == 0:
                continue
            check(metrics["failed_frac"]["value"] == 0,
                  where + ": failed_frac != 0", errors)
            check(metrics["trace.coverage"]["value"] >= 0.9,
                  where + ": trace.coverage < 0.9", errors)
            stem = os.path.join(run.build_dir(), "results",
                                "%s-seed%d-trace1" % (workload, SEED))
            with open(stem + ".trace.json") as f:
                events = json.load(f)["traceEvents"]
            check(any(e["name"] == "core.inject" for e in events),
                  where + ": no core.inject spans in the trace", errors)
            with open(stem + ".json") as f:
                record = json.load(f)
            check("fingerprint" in record and record["query"],
                  where + ": record lacks fingerprint or query", errors)
    for error in errors:
        print("FAIL", error)
    print("smoke test %s" % ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
