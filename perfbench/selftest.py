#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Run from the repository root. For every workload of BENCHMARK.json it runs
the benchmark's command with --smoke (tiny workload sizes) once end to end
(--trace 0) and once traced (--trace 1), and checks the result line: exactly
the keys correct, attempted, failed and metrics; a correct run with no
failures; and exactly BENCHMARK.json's end_to_end (resp. per_layer) metric
names, each with its declared unit and a finite number as value. It also
checks that an unknown workload is refused. Exit code 1 on any failure.
"""

import json
import math
import subprocess
import sys


def check_run(spec, workload, trace):
    command = spec["command"] + ["--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--smoke"]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    declared = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if sorted(got) != sorted(m["name"] for m in declared):
        errors.append(f"{where}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ {m['name'] for m in declared})}")
    for metric in declared:
        value = got.get(metric["name"])
        if value is None:
            continue
        if value.get("unit") != metric["unit"]:
            errors.append(f"{where}: {metric['name']} unit {value.get('unit')}")
        if not isinstance(value.get("value"), (int, float)) or \
                not math.isfinite(value["value"]):
            errors.append(f"{where}: {metric['name']} value {value}")
    return errors


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
            print(f"checked {workload} --trace {trace}", flush=True)
    refused = subprocess.run(spec["command"] + ["--workload", "no-such"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if refused.returncode == 0 or refused.stdout.strip():
        errors.append("an unknown workload was not refused")
    for error in errors:
        print("FAIL", error)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
