#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

    python3 perfbench/spread.py --seeds 1-10 [--workloads paper-mix,...] \
        [--out set1.json] [--against set0.json]

Run from the repository root. For every workload of BENCHMARK.json it runs
the benchmark's command once per seed (end-to-end metrics, --trace 0) and
prints, per metric, the median of the values, the first and third quartile
(statistics.quantiles(values, n=4)) and their distance as a share of the
median. A spread at or above the metric's bound is marked FAIL, one above a
third of it is marked "wide"; setup_s's spread is shown but not judged.
--out saves the values; --against compares this set's medians with a saved
set and marks FAIL where one is worse than the saved one by more than the
bound. The exit code is 1 when anything is marked FAIL or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)

    values = {}
    failed = False
    for workload in workloads:
        runs = []
        for seed in seeds:
            try:
                runs.append(run_once(spec, workload, seed))
            except RuntimeError as err:
                print(f"FAIL {err}")
                failed = True
        values[workload] = {m["name"]: [r[m["name"]] for r in runs]
                            for m in spec["end_to_end"]}
        print(f"== {workload} ({len(runs)} seeds)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload][name]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            mark = ""
            if name != "setup_s":
                mark = ("FAIL" if spread >= bound else
                        "wide" if spread > bound / 3 else "ok")
                failed |= mark == "FAIL"
            line = (f"  {name:20s} median {med:<12.6g} q1 {q1:<12.6g} "
                    f"q3 {q3:<12.6g} spread {spread:7.4f} "
                    f"bound {bound:5.3f} {mark}")
            old = previous.get(workload, {}).get(name)
            if old:
                old_med = statistics.median(old)
                worse = (med - old_med if metric["better"] == "lower"
                         else old_med - med) / old_med
                verdict = "FAIL" if worse > bound else "ok"
                failed |= verdict == "FAIL"
                line += f" | vs saved {worse:+.4f} {verdict}"
            print(line)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
