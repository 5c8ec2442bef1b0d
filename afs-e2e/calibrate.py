#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

Runs the built benchmark ten times per workload, each time with another
seed, and prints for each metric the median, the quartiles and the spread
(the distance between the first and third quartile as a share of the
median) next to the bound fixed in BENCHMARK.json.  A spread above a third
of its bound is flagged: the bound then has little room for a real change.

    cargo build --release --offline --manifest-path afs-e2e/Cargo.toml
    python3 afs-e2e/calibrate.py afs-e2e/target/release/afs-e2e [first_seed] [out.json]

Run it on an otherwise idle machine, from the repository root.
"""

import json
import statistics
import subprocess
import sys

RUNS = 10


def main():
    binary = sys.argv[1]
    first_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        for seed in range(first_seed, first_seed + RUNS):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        report[workload] = {}
        print(f"{workload}")
        for name, runs in values.items():
            q1, median, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= bounds[name] / 3 or name == "setup_s" else "  <-- above bound/3"
            print(f"  {name:<28} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.1%}  bound {bounds[name]:.0%}{flag}")
            report[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "runs": runs}
    if len(sys.argv) > 3:
        json.dump({"first_seed": first_seed, "runs_per_workload": RUNS,
                   "run_seconds": spec["run_seconds"], "workloads": report},
                  open(sys.argv[3], "w"), indent=1)


if __name__ == "__main__":
    main()
