#!/usr/bin/env python3
"""Run perfbench on all four workloads and write the summary to BENCH_<N>.json.

Each workload gets five untraced runs (``--trace 0``) on the seeds
1101..1105 and one traced run (``--trace 1``) on seed 1101, each as long
as BENCHMARK.json's ``run_seconds``.  The file records, per workload, the
median and quartiles of each end-to-end metric (setup_s, wall_s,
peak_rss_mb) over the untraced runs, failed and attempted jobs summed
over every run, and the per-layer metrics of the traced run; at the
top, the machine, the interpreter and the environment perfbench
reports.

The benchmark runs from the checkout given as the argument (default:
the one holding this script), with that checkout's own perfbench, src
and BENCHMARK.json, so one copy of this script measures two versions
alike.  BENCH_<N>.json, N the number given to ``--number``, is written
to the current directory:

    python3 scripts/bench.py --number 11
    python3 scripts/bench.py /path/to/other/checkout --number 10

With ``--against PARENT`` it instead compares two checkouts on one
workload: K pairs of untraced runs on the seeds 3101, 3102, ..., the
two sides taking turns at running first, and prints, per end-to-end metric,
the median [q1, q3] of each side, in how many pairs the checkout read
lower than PARENT, and how far the medians are apart against PARENT's
interquartile distance:

    python3 scripts/bench.py --against /path/to/parent --workload mc_sample --pairs 10
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ("cli_cold", "exact_pmf", "mc_sample", "transform_solve")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
SEEDS = (1101, 1102, 1103, 1104, 1105)
PAIR_SEED = 3101  # paired runs use 3101, 3102, ...: seeds BENCH_<N>.json does not
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_run(stdout: str) -> dict:
    """The result line and the report line of one perfbench run."""
    lines = stdout.rstrip("\n").split("\n")
    report = lines[-2] if len(lines) > 1 else ""
    if not report.startswith("report: "):
        raise ValueError("perfbench output has no report line before the result")
    return {"result": json.loads(lines[-1]), "report": json.loads(report[len("report: "):])}


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (inclusive method), and the values."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def summarize(untraced: list[dict], traced: dict) -> dict:
    """One workload's entry from its parsed untraced runs and its traced run."""
    runs = untraced + [traced]
    return {
        "seeds": [run["report"]["seed"] for run in untraced],
        "end_to_end": {m: quartiles([run["result"]["metrics"][m]["value"] for run in untraced])
                       for m in END_TO_END},
        "failed": sum(run["result"]["failed"] for run in runs),
        "attempted": sum(run["result"]["attempted"] for run in runs),
        "per_layer": {m: rec["value"] for m, rec in traced["result"]["metrics"].items()},
        "traced_seed": traced["report"]["seed"],
    }


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"system": platform.system(), "release": platform.release(),
            "machine": platform.machine(), "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def run_perfbench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


def run_pairs(parent: str, checkout: str, workload: str, pairs: int, first_seed: int,
              seconds: float, run=run_perfbench) -> list[tuple[dict, dict]]:
    """(parent run, checkout run) on each seed; the parent runs first on even pairs."""
    out = []
    for i in range(pairs):
        seed = first_seed + i
        order = (parent, checkout) if i % 2 == 0 else (checkout, parent)
        first, second = [run(side, workload, seed, seconds, 0) for side in order]
        out.append((first, second) if i % 2 == 0 else (second, first))
    return out


def paired_lines(pairs: list[tuple[dict, dict]]) -> list[str]:
    """The paired table: per metric, both sides' median [q1, q3] and the pairs read lower."""
    lines = []
    for m in END_TO_END:
        before = [parent["result"]["metrics"][m]["value"] for parent, _ in pairs]
        after = [change["result"]["metrics"][m]["value"] for _, change in pairs]
        b, a = quartiles(before), quartiles(after)
        lower = sum(y < x for x, y in zip(before, after))
        lines.append(f"{m}: {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] -> "
                     f"{a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}], lower in "
                     f"{lower}/{len(pairs)} pairs, medians {a['median'] - b['median']:+.4g} "
                     f"against a parent interquartile distance of {b['q3'] - b['q1']:.4g}")
    failed = [sum(run[side]["result"]["failed"] for run in pairs) for side in (0, 1)]
    attempted = [sum(run[side]["result"]["attempted"] for run in pairs) for side in (0, 1)]
    lines.append(f"failed: {failed[0]} of {attempted[0]} -> {failed[1]} of {attempted[1]}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=ROOT)
    parser.add_argument("--number", type=int, help="names the output BENCH_<N>.json")
    parser.add_argument("--against", help="parent checkout: run paired comparisons instead")
    parser.add_argument("--workload", choices=WORKLOADS, help="with --against")
    parser.add_argument("--pairs", type=int, default=10, help="with --against")
    args = parser.parse_args()
    if (args.against is None) == (args.number is None) or (args.against and not args.workload):
        parser.error("give --number N, or --against PARENT with --workload W")

    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    if args.against:
        parent = os.path.abspath(args.against)
        pairs = run_pairs(parent, checkout, args.workload, args.pairs, PAIR_SEED, seconds)
        print(f"{args.workload}: {parent} -> {checkout}, {args.pairs} pairs on seeds "
              f"{PAIR_SEED}-{PAIR_SEED + args.pairs - 1}")
        print("\n".join(paired_lines(pairs)))
        return 0
    workloads, environment = {}, None
    for workload in WORKLOADS:
        untraced = [run_perfbench(checkout, workload, seed, seconds, 0) for seed in SEEDS]
        traced = run_perfbench(checkout, workload, SEEDS[0], seconds, 1)
        environment = environment or traced["report"]["environment"]
        workloads[workload] = summarize(untraced, traced)
        print(f"{workload}: " + ", ".join(
            f"{m} {workloads[workload]['end_to_end'][m]['median']:.4g}" for m in END_TO_END),
            file=sys.stderr)
    bench = {"number": args.number, "seconds": seconds, "machine": machine(),
             "environment": environment, "workloads": workloads}
    with open(f"BENCH_{args.number}.json", "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
