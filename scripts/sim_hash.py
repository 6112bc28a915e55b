#!/usr/bin/env python3
"""Print one SHA-256 over the sampler reports of a fixed grid, then one per call.

Two versions of the package sample alike exactly when their hashes are
equal.  The grid, in order:

- ``sample_tau`` on every law of ``ORACLE_LAWS`` and ``sample_last_exit``
  on every law of ``EXIT_LAWS`` (both from tests/test_sim.py), 70,001
  samples (a full chunk and a short one) on seed 17, at caps and
  horizons 1, 2, 3, 100 and 5000;
- ``sample_tau`` on the null-recurrent laws of ``ORACLE_LAWS``, 3000
  samples on seed 17 at the default cap 10^6, where a block's rows are
  bounded so that its 32-bit levels cannot wrap;
- mc_sample's job list for seed 1101 (perfbench/workloads.py, at
  BENCHMARK.json's run_seconds), one call for each pair of jobs that
  differ only in their thread count, which the package does not read.

Each report is hashed as one line of sorted-key JSON of its seven
fields, read by name.
After the grid's hash comes one line per call: its own report's hash,
its index in the grid, the sampler, the law and the cap or horizon.

Usage:
    PYTHONPATH=src python3 scripts/sim_hash.py
    python3 scripts/sim_hash.py --against /path/to/parent

With ``--against PARENT`` the grid runs twice, in child processes with
PYTHONPATH set to this checkout's src and to PARENT's; it prints both
grid hashes, then each call whose report differs, and exits 1 when they
differ.  Both sides run this script's grid.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOUNDS = (1, 2, 3, 100, 5000)
SAMPLES = 70_001
WIDE_CAP, WIDE_SAMPLES = 10 ** 6, 3000
SEED = 17
MC_SEED = 1101
# SimReport's fields, read by name: a report from either side of --against serializes alike
FIELDS = ("samples", "seed", "tau_hist", "L_hist", "censored", "cap", "horizon")


def grid(rc) -> list:
    """(sampler name, model factory, seed, samples, cap or horizon or None, law)."""
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))  # test_sim imports its oracles from there
    from test_sim import EXIT_LAWS, ORACLE_LAWS

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    calls = []
    for kind, laws in (("sample_tau", ORACLE_LAWS), ("sample_last_exit", EXIT_LAWS)):
        for name in sorted(laws):
            calls += [(kind, laws[name], SEED, SAMPLES, bound, name) for bound in BOUNDS]
    for name in sorted(ORACLE_LAWS):
        if rc.classify(ORACLE_LAWS[name]()) is rc.ChainClass.NULL_RECURRENT:
            calls.append(("sample_tau", ORACLE_LAWS[name], SEED, WIDE_SAMPLES, WIDE_CAP, name))
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for job in workloads.make_jobs("mc_sample", MC_SEED, seconds):
        if job["threads"] != 1:  # the job before it, on another thread count
            continue
        spec = job["model"]
        law = f"{spec['family']}({', '.join(str(v) for k, v in spec.items() if k != 'family')})"
        calls.append((job["kind"], lambda spec=spec: rc.build_model(spec),
                      job["seed"], job["samples"], job.get("cap"), law))
    return calls


def report_hash(reports) -> str:
    digest = hashlib.sha256()
    for report in reports:
        fields = {name: getattr(report, name) for name in FIELDS}
        line = json.dumps(fields, sort_keys=True) + "\n"
        digest.update(line.encode())
    return digest.hexdigest()


def run_grid() -> list[str]:
    """The grid's hash, then one line per call, on the repairchain this process imports."""
    import repairchain as rc

    reports, lines = [], []
    for index, (kind, model, seed, samples, bound, law) in enumerate(grid(rc)):
        sample = getattr(rc, kind)
        reports.append(sample(model(), seed, samples) if bound is None
                       else sample(model(), seed, samples, bound))
        lines.append(f"{report_hash(reports[-1:])} #{index} {kind} {law} "
                     f"bound={'default' if bound is None else bound}")
    return [report_hash(reports)] + lines


def run_checkout(checkout: str, script: str = __file__) -> list[str]:
    """The lines script prints (by default run_grid's) on checkout's src, from a child process."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    proc = subprocess.run([sys.executable, script], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.splitlines()


def compare(checkout: str, parent: str, run=run_checkout) -> tuple[list[str], int]:
    """The lines --against prints and the exit status: 0 when the grid hashes are equal."""
    runs = {side: run(side) for side in (parent, checkout)}
    old, new = runs[parent], runs[checkout]
    same = old[0] == new[0]
    lines = [f"{side}: {runs[side][0]}" for side in (parent, checkout)]
    # both sides ran this script's grid, so call k is line k on each
    lines += ["differs: " + b.split(" ", 1)[1] for a, b in zip(old[1:], new[1:]) if a != b]
    return lines + ["equal" if same else "different"], 0 if same else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="parent checkout: hash both and compare")
    args = parser.parse_args()
    if args.against is None:
        print("\n".join(run_grid()))
        return 0
    lines, status = compare(str(ROOT), os.path.abspath(args.against))
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
