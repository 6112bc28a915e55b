#!/usr/bin/env python3
"""Monte Carlo cross-check of the exact pmfs.

Samples the return time (recurrent laws) or the last exit time
(transient laws) and prints per-bin z-scores against the exact
distribution, flagging anything beyond three sigma.

Usage:
    python3 scripts/sim_vs_exact.py '{"family": "geometric", "p": 0.5}'
    python3 scripts/sim_vs_exact.py '{"family": "geometric", "p": 0.25}' \
        --samples 1000000 --seed 7 --bins 12
"""

import argparse
import math
import sys

import repairchain as rc
from repairchain.cli import _load_model


def compare(hist, samples, probs, lo, hi) -> int:
    flagged = 0
    print("   n   expected     observed     z")
    for n in range(lo, hi + 1):
        mean = samples * probs[n]
        sigma = math.sqrt(samples * probs[n] * (1.0 - probs[n]))
        got = hist.get(n, 0)
        z = (got - mean) / sigma if sigma > 0 else 0.0
        mark = "  <-- beyond 3 sigma" if abs(z) > 3.0 else ""
        print(f"  {n:2d}   {mean:<12.1f} {got:<12d} {z:+.2f}{mark}")
        flagged += abs(z) > 3.0
    return flagged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("model", help="model-spec JSON, or @path to a file")
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bins", type=int, default=10, help="largest bin to compare")
    ap.add_argument("--cap", type=int, default=4096,
                    help="walk-length cap for return-time sampling")
    ap.add_argument("--horizon", type=int, default=2000,
                    help="walk length for last-exit sampling")
    args = ap.parse_args(argv)

    try:
        model = _load_model(args.model)
    except rc.InvalidSpec as exc:
        ap.exit(2, f"invalid model spec: {exc}\n")
    transient = rc.classify(model).value == "transient"

    if transient:
        report = rc.sample_last_exit(model, args.seed, args.samples,
                                     horizon=args.horizon)
        probs = rc.exit_pmf(model, args.bins).pmf
        print(f"last exit time, {args.samples} walks, seed {args.seed}, "
              f"{report.censored} flagged near the horizon")
        flagged = compare(report.L_hist, report.samples, probs, 0, args.bins)
    else:
        report = rc.sample_tau(model, args.seed, args.samples, cap=args.cap)
        probs = rc.return_pmf(model, args.bins).f
        print(f"return time, {args.samples} walks, seed {args.seed}, "
              f"{report.censored} censored at cap {args.cap}")
        flagged = compare(report.tau_hist, report.samples, probs, 1, args.bins)

    print(f"\n{flagged} of the compared bins sit beyond three sigma")
    return 0


if __name__ == "__main__":
    sys.exit(main())
