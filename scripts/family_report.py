#!/usr/bin/env python3
"""One-page analytic report for a jump law.

Prints the recurrence class, decay parameters, the head of the exact
return-time pmf, moment verdicts over a grid of exponents, and whatever
extras the class supports (asymptotic exponent when critical, last-exit
pmf when transient).

Usage:
    python3 scripts/family_report.py '{"family": "geometric", "p": 0.5}'
    python3 scripts/family_report.py @model.json -N 12 --alphas 0.4 0.6 1.5
"""

import argparse
import sys

import repairchain as rc
from repairchain.cli import _load_model


def fmt(x) -> str:
    if x is None:
        return "-"
    return f"{x:.12g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("model", help="model-spec JSON, or @path to a file")
    ap.add_argument("-N", type=int, default=10, help="pmf rows to print")
    ap.add_argument("--alphas", type=float, nargs="+",
                    default=[0.25, 0.5, 0.75, 1.0, 2.0],
                    help="exponents for finiteness verdicts")
    args = ap.parse_args(argv)

    try:
        model = _load_model(args.model)
    except rc.InvalidSpec as exc:
        ap.exit(2, f"invalid model spec: {exc}\n")
    label = rc.classify(model)
    print(f"family        {model.family}")
    print(f"class         {label.value}")
    print(f"mean jump     {fmt(model.mu)}")
    print(f"radius of G   {fmt(model.radius)}")

    params = rc.decay_params(model)
    print(f"\ncase          {params.case_label.value}")
    print(f"x0            {fmt(params.x0)}")
    print(f"R0, R1        {fmt(params.R0)}, {fmt(params.R1)}")
    print(f"F at R1       {fmt(params.F_at_R1)}")

    analysis = rc.return_pmf(model, args.N)
    print(f"\nreturn probability  {fmt(analysis.return_prob)}")
    print("   n          f_n                    u_n")
    for n in range(args.N + 1):
        print(f"  {n:2d}   {analysis.f[n]:<22.17g} {analysis.u[n]:<22.17g}")

    print("\nfiniteness of the return-time moments")
    for alpha in args.alphas:
        verdict = rc.tau_alpha_finite(model, alpha)
        print(f"  alpha={alpha:<6g} {verdict.verdict.value:<9} {verdict.reason}")

    if label.value == "null_recurrent":
        est = rc.asymptotic_exponent(model)
        print(f"\nreturn-transform exponent gamma = {fmt(est.gamma)}"
              f" ({est.method})")
    if label.value == "transient":
        exit_head = rc.exit_pmf(model, args.N)
        print(f"\nlast-exit law (escape probability {fmt(exit_head.q_exit)})")
        print("   n          P(L = n)")
        for n in range(args.N + 1):
            print(f"  {n:2d}   {exit_head.pmf[n]:<22.17g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
