"""Command-line front end.

Verbs: classify, pmf, decay, tilt, moments, finite, exit, simulate,
asym.  Every verb takes -m with an inline JSON model spec or @path to a
file holding one.  Output is JSON on stdout (CSV for the pmf verbs with
--csv); all floats carry 17 significant digits so identical inputs give
byte-identical outputs.

Exit status: 0 success, 1 usage error, 2 invalid model spec, 3 domain
error (an operation that is meaningless for the given chain).  Flag
values go to the library unchecked: it refuses a bad one with
ValueError before it classifies the law, so that is exit 1 on every
law.  The spec is read first, so a spec error (exit 2) comes before it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import decay as decay_mod
from . import last_exit as exit_mod
from . import return_time as rt
from .errors import (
    InvalidSpec,
    NotNullRecurrent,
    NotPositiveRecurrent,
    NotTransient,
    OutOfRadius,
)
from .model import JumpModel, build_model, classify, exact_coefficients

_DOMAIN_ERRORS = (NotTransient, NotNullRecurrent, NotPositiveRecurrent, OutOfRadius)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here wants 1
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# stable serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    out = format(x, ".17g")
    if not any(c in out for c in ".eE"):
        out += ".0"
    return out


def _to_json(value) -> str:
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    return json.dumps(str(value))


def _emit(record: dict) -> None:
    sys.stdout.write(_to_json(record) + "\n")


def _emit_csv(header: str, rows) -> None:
    out = [header]
    for row in rows:
        out.append(",".join(_fmt_float(v) if isinstance(v, float) else str(v)
                            for v in row))
    sys.stdout.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# argument handling


def _load_model(raw: str) -> JumpModel:
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidSpec(f"cannot read model spec file: {exc}") from exc
    else:
        text = raw
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"model spec is not valid JSON: {exc}") from exc
    return build_model(spec)


def _build_parser() -> _Parser:
    top = _Parser(prog="repairchain", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-m", "--model", required=True,
                       help="inline model-spec JSON, or @path to a file")
        return p

    add("classify", "recurrence class and mean jump")

    p = add("pmf", "exact return-time (or last-exit) pmf")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tau", action="store_true", help="return-time pmf (default)")
    group.add_argument("--exit", dest="exit_", action="store_true",
                       help="last-exit pmf (transient chains)")
    p.add_argument("-N", type=int, default=64, help="horizon (default 64)")
    p.add_argument("--csv", action="store_true")

    add("decay", "tangency point, decay radii, and case label")

    p = add("tilt", "exponentially reweighted model")
    p.add_argument("--x", type=float, default=None,
                   help="reweighting point (default: the tangency point)")

    p = add("moments", "E(tau^k) with certification")
    p.add_argument("-k", type=int, default=1, help="moment order (default 1)")

    p = add("finite", "finiteness verdict for E(tau^alpha)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--r1-weighted", action="store_true",
                   help="weigh by R1^tau before taking the power")

    p = add("exit", "last-exit pmf or weighted-moment verdict")
    p.add_argument("-N", type=int, default=exit_mod.DEFAULT_EXIT_N)
    p.add_argument("-k", type=int, default=None, help="integer weight power")
    p.add_argument("--alpha", type=float, default=None, help="fractional weight power")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(exit_=True)  # without -k/--alpha, exit is pmf --exit

    p = add("simulate", "Monte Carlo histogram of tau or L")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tau", action="store_true", help="sample tau (default)")
    group.add_argument("--exit", dest="exit_", action="store_true", help="sample L")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    # default None: the sampler's own defaults, read without importing it here
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)

    p = add("asym", "exponent of 1 - F(1-s) for a critical chain")
    p.add_argument("--fitted", action="store_true",
                   help="force the log-log regression branch")

    return top


# ---------------------------------------------------------------------------
# verb bodies


def _do_classify(model, args):
    _emit({"class": classify(model).value, "mu": model.mu})


def _do_pmf(model, args):
    if args.exit_:
        analysis = exit_mod.exit_pmf(model, args.N)
        if args.csv:
            _emit_csv("n,P_L_n", ((i, float(p)) for i, p in enumerate(analysis.pmf)))
        else:
            _emit({"N": args.N, "q_exit": analysis.q_exit,
                   "pmf": [float(v) for v in analysis.pmf]})
        return
    analysis = rt.return_pmf(model, args.N)
    if args.csv:
        _emit_csv("n,f_n,u_n", ((i, float(analysis.f[i]), float(analysis.u[i]))
                                for i in range(args.N + 1)))
    else:
        _emit({"N": args.N, "f": [float(v) for v in analysis.f],
               "u": [float(v) for v in analysis.u],
               "return_prob": analysis.return_prob})


def _do_decay(model, args):
    dp = decay_mod.decay_params(model)
    _emit({"x0": dp.x0, "R0": dp.R0, "R1": dp.R1,
           "F_at_R1": dp.F_at_R1, "case": dp.case_label.value})


def _do_tilt(model, args):
    x = args.x
    if x is None:
        x = decay_mod.find_x0(model)
        if x is None:
            raise OutOfRadius("no tangency point exists; pass --x explicitly")
    tilted = decay_mod.tilt(model, x)
    head = [float(v) for v in exact_coefficients(tilted, 16)]
    while head[-1] == 0.0:  # past an explicit law's last entry; a_0 > 0
        head.pop()
    _emit({"x": float(x), "family": tilted.family, "mu": tilted.mu,
           "radius": tilted.radius, "a_head": head})


def _do_moments(model, args):
    res = rt.tau_moment(model, args.k)
    _emit({"k": res.k, "value": res.value, "tail_bound": res.tail_bound,
           "flag": res.flag})


def _verdict_record(v) -> dict:
    rec = {"quantity": v.quantity, "verdict": v.verdict.value, "reason": v.reason}
    if v.diagnostics:
        rec["diagnostics"] = v.diagnostics
    return rec


def _do_finite(model, args):
    verdict = rt.tau_alpha_finite(model, args.alpha, r1_weighted=args.r1_weighted)
    _emit(_verdict_record(verdict))


def _do_exit(model, args):
    if args.k is None and args.alpha is None:
        return _do_pmf(model, args)
    verdict = exit_mod.exit_weighted_verdict(model, k=args.k or 0, alpha=args.alpha)
    _emit(_verdict_record(verdict))


def _do_simulate(model, args):
    from . import sim as sim_mod

    if args.exit_:
        horizon = args.horizon if args.horizon is not None else sim_mod.DEFAULT_EXIT_HORIZON
        report = sim_mod.sample_last_exit(model, args.seed, args.samples, horizon=horizon)
        _emit({"samples": report.samples, "seed": report.seed,
               "L_hist": report.L_hist, "censored": report.censored,
               "horizon": report.horizon})
        return
    cap = args.cap if args.cap is not None else sim_mod.DEFAULT_TAU_CAP
    report = sim_mod.sample_tau(model, args.seed, args.samples, cap=cap)
    _emit({"samples": report.samples, "seed": report.seed,
           "tau_hist": report.tau_hist, "censored": report.censored,
           "cap": report.cap})


def _do_asym(model, args):
    est = rt.asymptotic_exponent(model, method="fitted" if args.fitted else "auto")
    _emit({"gamma": est.gamma, "method": est.method})


_VERBS = {
    "classify": _do_classify,
    "pmf": _do_pmf,
    "decay": _do_decay,
    "tilt": _do_tilt,
    "moments": _do_moments,
    "finite": _do_finite,
    "exit": _do_exit,
    "simulate": _do_simulate,
    "asym": _do_asym,
}


def run(argv=None) -> int:
    """Parse argv, dispatch, and return the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        model = _load_model(args.model)
        _VERBS[args.verb](model, args)
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InvalidSpec as exc:
        print(f"invalid model spec: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
