#!/usr/bin/env python3
"""Hash every output of four fixed grids of calls, and compare two checkouts by them.

Two versions of the package give the same outputs exactly when their
hashes are equal.  The grids, in order:

- the CLI: twelve laws (four geometric laws, half_stable, two power_zeta
  laws and five explicit laws) times 25 verb forms, 300 invocations of
  ``repairchain.cli.run`` in-process, then the same laws times six
  invalid verb forms, 72 invocations that should each be a usage error
  (exit 1);
- the exact laws: the CLI's twelve laws, then power_zeta(50) and
  explicit [1e-300, 1 - 2e-300, 1e-300], which take the unflushed rerun
  of the numpy pmf at large horizons, tilt(power_zeta(3), 0.9)
  (BoundaryCase) and tilt(half_stable, 0.8), at N = 1..64, 65, 100,
  256, 1024 and 2048, on both sides of ``return_time._PURE_N``: at each,
  ``return_pmf``'s f, u and return_prob, and for a transient law then
  ``exit_pmf``'s pmf, q_exit and occupation (1311 calls);
- the samplers: ``sample_tau`` on every law of ``ORACLE_LAWS`` and
  ``sample_last_exit`` on every law of ``EXIT_LAWS`` (both from
  tests/sampler_laws.py, which tests/test_sim.py reads too and which
  imports neither pytest nor scipy), 70,001 samples (a full chunk and
  a short one) on seed 17, at caps and horizons 1, 2, 3, 100 and 5000;
  ``sample_tau`` on the null-recurrent laws of ``ORACLE_LAWS``, 3000
  samples on seed 17 at the default cap 10^6, where a block's rows are
  bounded so that its 32-bit levels cannot wrap; then mc_sample's job
  list for seed 1101 (perfbench/workloads.py, at BENCHMARK.json's
  run_seconds), one call for each pair of jobs that differ only in
  their thread count, which the package does not read; then
  ``MULTI_CHUNK_JOBS``, four calls of 3 2^16 + 5 samples (four chunks,
  the last of 5) on seed 17, long enough that a call splits its chunks
  between forked processes where it has two CPUs: geometric(1/2) at cap
  2000, half_stable at cap 1000, the transient geometric(0.495) at cap
  2000 and the last exits of geometric(0.45) by 1000 (103 calls);
- the transforms: for each law of the exact grid, ``eval_G`` at orders
  0, 1 and 2 at ``T_POINTS`` and, where the radius passes 1, at one
  point between 1 and the radius (2 for an infinite one); G^(j)(1) for
  j = 3 and 4 except on the two tilts, which read their base below 1,
  where orders past 2 are refused; ``psi`` at ``H_POINTS``; ``eval_F``
  at ``R1_FRACTIONS`` of R1 and at t = 1; and the five fields of
  ``decay_params`` (110 calls).

Each call's value is one JSON value, and its hash the SHA-256 of that
value as sorted-key JSON, whose floats read back as the same doubles: a
CLI invocation's exit status, stdout and stderr as printed, an exact
law's parts as lists of floats, a sampler report's seven fields, read by
name, a transform's values as a list of floats, decay_params's fields
by name.  The script prints one hash over the calls' hashes, then one line
per call: its hash, its index, its grid and its label.

Usage:
    PYTHONPATH=src python3 scripts/outputs.py
    python3 scripts/outputs.py --against /path/to/parent
    python3 scripts/outputs.py --against /path/to/parent --within 1e-13

With ``--against PARENT`` the grids run twice, in child processes with
PYTHONPATH set to PARENT's src and then to this checkout's; both sides
run this script's grids.  It prints both hashes, one ``differs:`` line
per call whose value differs, and ``equal`` or ``different``, and it
exits 1 when they differ.  With ``--within REL`` as well, both sides
compute the calls that differ once more, each ``differs:`` line gets the
largest relative move of the call's floats, and it exits 0 when every
call that differs moves only floats, each by at most REL relative to
the parent's value.  A change to a zero, a non-finite value, an int
(exit status, histogram counts), a string (stderr, labels), a key set
or a length has no relative move and is refused.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODELS = [
    '{"family": "geometric", "p": 0.25}',
    '{"family": "geometric", "p": 0.5}',
    '{"family": "geometric", "p": 0.6}',
    '{"family": "geometric", "p": 0.75}',
    '{"family": "half_stable"}',
    '{"family": "power_zeta", "alpha": 3}',
    '{"family": "power_zeta", "alpha": 2.1}',
    '{"family": "explicit", "a": [0.5, 0.2, 0.3]}',
    '{"family": "explicit", "a": [0.5, 0, 0.5]}',
    '{"family": "explicit", "a": [0.2, 0.3, 0.5]}',
    '{"family": "explicit", "a": [0.6, 0.1, 0.3]}',
    '{"family": "explicit", "a": [1e-30, 0, 1]}',
]

VERB_FORMS = [
    ["classify"],
    ["pmf", "-N", "64"],
    ["pmf", "-N", "16", "--csv"],
    ["decay"],
    ["tilt"],
    ["tilt", "--x", "0.5"],
    ["tilt", "--x", "1.2"],
    ["moments", "-k", "1"],
    ["moments", "-k", "2"],
    ["moments", "-k", "5"],
    ["finite", "--alpha", "0.4"],
    ["finite", "--alpha", "0.7"],
    ["finite", "--alpha", "2"],
    ["finite", "--alpha", "2.5"],
    ["finite", "--alpha", "0.7", "--r1-weighted"],
    ["finite", "--alpha", "2.5", "--r1-weighted"],
    ["exit", "-N", "64"],
    ["exit", "-k", "1"],
    ["exit", "--alpha", "0.5"],
    ["asym"],
    ["asym", "--fitted"],
    # the CLI's default seed
    ["simulate", "--tau", "--samples", "2000", "--cap", "500"],
    ["simulate", "--exit", "--samples", "2000", "--horizon", "500"],
    # three chunks of samples each
    ["simulate", "--tau", "--samples", "140000", "--cap", "500", "--seed", "1"],
    ["simulate", "--exit", "--samples", "140000", "--horizon", "500", "--seed", "1"],
]

# flag values the library refuses before it classifies the law
INVALID_FORMS = [
    ["pmf", "-N", "0"],
    ["exit", "-N", "0"],
    ["moments", "-k", "0"],
    ["exit", "-k", "-1"],
    ["exit", "--alpha", "nan"],
    ["simulate", "--exit", "--samples", "1", "--horizon", "0"],
]

HORIZONS = (*range(1, 65), 65, 100, 256, 1024, 2048)

BOUNDS = (1, 2, 3, 100, 5000)
SAMPLES = 70_001
WIDE_CAP, WIDE_SAMPLES = 10 ** 6, 3000
SEED = 17
MC_SEED = 1101
MULTI_CHUNK_SAMPLES = 3 * (1 << 16) + 5
MULTI_CHUNK_JOBS = (  # (sampler, law, cap or horizon)
    ("sample_tau", {"family": "geometric", "p": 0.5}, 2000),
    ("sample_tau", {"family": "half_stable"}, 1000),
    ("sample_tau", {"family": "geometric", "p": 0.495}, 2000),
    ("sample_last_exit", {"family": "geometric", "p": 0.45}, 1000),
)
# SimReport's fields, read by name: a report from either side of --against serializes alike
FIELDS = ("samples", "seed", "tau_hist", "L_hist", "censored", "cap", "horizon")

# eval_G's points, the double after 3/4 just past power_zeta's switch to Jonquiere's expansion
T_POINTS = (0.0, 0.05, 0.5, math.nextafter(0.75, 1.0), 0.9, 0.99, 1.0 - 1e-9, 1.0)
H_POINTS = (1e-300, 1e-12, 1e-6, 0.01, 0.5, 1.0)
R1_FRACTIONS = (0.25, 0.5, 0.9, 0.999)


def invoke(argv: list) -> dict:
    """One CLI invocation's exit status, stdout and stderr."""
    from repairchain import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(argv)
    return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_grid() -> list:
    """(label, call) for each CLI invocation: the verb forms, then the invalid ones."""
    calls = []
    for forms in (VERB_FORMS, INVALID_FORMS):
        for spec in MODELS:
            for form in forms:
                argv = [form[0], "-m", spec, *form[1:]]
                calls.append((json.dumps(argv), lambda argv=argv: invoke(argv)))
    return calls


def laws(rc) -> list:
    """(name, model) for each law of the exact grid."""
    return [(spec, rc.build_model(json.loads(spec))) for spec in MODELS] + [
        ("power_zeta(50)", rc.power_zeta(50.0)),
        ("explicit [1e-300, 1 - 2e-300, 1e-300]", rc.explicit([1e-300, 1.0 - 2e-300, 1e-300])),
        ("tilt(power_zeta(3), 0.9)", rc.tilt(rc.power_zeta(3.0), 0.9)),
        ("tilt(half_stable, 0.8)", rc.tilt(rc.half_stable(), 0.8)),
    ]


def _parts(result) -> list:
    if hasattr(result, "occupation"):
        return [result.pmf, result.q_exit, *_parts(result.occupation)]
    return [result.f, result.u, result.return_prob]


def law_value(result) -> list:
    """A ReturnAnalysis's or ExitAnalysis's parts, in order, arrays as lists of floats."""
    import numpy as np

    return [np.asarray(part, dtype=float).tolist() for part in _parts(result)]


def exact_grid(rc) -> list:
    """(label, call) for each exact law, law by law and, within a law, horizon by horizon."""
    calls = []
    for name, model in laws(rc):
        transient = rc.classify(model) is rc.ChainClass.TRANSIENT
        for n_max in HORIZONS:
            for function in ("return_pmf", "exit_pmf") if transient else ("return_pmf",):
                call = getattr(rc, function)
                calls.append((f"{function} {name} N={n_max}",
                              lambda call=call, model=model, n_max=n_max:
                              law_value(call(model, n_max))))
    return calls


def report_value(report) -> dict:
    """A sampler report's seven fields, read by name."""
    return {name: getattr(report, name) for name in FIELDS}


def sampler_grid(rc) -> list:
    """(label, call) for each sampler call."""
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))
    from sampler_laws import EXIT_LAWS, ORACLE_LAWS

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    jobs = []  # (sampler, model factory, seed, samples, cap or horizon or None, law)
    for kind, named in (("sample_tau", ORACLE_LAWS), ("sample_last_exit", EXIT_LAWS)):
        for name in sorted(named):
            jobs += [(kind, named[name], SEED, SAMPLES, bound, name) for bound in BOUNDS]
    for name in sorted(ORACLE_LAWS):
        if rc.classify(ORACLE_LAWS[name]()) is rc.ChainClass.NULL_RECURRENT:
            jobs.append(("sample_tau", ORACLE_LAWS[name], SEED, WIDE_SAMPLES, WIDE_CAP, name))
    def spec_job(kind, spec, seed, samples, bound):
        law = f"{spec['family']}({', '.join(str(v) for k, v in spec.items() if k != 'family')})"
        return kind, lambda: rc.build_model(spec), seed, samples, bound, law

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for job in workloads.make_jobs("mc_sample", MC_SEED, seconds):
        if job["threads"] != 1:  # the job before it, on another thread count
            continue
        jobs.append(spec_job(job["kind"], job["model"], job["seed"], job["samples"],
                             job.get("cap")))
    jobs += [spec_job(kind, spec, SEED, MULTI_CHUNK_SAMPLES, bound)
             for kind, spec, bound in MULTI_CHUNK_JOBS]

    def sample(kind, model, seed, samples, bound):
        args = (model(), seed, samples) + (() if bound is None else (bound,))
        return report_value(getattr(rc, kind)(*args))

    return [(f"{kind} {law} seed={seed} samples={samples} "
             f"bound={'default' if bound is None else bound}",
             lambda job=(kind, model, seed, samples, bound): sample(*job))
            for kind, model, seed, samples, bound, law in jobs]


def transforms_grid(rc) -> list:
    """(label, call) for each transform, law by law."""
    calls = []
    for name, m in laws(rc):
        above = [] if m.radius <= 1.0 else [2.0 if math.isinf(m.radius) else 0.5 + 0.5 * m.radius]
        calls += [(f"eval_G {name} order={order}",
                   lambda m=m, order=order, ts=T_POINTS + tuple(above):
                   [rc.eval_G(m, t, order) for t in ts]) for order in range(3)]
        if m.family != "tilted":
            calls.append((f"eval_G {name} t=1 order=3,4",
                          lambda m=m: [rc.eval_G(m, 1.0, order) for order in (3, 4)]))
        calls += [
            (f"psi {name}", lambda m=m: [rc.psi(m, h) for h in H_POINTS]),
            (f"eval_F {name}", lambda m=m: [rc.eval_F(m, f * rc.decay_params(m).R1)
                                            for f in R1_FRACTIONS] + [rc.eval_F(m, 1.0)]),
            # case_label is a str Enum, so it serializes as its value
            (f"decay_params {name}", lambda m=m: rc.decay_params(m)._asdict()),
        ]
    return calls


def grid() -> list:
    """(grid name, label, call) for every call, on the repairchain this process imports."""
    import repairchain as rc

    return [(name, label, call)
            for name, calls in (("cli", cli_grid()), ("exact", exact_grid(rc)),
                                ("sampler", sampler_grid(rc)),
                                ("transforms", transforms_grid(rc)))
            for label, call in calls]


def value_hash(value) -> str:
    """SHA-256 of a call's value as sorted-key JSON."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def run_grid() -> list[str]:
    """The grids' hash, then one line per call."""
    hashes, lines = [], []
    for index, (name, label, call) in enumerate(grid()):
        hashes.append(value_hash(call()))
        lines.append(f"{hashes[-1]} #{index} {name} {label}")
    return [hashlib.sha256("\n".join(hashes).encode()).hexdigest()] + lines


def _stdout_record(stdout: str):
    """A JSON stdout as parsed; CSV as {"csv": rows of cells}, numbers as floats."""
    try:
        return json.loads(stdout)
    except ValueError:
        return {"csv": [[_number(cell) for cell in line.split(",")]
                        for line in stdout.splitlines()]}


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def call_values(indices) -> list[str]:
    """One JSON line per given call: its value, a CLI stdout read as its numbers."""
    calls, lines = grid(), []
    for index in indices:
        name, _, call = calls[index]
        value = call()
        if name == "cli":
            value["stdout"] = _stdout_record(value["stdout"])
        lines.append(json.dumps(value))
    return lines


def largest_move(old, new) -> float:
    """The largest relative move of a float from old to new, two JSON values.

    +inf where anything else changes: a zero, a non-finite value, an int,
    a string, a key set or a length, as no relative bound covers that.
    """
    if isinstance(old, float) and isinstance(new, float):
        if old == new or (math.isnan(old) and math.isnan(new)):
            return 0.0
        if old == 0.0 or new == 0.0 or not (math.isfinite(old) and math.isfinite(new)):
            return math.inf
        return abs(new - old) / abs(old)
    if type(old) is not type(new):
        return math.inf
    if isinstance(old, dict):
        if old.keys() != new.keys():
            return math.inf
        return max((largest_move(old[key], new[key]) for key in old), default=0.0)
    if isinstance(old, list):
        if len(old) != len(new):
            return math.inf
        return max(map(largest_move, old, new), default=0.0)
    return 0.0 if old == new else math.inf


def run_side(checkout: str, *args: str) -> list[str]:
    """The lines this script prints with args on checkout's src, from a child process."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    proc = subprocess.run([sys.executable, __file__, *args], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.splitlines()


def against(parent: str, rel: float | None, run) -> tuple[list[str], int]:
    """The lines --against prints and its exit status; run is ``run_side`` or a fake."""
    sides = (parent, str(ROOT))
    old, new = (run(side) for side in sides)
    lines = [f"{side}: {out[0]}" for side, out in zip(sides, (old, new))]
    # both sides ran this script's grids, so call k is line k on each
    differs = [b.split(" ", 1)[1] for a, b in zip(old[1:], new[1:]) if a != b]
    lines += [f"differs: {call}" for call in differs]
    if old[0] == new[0]:
        return lines + ["equal"], 0
    lines.append("different")
    if rel is None:
        return lines, 1
    indices = ",".join(call.split()[0][1:] for call in differs)
    before, after = (run(side, "--values", indices) for side in sides)
    moves = [largest_move(json.loads(a), json.loads(b))
             for a, b in zip(before, after, strict=True)]
    lines[2:2 + len(moves)] = [f"{line} (largest relative move {move:.3g})"
                               for line, move in zip(lines[2:], moves)]
    if max(moves) <= rel:
        return lines + [f"within {rel:g}: every call that differs moves only floats"], 0
    return lines + [f"not within {rel:g}: largest relative move {max(moves):.3g}"], 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="parent checkout: run the grids on both and compare")
    parser.add_argument("--within", type=float, metavar="REL",
                        help="with --against, exit 0 when every call that differs moves "
                             "only floats, by at most REL relative")
    parser.add_argument("--values", help=argparse.SUPPRESS)  # call indices, for --within
    args = parser.parse_args()
    if args.within is not None and args.against is None:
        parser.error("--within needs --against")
    if args.values is not None:
        print("\n".join(call_values(int(i) for i in args.values.split(","))))
        return 0
    if args.against is None:
        print("\n".join(run_grid()))
        return 0
    lines, status = against(os.path.abspath(args.against), args.within, run_side)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
