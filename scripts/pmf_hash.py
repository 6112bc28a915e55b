#!/usr/bin/env python3
"""Print one SHA-256 over the exact return and exit laws of a fixed grid, then one per call.

Two versions of the package compute the exact laws alike exactly when
their hashes are equal.  The grid, law by law and, within a law, horizon
by horizon:

- the laws: the twelve of ``scripts/cli_matrix.py``, then power_zeta(50)
  and explicit [1e-300, 1 - 2e-300, 1e-300], which take the unflushed
  rerun of the numpy pmf at large horizons, tilt(power_zeta(3), 0.9)
  (BoundaryCase) and tilt(half_stable, 0.8);
- the horizons N = 1..64, 65, 100, 256, 1024 and 2048, on both sides
  of ``return_time._PURE_N``;
- at each, ``return_pmf``'s f, u and return_prob, and for a transient
  law then ``exit_pmf``'s pmf, q_exit and occupation.

Arrays are hashed by their float64 bytes, floats by their repr, which
reads back as the same double.  After the grid's hash comes one line per
call: its own hash, its index in the grid, the function, the law and N.

Usage:
    PYTHONPATH=src python3 scripts/pmf_hash.py
    python3 scripts/pmf_hash.py --against /path/to/parent

With ``--against PARENT`` the grid runs twice, in child processes with
PYTHONPATH set to this checkout's src and to PARENT's, and prints as
``sim_hash.py --against`` does: both grid hashes, then each call whose
laws differ, and it exits 1 when they differ.  Both sides run this
script's grid.

With ``--within REL`` as well, each side then computes the calls that
differ once more and prints their numbers to the comparison, which adds
to each such call the largest relative move of any of its entries, and
one last line.  It exits 0 when every call that differs keeps its
zeros, its lengths and its non-finite values, and moves by at most REL
relative, as ``cli_matrix.py --within`` does for the CLI:

    python3 scripts/pmf_hash.py --against /path/to/parent --within 1e-13
"""

import argparse
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "scripts") not in sys.path:
    sys.path.insert(0, str(ROOT / "scripts"))  # when loaded from elsewhere, as the tests do

import sim_hash  # noqa: E402

HORIZONS = (*range(1, 65), 65, 100, 256, 1024, 2048)


def laws(rc) -> list:
    """(name, model) for each law of the grid."""
    from cli_matrix import MODELS

    return [(spec, rc.build_model(json.loads(spec))) for spec in MODELS] + [
        ("power_zeta(50)", rc.power_zeta(50.0)),
        ("explicit [1e-300, 1 - 2e-300, 1e-300]", rc.explicit([1e-300, 1.0 - 2e-300, 1e-300])),
        ("tilt(power_zeta(3), 0.9)", rc.tilt(rc.power_zeta(3.0), 0.9)),
        ("tilt(half_stable, 0.8)", rc.tilt(rc.half_stable(), 0.8)),
    ]


def grid(rc) -> list:
    """(function name, law name, model, N) for each call, in grid order."""
    calls = []
    for name, model in laws(rc):
        transient = rc.classify(model) is rc.ChainClass.TRANSIENT
        for n_max in HORIZONS:
            calls.append(("return_pmf", name, model, n_max))
            if transient:
                calls.append(("exit_pmf", name, model, n_max))
    return calls


def _parts(result) -> list:
    if hasattr(result, "occupation"):
        return [result.pmf, result.q_exit, *_parts(result.occupation)]
    return [result.f, result.u, result.return_prob]


def law_hash(result) -> str:
    """SHA-256 over a ReturnAnalysis's or ExitAnalysis's fields, in order."""
    digest = hashlib.sha256()
    for part in _parts(result):
        digest.update(repr(float(part)).encode() if isinstance(part, float)
                      else np.asarray(part, dtype=float).tobytes())
    return digest.hexdigest()


def run_grid() -> list[str]:
    """The grid's hash, then one line per call, on the repairchain this process imports."""
    import repairchain as rc

    hashes, lines = [], []
    for index, (function, law, model, n_max) in enumerate(grid(rc)):
        hashes.append(law_hash(getattr(rc, function)(model, n_max)))
        lines.append(f"{hashes[-1]} #{index} {function} {law} N={n_max}")
    return [hashlib.sha256("\n".join(hashes).encode()).hexdigest()] + lines


def call_values(indices) -> list[str]:
    """One JSON line per given grid call: its parts, arrays as lists, in ``_parts`` order."""
    import repairchain as rc

    calls, lines = grid(rc), []
    for index in indices:
        function, _, model, n_max = calls[index]
        parts = _parts(getattr(rc, function)(model, n_max))
        lines.append(json.dumps([np.asarray(part, dtype=float).tolist() for part in parts]))
    return lines


def run_values(checkout: str, indices: list[int]) -> list[list]:
    """``call_values`` of the given calls on checkout's src, from a child process."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    proc = subprocess.run([sys.executable, __file__, "--values", ",".join(map(str, indices))],
                          env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def largest_move(old: list, new: list) -> float:
    """The largest relative move from one call's parts to another's.

    +inf where a part changes its length, one of its zeros or one of its
    non-finite values, as no relative bound covers that.
    """
    if len(old) != len(new):
        return math.inf
    worst = 0.0
    for a, b in zip(old, new):
        a, b = np.array(a, dtype=float, ndmin=1), np.array(b, dtype=float, ndmin=1)
        if a.shape != b.shape or not np.array_equal(a == 0.0, b == 0.0):
            return math.inf
        moved = a != b
        if not moved.any():
            continue
        if not (np.isfinite(a[moved]).all() and np.isfinite(b[moved]).all()):
            return math.inf
        worst = max(worst, float(np.max(np.abs(b[moved] - a[moved]) / np.abs(a[moved]))))
    return worst


def within(lines: list[str], old: list, new: list, rel: float) -> tuple[list[str], int]:
    """``compare``'s lines with each differing call's largest move, then the verdict.

    old and new hold the parts of the differing calls, in the order of
    their lines; the status is 0 when no move is above rel.
    """
    moves = iter([largest_move(a, b) for a, b in zip(old, new, strict=True)])
    out, worst = [], 0.0
    for line in lines:
        if line.startswith("differs: "):
            move = next(moves)
            worst = max(worst, move)
            line += f" (largest relative move {move:.3g})"
        out.append(line)
    if worst <= rel:
        return out + [f"within {rel:g}: every call that differs keeps its zeros"], 0
    return out + [f"not within {rel:g}: largest relative move {worst:.3g}"], 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="parent checkout: hash both and compare")
    parser.add_argument("--within", type=float, metavar="REL",
                        help="with --against, exit 0 when every call that differs keeps "
                             "its zeros and moves by at most REL relative")
    parser.add_argument("--values", help=argparse.SUPPRESS)  # grid indices, for --within
    args = parser.parse_args()
    if args.within is not None and args.against is None:
        parser.error("--within needs --against")
    if args.values is not None:
        print("\n".join(call_values(int(i) for i in args.values.split(","))))
        return 0
    if args.against is None:
        print("\n".join(run_grid()))
        return 0
    parent = os.path.abspath(args.against)
    run = functools.partial(sim_hash.run_checkout, script=__file__)
    lines, status = sim_hash.compare(str(ROOT), parent, run=run)
    if args.within is not None and status:
        indices = [int(line.split()[1][1:]) for line in lines if line.startswith("differs: ")]
        old, new = (run_values(side, indices) for side in (parent, str(ROOT)))
        lines, status = within(lines, old, new, args.within)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
