#!/usr/bin/env python3
"""Run the CLI over a fixed matrix of models and verb forms, in-process.

Twelve models (four geometric laws, half_stable, two power_zeta laws and
five explicit laws) times 26 verb forms give 312 invocations of
``repairchain.cli.run``; times six invalid verb forms they give 72 more,
each of which should be a usage error (exit 1) on every law.  Each
invocation prints a JSON line with its argv, exit status, stdout and
stderr, so two versions of the package compare with ``diff`` or with
``--diff``, which prints one line per invocation whose record changed:
its argv, any change of exit status or stderr, and each
changed stdout key with the largest relative difference of its numbers
(and the entries dropped or added, for lists and histograms), and then
one summary line with the number of changed invocations per stdout key,
exit status, stderr and presence.  It exits 1 when some invocation
changed, as ``diff`` does.

Usage:
    PYTHONPATH=src python3 scripts/cli_matrix.py > after.jsonl
    PYTHONPATH=/path/to/other/src python3 scripts/cli_matrix.py > before.jsonl
    PYTHONPATH=src python3 scripts/cli_matrix.py --diff before.jsonl after.jsonl
"""

import argparse
import collections
import contextlib
import io
import json
import math
import sys

from repairchain import cli

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
    ["pmf", "--exit", "-N", "64"],
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


def invoke(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(argv)
    return {"argv": argv, "status": status, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _stdout_record(stdout: str) -> dict:
    """A JSON stdout as parsed; CSV as {"csv": rows of cells}, numbers as floats."""
    if not stdout:  # a failed invocation prints nothing
        return {}
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


def _leaves(value, path=()) -> dict:
    """{path: scalar} over nested dicts and lists."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    out = {}
    for key, item in items:
        out.update(_leaves(item, path + (key,)))
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _relative(x: float, y: float) -> float:
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _describe(old, new) -> str:
    """How one stdout value changed: its numbers' largest relative difference."""
    a, b = _leaves(old), _leaves(new)
    changed = [(a[p], b[p]) for p in a if p in b and a[p] != b[p]]
    if not all(_is_number(x) and _is_number(y) for x, y in changed):
        return f"{json.dumps(old)} -> {json.dumps(new)}"
    worst = max((_relative(x, y) for x, y in changed), default=0.0)
    out = f"largest relative difference {worst:.2g}"
    if a.keys() != b.keys():
        out += f", {len(a.keys() - b.keys())} entries dropped, {len(b.keys() - a.keys())} added"
    return out


def _changes(before: list, after: list):
    """(invocation, [(what changed, how it reads)]) per invocation whose record differs."""
    old = {json.dumps(r["argv"]): r for r in before}
    new = {json.dumps(r["argv"]): r for r in after}
    for key in old:
        if key not in new:
            yield key, [("only before", "only before")]
    for key, b in new.items():
        a = old.get(key)
        if a is None:
            yield key, [("only after", "only after")]
            continue
        parts = []
        if a["status"] != b["status"]:
            parts.append(("status", f"status {a['status']} -> {b['status']}"))
        if a["stderr"] != b["stderr"]:
            parts.append(("stderr", f"stderr {a['stderr']!r} -> {b['stderr']!r}"))
        if a["stdout"] != b["stdout"]:
            x, y = _stdout_record(a["stdout"]), _stdout_record(b["stdout"])
            if not (isinstance(x, dict) and isinstance(y, dict)):
                x, y = {"stdout": x}, {"stdout": y}
            for name in {**x, **y}:
                if json.dumps(x.get(name)) != json.dumps(y.get(name)):
                    parts.append((name, f"{name}: {_describe(x.get(name), y.get(name))}"))
        if parts:
            yield key, parts


def diff_lines(before: list, after: list) -> list:
    """One line per invocation whose record differs between two matrix runs."""
    return [f"{key}: " + "; ".join(how for _, how in parts)
            for key, parts in _changes(before, after)]


def summary_line(before: list, after: list) -> str:
    """How many invocations changed each stdout key, status, stderr or presence."""
    counts = collections.Counter(name for _, parts in _changes(before, after)
                                 for name, _ in parts)
    return "changed rows: " + ", ".join(f"{name}: {n}" for name, n in counts.items())


def _read_records(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two recorded runs instead of running the matrix")
    args = parser.parse_args()
    if args.diff:
        before, after = map(_read_records, args.diff)
        lines = diff_lines(before, after)
        for line in lines:
            print(line)
        if lines:
            print(summary_line(before, after))
        return 1 if lines else 0
    for forms in (VERB_FORMS, INVALID_FORMS):
        for spec in MODELS:
            for form in forms:
                record = invoke([form[0], "-m", spec, *form[1:]])
                sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
