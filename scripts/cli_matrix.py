#!/usr/bin/env python3
"""Run the CLI over a fixed matrix of models and verb forms, in-process.

Twelve models (four geometric laws, half_stable, two power_zeta laws and
five explicit laws) times 24 verb forms give 288 invocations of
``repairchain.cli.run``.  Each one prints a JSON line with its argv,
exit status, stdout and stderr, so two versions of the package compare
with ``diff``:

Usage:
    PYTHONPATH=src python3 scripts/cli_matrix.py > after.jsonl
    PYTHONPATH=/path/to/other/src python3 scripts/cli_matrix.py > before.jsonl
    diff before.jsonl after.jsonl
"""

import contextlib
import io
import json
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
    ["simulate", "--tau", "--samples", "2000", "--cap", "500", "--seed", "1"],
    ["simulate", "--exit", "--samples", "2000", "--horizon", "500", "--seed", "1"],
]


def invoke(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(argv)
    return {"argv": argv, "status": status, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main() -> int:
    for spec in MODELS:
        for form in VERB_FORMS:
            record = invoke([form[0], "-m", spec, *form[1:]])
            sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
