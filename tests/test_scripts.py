"""Smoke runs of the command-line scripts under scripts/."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_script(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ["family_report.py", '{"family": "geometric", "p": 0.25}', "-N", "4"],
    ["sim_vs_exact.py", '{"family": "geometric", "p": 0.5}', "--samples", "2000",
     "--bins", "4", "--cap", "500"],
], ids=lambda a: a[0])
def test_script_runs(argv):
    proc = _run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_cli_matrix_writes_one_record_per_invocation():
    proc = _run_script(["cli_matrix.py"])
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 12 * 24
    assert len({json.dumps(r["argv"]) for r in records}) == len(records)
    for r in records:
        assert set(r) == {"argv", "status", "stdout", "stderr"}
        assert r["status"] in (0, 3), r
        assert bool(r["stdout"]) == (r["status"] == 0), r
        assert r["stderr"].startswith("domain error: ") == (r["status"] == 3), r
