"""Smoke runs of the command-line scripts under scripts/."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["family_report.py", '{"family": "geometric", "p": 0.25}', "-N", "4"],
    ["sim_vs_exact.py", '{"family": "geometric", "p": 0.5}', "--samples", "2000",
     "--bins", "4", "--cap", "500"],
], ids=lambda a: a[0])
def test_script_runs(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
