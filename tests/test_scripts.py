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


def test_sim_vs_exact_reads_the_last_exit_law_from_exit_pmf():
    import repairchain as rc

    proc = _run_script(["sim_vs_exact.py", '{"family": "geometric", "p": 0.25}',
                        "--samples", "2000", "--bins", "3", "--horizon", "300"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("last exit time")
    rows = [line.split() for line in proc.stdout.splitlines()[2:6]]
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
    expected = 2000 * rc.exit_pmf(rc.geometric(0.25), 3).pmf
    assert [float(r[1]) for r in rows] == pytest.approx(expected, abs=0.05)


def test_cli_matrix_writes_one_record_per_invocation():
    proc = _run_script(["cli_matrix.py"])
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 12 * 32
    assert len({json.dumps(r["argv"]) for r in records}) == len(records)
    for r in records:
        assert set(r) == {"argv", "status", "stdout", "stderr"}
        assert r["status"] in (0, 1, 3), r
        assert bool(r["stdout"]) == (r["status"] == 0), r
        assert r["stderr"].startswith("domain error: ") == (r["status"] == 3), r
        assert r["stderr"].startswith("usage error: ") == (r["status"] == 1), r
    # the last 72 are the invalid forms, a usage error on every law
    assert [r["status"] for r in records[12 * 26:]] == [1] * 72


def _script_module(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(argv, stdout, status=0, stderr=""):
    return {"argv": argv, "status": status, "stdout": stdout, "stderr": stderr}


_BEFORE = [
    _record(["classify"], '{"class": "transient", "mu": 3.0}\n'),
    _record(["exit"], '{"N": 2, "q_exit": 0.66666666666666663, "pmf": [0.0, 0.5, 0.25]}\n'),
    _record(["tilt"], '{"family": "geometric", "a_head": [0.5, 0.25]}\n'),
    _record(["pmf", "--csv"], "n,f_n\n0,0.0\n1,0.25\n"),
    _record(["finite"], '{"verdict": "Finite"}\n'),
    _record(["decay"], "", 3, "domain error: no\n"),
    _record(["asym"], '{"gamma": 0.5}\n'),
    _record(["tilt", "--x", "2"], "", 2, "invalid model spec: budget\n"),
]
_AFTER = [
    _record(["classify"], '{"class": "transient", "mu": 3.0}\n'),
    _record(["exit"], '{"N": 2, "q_exit": 0.66666666666666674, "pmf": [0.0, 0.5, 0.25]}\n'),
    _record(["tilt"], '{"family": "geometric", "a_head": [0.5, 0.25, 0.125, 0.0625]}\n'),
    _record(["pmf", "--csv"], "n,f_n\n0,0.0\n1,0.5\n"),
    _record(["finite"], '{"verdict": "Infinite"}\n'),
    _record(["decay"], "", 2, "invalid model spec: no\n"),
    _record(["moments"], '{"k": 1}\n'),
    _record(["tilt", "--x", "2"], '{"mu": 2.0}\n'),
]


def test_cli_matrix_diff_of_canned_records(tmp_path):
    matrix = _script_module("cli_matrix")
    lines = matrix.diff_lines(_BEFORE, _AFTER)
    assert lines == [
        '["asym"]: only before',
        '["exit"]: q_exit: largest relative difference 1.7e-16',
        '["tilt"]: a_head: largest relative difference 0, 0 entries dropped, 2 added',
        '["pmf", "--csv"]: csv: largest relative difference 0.5',
        '["finite"]: verdict: "Finite" -> "Infinite"',
        '["decay"]: status 3 -> 2; stderr \'domain error: no\\n\' -> '
        '\'invalid model spec: no\\n\'',
        '["moments"]: only after',
        '["tilt", "--x", "2"]: status 2 -> 0; stderr \'invalid model spec: budget\\n\' -> \'\'; '
        'mu: null -> 2.0',
    ]
    assert matrix.diff_lines(_BEFORE, _BEFORE) == []
    summary = ("changed rows: only before: 1, q_exit: 1, a_head: 1, csv: 1, verdict: 1, "
               "status: 2, stderr: 2, only after: 1, mu: 1")
    assert matrix.summary_line(_BEFORE, _AFTER) == summary
    paths = []
    for name, records in (("before", _BEFORE), ("after", _AFTER)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(r) + "\n" for r in records))
    proc = _run_script(["cli_matrix.py", "--diff", *map(str, paths)])
    assert proc.returncode == 1 and proc.stdout.splitlines() == [*lines, summary]
    proc = _run_script(["cli_matrix.py", "--diff", str(paths[0]), str(paths[0])])
    assert proc.returncode == 0 and proc.stdout == ""


def _canned_run(seed, metrics, failed=0, attempted=10):
    # the last two stdout lines of perfbench/run.py
    report = {"seed": seed, "environment": {"python": "3.11.7"}}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": v, "unit": "s"} for m, v in metrics.items()}}
    return "compiling\nreport: " + json.dumps(report) + "\n" + json.dumps(result) + "\n"


def test_bench_summary_of_canned_runs():
    bench = _script_module("bench")
    walls = [0.5, 0.1, 0.4, 0.2, 0.3]
    untraced = [bench.parse_run(_canned_run(7 + i, {"setup_s": 1.0 + i, "wall_s": w,
                                                    "peak_rss_mb": 30.0}, failed=i % 2))
                for i, w in enumerate(walls)]
    traced = bench.parse_run(_canned_run(7, {"model.eval_G.calls": 123.0}, attempted=20))
    entry = bench.summarize(untraced, traced)
    assert entry["seeds"] == [7, 8, 9, 10, 11]
    assert entry["end_to_end"]["wall_s"] == {"median": 0.3, "q1": 0.2, "q3": 0.4,
                                             "values": walls}
    assert entry["end_to_end"]["setup_s"]["median"] == 3.0
    rss = entry["end_to_end"]["peak_rss_mb"]
    assert rss["q1"] == rss["median"] == rss["q3"] == 30.0
    assert (entry["failed"], entry["attempted"]) == (2, 70)
    assert entry["per_layer"] == {"model.eval_G.calls": 123.0}
    assert entry["traced_seed"] == 7
    assert bench.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "values": [2.5]}
    with pytest.raises(ValueError):
        bench.parse_run('{"correct": true}\n')


def test_bench_pairs_of_canned_runs():
    # two sides alternate at running first; the table reads each side's
    # median [q1, q3] (inclusive method) and counts the pairs read lower
    bench = _script_module("bench")
    rss = {"parent": [52.0, 51.0, 53.0, 52.5], "change": [47.0, 47.5, 53.5, 46.0]}
    calls = []

    def run(checkout, workload, seed, seconds, trace):
        calls.append((checkout, workload, seed, seconds, trace))
        i = seed - 40
        metrics = {"setup_s": 0.2, "wall_s": 6.0 - (checkout == "change") * i,
                   "peak_rss_mb": rss[checkout][i]}
        return bench.parse_run(_canned_run(seed, metrics, failed=int(checkout == "change" and i == 3)))

    pairs = bench.run_pairs("parent", "change", "mc_sample", 4, 40, 18, run=run)
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    assert [c[2] for c in calls] == [40, 40, 41, 41, 42, 42, 43, 43]
    assert {c[1] for c in calls} == {"mc_sample"} and {c[3:] for c in calls} == {(18, 0)}
    assert [p[0]["result"]["metrics"]["peak_rss_mb"]["value"] for p in pairs] == rss["parent"]
    assert bench.paired_lines(pairs) == [
        "setup_s: 0.2 [0.2, 0.2] -> 0.2 [0.2, 0.2], lower in 0/4 pairs, medians +0 "
        "against a parent interquartile distance of 0",
        "wall_s: 6 [6, 6] -> 4.5 [3.75, 5.25], lower in 3/4 pairs, medians -1.5 "
        "against a parent interquartile distance of 0",
        "peak_rss_mb: 52.25 [51.75, 52.62] -> 47.25 [46.75, 49], lower in 3/4 pairs, "
        "medians -5 against a parent interquartile distance of 0.875",
        "failed: 0 of 40 -> 1 of 40",
    ]


def test_sim_hash_of_canned_reports_and_runs():
    # one hash over the reports in grid order, then one per call; --against
    # prints both grid hashes and each call that differs, and exits 1 when
    # they differ
    import hashlib

    import repairchain as rc
    from repairchain.sim import SimReport

    sim_hash = _script_module("sim_hash")
    one = SimReport(samples=3, seed=1, tau_hist={1: 2}, L_hist={}, censored=1, cap=5)
    two = SimReport(samples=3, seed=1, tau_hist={1: 1, 2: 1}, L_hist={}, censored=1, cap=5)
    line = ('{"L_hist": {}, "cap": 5, "censored": 1, "horizon": null, "samples": 3, '
            '"seed": 1, "tau_hist": {"1": 2}}\n')
    assert sim_hash.report_hash([one]) == hashlib.sha256(line.encode()).hexdigest()
    assert sim_hash.report_hash([one, two]) != sim_hash.report_hash([two, one])
    runs = []
    calls = ["#0 sample_tau half_stable bound=1",
             "#1 sample_last_exit geometric(0.25) bound=default"]

    def run(checkout):
        runs.append(checkout)
        return {"parent": ["aa", "c0 " + calls[0], "c1 " + calls[1]],
                "same": ["aa", "c0 " + calls[0], "c1 " + calls[1]],
                "changed": ["bb", "c0 " + calls[0], "d1 " + calls[1]]}[checkout]

    assert sim_hash.compare("same", "parent", run=run) == (["parent: aa", "same: aa", "equal"], 0)
    assert sim_hash.compare("changed", "parent", run=run) == (
        ["parent: aa", "changed: bb", "differs: " + calls[1], "different"], 1)
    assert runs == ["parent", "same", "parent", "changed"]
    # the grid: 8 tau laws and 3 exit laws at 5 bounds, the 4 null-recurrent
    # tau laws at cap 10^6, then one call for each of mc_sample's 40 pairs
    # of thread twins, each named by its law
    calls = sim_hash.grid(rc)
    assert len(calls) == (8 + 3) * 5 + 4 + 40
    assert [c[4] for c in calls[:5]] == [1, 2, 3, 100, 5000]
    assert {c[0] for c in calls[40:55]} == {"sample_last_exit"}
    assert {(c[0], c[3], c[4]) for c in calls[55:59]} == {("sample_tau", 3000, 10 ** 6)}
    assert [c[5] for c in calls[55:59]] == ["explicit a_1 = 0", "geometric(0.5)",
                                            "half_stable", "tilt(geometric(0.25), 2/3)"]
    assert {c[3] for c in calls[59:]} == {1 << 17}
    assert len({(c[0], c[2], c[4], c[5]) for c in calls[59:]}) == 40  # no twin twice
    assert calls[0][5] == "explicit a_1 = 0" and calls[40][5] == "explicit a_1 = 0"
    assert {c[5] for c in calls[59:]} >= {"geometric(0.5)", "half_stable()"}


def test_line_coverage_lists_the_statements_a_run_never_reaches():
    # test_series_tools.py never feeds block_ratio_diagnostic an early
    # block of zeros before a late block that is not
    proc = _run_script(["line_coverage.py", "-q", "-p", "no:cacheprovider",
                        str(ROOT / "tests" / "test_series_tools.py")])
    assert proc.returncode == 0, proc.stderr
    listed = [line for line in proc.stdout.splitlines() if line.startswith("src/repairchain/")]
    tools = [line for line in listed if line.startswith("src/repairchain/series_tools.py:")]
    assert any(line.endswith(': return math.inf, "appears divergent"') for line in tools)
    assert not any(line.endswith(': return ratio, "appears summable"') for line in tools)
    # the samplers never run here, but definitions and docstrings are not
    # statements that run, the nested worker functions' included
    assert any(line.startswith("src/repairchain/sim.py:") for line in listed)
    assert not any(": def " in line or ': """' in line for line in listed)
