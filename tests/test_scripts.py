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


_MOVED = [
    _record(["pmf"], '{"N": 2, "f": [0.0, 0.25, 0.125], "return_prob": 1.0}\n'),
    _record(["pmf", "--csv"], "n,f_n\n0,0.0\n1,0.25\n"),
    _record(["simulate"], '{"tau_hist": {"1": 3, "2": 1}, "censored": 0}\n'),
    _record(["decay"], "", 3, "domain error: no\n"),
]
# each a change --within 1e-14 refuses, with the row it replaces
_BEYOND = {
    "number beyond REL": _record(["pmf"], '{"N": 2, "f": [0.0, 0.25, 0.12500000001], '
                                          '"return_prob": 1.0}\n'),
    "list length": _record(["pmf"], '{"N": 2, "f": [0.0, 0.25], "return_prob": 1.0}\n'),
    "key added": _record(["pmf"], '{"N": 2, "f": [0.0, 0.25, 0.125], "return_prob": 1.0, '
                                  '"u": []}\n'),
    "csv row added": _record(["pmf", "--csv"], "n,f_n\n0,0.0\n1,0.25\n2,0.125\n"),
    "histogram": _record(["simulate"], '{"tau_hist": {"1": 3, "2": 2}, "censored": 0}\n'),
    "status": _record(["decay"], "", 2, "domain error: no\n"),
    "stderr": _record(["decay"], "", 3, "domain error: yes\n"),
}


def test_cli_matrix_diff_within_a_relative_bound(tmp_path):
    matrix = _script_module("cli_matrix")
    after = [
        _record(["pmf"], '{"N": 2, "f": [0.0, 0.25000000000000006, 0.125], '
                         '"return_prob": 1.0}\n'),
        _record(["pmf", "--csv"], "n,f_n\n0,0.0\n1,0.25000000000000006\n"),
        *_MOVED[2:],
    ]
    assert matrix.within(_MOVED, after, 1e-14)
    assert not matrix.within(_MOVED, after, 1e-17)
    assert matrix.within(_MOVED, _MOVED, 0.0)
    assert not matrix.within(_MOVED, after[:-1], 1.0)  # an invocation dropped
    for what, row in _BEYOND.items():
        changed = [row if r["argv"] == row["argv"] else r for r in after]
        assert not matrix.within(_MOVED, changed, 1e-14), what
    paths = {}
    for name, records in (("before", _MOVED), ("after", after),
                          ("histogram", [*after[:2], _BEYOND["histogram"], after[3]])):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text("".join(json.dumps(r) + "\n" for r in records))
    proc = _run_script(["cli_matrix.py", "--diff", str(paths["before"]), str(paths["after"]),
                        "--within", "1e-14"])
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines() == [*matrix.diff_lines(_MOVED, after),
                                        matrix.summary_line(_MOVED, after)]
    for rel, other, status in (("1e-17", "after", 1), ("1", "histogram", 1)):
        proc = _run_script(["cli_matrix.py", "--diff", str(paths["before"]), str(paths[other]),
                            "--within", rel])
        assert proc.returncode == status, (rel, other)


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
    assert bench.per_pair_lines(pairs)[1:] == [
        "wall_s per pair: 6 -> 6, 6 -> 5, 6 -> 4, 6 -> 3",
        "peak_rss_mb per pair: 52 -> 47, 51 -> 47.5, 53 -> 53.5, 52.5 -> 46",
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


def test_pmf_hash_of_canned_laws_and_runs(capsys):
    # one hash over the calls' hashes in grid order, then one per call;
    # --against is sim_hash's, run on this script's grid
    import hashlib

    import numpy as np

    import repairchain as rc
    from repairchain.last_exit import ExitAnalysis
    from repairchain.return_time import ReturnAnalysis, return_series

    pmf_hash = _script_module("pmf_hash")
    f, u = [0.0, 0.5, 0.125], [1.0, 0.5, 0.375]
    one = ReturnAnalysis(f=f, u=u, return_prob=1.0)
    occupation = np.array(f).tobytes() + np.array(u).tobytes() + b"1.0"
    assert pmf_hash.law_hash(one) == hashlib.sha256(occupation).hexdigest()
    exit_law = ExitAnalysis(q_exit=np.float64(0.25), pmf=[0.25, 0.125, 0.09375], occupation=one)
    want = np.array([0.25, 0.125, 0.09375]).tobytes() + b"0.25" + occupation
    assert pmf_hash.law_hash(exit_law) == hashlib.sha256(want).hexdigest()
    # lists and read-only arrays of the same numbers hash alike
    law = rc.geometric(0.5)
    assert pmf_hash.law_hash(rc.return_pmf(law, 8)) == pmf_hash.law_hash(return_series(law, 8))
    # --against runs this script, not sim_hash's, on both checkouts
    calls, runs = ["#0 return_pmf half_stable N=1", "#1 exit_pmf geometric(0.25) N=2048"], []

    def run(checkout, script):
        runs.append((os.path.basename(checkout), os.path.basename(script)))
        return {"parent": ["aa", "c0 " + calls[0], "c1 " + calls[1]]}.get(
            os.path.basename(checkout), ["bb", "d0 " + calls[0], "c1 " + calls[1]])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pmf_hash.sim_hash, "run_checkout", run)
        patch.setattr(sys, "argv", ["pmf_hash.py", "--against", "parent"])
        assert pmf_hash.main() == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[2:] == ["differs: " + calls[0], "different"]
    assert runs == [("parent", "pmf_hash.py"), (ROOT.name, "pmf_hash.py")]
    # the grid: 16 laws at 69 horizons, and the exit law after each
    # return law of the three transient ones
    calls = pmf_hash.grid(rc)
    assert len(calls) == (16 + 3) * 69
    assert [c[3] for c in calls if c[1] == "power_zeta(50)"] == [*range(1, 65), 65, 100, 256,
                                                                 1024, 2048]
    exits = sorted({c[1] for c in calls if c[0] == "exit_pmf"})
    assert exits == ['{"family": "explicit", "a": [0.2, 0.3, 0.5]}',
                     '{"family": "explicit", "a": [1e-30, 0, 1]}',
                     '{"family": "geometric", "p": 0.25}']
    assert [c[:2] for c in calls[:2]] == [("return_pmf", exits[2]), ("exit_pmf", exits[2])]
    assert (calls[-1][1], calls[-1][3]) == ("tilt(half_stable, 0.8)", 2048)
    assert calls[-70][1] == "tilt(power_zeta(3), 0.9)"
    assert rc.decay_params(calls[-70][2]).case_label is rc.CaseLabel.BOUNDARY_CASE


def test_pmf_hash_within_a_relative_bound(capsys):
    # --within REL passes the calls that differ when each keeps its zeros,
    # lengths and non-finite values and moves by at most REL relative
    import math

    import repairchain as rc

    pmf_hash = _script_module("pmf_hash")
    old = [[0.0, 0.5, 1e-300], [1.0, 0.5, math.inf], 0.75]
    moved = [[0.0, 0.5 + 2.0 ** -45, 1e-300], [1.0, 0.5 - 2.0 ** -50, math.inf], 0.75]
    assert pmf_hash.largest_move(old, old) == 0.0
    assert pmf_hash.largest_move(old, moved) == 2.0 ** -44
    for what, new in {"a zero": [[0.0, 0.5, 0.0], *old[1:]],
                      "a zero filled": [*old[:2], 0.0],
                      "a length": [[0.0, 0.5], *old[1:]],
                      "a non-finite value": [old[0], [1.0, 0.5, 1e308], old[2]],
                      "a part": old[:2]}.items():
        assert pmf_hash.largest_move(old, new) == math.inf, what
    lines = ["parent: aa", "repo: bb", "differs: #3 return_pmf geometric(0.5) N=2", "different"]
    moved_line = "differs: #3 return_pmf geometric(0.5) N=2 (largest relative move 5.68e-14)"
    assert pmf_hash.within(lines, [old], [moved], 1e-13) == (
        [*lines[:2], moved_line, "different",
         "within 1e-13: every call that differs keeps its zeros"], 0)
    assert pmf_hash.within(lines, [old], [moved], 1e-15)[0][-1] == (
        "not within 1e-15: largest relative move 5.68e-14")
    assert pmf_hash.within(lines, [old], [moved], 1e-15)[1] == 1
    # main asks both sides for the calls that differ, parent first, and
    # asks nothing when the grids agree
    asked = []

    def run(checkout, script):
        if os.path.basename(checkout) == "parent":
            return ["aa", "c0 #0 return_pmf a N=1", "c1 #1 return_pmf b N=2"]
        return ["bb" if differ else "aa", "c0 #0 return_pmf a N=1",
                ("d1" if differ else "c1") + " #1 return_pmf b N=2"]

    def values(checkout, indices):
        asked.append((os.path.basename(checkout), indices))
        return [old] if os.path.basename(checkout) == "parent" else [moved]

    for differ, rel, status in ((True, "1e-13", 0), (True, "1e-15", 1), (False, "0", 0)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pmf_hash.sim_hash, "run_checkout", run)
            patch.setattr(pmf_hash, "run_values", values)
            patch.setattr(sys, "argv", ["pmf_hash.py", "--against", "parent", "--within", rel])
            assert pmf_hash.main() == status, rel
    assert asked == [("parent", [1]), (ROOT.name, [1])] * 2
    assert capsys.readouterr().out.splitlines()[-1] == "equal"
    # the child run reads the calls' parts back as return_pmf holds them
    got = pmf_hash.run_values(str(ROOT), [0, 1])
    model = pmf_hash.grid(rc)[0][2]
    analysis = rc.return_pmf(model, 1)
    assert got[0] == [analysis.f.tolist(), analysis.u.tolist(), analysis.return_prob]
    assert got[1][0] == rc.exit_pmf(model, 1).pmf.tolist()


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
