"""Smoke runs of the command-line scripts under scripts/."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
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


@pytest.mark.parametrize("script", ["family_report.py", "sim_vs_exact.py"])
def test_script_refuses_a_bad_spec_as_the_cli_does(script, tmp_path):
    # both read the spec through the CLI's reader: exit 2 with its one
    # line, not a traceback
    for spec, reason in (('{"family": "geometric", "p": 2}', "geometric parameter"),
                         (f"@{tmp_path / 'missing.json'}", "cannot read model spec file"),
                         ('{"family": ', "model spec is not valid JSON")):
        proc = _run_script([script, spec])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"invalid model spec: {reason}"), proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def _script_module(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sampler_label(label):
    kind, law, seed, samples, bound = re.fullmatch(
        r"(\S+) (.+) seed=(\d+) samples=(\d+) bound=(\S+)", label).groups()
    return kind, law, int(seed), int(samples), bound


def test_outputs_grids_in_order():
    import repairchain as rc

    outputs = _script_module("outputs")
    calls = outputs.grid()
    assert [c[0] for c in calls] == ["cli"] * 384 + ["exact"] * 1311 + ["sampler"] * 99
    # the CLI: 12 laws x 26 verb forms, then x 6 invalid forms, each of
    # which is a usage error on every law
    argvs = [json.loads(label) for _, label, _ in calls[:384]]
    assert len({json.dumps(argv) for argv in argvs}) == 384
    assert argvs[0] == ["classify", "-m", outputs.MODELS[0]]
    assert argvs[26] == ["classify", "-m", outputs.MODELS[1]]
    assert argvs[312] == ["pmf", "-m", outputs.MODELS[0], "-N", "0"]
    records = [call() for _, _, call in calls[:384]]
    for argv, r in zip(argvs, records):
        assert set(r) == {"status", "stdout", "stderr"}
        assert r["status"] in (0, 1, 3), (argv, r)
        assert bool(r["stdout"]) == (r["status"] == 0), (argv, r)
        assert r["stderr"].startswith("domain error: ") == (r["status"] == 3), (argv, r)
        assert r["stderr"].startswith("usage error: ") == (r["status"] == 1), (argv, r)
    assert [r["status"] for r in records[312:]] == [1] * 72
    # the exact laws: 16 laws at 69 horizons, and the exit law after each
    # return law of the three transient ones
    exact = [(label.split(" ", 1)[0], *label.split(" ", 1)[1].rsplit(" N=", 1))
             for name, label, _ in calls if name == "exact"]
    assert [int(n) for _, law, n in exact if law == "power_zeta(50)"] == [
        *range(1, 65), 65, 100, 256, 1024, 2048]
    exits = sorted({law for function, law, _ in exact if function == "exit_pmf"})
    assert exits == ['{"family": "explicit", "a": [0.2, 0.3, 0.5]}',
                     '{"family": "explicit", "a": [1e-30, 0, 1]}',
                     '{"family": "geometric", "p": 0.25}']
    assert exact[:2] == [("return_pmf", exits[2], "1"), ("exit_pmf", exits[2], "1")]
    assert exact[-1] == ("return_pmf", "tilt(half_stable, 0.8)", "2048")
    assert exact[-70][1] == "tilt(power_zeta(3), 0.9)"
    name, model = outputs.laws(rc)[-2]
    assert name == exact[-70][1]
    assert rc.decay_params(model).case_label is rc.CaseLabel.BOUNDARY_CASE
    # the samplers: 8 tau laws and 3 exit laws at 5 bounds, the 4
    # null-recurrent tau laws at cap 10^6, then one call for each of
    # mc_sample's 40 pairs of thread twins, each named by its law
    sampled = [_sampler_label(label) for name, label, _ in calls if name == "sampler"]
    assert [s[4] for s in sampled[:5]] == ["1", "2", "3", "100", "5000"]
    assert {s[0] for s in sampled[40:55]} == {"sample_last_exit"}
    assert {(s[0], s[3], s[4]) for s in sampled[55:59]} == {("sample_tau", 3000, "1000000")}
    assert [s[1] for s in sampled[55:59]] == ["explicit a_1 = 0", "geometric(0.5)",
                                              "half_stable", "tilt(geometric(0.25), 2/3)"]
    assert {s[3] for s in sampled[59:]} == {1 << 17}
    assert len(set(sampled[59:])) == 40  # no twin twice
    assert sampled[0][1] == "explicit a_1 = 0" and sampled[40][1] == "explicit a_1 = 0"
    assert {s[1] for s in sampled[59:]} >= {"geometric(0.5)", "half_stable()"}


def test_outputs_sampler_grid_needs_neither_scipy_nor_pytest():
    # the grid is built in a child process where importing scipy or pytest
    # fails, with the same labels in the same order as in this process
    import repairchain as rc

    code = ("import json, sys\n"
            "sys.modules['scipy'] = sys.modules['pytest'] = None\n"
            "import importlib.util\n"
            "spec = importlib.util.spec_from_file_location('outputs', sys.argv[1])\n"
            "outputs = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(outputs)\n"
            "import repairchain\n"
            "print(json.dumps([label for label, _ in outputs.sampler_grid(repairchain)]))\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "scripts" / "outputs.py")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    labels = json.loads(proc.stdout)
    assert len(labels) == 99
    assert labels == [label for label, _ in _script_module("outputs").sampler_grid(rc)]


def test_outputs_hash_of_canned_values(monkeypatch):
    # each call's hash is the SHA-256 of its value as sorted-key JSON, and
    # the grids' hash one over the calls' hashes, in grid order
    import hashlib

    from repairchain.sim import SimReport

    outputs = _script_module("outputs")

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    report = SimReport(samples=3, seed=1, tau_hist={1: 2}, L_hist={}, censored=1, cap=5)
    assert outputs.value_hash(outputs.report_value(report)) == sha(
        '{"L_hist": {}, "cap": 5, "censored": 1, "horizon": null, "samples": 3, '
        '"seed": 1, "tau_hist": {"1": 2}}')
    # every bit of a float counts, its sign at zero included
    assert outputs.value_hash([0.0]) != outputs.value_hash([-0.0])
    assert outputs.value_hash([0.1]) != outputs.value_hash([math.nextafter(0.1, 1.0)])
    # a CLI call's value is its status and its stdout and stderr as printed
    record = outputs.invoke(["pmf", "-m", '{"family": "geometric", "p": 0.5}', "-N", "2"])
    assert record == {"status": 0, "stderr": "", "stdout": record["stdout"]}
    assert record["stdout"].endswith("\n") and json.loads(record["stdout"])["N"] == 2
    # the grids' hash reads the calls in order
    canned = [("cli", "a", lambda: {"status": 1}), ("exact", "b", lambda: [0.5]),
              ("sampler", "c", lambda: {"censored": 0})]
    hashes = [outputs.value_hash(call()) for _, _, call in canned]
    monkeypatch.setattr(outputs, "grid", lambda: canned)
    assert outputs.run_grid() == [sha("\n".join(hashes)), f"{hashes[0]} #0 cli a",
                                  f"{hashes[1]} #1 exact b", f"{hashes[2]} #2 sampler c"]
    monkeypatch.setattr(outputs, "grid", lambda: canned[::-1])
    assert outputs.run_grid()[0] == sha("\n".join(hashes[::-1])) != sha("\n".join(hashes))


def test_cli_matrix_diff_of_canned_records(monkeypatch, capsys):
    # both sides run this script's grids, the parent first; --against
    # prints both grid hashes and each call that differs, and exits 1 when
    # they differ
    outputs = _script_module("outputs")
    calls = ['#0 cli ["classify", "-m", "a"]', '#1 cli ["pmf", "-m", "a", "-N", "2"]',
             '#2 cli ["simulate", "-m", "a", "--tau"]']
    parent = ["aa", "c0 " + calls[0], "c1 " + calls[1], "c2 " + calls[2]]
    changed = ["bb", "c0 " + calls[0], "d1 " + calls[1], "d2 " + calls[2]]
    records = {side: [json.dumps({"status": 0, "stderr": "", "stdout": stdout}) for stdout in (
        {"N": 2, "f": [0.0, half]}, {"tau_hist": {"1": 3}})]
        for side, half in (("parent", 0.5), ("change", 0.5000000000000001))}
    runs = []

    def run(checkout, *args):
        runs.append((checkout, args))
        side = "parent" if checkout == "parent" else "change"
        if args:
            return records[side]
        return parent if side == "parent" else this

    this, me = parent, str(ROOT)
    assert outputs.against("parent", None, run) == (["parent: aa", f"{me}: aa", "equal"], 0)
    assert outputs.against("parent", 1e-13, run)[1] == 0
    assert runs == [("parent", ()), (me, ())] * 2  # equal grids ask for no values
    this, runs[:] = changed, []
    lines = ["parent: aa", f"{me}: bb", "differs: " + calls[1], "differs: " + calls[2],
             "different"]
    assert outputs.against("parent", None, run) == (lines, 1)
    moved = [f"{lines[2]} (largest relative move 2.22e-16)",
             f"{lines[3]} (largest relative move 0)"]
    assert outputs.against("parent", 1e-13, run) == (
        [*lines[:2], *moved, "different",
         "within 1e-13: every call that differs moves only floats"], 0)
    assert outputs.against("parent", 1e-17, run) == (
        [*lines[:2], *moved, "different", "not within 1e-17: largest relative move 2.22e-16"], 1)
    assert runs == [("parent", ()), (me, ())] + [
        ("parent", ()), (me, ()), ("parent", ("--values", "1,2")), (me, ("--values", "1,2"))] * 2
    # main runs the real child runner, which the test replaces
    monkeypatch.setattr(outputs, "run_side", lambda checkout, *args: run(
        "parent" if checkout.endswith(os.sep + "parent") else checkout, *args))
    monkeypatch.setattr(sys, "argv", ["outputs.py", "--against", "parent"])
    assert outputs.main() == 1
    assert capsys.readouterr().out.splitlines()[2:] == lines[2:]
    proc = _run_script(["outputs.py", "--within", "1e-13"])
    assert proc.returncode == 2 and "--within needs --against" in proc.stderr


def test_cli_matrix_diff_within_a_relative_bound():
    # --within REL passes a CLI call when only its floats moved, each by
    # at most REL relative; every other change has no relative move
    outputs = _script_module("outputs")
    old = {"status": 0, "stderr": "",
           "stdout": {"f": [0.0, 0.5, 1e-300], "u": [1.0, math.inf, math.nan],
                      "tau_hist": {"1": 3}, "verdict": "Finite", "N": 2}}
    moved = json.loads(json.dumps(old))
    moved["stdout"]["f"][1] = 0.5 + 2.0 ** -45
    moved["stdout"]["u"][0] = 1.0 - 2.0 ** -50
    assert outputs.largest_move(old, old) == 0.0
    assert outputs.largest_move(old, moved) == 2.0 ** -44

    def changed(path, value):
        new = json.loads(json.dumps(old))
        *head, last = path
        target = new
        for key in head:
            target = target[key]
        if value is None:
            del target[last]
        else:
            target[last] = value
        return new

    refused = {
        "a zero lost": changed(("stdout", "f", 2), 0.0),
        "a zero filled": changed(("stdout", "f", 0), 1e-300),
        "a length": changed(("stdout", "f"), [0.0, 0.5]),
        "a length grown": changed(("stdout", "f"), [0.0, 0.5, 1e-300, 0.25]),
        "a non-finite value": changed(("stdout", "u", 1), 1e308),
        "a nan": changed(("stdout", "u", 2), 1.0),
        "a key dropped": changed(("stdout", "N"), None),
        "a key added": changed(("stdout", "q"), 0.5),
        "an int": changed(("stdout", "N"), 3),
        "an int read as a float": changed(("stdout", "N"), 2.0),
        "status": changed(("status",), 2),
        "stderr": changed(("stderr",), "domain error: no\n"),
        "a string": changed(("stdout", "verdict"), "Infinite"),
        "a histogram": changed(("stdout", "tau_hist", "1"), 4),
    }
    for what, new in refused.items():
        assert outputs.largest_move(old, new) == math.inf, what
    # a CLI stdout reads as JSON, or as CSV rows with numbers as floats
    assert outputs._stdout_record('{"N": 2, "f": [0.0, 0.5]}\n') == {"N": 2, "f": [0.0, 0.5]}
    assert outputs._stdout_record("n,f_n\n0,0.0\n1,0.25\n") == {
        "csv": [["n", "f_n"], [0.0, 0.0], [1.0, 0.25]]}
    # the child run reads each call back as the grids compute it: a CLI
    # call with its stdout read, a report's fields
    got = [json.loads(line) for line in outputs.run_side(str(ROOT), "--values", "2,1695")]
    assert got[0]["status"] == 0 and got[0]["stdout"]["csv"][:2] == [["n", "f_n", "u_n"],
                                                                   [0.0, 0.0, 1.0]]
    assert set(got[1]) == set(outputs.FIELDS) and (got[1]["samples"], got[1]["cap"]) == (70001, 1)


def test_pmf_hash_of_canned_laws_and_runs():
    # an exact law's value is its parts in order, arrays as lists of
    # floats, and its hash that of the value
    import hashlib

    import repairchain as rc
    from repairchain.last_exit import ExitAnalysis
    from repairchain.return_time import ReturnAnalysis, return_series

    outputs = _script_module("outputs")
    f, u = [0.0, 0.5, 0.125], [1.0, 0.5, 0.375]
    one = ReturnAnalysis(f=f, u=u, return_prob=1.0)
    assert outputs.law_value(one) == [f, u, 1.0]
    exit_law = ExitAnalysis(q_exit=np.float64(0.25), pmf=[0.25, 0.125, 0.09375], occupation=one)
    assert outputs.law_value(exit_law) == [[0.25, 0.125, 0.09375], 0.25, f, u, 1.0]
    assert outputs.value_hash(outputs.law_value(one)) == hashlib.sha256(
        b"[[0.0, 0.5, 0.125], [1.0, 0.5, 0.375], 1.0]").hexdigest()
    # lists and read-only arrays of the same numbers hash alike
    law = rc.geometric(0.5)
    assert (outputs.value_hash(outputs.law_value(rc.return_pmf(law, 8)))
            == outputs.value_hash(outputs.law_value(return_series(law, 8))))
    # --against on two runs of the exact grid: one differs line for each
    # law call whose hash differs, in grid order
    spec = '{"family": "geometric", "p": 0.25}'
    calls = [f"#384 exact return_pmf {spec} N=1", f"#385 exact exit_pmf {spec} N=1",
             f"#386 exact return_pmf {spec} N=2"]
    parent = ["aa", "c0 " + calls[0], "c1 " + calls[1], "c2 " + calls[2]]
    changed = ["bb", "d0 " + calls[0], "c1 " + calls[1], "d2 " + calls[2]]
    runs = {"parent": parent, str(ROOT): changed}
    assert outputs.against("parent", None, runs.get) == (
        ["parent: aa", f"{ROOT}: bb", "differs: " + calls[0], "differs: " + calls[2],
         "different"], 1)
    assert outputs.against("parent", None, lambda side: parent) == (
        ["parent: aa", f"{ROOT}: aa", "equal"], 0)


def test_pmf_hash_within_a_relative_bound():
    # --within REL passes a law call when each part keeps its zeros,
    # lengths and non-finite values and moves by at most REL relative
    import repairchain as rc

    outputs = _script_module("outputs")
    old = [[0.0, 0.5, 1e-300], [1.0, 0.5, math.inf], 0.75]
    moved = [[0.0, 0.5 + 2.0 ** -45, 1e-300], [1.0, 0.5 - 2.0 ** -50, math.inf], 0.75]
    assert outputs.largest_move(old, old) == 0.0
    assert outputs.largest_move(old, moved) == 2.0 ** -44
    for what, new in {"a zero lost": [[0.0, 0.5, 0.0], *old[1:]],
                      "a zero filled": [[1e-300, 0.5, 1e-300], *old[1:]],
                      "a length": [[0.0, 0.5], *old[1:]],
                      "a non-finite value": [old[0], [1.0, 0.5, 1e308], old[2]],
                      "a part": old[:2]}.items():
        assert outputs.largest_move(old, new) == math.inf, what
    # both sides compute the law call that differs once more, as JSON
    label = '#386 exact return_pmf {"family": "geometric", "p": 0.25} N=2'

    def run(side, *args):
        if args:
            assert args == ("--values", "386")
            return [json.dumps(old if side == "parent" else moved)]
        return ["aa", "c0 " + label] if side == "parent" else ["bb", "d0 " + label]

    lines = ["parent: aa", f"{ROOT}: bb",
             f"differs: {label} (largest relative move 5.68e-14)", "different"]
    assert outputs.against("parent", 1e-13, run) == (
        [*lines, "within 1e-13: every call that differs moves only floats"], 0)
    assert outputs.against("parent", 1e-15, run) == (
        [*lines, "not within 1e-15: largest relative move 5.68e-14"], 1)
    # the child run reads a law's parts back as the exact grid computes them
    got = [json.loads(line) for line in outputs.run_side(str(ROOT), "--values", "384,385")]
    model = rc.geometric(0.25)
    assert got == [outputs.law_value(rc.return_pmf(model, 1)),
                   outputs.law_value(rc.exit_pmf(model, 1))]


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


def test_bench_compiles_each_checkout_once_before_its_first_run(monkeypatch, tmp_path):
    bench = _script_module("bench")
    events = []

    def run(checkout, workload, seed, seconds, trace):
        events.append(("run", checkout))
        metrics = {"setup_s": 0.2, "wall_s": 1.0, "peak_rss_mb": 30.0}
        return bench.parse_run(_canned_run(seed, metrics))

    monkeypatch.setattr(bench, "run_perfbench", run)
    monkeypatch.setattr(bench, "compile_checkout", lambda side: events.append(("compile", side)))
    monkeypatch.chdir(tmp_path)  # where --number writes its file
    parent, me = str(tmp_path / "parent"), str(ROOT)
    for argv, sides in ((["--against", parent, "--workload", "cli_cold", "--pairs", "2"],
                         [parent, me]),
                        (["--number", "7"], [me])):
        events.clear()
        monkeypatch.setattr(sys, "argv", ["bench.py", *argv])
        assert bench.main() == 0
        assert events[:len(sides)] == [("compile", side) for side in sides]
        assert {side for _, side in events} == set(sides)
        assert [kind for kind, _ in events[len(sides):]] == ["run"] * (len(events) - len(sides))
    assert len(events) == 1 + 4 * 6 and (tmp_path / "BENCH_7.json").exists()


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
