"""End-to-end checks of the command-line front end.

Everything goes through cli.run directly so the exit-status contract is
what gets exercised, not a subprocess harness.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import repairchain
from repairchain import cli

import oracles

GEO_HALF = '{"family": "geometric", "p": 0.5}'
GEO_QUARTER = '{"family": "geometric", "p": 0.25}'
GEO_THREE_QUARTER = '{"family": "geometric", "p": 0.75}'
POWER_ZETA_3 = '{"family": "power_zeta", "alpha": 3.0}'
GEO_TINY = '{"family": "geometric", "p": 1e-7}'  # its table is past the budget


def run_json(capsys, argv):
    status = cli.run(argv)
    captured = capsys.readouterr()
    assert status == 0, captured.err
    return json.loads(captured.out)


def run_lines(capsys, argv):
    status = cli.run(argv)
    captured = capsys.readouterr()
    assert status == 0, captured.err
    return captured.out.splitlines()


# ---------------------------------------------------------------------------
# happy paths, one per verb


def test_classify(capsys):
    rec = run_json(capsys, ["classify", "-m", GEO_HALF])
    assert rec == {"class": "null_recurrent", "mu": 1.0}
    rec = run_json(capsys, ["classify", "-m", GEO_QUARTER])
    assert rec["class"] == "transient"
    assert rec["mu"] == pytest.approx(3.0)


def test_pmf_json(capsys):
    rec = run_json(capsys, ["pmf", "-m", GEO_HALF, "-N", "8"])
    assert rec["N"] == 8
    assert len(rec["f"]) == 9 and len(rec["u"]) == 9
    assert rec["f"][0] == 0.0
    assert rec["f"][1] == 0.5
    assert rec["u"][0] == 1.0
    assert rec["return_prob"] == pytest.approx(1.0)


def test_pmf_csv(capsys):
    lines = run_lines(capsys, ["pmf", "--tau", "-m", GEO_HALF, "-N", "4", "--csv"])
    assert lines[0] == "n,f_n,u_n"
    assert len(lines) == 6  # header plus n = 0..4
    assert lines[1] == "0,0.0,1.0"
    assert lines[2] == "1,0.5,0.5"


@pytest.mark.parametrize("spec", ['{"family": "half_stable"}',
                                  '{"family": "explicit", "a": [0.5, 0, 0.5]}'])
def test_pmf_short_kernel(capsys, spec):
    # kernels shorter than the horizon once a_1 = 0 is trimmed
    for n in ("1", "2", "3"):
        rec = run_json(capsys, ["pmf", "-m", spec, "-N", n])
        assert len(rec["f"]) == int(n) + 1
    assert rec["f"][2] == 0.0


def test_pmf_horizon_beyond_table_budget(capsys, monkeypatch):
    from repairchain import return_time

    monkeypatch.setattr(return_time, "PMF_TABLE_BUDGET", return_time.pmf_table_bytes(64) - 1)
    for argv in (["pmf", "-m", GEO_HALF, "-N", "64"],
                 ["pmf", "--exit", "-m", GEO_QUARTER, "-N", "64"],
                 ["exit", "-m", GEO_QUARTER, "-N", "64"],
                 ["moments", "-m", GEO_THREE_QUARTER, "-k", "2"]):
        assert cli.run(argv) == 1
        assert "budget" in capsys.readouterr().err
    assert cli.run(["pmf", "-m", GEO_HALF, "-N", "63"]) == 0


def test_pmf_exit_variant(capsys):
    rec = run_json(capsys, ["pmf", "--exit", "-m", GEO_QUARTER, "-N", "4"])
    assert rec["q_exit"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rec["pmf"][0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rec["pmf"][1] == pytest.approx(1.0 / 6.0, abs=1e-12)


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_pmf_exit_matches_exit_verb(capsys, fmt):
    tail = ["-m", GEO_QUARTER, "-N", "16"] + fmt
    assert cli.run(["pmf", "--exit"] + tail) == 0
    via_pmf = capsys.readouterr().out
    assert cli.run(["exit"] + tail) == 0
    via_exit = capsys.readouterr().out
    assert via_pmf and via_pmf == via_exit


def test_decay_closed_forms(capsys):
    rec = run_json(capsys, ["decay", "-m", GEO_QUARTER])
    assert rec["case"] == "TransientTilt"
    assert rec["x0"] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert rec["R0"] == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert rec["R1"] == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert rec["F_at_R1"] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_decay_null_tangency_point(capsys):
    # recurrent law with radius 1: no interior tangency, x0 serializes as null
    rec = run_json(capsys, ["decay", "-m", POWER_ZETA_3])
    assert rec["x0"] is None
    assert rec["R0"] == 1.0 and rec["R1"] == 1.0
    assert rec["case"] == "CriticalRadiusOne"


def test_tilt_default_point(capsys):
    rec = run_json(capsys, ["tilt", "-m", GEO_QUARTER])
    assert rec["x"] == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert rec["mu"] == pytest.approx(1.0, abs=1e-10)
    assert rec["a_head"][0] == pytest.approx(0.5, abs=1e-12)
    assert rec["a_head"][3] == pytest.approx(2.0 ** -4, abs=1e-12)


def test_moments_exact_mean(capsys):
    rec = run_json(capsys, ["moments", "-m", GEO_THREE_QUARTER, "-k", "1"])
    assert rec["value"] == 1.5
    assert rec["flag"] == "exact"
    assert rec["tail_bound"] == 0.0


def test_finite_verdicts(capsys):
    rec = run_json(capsys, ["finite", "-m", GEO_HALF, "--alpha", "0.4"])
    assert rec["verdict"] == "Finite"
    rec = run_json(capsys, ["finite", "-m", GEO_HALF, "--alpha", "0.6"])
    assert rec["verdict"] == "Infinite"
    rec = run_json(capsys,
                   ["finite", "-m", GEO_QUARTER, "--alpha", "0.5", "--r1-weighted"])
    assert "R1^tau" in rec["quantity"]
    assert "tau<inf" in rec["quantity"]


def test_exit_weighted_verdicts(capsys):
    rec = run_json(capsys, ["exit", "-m", GEO_QUARTER, "-k", "0"])
    assert rec["verdict"] == "Finite"
    rec = run_json(capsys, ["exit", "-m", GEO_QUARTER, "--alpha", "0.6"])
    assert rec["verdict"] == "Infinite"


@pytest.mark.parametrize("argv", [
    ["finite", "--alpha", "0.7", "--r1-weighted"],
    ["finite", "--alpha", "2.5", "--r1-weighted"],
    ["exit", "--alpha", "0.5"],
])
def test_weighted_verdicts_with_a_tiny_tangency_point(capsys, argv):
    # explicit [1e-30, 0, 1] has x0 = 1e-15; tilted there it is critical,
    # with critical exponent 1/2
    rec = run_json(capsys, [argv[0], "-m", '{"family": "explicit", "a": [1e-30, 0, 1]}',
                            *argv[1:]])
    assert rec["verdict"] == "Infinite"
    assert rec["reason"].startswith("reduced to the critical reweighted law: ")


def test_exit_pmf_csv(capsys):
    lines = run_lines(capsys, ["exit", "-m", GEO_QUARTER, "-N", "4", "--csv"])
    assert lines[0] == "n,P_L_n"
    assert len(lines) == 6
    assert lines[1].startswith("0,0.6666666666666")


def test_simulate_tau(capsys):
    argv = ["simulate", "-m", GEO_HALF,
            "--samples", "2000", "--seed", "7", "--cap", "64"]
    rec = run_json(capsys, argv)
    assert rec["samples"] == 2000 and rec["seed"] == 7 and rec["cap"] == 64
    assert sum(rec["tau_hist"].values()) + rec["censored"] == 2000
    # byte-identical rerun: the serializer leaves no room for dict-order
    # or float-formatting drift
    first = cli.run(argv), capsys.readouterr().out
    second = cli.run(argv), capsys.readouterr().out
    assert first == second


def test_simulate_exit(capsys):
    rec = run_json(capsys, ["simulate", "--exit", "-m", GEO_QUARTER,
                            "--samples", "1500", "--seed", "3", "--horizon", "300"])
    assert rec["horizon"] == 300
    assert sum(rec["L_hist"].values()) == 1500
    assert rec["censored"] >= 0


def test_simulate_beyond_histogram_budget(capsys):
    # refused with exit 1 before any cap-sized array is allocated
    for argv in (["simulate", "-m", GEO_HALF, "--samples", "10", "--cap", str(10 ** 11)],
                 ["simulate", "--exit", "-m", GEO_QUARTER, "--samples", "10",
                  "--horizon", str(10 ** 11)]):
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert "budget" in captured.err and captured.out == ""


def test_geometric_beyond_table_budget_is_invalid_spec(capsys):
    # p = 1e-7 would need 276M coefficients (2.06 GiB); only simulate reads
    # the table and refuses it
    assert cli.run(["simulate", "-m", GEO_TINY, "--samples", "10"]) == 2
    captured = capsys.readouterr()
    assert "budget" in captured.err and captured.out == ""
    # tilt prints the head of the tilted law, even where that law is itself
    # past the budget (near the radius 1/(1 - p))
    assert cli.run(["tilt", "-m", GEO_TINY, "--x", "1.0000001"]) == 0
    out = json.loads(capsys.readouterr().out)
    p = 1.0 - (1.0 - 1e-7) * 1.0000001
    assert out["family"] == "geometric" and len(out["a_head"]) == 16
    assert out["a_head"] == pytest.approx([p * (1.0 - p) ** n for n in range(16)], rel=1e-15)


@pytest.mark.parametrize("argv", [["tilt"], ["finite", "--alpha", "0.5", "--r1-weighted"]])
def test_tangency_tilt_with_a_0_plus_a_1_rounding_to_one_answers(capsys, argv):
    # the critical tilt of this law has 1 - a_0 - a_1 = 1.4e-150: a valid
    # law, though a_0 + a_1 rounds to 1
    spec = '{"family": "explicit", "a": [0.5, 0.4999999999999999, 1e-300]}'
    assert cli.run(argv + ["-m", spec]) == 0
    out = json.loads(capsys.readouterr().out)
    if argv == ["tilt"]:
        assert out["mu"] == 1.0 and out["x"] == pytest.approx(2.0 ** 0.5 * 5e149, rel=1e-15)
        assert len(out["a_head"]) == 3 and out["a_head"][2] > 0.0
    else:
        assert out["verdict"] == "Infinite"


def test_explicit_without_mass_above_one_is_refused(capsys):
    spec = '{"family": "explicit", "a": [0.5, 0.4999999999999]}'
    assert cli.run(["tilt", "-m", spec, "--x", "0.5"]) == 2
    assert "a_0 + a_1 < 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, status", [
    (["classify"], 0),
    (["decay"], 0),
    (["finite", "--alpha", "2"], 0),
    (["moments", "-k", "1"], 3),  # transient: answered with the domain error
    (["exit", "--alpha", "0.5"], 0),
    (["tilt"], 0),  # the tangency point tilts it to geometric(1/2)
    (["pmf", "-N", "8"], 0),
])
def test_geometric_past_the_table_budget_still_answers(capsys, argv, status):
    assert cli.run(argv + ["-m", GEO_TINY]) == status
    captured = capsys.readouterr()
    assert "budget" not in captured.err
    if status == 0:
        assert json.loads(captured.out)
    if argv == ["classify"]:
        assert json.loads(captured.out) == {"class": "transient", "mu": (1 - 1e-7) / 1e-7}


def test_asym(capsys):
    rec = run_json(capsys, ["asym", "-m", GEO_HALF])
    assert rec == {"gamma": 0.5, "method": "analytic"}
    rec = run_json(capsys, ["asym", "-m", GEO_HALF, "--fitted"])
    assert rec["method"] == "fitted"
    assert abs(rec["gamma"] - 0.5) < 0.02


def test_model_from_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(GEO_THREE_QUARTER, encoding="utf-8")
    rec = run_json(capsys, ["classify", "-m", f"@{path}"])
    assert rec["class"] == "positive_recurrent"


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "classify" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit-status contract: 1 usage, 2 bad spec, 3 domain

USAGE_CASES = [
    ["pmf", "-m", GEO_HALF, "-N", "0"],
    ["pmf", "-m", GEO_HALF, "--tau", "--exit"],
    ["classify"],
    ["frobnicate", "-m", GEO_HALF],
    ["tilt", "-m", GEO_QUARTER, "--x", "-1.0"],
    ["moments", "-m", GEO_THREE_QUARTER, "-k", "0"],
    ["finite", "-m", GEO_HALF, "--alpha", "-0.5"],
    ["exit", "-m", GEO_QUARTER, "-k", "-2"],
    ["simulate", "-m", GEO_HALF, "--samples", "0"],
    ["simulate", "-m", GEO_HALF, "--cap", "0"],
    ["simulate", "--exit", "-m", GEO_QUARTER, "--horizon", "0"],
    # the same bad values on laws of another recurrence class: the library
    # refuses them before it classifies the law
    ["moments", "-m", GEO_QUARTER, "-k", "0"],
    ["exit", "-m", GEO_HALF, "-k", "-2"],
    ["exit", "-m", GEO_HALF, "--alpha", "-0.5"],
    ["pmf", "--exit", "-m", GEO_HALF, "-N", "0"],
    ["simulate", "--exit", "-m", GEO_HALF, "--horizon", "0"],
    ["exit", "-m", GEO_HALF, "--alpha", "nan"],
    pytest.param(["exit", "-m", GEO_HALF, "-k", "9" * 400], id="exit geometric(0.5) -k 400 nines"),
    pytest.param(["moments", "-m", GEO_QUARTER, "-k", "9" * 400],
                 id="moments geometric(0.25) -k 400 nines"),
    ["exit", "-m", GEO_HALF, "-N", "1000000000"],
    ["simulate", "--exit", "-m", GEO_HALF, "--horizon", "100000000000"],
    # the cap is refused before the table that is past its own budget
    ["simulate", "-m", GEO_TINY, "--cap", "100000000000"],
]


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda a: " ".join(a))
def test_usage_errors(capsys, argv):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1


SPEC_CASES = [
    ["classify", "-m", '{"family": "weibull"}'],
    ["classify", "-m", "{not json"],
    ["classify", "-m", "@/no/such/file.json"],
    ["classify", "-m", '{"family": "explicit", "coeffs": [0.5, 0.2, 0.3]}'],
    ["classify", "-m", '{"family": "geometric", "p": 1.5}'],
    ["classify", "-m", '{"family": "explicit", "a": ["x", 1]}'],
    ["classify", "-m", '{"family": "explicit", "a": {"k": 1}}'],
    ["classify", "-m", '{"family": ["geometric"]}'],   # unhashable family
    ["classify", "-m", '{"family": "tilted"}'],        # internal, not a spec family
    ["classify", "-m", '{"family": "explicit", "a": [[0.5], [0.5]]}'],
    ["classify", "-m", '{"family": "explicit", "a": 0.5}'],
    ["classify", "-m", '{"family": "explicit", "a": "ab"}'],
    ["classify", "-m", '{"family": "explicit", "a": [0.5, [0.5]]}'],
    # no double; its own id, since its first 30 characters are those of p = 1.5
    pytest.param(["classify", "-m", '{"family": "geometric", "p": 1%s}' % ("0" * 400)],
                 id="geometric p of 401 digits"),
]


@pytest.mark.parametrize("argv", SPEC_CASES, ids=lambda a: a[-1][:30])
def test_spec_errors(capsys, argv):
    assert cli.run(argv) == 2
    assert "invalid model spec" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["103", "171"])
def test_moments_past_the_largest_power(capsys, k):
    # n^k and (n_max + 1)^k pass the largest double from k = 103 on; the
    # tail certificate itself (about 1e183 at k = 103) does so only past
    # k = 170, and the default horizon is 1024
    rec = run_json(capsys, ["moments", "-m", GEO_THREE_QUARTER, "-k", k])
    assert rec["value"] > 1e200
    bound = oracles.moment_tail_bound(repairchain.geometric(0.75), int(k), 1024)
    if k == "103":
        assert rec["flag"] == "certified tail"
        assert rec["tail_bound"] == pytest.approx(bound, rel=1e-12)
    else:
        assert bound == float("inf")
        assert rec["flag"] == "lower bound only" and rec["tail_bound"] == float("inf")


@pytest.mark.parametrize("argv", [["exit", "-m", GEO_QUARTER],
                                  ["exit", "-m", GEO_QUARTER, "--alpha", "0.5"],
                                  ["moments", "-m", GEO_THREE_QUARTER]],
                         ids=["exit", "exit --alpha", "moments"])
def test_integer_power_past_the_largest_double_is_a_usage_error(capsys, argv):
    # k + alpha and n ** k take k as a double, which a 400-digit k has not
    assert cli.run([*argv, "-k", "9" * 400]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
    # the largest double itself still answers, past the doubles for moments
    rec = run_json(capsys, [*argv, "-k", str(int(sys.float_info.max))])
    assert rec["verdict"] == "Infinite" if "verdict" in rec else rec["value"] == float("inf")


def test_finite_past_the_largest_factorial(capsys):
    # 171! is not a double, G^(171)(1) is
    rec = run_json(capsys, ["finite", "-m", GEO_THREE_QUARTER, "--alpha", "171"])
    assert rec["verdict"] == "Finite"


@pytest.mark.parametrize("alpha", ["1e300", "2", "171"])
def test_finite_reason_names_the_order_compactly(capsys, alpha):
    # the reason names the threshold, and the order is written like the
    # quantity field, not as a 301-digit integer
    rec = run_json(capsys, ["finite", "-m", GEO_THREE_QUARTER, "--alpha", alpha])
    assert rec["verdict"] == "Finite"
    assert rec["reason"] == "below the jump-tail exponent inf"
    assert rec["quantity"] == f"E(tau^{float(alpha):g})"
    assert max(len(run) for run in re.findall(r"\d+", rec["reason"] + rec["quantity"])) <= 3


def test_power_zeta_with_huge_alpha_classifies(capsys):
    # the Bernoulli terms of zeta(1e160) underflow to 0 while their growth
    # factor is inf; zeta is 1, so mu is 0
    rec = run_json(capsys, ["classify", "-m", '{"family": "power_zeta", "alpha": 1e160}'])
    assert rec == {"class": "positive_recurrent", "mu": 0.0}


DOMAIN_CASES = [
    ["exit", "-m", GEO_HALF],                      # last exit needs transience
    ["pmf", "--exit", "-m", GEO_THREE_QUARTER],
    ["asym", "-m", GEO_THREE_QUARTER],             # exponent needs criticality
    ["moments", "-m", GEO_QUARTER],                # moments need a finite mean
    ["tilt", "-m", POWER_ZETA_3],                  # no tangency point at radius 1
    ["tilt", "-m", POWER_ZETA_3, "--x", "3.0"],    # outside the radius
    ["simulate", "--exit", "-m", GEO_HALF],
]


@pytest.mark.parametrize("argv", DOMAIN_CASES, ids=lambda a: " ".join(a))
def test_domain_errors(capsys, argv):
    assert cli.run(argv) == 3
    assert "domain error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# float serialization


@pytest.mark.parametrize("value,text", [
    (1.0, "1.0"),
    (0.5, "0.5"),
    (2.0 / 3.0, "0.66666666666666663"),
    (float("inf"), "Infinity"),
    (float("nan"), "NaN"),
    (1e-300, "1e-300"),
])
def test_float_format(value, text):
    assert cli._fmt_float(value) == text


def test_stdout_is_parseable_json_with_ints_kept(capsys):
    # the classify record writes mu = 1.0 with the trailing ".0", while
    # counts stay bare ints
    status = cli.run(["classify", "-m", GEO_HALF])
    raw = capsys.readouterr().out
    assert status == 0
    assert '"mu": 1.0' in raw


def _child_stdout(code: str) -> str:
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repairchain.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_runtime_imports_no_scipy():
    # scipy and mpmath serve the tests as oracles only
    code = ("import sys, repairchain, repairchain.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'mpmath')))")
    assert _child_stdout(code).strip() == "[]"


def test_boundary_verdict_loads_no_series_tools():
    # the Unknown verdict of a BoundaryCase law reads no numeric impression
    code = ("import sys, repairchain as rc; "
            "v = rc.tau_alpha_finite(rc.tilt(rc.power_zeta(3.0), 0.5), 0.5, r1_weighted=True); "
            "print(v.verdict.value, 'repairchain.series_tools' in sys.modules)")
    assert _child_stdout(code).strip() == "Unknown False"


def test_every_exported_name_resolves():
    for name in repairchain.__all__:
        assert getattr(repairchain, name) is not None, name


ANALYTIC_ARGV = [
    ["classify"], ["decay"], ["moments", "-k", "1"], ["asym"], ["asym", "--fitted"],
    ["finite", "--alpha", "0.5"], ["finite", "--alpha", "2.5"],
    ["finite", "--alpha", "0.5", "--r1-weighted"],
    ["finite", "--alpha", "2.5", "--r1-weighted"],
    ["exit", "-k", "1"], ["exit", "--alpha", "0.5"],
]
ANALYTIC_SPECS = [GEO_QUARTER, GEO_HALF, GEO_THREE_QUARTER, GEO_TINY,
                  '{"family": "half_stable"}', POWER_ZETA_3,
                  '{"family": "power_zeta", "alpha": 2.1}',
                  '{"family": "explicit", "a": [0.5, 0.2, 0.3]}',
                  '{"family": "explicit", "a": [0.3, 0, 0.2, 0.5]}']


def test_analytic_verbs_load_no_numpy():
    # the verdicts and radii come from mu, G and the tail exponent alone;
    # a fresh interpreter proves numpy stays unloaded through all of them
    code = f"""
import contextlib, io, json, sys
import repairchain, repairchain.cli
from repairchain import cli
seen = {{"import": "numpy" in sys.modules}}
for spec in {ANALYTIC_SPECS!r}:
    for argv in {ANALYTIC_ARGV!r}:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run(argv + ["-m", spec])
        assert status in (0, 3), (argv, spec, err.getvalue())
        seen[" ".join(argv) + " " + spec] = "numpy" in sys.modules
print(json.dumps(seen))
"""
    seen = json.loads(_child_stdout(code))
    assert len(seen) == 1 + len(ANALYTIC_SPECS) * len(ANALYTIC_ARGV)
    assert [k for k, loaded in seen.items() if loaded] == []


@pytest.mark.parametrize("argv", [["pmf", "-N", "8"], ["simulate", "--samples", "10"]])
def test_array_verbs_load_numpy(argv):
    code = (f"import sys; from repairchain import cli; "
            f"status = cli.run({argv!r} + ['-m', {GEO_HALF!r}]); "
            f"print(status, 'numpy' in sys.modules)")
    assert _child_stdout(code).splitlines()[-1] == "0 True"
