"""Seeded job lists for the four benchmark workloads.

Every workload is a closed loop: one client submits the next job only when
the previous one has finished (cli_cold runs two such loops side by side,
one per core).  A job list is R rounds of a fixed block.  The block's
composition (which calls, which families, which horizons) is the same for
every seed; the seed draws the model parameters inside narrow bands and the
simulation seeds.  Holding the composition fixed is what keeps the run-level
numbers comparable across seeds, while the drawn parameters keep a change
from being tuned to one input.  R is derived from --seconds and the nominal
cost of a round when this benchmark was introduced (shared 2-core x86 VM,
Python 3.11, numpy 2.4), so one run then measured about --seconds.

Model specs follow ``repairchain.build_model``; two benchmark-side wrappers
describe reweighted laws, which have no spec of their own:
``{"tilt_of": spec, "x": x}`` is ``tilt(build_model(spec), x)`` and
``{"critical_tilt_of": spec}`` is ``tilt_to_critical(build_model(spec))``.
"""

from __future__ import annotations

import hashlib
import json
import random

SAMPLES = 1 << 17  # two 2^16 chunks per mc job, so two threads can split them

# Nominal seconds per round, measured on the VM above; only used to turn
# --seconds into a round count.
ROUND_S = {
    "cli_cold": 6.5,
    "exact_pmf": 5.0,
    "mc_sample": 3.4,
    "transform_solve": 2.45,
}

WHY = {
    "cli_cold": (
        "fresh CLI process per job: interpreter start, import, parse, model "
        "build and JSON output dominate; return_pmf and sim stay near idle"
    ),
    "exact_pmf": (
        "warm return_pmf/exit_pmf/tau_moment at N 256..2048: the O(N^3) "
        "convolution chain, with laws on both sides of the subnormal cliff"
    ),
    "mc_sample": (
        "warm sample_tau/sample_last_exit, 2^17 samples, long thin null-"
        "recurrent tails and short wide runs, alternating 1 and 2 threads"
    ),
    "transform_solve": (
        "warm eval_G/psi/eval_F/psi_inv/fitted exponents and decay/tilt on "
        "fresh models: series paths of eval_G and the root finders"
    ),
}


def _r(x: float) -> float:
    # short, exactly reproducible parameters in the generated specs
    return float(f"{x:.6g}")


def _geo(p: float) -> dict:
    return {"family": "geometric", "p": _r(p)}


HALF = {"family": "half_stable"}
GEO_CRIT = {"family": "geometric", "p": 0.5}


def _pz(alpha: float) -> dict:
    return {"family": "power_zeta", "alpha": _r(alpha)}


def _explicit(rng: random.Random, kind: str) -> dict:
    """Random short law with dyadic weights, so sums and means are exact.

    kind is "transient" (mean > 1), "positive" (mean < 1) or "critical"
    (mean exactly 1).
    """
    denom = 1024
    size = rng.randint(3, 6)
    while True:
        upper = [rng.randint(0, 40) for _ in range(size - 2)]
        upper[-1] = max(upper[-1], 1)
        drift = sum(i * w for i, w in enumerate(upper, start=1))  # sum (n-1) w_n
        if kind == "critical":
            w0 = drift
        elif kind == "transient":
            w0 = rng.randint(1, max(1, drift - 1))
        else:
            w0 = drift + rng.randint(1, 200)
        w1 = denom - w0 - sum(upper)
        if w0 >= 1 and w1 >= 0 and (kind != "transient" or w0 < drift):
            weights = [w0, w1] + upper
            return {"family": "explicit", "a": [w / denom for w in weights]}


# ---------------------------------------------------------------------------
# cli_cold
#
# Why: about 0.5 s of the ~0.6 s a CLI call takes is interpreter start plus
# `import repairchain` (scipy.optimize and scipy.special); the verbs here do
# little else.  This workload carries the cli layer (import, argparse, JSON
# serialization) and model table builds, and is the bypass workload for the
# exact-kernel and sampler rewrites: their layers stay nearly idle.  Three
# jobs in 25 (12%) are expected to exit 1, 2 or 3.  REPAIRCHAIN_THREADS is
# pinned to 1 because two CLI processes already occupy both cores.


def _cli(verb: str, spec: dict, *extra, expect: int = 0, check=None) -> dict:
    argv = [verb, "-m", json.dumps(spec, separators=(",", ":"))]
    argv += [str(e) for e in extra]
    return {"kind": "cli", "argv": argv, "expect": expect, "check": check,
            "model": spec}


def _away(rng: random.Random, lo: float, hi: float, avoid: tuple) -> float:
    # draw in [lo, hi] but not within 0.02 of a verdict threshold
    while True:
        x = _r(rng.uniform(lo, hi))
        if all(abs(x - a) > 0.02 for a in avoid):
            return x


def _cli_round(rng: random.Random, i: int) -> list[dict]:
    gt = _geo(rng.uniform(0.20, 0.45))
    gr = _geo(rng.uniform(0.55, 0.80))
    pz = _pz(rng.uniform(2.2, 4.0))
    ex_t = _explicit(rng, "transient")
    ex_c = _explicit(rng, "critical")
    ex_any = _explicit(rng, rng.choice(["transient", "positive", "critical"]))
    a_hs = _away(rng, 0.2, 0.95, (2 / 3,))
    a_gc = _away(rng, 0.1, 0.95, (0.5,))
    a_gt = _away(rng, 0.1, 0.95, (0.5,))
    a_pz = _away(rng, 0.2, 3.8, (1.0, 2.0, 3.0, pz["alpha"]))
    a_ex = _away(rng, 0.05, 0.95, (0.5,))
    pmf_spec = [HALF, _pz(rng.uniform(2.2, 4.0)), ex_any][i % 3]
    sim_spec = [GEO_CRIT, HALF, gr][i % 3]
    jobs = [
        _cli("classify", [gt, gr][i % 2], check={"type": "class"}),
        _cli("classify", pz, check={"type": "class"}),
        _cli("classify", ex_any, check={"type": "class"}),
        _cli("decay", gt, check={"type": "geo_decay"}),
        _cli("decay", ex_t, check={"type": "explicit_decay"}),
        _cli("tilt", gt, check={"type": "tilt_critical"}),
        _cli("tilt", ex_t, check={"type": "tilt_critical"}),
        _cli("finite", HALF, "--alpha", a_hs,
             check={"type": "verdict", "finite": a_hs < 2 / 3}),
        _cli("finite", GEO_CRIT, "--alpha", a_gc,
             check={"type": "verdict", "finite": a_gc < 0.5}),
        _cli("finite", gt, "--alpha", a_gt, "--r1-weighted",
             check={"type": "verdict", "finite": a_gt < 0.5}),
        _cli("finite", pz, "--alpha", a_pz, "--r1-weighted",
             check={"type": "verdict", "finite": a_pz <= 1.0 or a_pz < pz["alpha"]}),
        _cli("asym", HALF, check={"type": "asym", "gamma": 2 / 3}),
        _cli("asym", ex_c, check={"type": "asym", "gamma": 0.5}),
        _cli("moments", gr, "-k", 1, check={"type": "moment1"}),
        _cli("moments", pz, "-k", 1, check={"type": "moment1"}),
        _cli("exit", gt, "-k", 1, check={"type": "verdict", "finite": False}),
        _cli("exit", gt, "--alpha", a_ex, check={"type": "verdict", "finite": a_ex < 0.5}),
        _cli("exit", gt, "-k", 0, "--alpha", a_ex,
             check={"type": "verdict", "finite": a_ex < 0.5}),
        _cli("pmf", [gt, GEO_CRIT, gr][i % 3], "-N", 64, check={"type": "pmf"}),
        _cli("pmf", pmf_spec, "-N", 64, check={"type": "pmf"}),
        _cli("exit", gt, "-N", 64, check={"type": "exit_geo"}),
        _cli("simulate", sim_spec, "--samples", 4096, "--cap", 256,
             "--seed", rng.getrandbits(32), check={"type": "sim", "cap": 256}),
    ]
    bad_p = _r(rng.uniform(1.05, 2.0))
    errors = [
        _cli("classify", {"family": "geometric", "p": bad_p}, expect=2),
        _cli("pmf", gr, "-N", 0, expect=1),
        _cli("exit", [gr, GEO_CRIT, HALF][i % 3], "-N", 64, expect=3),
        _cli("asym", gr, expect=3),
        _cli("tilt", pz, expect=3),
        _cli("moments", gt, "-k", 2, expect=3),
    ]
    jobs += [errors[(3 * i + j) % len(errors)] for j in range(3)]
    return jobs


# ---------------------------------------------------------------------------
# Quantile tiers.  job_p50_s and job_p90_s are order statistics of the pooled
# job times, so each block is laid out in cost tiers, cheapest first, with a
# group of fixed-cost jobs (a fixed law at a fixed size) sitting across the
# 50% and the 90% positions.  Drawn parameters then move the jobs below,
# between and above those groups, but not the order statistics themselves.

# ---------------------------------------------------------------------------
# exact_pmf
#
# Why: f_n = (1/n)[x^(n-1)] G^n by N length-N convolutions is O(N^3) and is
# the cost behind exit, moments -k>=2 and the acceptance gate.  Measured
# when this benchmark was introduced: geometric(0.5) costs 0.15 s at N=768
# but 0.8 s at N=1024, against 0.14 s for half_stable at N=1024; the jump
# comes when p^N (or the
# smallest kernel entry p q^(N-1)) falls below 2.2e-308 and the convolution
# runs on subnormal numbers.  The block therefore holds laws on both sides of
# that cliff (in the trace, return_pmf.subnormal_share is about a third of
# the calls) and explicit short kernels (a few ms even at N=2048) that a
# kernel rewrite should leave alone.  Tiers per block of 22: ten
# cheap jobs, four geometric(0.5) at N=512 (the p50 group), five at
# N=768..1024, two geometric(0.5) at N=1024 (the p90 group), one at N=2048.


def _lib(kind: str, model, **kw) -> dict:
    return {"kind": kind, "model": model, **kw}


def _exact_round(rng: random.Random, i: int) -> list[dict]:
    def pz():
        return _pz(rng.uniform(2.5, 4.0))

    ex = _explicit(rng, rng.choice(["transient", "positive", "critical"]))
    return [
        # cheap: N = 256 on every family, explicit kernels at N = 1024, 2048
        _lib("return_pmf", _geo(rng.uniform(0.55, 0.80)), N=256),
        _lib("exit_pmf", _geo(rng.uniform(0.20, 0.45)), N=256),
        _lib("return_pmf", HALF, N=256),
        _lib("return_pmf", pz(), N=256),
        _lib("return_pmf", ex, N=256),
        _lib("return_pmf", {"tilt_of": pz(), "x": _r(rng.uniform(0.80, 0.95))}, N=256),
        _lib("return_pmf", GEO_CRIT, N=256),
        _lib("tau_moment", _geo(rng.uniform(0.55, 0.65)), k=2 + i % 2, N=256),
        _lib("return_pmf", ex, N=1024),
        _lib("return_pmf", ex, N=2048),
        # the p50 group
        *[_lib("return_pmf", GEO_CRIT, N=512) for _ in range(4)],
        # N = 768 / 1024 on both sides of the subnormal cliff
        _lib("return_pmf", GEO_CRIT, N=768),
        _lib("return_pmf", HALF, N=1024),
        _lib("return_pmf", _pz(rng.uniform(2.9, 3.1)), N=1024),
        _lib("exit_pmf", _geo(rng.uniform(0.28, 0.32)), N=1024),
        _lib("tau_moment", _geo(rng.uniform(0.72, 0.78)), k=2, N=768),
        # the p90 group, then the top
        *[_lib("return_pmf", GEO_CRIT, N=1024) for _ in range(2)],
        _lib("return_pmf", [HALF, _pz(rng.uniform(2.9, 3.1))][i % 2], N=2048),
    ]


# ---------------------------------------------------------------------------
# mc_sample
#
# Why: the sampler's per-step cost is what a block-stepped rewrite targets.
# Null-recurrent laws (geometric(0.5), half_stable) at caps 1e3..8e3 give
# long thin tails: many steps with few active paths; positive-recurrent
# geometric and power_zeta laws give short wide runs; last-exit jobs use
# transient geometric laws at the default horizon 1e4.  Every job runs twice,
# at REPAIRCHAIN_THREADS=1 and =2, with the same seed: as measured when this
# benchmark was introduced, two threads are slower than one for sample_tau
# (0.66 s -> 1.1 s at cap 1e4) but faster for sample_last_exit (0.13 s ->
# 0.09 s), so a gain
# at one thread count that costs the other shows, and the pair's reports
# must be identical.  Of the 16 jobs in a block, 10 are null-recurrent.
# Tiers: six short jobs, the four cap-1000 null-recurrent jobs (the p50
# group), four longer null-recurrent jobs, and the geometric(0.5) pair at
# cap 8000, whose one-thread job is the p90 group (its two-thread twin is
# slower still).  Caps are fixed; the seed draws the laws of the short jobs
# and every sim seed.


def _mc_round(rng: random.Random, i: int) -> list[dict]:
    singles = [
        _lib("sample_tau", _pz(rng.uniform(2.5, 3.5)), cap=10000),
        _lib("sample_tau", _geo(rng.uniform(0.55, 0.70)), cap=10000),
        _lib("sample_last_exit", _geo(rng.uniform(0.20, 0.24))),
        _lib("sample_tau", GEO_CRIT, cap=1000),
        _lib("sample_tau", HALF, cap=1000),
        _lib("sample_tau", GEO_CRIT, cap=2000),
        _lib("sample_tau", HALF, cap=2000),
        _lib("sample_tau", GEO_CRIT, cap=8000),
    ]
    jobs = []
    for job in singles:
        job["seed"] = rng.getrandbits(63)
        job["samples"] = SAMPLES
        for threads in (1, 2):
            jobs.append({**job, "threads": threads})
    return jobs


# ---------------------------------------------------------------------------
# transform_solve
#
# Why: the only workload where eval_G's power_zeta series path runs (t < 1:
# ~40 ms per call at alpha = 2.1, the whole 518k-term table each time), with
# psi_inv (52 series calls, ~2.3 s at alpha = 2.1), eval_F's fixed-point and
# Newton iteration, fitted exponents (50 psi_inv each) and the decay root
# finders.  cli_cold reaches these only through closed-form shortcuts.  The
# heavy power_zeta jobs fix alpha = 2.1, the ROADMAP baseline case: their
# cost scales with the table size 10^(12/alpha), so a drawn alpha would move
# the run total more than any bound.  Each job builds fresh models, which
# the unbounded decay_params cache keeps alive; peak_rss_mb shows that.
# Tiers per block of 16: four cheap jobs and two fitted exponents, four
# grids on power_zeta(3) (the p50 group), two mid-cost jobs, three jobs on
# power_zeta(2.1) (the p90 group) and one psi_inv.


def _grid(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    return sorted(_r(rng.uniform(lo, hi)) for _ in range(n))


def _transform_round(rng: random.Random, i: int) -> list[dict]:
    gt = _geo(rng.uniform(0.20, 0.45))
    gr = _geo(rng.uniform(0.55, 0.80))
    ex_t = _explicit(rng, "transient")
    ex_r = _explicit(rng, "positive")
    critical = [GEO_CRIT, HALF, _explicit(rng, "critical"),
                {"critical_tilt_of": _explicit(rng, "transient")},
                {"critical_tilt_of": _geo(rng.uniform(0.2, 0.45))}]
    sweep_p = [p for p in (_r(rng.uniform(0.1, 0.9)) for _ in range(8)) if p != 0.5]
    frac = _grid(rng, 0.05, 1.0, 8) + [1.0]
    pz3 = _pz(3.0)
    return [
        # cheap, rotating through the closed-form and root-finding paths
        _lib("eval_F", [gt, gr, ex_t][i % 3], frac=frac),
        [_lib("decay_params", ex_t), _lib("decay_params", ex_r),
         _lib("decay_sweep", None, p=sweep_p)][i % 3],
        [_lib("tilt", gt, x=None), _lib("tilt", ex_r, x=None),
         _lib("find_x0", ex_t)][i % 3],
        [_lib("eval_G", ex_t, t=_grid(rng, 0.05, 3.0, 16), order=2),
         _lib("psi", HALF, h=_grid(rng, 0.001, 0.9, 16)),
         _lib("eval_G", HALF, t=_grid(rng, 0.05, 0.999, 16), order=1)][i % 3],
        _lib("asym_fitted", critical[i % 5]),
        _lib("asym_fitted", critical[(i + 2) % 5]),
        # the p50 group: the series path on a 10^4-term table
        _lib("eval_G", pz3, t=_grid(rng, 0.05, 0.95, 8), order=0),
        _lib("eval_G", pz3, t=_grid(rng, 0.05, 0.95, 8), order=0),
        _lib("psi", pz3, h=_grid(rng, 0.001, 0.9, 8)),
        _lib("psi", pz3, h=_grid(rng, 0.001, 0.9, 8)),
        # heavier: fixed-point iteration, BoundaryCase verdicts, psi_inv
        _lib("eval_F", _pz(rng.uniform(2.9, 3.1)), frac=_grid(rng, 0.1, 0.95, 3)),
        _lib("tau_alpha_finite",
             {"tilt_of": _pz(rng.uniform(2.9, 3.1)), "x": _r(rng.uniform(0.85, 0.95))},
             alpha=_away(rng, 0.1, 2.5, (1.0, 2.0)), r1_weighted=True),
        # the p90 group: the series path on the 518k-term table, then the top
        _lib("eval_G", _pz(2.1), t=_grid(rng, 0.05, 0.95, 8), order=0),
        _lib("psi", _pz(2.1), h=_grid(rng, 0.001, 0.9, 8)),
        _lib("eval_F", _pz(2.1), frac=[_r(rng.uniform(0.2, 0.7))]),
        _lib("psi_inv", _pz([2.1, 2.6][i % 2]), y=[_r(rng.uniform(0.005, 0.02))]),
    ]


# ---------------------------------------------------------------------------

ROUNDS = {
    "cli_cold": _cli_round,
    "exact_pmf": _exact_round,
    "mc_sample": _mc_round,
    "transform_solve": _transform_round,
}


def make_jobs(workload: str, seed: int, seconds: float) -> list[dict]:
    """The fixed job list of one run: R rounds of the workload's block."""
    rng = random.Random(f"{workload}:{seed}")
    block = ROUNDS[workload]
    rounds = max(1, round(seconds / ROUND_S[workload]))
    jobs = []
    for i in range(rounds):
        jobs += block(rng, i)
    if workload == "exact_pmf":
        # once per run: tilting half_stable copies its 2^21-entry table
        # (~0.2 s of model build), and the ROADMAP "exit at N=2048" case
        hs_tilt = {"tilt_of": HALF, "x": _r(rng.uniform(0.80, 0.95))}
        jobs.append(_lib("return_pmf", hs_tilt, N=256))
        jobs.append(_lib("exit_pmf", _geo(rng.uniform(0.24, 0.26)), N=2048))
    if workload == "cli_cold":
        # the first job once more, for the byte-identical stdout check
        jobs.append({**jobs[0], "repeat_of": 0})
    for n, job in enumerate(jobs):
        job["id"] = n
    return jobs


def distinct_models(jobs: list[dict]) -> list[dict]:
    """Every distinct model a job list uses, in first-use order."""
    seen = {}
    for job in jobs:
        models = [job.get("model")]
        if job["kind"] == "decay_sweep":
            models = [_geo(p) for p in job["p"]]
        for m in models:
            if m is not None:
                seen.setdefault(json.dumps(m, sort_keys=True), m)
    return list(seen.values())


def digest(jobs: list[dict]) -> str:
    text = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
