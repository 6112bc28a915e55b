"""Benchmark worker: the process that runs the package under test.

    worker.py setup          read a job list on stdin, import repairchain,
                             build every model it uses, print READY, exit
    worker.py run [--trace]  the same, then run the job list in a closed
                             loop and print one JSON result line; with
                             --trace, run it once untraced and once traced
    worker.py cli ARGV...    one traced CLI call: the trace summary goes to
                             the last line of stderr

Each job is timed around the library call alone (model construction
included, since every job builds fresh models); its output check runs
after the clock stops and its time is left out of the run's wall time.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

import checks
from workloads import distinct_models

TRACE_MARK = "PERFBENCH_TRACE "


def build(rc, m):
    if "tilt_of" in m:
        return rc.tilt(rc.build_model(m["tilt_of"]), m["x"])
    if "critical_tilt_of" in m:
        return rc.tilt_to_critical(rc.build_model(m["critical_tilt_of"]))
    return rc.build_model(m)


def setup(rc, jobs):
    for m in distinct_models(jobs):
        try:
            build(rc, m)
        except rc.InvalidSpec:  # cli_cold's deliberately invalid specs
            pass


# ---------------------------------------------------------------------------
# job bodies: each returns the raw output, checked afterwards by CHECKS


def _pmf(rc, job):
    return rc.return_pmf(build(rc, job["model"]), job["N"])


def _exit(rc, job):
    return rc.exit_pmf(build(rc, job["model"]), job["N"])


def _moment(rc, job):
    return rc.tau_moment(build(rc, job["model"]), job["k"], job["N"])


def _tau(rc, job):
    return rc.sample_tau(build(rc, job["model"]), job["seed"], job["samples"], job["cap"])


def _last_exit(rc, job):
    return rc.sample_last_exit(build(rc, job["model"]), job["seed"], job["samples"])


def _eval_G(rc, job):
    m = build(rc, job["model"])
    return [rc.eval_G(m, t, job["order"]) for t in job["t"]]


def _psi(rc, job):
    m = build(rc, job["model"])
    return [rc.psi(m, h) for h in job["h"]]


def _eval_F(rc, job):
    m = build(rc, job["model"])
    r1 = rc.decay_params(m).R1
    ts = [fr * r1 for fr in job["frac"]]
    return ts, [rc.eval_F(m, t) for t in ts]


def _psi_inv(rc, job):
    m = build(rc, job["model"])
    return [rc.psi_inv(m, y) for y in job["y"]]


def _asym(rc, job):
    return rc.asymptotic_exponent(build(rc, job["model"]), method="fitted")


def _decay(rc, job):
    return rc.decay_params(build(rc, job["model"]))


def _decay_sweep(rc, job):
    return [rc.decay_params(rc.geometric(p)) for p in job["p"]]


def _find_x0(rc, job):
    return rc.find_x0(build(rc, job["model"]))


def _tilt(rc, job):
    m = build(rc, job["model"])
    return rc.tilt(m, rc.find_x0(m) if job["x"] is None else job["x"])


def _finite(rc, job):
    return rc.tau_alpha_finite(build(rc, job["model"]), job["alpha"],
                               r1_weighted=job["r1_weighted"])


BODIES = {
    "return_pmf": _pmf, "exit_pmf": _exit, "tau_moment": _moment,
    "sample_tau": _tau, "sample_last_exit": _last_exit,
    "eval_G": _eval_G, "psi": _psi, "eval_F": _eval_F, "psi_inv": _psi_inv,
    "asym_fitted": _asym, "decay_params": _decay, "decay_sweep": _decay_sweep,
    "find_x0": _find_x0, "tilt": _tilt, "tau_alpha_finite": _finite,
}


# ---------------------------------------------------------------------------
# output checks


def _decay_dict(dp) -> dict:
    return {"x0": dp.x0, "R0": dp.R0, "R1": dp.R1, "F_at_R1": dp.F_at_R1,
            "case": dp.case_label.value}


def _check_moment(job, res):
    # the tail certificate f_n <= F(R1) R1^-n needs R1 > 1 and a summable
    # weighted tail at N; without it the partial sum is a lower bound only
    p, n_max, k = job["model"]["p"], job["N"], job["k"]
    r = 4.0 * p * (1.0 - p)  # 1 / R1 for geometric(p)
    certified = r < 1.0 and r * ((n_max + 1.0) / n_max) ** k < 1.0
    if certified != (res.flag == "certified tail") or not (
            0 <= res.tail_bound < math.inf if certified else res.tail_bound == math.inf):
        return f"moment flagged {res.flag!r} with tail {res.tail_bound!r}"
    f = checks.geometric_f(p, n_max)
    ref = math.fsum(float(n) ** k * float(x) for n, x in enumerate(f))
    if abs(res.value - ref) > checks.F_RTOL * ref:
        return f"E(tau^{k}) partial sum {res.value!r}, closed form {ref!r}"
    return None


def _check_tilt(job, m):
    return checks.check_critical(m.mu)


def _check_find_x0(job, x0):
    spec = job["model"]
    xi = checks.gen_G(spec, x0) - x0 * checks.gen_G(spec, x0, 1)
    return None if abs(xi) <= 1e-12 else f"xi(x0) = {xi:.3g}"


def _check_asym(job, est):
    if est.method != "fitted":
        return f"method {est.method!r}, expected fitted"
    want = checks.fitted_exponent(job["model"])
    return checks.check_gamma(est.gamma, want, checks.GAMMA_TOL)


def _check_finite(job, v):
    # a reweighted power_zeta law sits in the BoundaryCase: no analytic
    # branch, so the verdict must stay Unknown and carry its diagnostics
    if v.verdict.value != "Unknown" or "partial_sums" not in v.diagnostics:
        return f"verdict {v.verdict.value!r}, expected Unknown with diagnostics"
    return None


def _check_sweep(job, dps):
    for p, dp in zip(job["p"], dps):
        why = checks.check_geometric_decay(p, _decay_dict(dp))
        if why:
            return f"geometric({p}): {why}"
    return None


CHECKS = {
    "return_pmf": lambda j, r: checks.check_return(j["model"], r.f, r.u, r.return_prob),
    "exit_pmf": lambda j, r: checks.check_exit(j["model"], r.q_exit, r.pmf,
                                               r.occupation.f, r.occupation.u),
    "tau_moment": _check_moment,
    "sample_tau": lambda j, r: checks.check_tau_report(j["model"], r.samples, r.cap,
                                                       r.tau_hist, r.censored),
    "sample_last_exit": lambda j, r: checks.check_exit_report(j["model"], r.samples,
                                                              r.L_hist),
    "eval_G": lambda j, r: checks.check_eval_G(j["model"], j["t"], j["order"], r),
    "psi": lambda j, r: checks.check_psi(j["model"], j["h"], r),
    "eval_F": lambda j, r: checks.check_eval_F(j["model"], r[0], r[1]),
    "psi_inv": lambda j, r: checks.check_psi_inv(j["model"], j["y"], r),
    "asym_fitted": _check_asym,
    "decay_params": lambda j, r: checks.check_explicit_decay(j["model"], _decay_dict(r)),
    "decay_sweep": _check_sweep,
    "find_x0": _check_find_x0,
    "tilt": _check_tilt,
    "tau_alpha_finite": _check_finite,
}


def _sim_digest(r) -> str:
    return checks.report_digest({"samples": r.samples, "seed": r.seed,
                                 "tau_hist": r.tau_hist, "L_hist": r.L_hist,
                                 "censored": r.censored, "cap": r.cap,
                                 "horizon": r.horizon})


def run_pass(rc, jobs) -> dict:
    """Run the job list once; times, failures, wall time and sampling totals."""
    times, failures = [], {}
    digests = {}
    samples = sampling_s = checking_s = 0.0
    start = time.perf_counter()
    for job in jobs:
        if "threads" in job:
            os.environ["REPAIRCHAIN_THREADS"] = str(job["threads"])
        t0 = time.perf_counter()
        try:
            out = BODIES[job["kind"]](rc, job)
        except Exception as exc:  # a job that raises is a failed job
            out, why = None, f"{type(exc).__name__}: {exc}"
        else:
            why = None
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if why is None:
            try:
                why = CHECKS[job["kind"]](job, out)
            except Exception as exc:  # malformed output
                why = f"output check raised {type(exc).__name__}: {exc}"
        if why is None and "threads" in job:
            key = (job["seed"], json.dumps(job["model"], sort_keys=True), job.get("cap"))
            digest = _sim_digest(out)
            if key in digests:
                why = checks.check_thread_pair(digests[key], digest)
            digests[key] = digest
        if job["kind"].startswith("sample"):
            samples += job["samples"]
            sampling_s += t1 - t0
        if why is not None:
            failures[job["id"]] = why
        del out
        checking_s += time.perf_counter() - t1
    wall = time.perf_counter() - start - checking_s
    return {"times": times, "failures": failures, "wall_s": wall,
            "samples": samples, "sampling_s": sampling_s}


def _serve(trace: bool, setup_only: bool) -> None:
    jobs = json.load(sys.stdin)
    import repairchain as rc

    setup(rc, jobs)
    print("READY", flush=True)
    if setup_only:
        return
    result = run_pass(rc, jobs)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        import tracer

        t = tracer.install(rc)
        traced = run_pass(rc, jobs)
        result["traced"] = {"wall_s": traced["wall_s"], "failures": traced["failures"],
                            "summary": t.summary()}
    print(json.dumps(result), flush=True)


def _cli_child(argv) -> int:
    import repairchain as rc
    import tracer

    t = tracer.install(rc)
    from repairchain import cli

    status = cli.run(argv)
    sys.stdout.flush()
    sys.stderr.write("\n" + TRACE_MARK + json.dumps(t.summary()) + "\n")
    return status


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "cli":
        return _cli_child(sys.argv[2:])
    if mode in ("setup", "run"):
        _serve(trace="--trace" in sys.argv[2:], setup_only=mode == "setup")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
