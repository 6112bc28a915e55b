"""repairchain benchmark: seeded workloads timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src and nothing is installed.  The workloads and the reason for each are
in workloads.py.  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it runs a job list of half the length untraced and then
traced (spans recorded around every public function of each package
module) and reports the per-layer metrics plus the tracing overhead.  Every job's output is
checked; a wrong or missing result counts as failed.

The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the line
before it ("report: {...}") carries the sample count of every metric, the
failure reasons, the environment and the hash of the generated job list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import checks
import tracer
import workloads
from worker import TRACE_MARK

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PY = sys.executable

CLI_CLIENTS = 2        # concurrent CLI clients in cli_cold, one per core
SETUP_PROBES = 3       # fresh processes timed to ready; setup_s is their median
IMPORT_PROBES = 5      # bare-interpreter and import probes in traced runs
DEADLINE_S = 165.0     # stop submitting jobs after this; unrun jobs fail
JOB_TIMEOUT_S = 60.0   # kill a single CLI job after this

# The bounded end-to-end metrics.  job_p50_s and job_p90_s are measured and
# reported too, but not bounded: on a shared VM with a two-speed CPU their
# spread over ten seeds reached 0.34 and 0.27, past any usable bound, while
# wall_s, a sum over the whole list, stayed within 0.19.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = [
    ("cli.interp_start_s", "s"), ("cli.import_s", "s"),
    ("cli.run.calls", "count"), ("cli.run_self_s", "s"),
    ("model.build_model.calls", "count"), ("model.build_model.s", "s"),
    ("model.table_bytes", "B"),
    ("model.eval_G.calls", "count"), ("model.eval_G.s", "s"),
    ("return_time.eval_F.calls", "count"), ("return_time.eval_F.s", "s"),
    ("return_time.psi_inv.calls", "count"), ("return_time.psi_inv.s", "s"),
    ("return_time.PsiFunction.psi_inv.calls", "count"),
    ("return_time.PsiFunction.psi_inv.s", "s"),
    ("return_time.asymptotic_exponent.calls", "count"),
    ("return_time.asymptotic_exponent.s", "s"),
    ("decay.decay_params.calls", "count"), ("decay.decay_params.s", "s"),
    ("decay.find_x0.calls", "count"), ("decay.find_x0.s", "s"),
    ("return_time.return_pmf.calls", "count"), ("return_time.return_pmf.s", "s"),
    ("return_time.return_pmf.madds", "count"),
    ("return_time.return_pmf.subnormal_share", "share"),
    ("return_time.tau_moment.s", "s"), ("last_exit.exit_pmf.s", "s"),
    ("return_time.tau_alpha_finite.s", "s"),
    ("series_tools.criterion_terms.calls", "count"),
    ("sim.sample_tau.s", "s"), ("sim.sample_last_exit.s", "s"),
    ("sim.path_steps", "count"), ("sim.path_steps_per_s", "1/s"),
    ("sim.censored", "count"), ("sim.samples_per_s", "1/s"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_est_s", "s"), ("trace.spans", "count"),
]


# ---------------------------------------------------------------------------
# environment


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    for key in ("PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE"):
        env.pop(key, None)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",
        "REPAIRCHAIN_THREADS": "1",  # mc_sample jobs set 1 or 2 per job
    })
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[key] = "1"
    return env


def environment(root: str, env: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "repairchain")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "REPAIRCHAIN_THREADS": env["REPAIRCHAIN_THREADS"],
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# child processes


def run_child(cmd: list[str], env: dict) -> dict:
    """Run one process to completion; its status, output, time and peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()  # a CLI call writes at most a line or two here
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"status": proc.returncode, "out": out, "err": err,
            "t": time.perf_counter() - t0, "rss_kb": usage.ru_maxrss}


def start_worker(args: list[str], env: dict, jobs_json: bytes):
    """Start a worker and wait for READY; the process and its setup time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([PY, WORKER] + args, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env)
    proc.stdin.write(jobs_json)
    proc.stdin.close()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != b"READY":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during setup")
    return proc, setup


def setup_probe(env: dict, jobs_json: bytes) -> float:
    proc, setup = start_worker(["setup"], env, jobs_json)
    proc.stdout.read()
    proc.stdout.close()
    proc.wait()
    return setup


def import_probes(env: dict) -> dict:
    """Bare interpreter start and fresh `import repairchain`, as medians."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(run_child([PY, "-c", "pass"], env)["t"])
        full.append(run_child([PY, "-c", "import repairchain"], env)["t"])
    start = statistics.median(bare)
    return {"cli.interp_start_s": start,
            "cli.import_s": statistics.median(full) - start}


# ---------------------------------------------------------------------------
# warm workloads: one worker process runs the whole list


def run_warm(env: dict, jobs: list[dict], trace: bool, deadline: float) -> dict:
    jobs_json = json.dumps(jobs).encode()
    setups = [setup_probe(env, jobs_json) for _ in range(SETUP_PROBES - 1)]
    proc, setup = start_worker(["run"] + (["--trace"] if trace else []), env, jobs_json)
    setups.append(setup)
    killer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        proc.stdout.read()
        proc.stdout.close()
        proc.wait()
    finally:
        killer.cancel()
    try:
        result = json.loads(line)
    except ValueError:
        result = None
    return {"setups": setups, "result": result}


# ---------------------------------------------------------------------------
# cli_cold: fresh CLI processes from CLI_CLIENTS closed-loop clients


def run_cli_pass(env: dict, jobs: list[dict], traced: bool, deadline: float):
    prefix = [PY, WORKER, "cli"] if traced else [PY, "-m", "repairchain.cli"]
    pending = iter(jobs)
    lock = threading.Lock()
    results = {}

    def client():
        while True:
            with lock:
                job = next(pending, None)
            if job is None or time.perf_counter() > deadline:
                return
            results[job["id"]] = run_child(prefix + job["argv"], env)

    start = time.perf_counter()
    clients = [threading.Thread(target=client) for _ in range(CLI_CLIENTS)]
    for c in clients:
        c.start()
    for c in clients:
        c.join()
    return results, time.perf_counter() - start


def check_cli(job: dict, res: dict | None, results: dict) -> str | None:
    if res is None:
        return "not run before the deadline"
    why = checks.check_status(job["expect"], res["status"])
    if why:
        tail = res["err"].decode(errors="replace").strip().splitlines()[-1:]
        return why + (f" ({tail[0][:200]})" if tail else "")
    if "repeat_of" in job:
        first = results.get(job["repeat_of"])
        if first is None or first["out"] != res["out"]:
            return "repeated CLI job gave different stdout bytes"
    check = job["check"]
    if check is None:
        return None
    rec = json.loads(res["out"])
    spec = job["model"]
    kind = check["type"]
    if kind == "class":
        want = checks.recurrence_class(spec)
        if rec["class"] != want:
            return f"class {rec['class']!r}, expected {want!r}"
        mu = checks.mean_jump(spec)
        return None if abs(rec["mu"] - mu) <= checks.ROOT_RTOL * mu else f"mu {rec['mu']!r}"
    if kind == "geo_decay":
        return checks.check_geometric_decay(spec["p"], rec)
    if kind == "explicit_decay":
        return checks.check_explicit_decay(spec, rec)
    if kind == "tilt_critical":
        return checks.check_critical(rec["mu"])
    if kind == "verdict":
        return checks.check_verdict(rec["verdict"], check["finite"])
    if kind == "asym":
        if rec["method"] != "analytic":
            return f"method {rec['method']!r}, expected analytic"
        return checks.check_gamma(rec["gamma"], check["gamma"], 1e-12)
    if kind == "moment1":
        return checks.check_moment1(spec, rec["value"])
    if kind == "pmf":
        return checks.check_return(spec, rec["f"], rec["u"], rec["return_prob"])
    if kind == "exit_geo":
        return checks.check_exit(spec, rec["q_exit"], rec["pmf"])
    if kind == "sim":
        return checks.check_tau_report(spec, rec["samples"], rec["cap"],
                                       rec["tau_hist"], rec["censored"])
    return f"unknown check {kind!r}"


def checked_cli_pass(env, jobs, traced, deadline, untraced=None):
    results, wall = run_cli_pass(env, jobs, traced, deadline)
    failures = {}
    for job in jobs:
        res = results.get(job["id"])
        try:
            why = check_cli(job, res, results)
        except (ValueError, KeyError, TypeError) as exc:  # malformed output
            why = f"output check raised {type(exc).__name__}: {exc}"
        if why is None and untraced is not None:
            base = untraced.get(job["id"])
            if base is None or base["out"] != res["out"]:
                why = "stdout differs between the traced and the untraced call"
        if why:
            failures[job["id"]] = why
    return results, wall, failures


def run_cli(env: dict, jobs: list[dict], trace: bool, deadline: float) -> dict:
    jobs_json = json.dumps(jobs).encode()
    setups = [setup_probe(env, jobs_json) for _ in range(SETUP_PROBES)]
    results, wall, failures = checked_cli_pass(env, jobs, False, deadline)
    out = {"setups": setups, "wall_s": wall, "failures": failures,
           "times": [results[j["id"]]["t"] for j in jobs if j["id"] in results],
           "rss_kb": max((r["rss_kb"] for r in results.values()), default=0)}
    if trace:
        traced, twall, tfail = checked_cli_pass(env, jobs, True, deadline, results)
        summaries = []
        for res in traced.values():
            last = res["err"].decode(errors="replace").rstrip("\n").rsplit("\n", 1)[-1]
            if last.startswith(TRACE_MARK):
                summaries.append(json.loads(last[len(TRACE_MARK):]))
        out["traced"] = {"wall_s": twall, "failures": tfail,
                         "summary": merge_summaries(summaries)}
    return out


def merge_summaries(parts: list[dict]) -> dict:
    functions, counters, spans = {}, {}, 0
    for part in parts:
        for name, row in part["functions"].items():
            acc = functions.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0) + value
        spans += part["spans"]
    return {"functions": functions, "counters": counters, "spans": spans}


# ---------------------------------------------------------------------------
# metrics


def percentile_90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8]


# per-layer metrics derived from one function's calls count those calls as
# their samples
SAMPLED_BY = {
    "cli.run_self_s": "cli.run", "model.table_bytes": "model.build_model",
    "return_time.return_pmf.madds": "return_time.return_pmf",
    "return_time.return_pmf.subnormal_share": "return_time.return_pmf",
    "sim.path_steps": "sim.sample_tau", "sim.path_steps_per_s": "sim.sample_tau",
    "sim.censored": "sim.sample_tau", "sim.samples_per_s": "sim.sample_tau",
}


def layer_samples(summary: dict, jobs: int) -> dict:
    fn = summary["functions"]
    out = {}
    for metric, _ in PER_LAYER:
        base = SAMPLED_BY.get(metric, metric.rpartition(".")[0])
        if metric in ("cli.interp_start_s", "cli.import_s"):
            out[metric] = IMPORT_PROBES
        elif base in fn:
            out[metric] = fn[base][0]
        else:
            out[metric] = jobs if metric.startswith("trace.") else 0
    return out


def layer_metrics(summary: dict, untraced_wall: float, traced_wall: float,
                  probes: dict, span_cost: float) -> dict:
    fn = summary["functions"]
    counters = summary["counters"]

    def stat(name, i):
        return fn.get(name, [0, 0.0, 0.0])[i]

    values = dict(probes)
    for metric, _ in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = stat(base, 0)
        elif field == "s" and base in fn:
            values[metric] = stat(base, 1)
    pmf_calls = stat("return_time.return_pmf", 0)
    tau_s = stat("sim.sample_tau", 1)
    sim_s = tau_s + stat("sim.sample_last_exit", 1)
    values.update({
        "cli.run_self_s": stat("cli.run", 2),
        "model.table_bytes": counters.get("model.table_bytes", 0),
        "return_time.return_pmf.madds": counters.get("return_time.return_pmf.madds", 0),
        "return_time.return_pmf.subnormal_share":
            counters.get("return_time.return_pmf.subnormal_calls", 0) / pmf_calls
            if pmf_calls else 0.0,
        "sim.path_steps": counters.get("sim.path_steps", 0),
        "sim.path_steps_per_s": counters.get("sim.path_steps", 0) / tau_s if tau_s else 0.0,
        "sim.censored": counters.get("sim.censored", 0),
        "sim.samples_per_s": counters.get("sim.samples", 0) / sim_s if sim_s else 0.0,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        # the measured difference carries the run-to-run noise of two passes;
        # spans times the wrapper's calibrated cost per call does not
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_est_s": summary["spans"] * span_cost,
        "trace.spans": summary["spans"],
    })
    return {m: values.get(m, 0.0) for m, _ in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repairchain", "__init__.py")):
        print("perfbench: run from the root of a repairchain source checkout "
              "(src/repairchain not found)", file=sys.stderr)
        return 2
    env = pinned_env(root)
    # the build: byte-compile once, as an installed package would be
    subprocess.run([PY, "-m", "compileall", "-q", os.path.join(root, "src"), HERE],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    missed = checks.self_test()
    trace = bool(args.trace)
    # a traced run measures the list twice (untraced, then traced), so it
    # takes a list of half the length to stay near --seconds
    jobs = workloads.make_jobs(args.workload, args.seed,
                               args.seconds / 2 if trace else args.seconds)

    if args.workload == "cli_cold":
        run = run_cli(env, jobs, trace, deadline)
        times, wall, failures = run["times"], run["wall_s"], run["failures"]
        rss_kb, rss_samples = run["rss_kb"], len(times)
        sampling = None
    else:
        run = run_warm(env, jobs, trace, deadline)
        res = run["result"]
        if res is None:
            res = {"times": [], "wall_s": 0.0, "rss_kb": 0, "samples": 0, "sampling_s": 0.0,
                   "failures": {j["id"]: "worker died or ran past the deadline" for j in jobs}}
        times, wall, failures = res["times"], res["wall_s"], res["failures"]
        rss_kb, rss_samples = res["rss_kb"], 1
        sampling = (res["samples"], res["sampling_s"])
        run["traced"] = res.get("traced")

    attempted = len(jobs)
    failed = len(failures)
    report = {"workload": args.workload, "why": workloads.WHY[args.workload],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "jobs": attempted, "jobs_sha256": workloads.digest(jobs),
              "environment": environment(root, env),
              "self_test_missed": missed}
    if trace:
        traced = run.get("traced") or {"wall_s": 0.0, "failures": {}, "summary":
                                       {"functions": {}, "counters": {}, "spans": 0}}
        attempted += len(jobs)
        failed += len(traced["failures"]) if run.get("traced") else len(jobs)
        failures.update({f"traced:{k}": v for k, v in traced["failures"].items()})
        values = layer_metrics(traced["summary"], wall, traced["wall_s"],
                               import_probes(env), tracer.span_cost())
        metrics = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}
        samples = layer_samples(traced["summary"], len(jobs))
        report["metrics"] = {m: {**metrics[m], "samples": samples[m]} for m in metrics}
        report["functions"] = traced["summary"]["functions"]
    else:
        values = {
            "setup_s": statistics.median(run["setups"]),
            "wall_s": wall,
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
        samples = {"setup_s": len(run["setups"]), "wall_s": 1, "peak_rss_mb": rss_samples}
        report["metrics"] = {m: {**metrics[m], "samples": samples[m]} for m in metrics}
        report["metrics"].update({
            "job_p50_s": {"value": statistics.median(times) if times else 0.0,
                          "unit": "s", "samples": len(times)},
            "job_p90_s": {"value": percentile_90(times) if len(times) > 1 else 0.0,
                          "unit": "s", "samples": len(times)},
            "failed_frac": {"value": failed / attempted, "unit": "share",
                            "samples": attempted},
        })
        if sampling and sampling[0]:
            report["metrics"]["mc_samples_per_s"] = {
                "value": sampling[0] / sampling[1], "unit": "1/s",
                "samples": sum(j["kind"].startswith("sample") for j in jobs)}
        report["setup_samples_s"] = run["setups"]
    report["failures"] = {str(k): v for k, v in list(failures.items())[:20]}
    report["run_s"] = time.perf_counter() - started
    print("report: " + json.dumps(report, sort_keys=True))
    correct = failed == 0 and not missed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
