"""Span recorder that times calls into the package's public functions.

``install`` replaces every public function (and every public method of a
public class) defined in the package modules with a wrapper that records a
span: which function, start, end, the enclosing span and whether the same
function was already on the stack.  The replacement is made in every
module namespace that holds the function, so calls between modules are
seen too.  Spans stay in memory, in a flat array, until ``summary`` folds
them into per-function call counts, busy time (outermost calls only) and
self time (minus the time of traced children).  A few hooks read inputs
and results to derive further counts: coefficient-table bytes,
computed multiply-adds of the pmf kernel, and Monte Carlo path steps.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("model", "decay", "return_time", "last_exit", "series_tools", "sim", "cli")
SMALLEST_NORMAL = 2.2250738585072014e-308
_FIELDS = 5  # fid, start, end, parent span, nested


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")
        self.count = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = defaultdict(int)
        return local.stack, local.depth

    def wrap(self, name: str, fn, hook=None):
        fid = len(self.names)
        self.names.append(name)
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, depth = self._state()
            parent = stack[-1] if stack else -1
            nested = 1.0 if depth[fid] else 0.0
            with self._lock:
                idx = self.count
                self.count += 1
                spans.extend((fid, clock(), 0.0, parent, nested))
            stack.append(idx)
            depth[fid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx * _FIELDS + 2] = clock()
                depth[fid] -= 1
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-function [calls, busy seconds, self seconds] plus counters."""
        n = self.count
        s = self.spans
        child = [0.0] * n
        for i in range(n):
            parent = int(s[i * _FIELDS + 3])
            if parent >= 0:
                child[parent] += s[i * _FIELDS + 2] - s[i * _FIELDS + 1]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            fid, start, end, _, nested = s[i * _FIELDS:(i + 1) * _FIELDS]
            row = stats[self.names[int(fid)]]
            row[0] += 1
            if not nested:
                row[1] += end - start
            row[2] += end - start - child[i]
        return {"functions": stats, "counters": dict(self.counters), "spans": n}


def span_cost(calls: int = 50000) -> float:
    """Seconds the wrapper adds to one call, measured on a no-op function."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


# ---------------------------------------------------------------------------
# hooks


def _build_hook(counters, args, kwargs, model):
    counters["model.table_bytes"] += model.coeffs.nbytes


def _pmf_hook(exact_coefficients):
    def hook(counters, args, kwargs, result):
        model, n_max = args[0], int(args[1] if len(args) > 1 else kwargs["n_max"])
        kernel = np.trim_zeros(exact_coefficients(model, n_max), "b")
        k = kernel.size
        # np.convolve(power, kernel) costs len(power) * len(kernel); power
        # starts as the kernel and grows by k - 1 per step up to n_max
        length, madds = min(k, n_max), 0
        for _ in range(2, n_max + 1):
            madds += length * k
            length = min(n_max, length + k - 1)
        madds += n_max * (n_max + 1) // 2  # the renewal recursion for u
        counters["return_time.return_pmf.madds"] += madds
        a0 = float(kernel[0])
        tiny = n_max * math.log(a0) < math.log(SMALLEST_NORMAL) or (
            float(kernel[kernel > 0].min()) < SMALLEST_NORMAL)
        counters["return_time.return_pmf.subnormal_calls"] += tiny
    return hook


def _tau_hook(counters, args, kwargs, report):
    counters["sim.path_steps"] += (sum(n * c for n, c in report.tau_hist.items())
                                   + report.censored * report.cap)
    counters["sim.censored"] += report.censored
    counters["sim.samples"] += report.samples


def _exit_hook(counters, args, kwargs, report):
    counters["sim.censored"] += report.censored
    counters["sim.samples"] += report.samples


def install(package) -> Tracer:
    """Wrap the public callables of the package modules; return the tracer."""
    import importlib

    tracer = Tracer()
    mods = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
    hooks = {
        "model.build_model": _build_hook,
        "return_time.return_pmf": _pmf_hook(mods[0].exact_coefficients),
        "sim.sample_tau": _tau_hook,
        "sim.sample_last_exit": _exit_hook,
    }
    replaced = {}
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, tracer.wrap(f"{short}.{name}.{meth}", fn))
            elif callable(obj):
                key = f"{short}.{name}"
                replaced[id(obj)] = (obj, tracer.wrap(key, obj, hooks.get(key)))
    for mod in mods + [package]:
        for name, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    return tracer
