"""Per-layer tracing, applied from outside the library.

``Tracer.install`` replaces each module's public functions (and
``DecayKernel.tilde_many`` / ``at_many``) with a wrapper that records a span
``(name, start, end, parent)`` in memory, at every module that holds a
reference to the function; ``Tracer.uninstall`` puts the original objects
back.  ``Tracer.metrics`` turns the spans into the per-layer metrics
``<module>.<function>.<quantity>``: ``calls``, ``self_s`` (the span minus its
traced children), ``errors`` (calls that raised), and the extra counts in
``EXTRAS``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

TARGETS = {
    "kernels": ("tilde_many", "at_many", "check_structure", "check_shape_properties"),
    "posdef": ("assemble_gram", "search_violation", "check_grid_pd",
               "classify_positive_definite"),
    "solver": ("solve_best", "solve_commuting", "solve_kkt", "solve_exp_closed_form",
               "simultaneous_diagonalize", "solve_1d_exp", "refine", "cost"),
    "simulate": ("sample_paths", "estimate_expected_cost"),
    "grids": ("equidistant_grid", "geometric_grid"),
    "cli": ("main",),
}
KERNEL_METHODS = ("tilde_many", "at_many")  # methods of DecayKernel, not functions

# extra quantities: name -> ((quantity, unit, better), ...)
EXTRAS = {
    "kernels.tilde_many": (("lags", "count", "lower"),),
    "kernels.at_many": (("lags", "count", "lower"),),
    "kernels.check_structure": (("times", "count", "lower"),),
    "posdef.assemble_gram": (("bytes", "B", "lower"),),
    "posdef.search_violation": (("grams", "count", "lower"), ("witnesses", "count", "higher")),
    "solver.solve_best": (("route.closed_form", "count", "higher"),
                          ("route.commuting", "count", "higher"),
                          ("route.kkt", "count", "lower")),
    "simulate.sample_paths": (("bytes", "B", "lower"),),
    "simulate.estimate_expected_cost": (("peak_traced_mb", "MB", "lower"),),
    "cli.main": (("exit_2", "count", "lower"), ("exit_3", "count", "lower"),
                 ("exit_4", "count", "lower")),
}
OVERHEAD = ("trace.overhead", "fraction", "lower")


def traced_names() -> list:
    return [f"{module}.{name}" for module, names in TARGETS.items() for name in names]


def metric_catalog() -> list:
    """Every per-layer metric as ``(name, unit, better)``."""
    catalog = []
    for name in traced_names():
        catalog += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                    (f"{name}.errors", "count", "lower")]
        catalog += [(f"{name}.{q}", unit, better) for q, unit, better in EXTRAS.get(name, ())]
    return catalog + [OVERHEAD]


# per-call counts, from the arguments and the return value
def _count_lags(args, kwargs, result):
    return {"lags": len(result)}


def _count_times(args, kwargs, result):
    sample_times = args[1] if len(args) > 1 else kwargs["sample_times"]
    return {"times": int(np.size(sample_times))}


def _count_gram_bytes(args, kwargs, result):
    return {"bytes": 8 * (result.blocks.shape[0]) ** 2}


def _count_witness(args, kwargs, result):
    return {"witnesses": int(result is not None)}


def _count_route(args, kwargs, result):
    return {f"route.{result[1]}": 1}


def _count_path_bytes(args, kwargs, result):
    return {"bytes": 8 * result.size}


def _count_exit(args, kwargs, result):
    return {f"exit_{result}": 1} if result in (2, 3, 4) else {}


COUNTERS = {
    "kernels.tilde_many": _count_lags,
    "kernels.at_many": _count_lags,
    "kernels.check_structure": _count_times,
    "posdef.assemble_gram": _count_gram_bytes,
    "posdef.search_violation": _count_witness,
    "solver.solve_best": _count_route,
    "simulate.sample_paths": _count_path_bytes,
    "cli.main": _count_exit,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self.peak_traced = defaultdict(float)
        self.paused = False  # while True, wrappers call through without recording
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        kernels = importlib.import_module("crossimpact.kernels")
        overriding = [sub.__name__ for sub in _subclasses(kernels.DecayKernel)
                      if any(m in vars(sub) for m in KERNEL_METHODS)]
        if overriding:
            raise RuntimeError(f"kernel classes override traced methods: {overriding}")
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "crossimpact" or n.startswith("crossimpact.")]
        for module_name, names in TARGETS.items():
            module = importlib.import_module(f"crossimpact.{module_name}")
            for fname in names:
                traced = f"{module_name}.{fname}"
                if module_name == "kernels" and fname in KERNEL_METHODS:
                    original = vars(kernels.DecayKernel)[fname]
                    self._patch(kernels.DecayKernel, fname, original, traced)
                    continue
                original = getattr(module, fname)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, original, traced)

    def _patch(self, owner, attr, original, traced) -> None:
        setattr(owner, attr, self._wrap(traced, original))
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._patched)
        self._patched = []
        if not restored:
            raise RuntimeError("a traced function was not restored")

    @property
    def patched(self) -> list:
        return list(self._patched)

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, counts, errors = self.spans, self._stack, self.counts, self.errors
        counter = COUNTERS.get(name)
        peak = name == "simulate.estimate_expected_cost"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if peak and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if peak and tracemalloc.is_tracing():
                mb = tracemalloc.get_traced_memory()[1] / 2**20
                self.peak_traced[name] = max(self.peak_traced[name], mb)
            if counter is not None:
                for quantity, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{quantity}"] += value
            return result

        return wrapper

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> dict:
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, children):
            totals[name] += end - start - child
        return totals

    def metrics(self) -> dict:
        """Every per-layer metric except ``trace.overhead``, as ``{name: value}``."""
        calls = defaultdict(int)
        under_search = [False] * len(self.spans)
        grams_in_search = 0
        for i, (name, _, _, parent) in enumerate(self.spans):
            calls[name] += 1
            if parent >= 0:
                under_search[i] = (under_search[parent]
                                   or self.spans[parent][0] == "posdef.search_violation")
            if name == "posdef.assemble_gram" and under_search[i]:
                grams_in_search += 1
        self_s = self.self_times()
        values = dict(self.counts)
        values["posdef.search_violation.grams"] = grams_in_search
        values.update({f"{n}.peak_traced_mb": v for n, v in self.peak_traced.items()})
        out = {}
        for name in traced_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.errors"] = self.errors[name]
            for quantity, _, _ in EXTRAS.get(name, ()):
                out[f"{name}.{quantity}"] = values.get(f"{name}.{quantity}", 0)
        return out

    def dump(self, origin: float) -> list:
        return [[name, round(start - origin, 7), round(end - origin, 7), parent]
                for name, start, end, parent in self.spans]
