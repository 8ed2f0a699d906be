"""In-memory spans around the public callables of each logtrees module.

The tracer rebinds functions and methods in-process; the package source is
not modified.  A function that a module imported by name at load time
(``from .roots import solve_spectrum``) is rebound in every logtrees module
that holds it, so calls through either name are seen.

A span is (id, name, start, end, parent id, thread id).  Worker threads of
``monte_carlo`` open spans with an empty stack of their own; their parent is
the innermost open span of the thread that started the pass, which is the
call that caused them.  Self time is a span's duration minus the union of
the intervals its children cover.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []       # (id, name, start, end, parent, thread)
        self.counters: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._undo: list[tuple] = []
        self.origin = time.perf_counter()

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._root_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` recording a span ``name``; ``count(counters, args,
        kwargs, result)`` adds work counts after a successful call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._root_stack[-1] if tracer._root_stack else None)
            with tracer._id_lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent,
                                     threading.get_ident()))
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return traced

    # -- rebinding ---------------------------------------------------------

    def rebind(self, original, replacement) -> None:
        """Replace every logtrees-module binding of ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("logtrees"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, replacement)

    def patch_function(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        self.rebind(original, self.wrap(original, name, count))

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def durations(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[1]] += 1
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus the union of the
        child intervals, clipped to the span."""
        children = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[name] += (end - start) - covered
        return out

    def dump(self) -> list[dict]:
        return [{"id": i, "name": n, "start": s - self.origin, "end": e - self.origin,
                 "parent": p, "thread": t} for i, n, s, e, p, t in self.spans]


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------

def _count_spectrum(counters, args, kwargs, spectrum) -> None:
    counters["roots.roots_found"] += spectrum.degree


def _count_table(counters, args, kwargs, result) -> None:
    _, n_max, mode = args[:3]
    rows = len(result.row_names) if hasattr(result, "row_names") else len(result)
    counters[f"moments.{mode}_cells"] += rows * (n_max + 1)


def _count_points(counters, args, kwargs, result) -> None:
    counters["asymptotics.points"] += len(result)


def _count_splits(counters, args, kwargs, stats) -> None:
    # exact integer sums: nodes for mary, partitioning stages for fbbst,
    # points that are not leaves for quadtrees
    n = args[1]
    if "L" in stats.names:
        total = n * stats.count - stats.mean_exact("L") * stats.count
    else:
        total = stats.mean_exact("S") * stats.count
    counters["treesim.splits"] += int(total)


def _count_draws(counters, args, kwargs, pool) -> None:
    counters["fixpoint.draws"] += len(pool.x) * pool.generation


def install(tracer: Tracer) -> None:
    """Wrap the public callables the benchmark workloads reach."""
    from logtrees import asymptotics, cli, fixpoint, moments, roots, treesim

    tracer.patch_function(cli, "main", "cli.main")
    tracer.patch_function(roots, "solve_spectrum", "roots.solve_spectrum", _count_spectrum)
    for attr in ("classify_regime", "quadtree_exponents", "amplitude", "theta"):
        tracer.patch_function(roots, attr, f"roots.{attr}")
    for attr in ("constants", "periodic", "c2_minus_phi_c1"):
        tracer.patch_function(asymptotics, attr, f"asymptotics.{attr}")
    tracer.patch_method(asymptotics.PeriodicFunction, "sample",
                        "asymptotics.PeriodicFunction.sample", _count_points)
    for attr in ("second_moment_tables", "mean_tables"):
        _patch_by_mode(tracer, moments, attr)
    tracer.patch_function(treesim, "monte_carlo", "treesim.monte_carlo", _count_splits)
    for attr in ("update_arrays", "merge", "to_dict"):
        tracer.patch_method(treesim.SimStats, attr, f"treesim.SimStats.{attr}")
    tracer.patch_function(fixpoint, "fixed_point_spec", "fixpoint.fixed_point_spec")
    tracer.patch_function(fixpoint, "iterate", "fixpoint.iterate", _count_draws)
    for attr in ("sample_spacings", "sample_median", "sample_volumes"):
        tracer.patch_function(fixpoint, attr, "fixpoint.split_sample")
    tracer.patch_function(fixpoint, "toll", "fixpoint.toll")
    tracer.patch_method(fixpoint.SamplePool, "moments", "fixpoint.SamplePool.moments")
    tracer.patch_function(fixpoint, "diagnose", "fixpoint.diagnose")


def _patch_by_mode(tracer: Tracer, module, attr: str) -> None:
    """Moment tables get a span named after their mode (exact or float)."""
    original = getattr(module, attr)
    spans = {mode: tracer.wrap(original, f"moments.{mode}", _count_table)
             for mode in ("exact", "float")}

    @functools.wraps(original)
    def by_mode(instance, n_max, mode="exact", *rest, **kwargs):
        return spans.get(mode, spans["exact"])(instance, n_max, mode, *rest, **kwargs)

    tracer.rebind(original, by_mode)


UNITS = {
    "roots.solve_s": "s", "roots.solve_calls": "count", "roots.roots_found": "count",
    "roots.roots_per_s": "1/s", "asymptotics.self_s": "s", "asymptotics.points": "count",
    "moments.exact_s": "s", "moments.exact_cells": "count", "moments.exact_cells_per_s": "1/s",
    "moments.float_s": "s", "moments.float_cells": "count", "moments.float_cells_per_s": "1/s",
    "treesim.mc_s": "s", "treesim.stats_s": "s", "treesim.splits": "count",
    "treesim.splits_per_s": "1/s", "treesim.thread_speedup": "ratio",
    "fixpoint.iterate_s": "s", "fixpoint.split_sample_s": "s", "fixpoint.toll_s": "s",
    "fixpoint.pool_moments_s": "s", "fixpoint.diagnose_s": "s", "fixpoint.draws": "count",
    "fixpoint.draws_per_s": "1/s", "cli.self_s": "s", "cli.bytes_out": "B",
    "trace.overhead_frac": "frac",
    # untraced time of each phase, median over the untraced passes
    "exact_s": "s", "float_s": "s", "mc_mary_s": "s", "mc_fbbst_s": "s",
    "mc_quadtree_s": "s", "spectrum_s": "s", "fixpoint_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from one traced pass (rates are 0 where no work ran)."""
    dur = tracer.durations()
    own = tracer.self_times()
    calls = tracer.calls()
    cnt = tracer.counters

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    asym = sum((v for k, v in own.items() if k.startswith("asymptotics.")), 0.0)
    out = {
        "roots.solve_s": dur["roots.solve_spectrum"],
        "roots.solve_calls": calls["roots.solve_spectrum"],
        "roots.roots_found": cnt["roots.roots_found"],
        "roots.roots_per_s": rate(cnt["roots.roots_found"], dur["roots.solve_spectrum"]),
        "asymptotics.self_s": asym,
        "asymptotics.points": cnt["asymptotics.points"],
    }
    for mode in ("exact", "float"):
        out[f"moments.{mode}_s"] = dur[f"moments.{mode}"]
        out[f"moments.{mode}_cells"] = cnt[f"moments.{mode}_cells"]
        out[f"moments.{mode}_cells_per_s"] = rate(cnt[f"moments.{mode}_cells"],
                                                  dur[f"moments.{mode}"])
    out.update({
        "treesim.mc_s": dur["treesim.monte_carlo"],
        "treesim.stats_s": sum((v for k, v in dur.items()
                                if k.startswith("treesim.SimStats.")), 0.0),
        "treesim.splits": cnt["treesim.splits"],
        "treesim.splits_per_s": rate(cnt["treesim.splits"], dur["treesim.monte_carlo"]),
        "fixpoint.iterate_s": own["fixpoint.iterate"],
        "fixpoint.split_sample_s": own["fixpoint.split_sample"],
        "fixpoint.toll_s": own["fixpoint.toll"],
        "fixpoint.pool_moments_s": own["fixpoint.SamplePool.moments"],
        "fixpoint.diagnose_s": own["fixpoint.diagnose"],
        "fixpoint.draws": cnt["fixpoint.draws"],
        "fixpoint.draws_per_s": rate(cnt["fixpoint.draws"], dur["fixpoint.iterate"]),
        "cli.self_s": own["cli.main"],
    })
    return out
