"""Span tracing of the trapwalk layers, installed from the benchmark's side.

Only the traced child process installs it.  Every public function of the
layer modules (and every public method of their public classes) is replaced
by a timing wrapper, and the replacement is rebound in each trapwalk module
that imported the same object by name: ``require_unitary``, for one, is a
global of ``classify``, ``spectral``, ``laurent`` and ``walk``.

Spans are kept in memory as flat arrays (name, parent, start, end) and
reduced when the run ends: a span's self time is its duration minus the
durations of its direct child spans.  Time spent in private helpers and in
numpy is part of the self time of the public function that called it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("linalg", "coins", "laurent", "classify", "spectral", "walk", "cli")


def _step_probe(state, coin):
    """Computed (not measured) bytes of one step and the output occupancy.

    A step reads the (4, n, n) field, writes the mixed (4, n, n) field and
    the (4, n+2, n+2) output, all complex128.  At output time t the window
    is (2t+3)^2 sites of which (t+1)^2 can be nonzero.
    """
    n = state.field.shape[1]
    t_out = state.t + 1
    return {
        "walk.step.bytes_computed": 16 * 4 * (2 * n * n + (n + 2) ** 2),
        "walk.step.occupied_frac": ((t_out + 1) / (2 * t_out + 3)) ** 2,
    }


def _csv_probe(path, snapshot, floor=0.0):
    """Rows of a distribution CSV written without a floor (as every workload does)."""
    return {"walk.write_distribution_csv.rows": snapshot.prob.size}


# Counters derived from a call's arguments, outside its span.  Values named
# in MAX_COUNTERS keep their largest reading; the others are summed.
PROBES = {"walk.step": _step_probe, "walk.write_distribution_csv": _csv_probe}
MAX_COUNTERS = {"walk.step.occupied_frac"}


class Tracer:
    """Records one span per call of a wrapped function while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if probe is not None:
                self._count(probe(*args, **kwargs))
            span = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1])
            self.span_end.append(0.0)
            self._stack.append(span)
            self.span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[span] = clock()
                self._stack.pop()

        return traced

    def _count(self, values: dict):
        for key, value in values.items():
            if key in MAX_COUNTERS:
                self.counters[key] = max(self.counters.get(key, 0.0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    def install(self):
        """Wrap the public callables of every layer module and rebind them."""
        modules = {layer: sys.modules[f"trapwalk.{layer}"] for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("trapwalk"):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, attr, replaced[id(obj)])

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per wrapped name, from the recorded spans."""
        names = np.array(self.span_name, dtype=np.int64)
        parents = np.array(self.span_parent, dtype=np.int64)
        duration = np.asarray(self.span_end) - np.asarray(self.span_start)
        covered = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        self_time = duration - covered
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}
