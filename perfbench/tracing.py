"""Spans around every public fractalfit function, installed from outside.

``from .x import f`` binds ``f`` in the importing module when it is
imported, so a wrapper must replace every module attribute that is the
original function: in the defining module and in each module that
imported it.  Nothing under ``src/`` changes, and nothing is wrapped until
a traced operation installs the tracer.

A span is ``[name, start, end, parent, op]``; spans stay in memory until
the run writes them out.  The arguments and results of a few calls are
kept, and counts are computed from them after the operation ends, so the
counting adds to no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("ifs_core", "collage_fit", "baseline_quadratic", "datasets", "analysis", "cli")
COUNTED = (
    "datasets.load_series_csv",
    "collage_fit.fit_d_discrete",
    "baseline_quadratic.fit_quadratic",
    "ifs_core.evaluate_fif",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._calls: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._default_depth = None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            index = len(self.spans)
            self.spans.append([name, start, None, self._stack[-1] if self._stack else None, self.op])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if name in COUNTED:
                self._calls.append((self.op, name, inspect.signature(fn).bind(*args, **kwargs), result))
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module("fractalfit")]
        modules += [importlib.import_module(f"fractalfit.{m}") for m in MODULES]
        wrappers = {}
        for module in modules[1:]:
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{module.__name__.split('.', 1)[1]}.{attr}", fn)
        self._default_depth = importlib.import_module("fractalfit.ifs_core").default_depth
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def records(self, op: int) -> tuple[dict, list]:
        """Counts of operation ``op``, and the (knots x, knots y, d, points,
        depth) of each evaluate_fif call, whose needed levels the caller
        counts."""
        counts: dict[str, int] = defaultdict(int)
        evals = []
        for call_op, name, bound, result in self._calls:
            if call_op != op:
                continue
            args = bound.arguments
            if name == "datasets.load_series_csv":
                counts[name + ".rows"] += result.m_count
                counts[name + ".bytes"] += os.path.getsize(args["path"])
            elif name == "collage_fit.fit_d_discrete":
                counts[name + ".segments"] += result.d.size
                counts[name + ".clamped"] += int(np.count_nonzero(result.clamped))
                counts[name + ".degenerate"] += int(np.count_nonzero(result.degenerate))
            elif name == "baseline_quadratic.fit_quadratic":
                counts[name + ".segments"] += result.curvature.size
                counts[name + ".chord_fallback"] += int(np.count_nonzero(result.chord_fallback))
            else:
                model = args["model"]
                depth = args.get("depth")
                if depth is None:
                    depth = self._default_depth(model)
                points = np.atleast_1d(np.asarray(args["x"], dtype=float))
                evals.append((model.knots.x, model.knots.y, model.d, points, int(depth)))
        return dict(counts), evals


def self_times(spans: list[list], op: int) -> dict[str, float]:
    """Total self time per span name in operation ``op``: each span's
    duration minus the time its children cover.  Spans come from one
    thread, so the children of a span never overlap."""
    covered: dict[int, float] = defaultdict(float)
    for name, start, end, parent, span_op in spans:
        if span_op == op and parent is not None:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, span_op) in enumerate(spans):
        if span_op == op:
            totals[name] += end - start - covered[index]
    return dict(totals)
