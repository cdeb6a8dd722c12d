"""Span tracing of magnetovar from the outside, by wrapping module attributes.

Every public function of the package is replaced, in every module that
binds it, by one wrapper that records a span named ``<home>.<function>``,
where ``<home>`` is the module that defines the function.  Callers look
functions up in their own module's namespace at call time, so wrapping
``curl`` in ``operators``, ``magnetostatics`` and ``minimize`` catches every
call to it.  ``poisson.sfft`` is swapped for a proxy that records the four
transforms the Poisson solvers use.

Spans are kept in memory as (name, start, end, parent) and written out by
the benchmark when it ends.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
import types
from collections import defaultdict

MODULES = ("grid", "operators", "poisson", "magnetostatics", "energy", "minimize",
           "testfields", "shell", "io", "cli")

# Private functions worth a span: each minimize_joint sweep starts with one a-step.
PRIVATE = {"minimize._a_step"}

TRANSFORMS = ("dstn", "idstn", "dctn", "idctn")


def _iterations(result):
    return {"iters": result.iterations}


def _pcg_iterations(result):
    return {"iters": result[2]}


def _report(result):
    report = result[-1]
    return {"iters": report.iterations, "grad_norm": report.final_grad_norm}


def _mask_cells(result):
    return {"cells": result.grid.n_cells, "inside": result.cell_count}


# Values read off a result, keyed by span name.
OBSERVE = {
    "poisson.solve_poisson": _pcg_iterations,
    "poisson.solve_poisson_neumann": _pcg_iterations,
    "magnetostatics.solve_scalar_potential": _iterations,
    "magnetostatics.solve_vector_potential_gauged": _iterations,
    "magnetostatics.solve_vector_potential_unconstrained": _iterations,
    "minimize.minimize_m": _report,
    "minimize.minimize_joint": _report,
    "grid.build_mask": _mask_cells,
}

# Writers whose first argument is the path they write.
WRITERS = ("io.write_csv", "io.write_legacy_vector_dump")


class Tracer:
    """In-memory span recorder; ``spans`` holds [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, attrs=None):
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = attrs
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        observe = OBSERVE.get(name)
        writer = name in WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    attrs = observe(result)
                elif writer:
                    attrs = {"bytes": os.path.getsize(args[0])}
                return result
            finally:
                self.end(index, attrs)
        return traced

    def install(self):
        """Wrap the package's functions and swap in the counting transform proxy."""
        modules = {name: importlib.import_module(f"magnetovar.{name}") for name in MODULES}
        modules["magnetovar"] = importlib.import_module("magnetovar")
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith("magnetovar.")):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if obj.__name__.startswith("_") and name not in PRIVATE:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(name, obj)
                setattr(mod, attr, wrapped[obj])
        poisson = modules["poisson"]
        poisson.sfft = _CountingFFT(poisson.sfft, self)

    def write(self, path):
        """One tab-separated line per span: index, parent, name, start, end."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


class _CountingFFT:
    """Stands in for ``scipy.fft`` inside ``poisson``; spans the transforms."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        for name in TRANSFORMS:
            setattr(self, name, tracer.wrap(f"poisson.sfft.{name}", getattr(real, name)))

    def __getattr__(self, name):
        return getattr(self._real, name)


def summarize(spans, first: int = 0):
    """Totals per span name and self time per layer for spans[first:].

    A layer is the first dotted part of a span name.  Self time is a span's
    duration minus the time its direct children cover.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(list)
    child_time = defaultdict(float)
    for name, start, end, parent, extra in spans[first:]:
        if parent >= first:
            child_time[parent] += end - start
    layer_self = defaultdict(float)
    for i, (name, start, end, parent, extra) in enumerate(spans[first:], start=first):
        duration = end - start
        total[name] += duration
        calls[name] += 1
        if extra:
            attrs[name].append(extra)
        layer_self[name.split(".", 1)[0]] += duration - child_time[i]
    return total, calls, attrs, layer_self
