"""Spans around calls into the package's public functions, from outside.

``Tracer.install`` replaces each traced function by a timing wrapper in
every module that bound it -- the defining module, the package namespace
and each caller that did ``from .x import f`` -- so calls the package makes
to itself are seen too.  ``restore`` puts the originals back.  Spans are
kept in memory as ``(id, parent, op, name, start, end)`` and written out
once the run ends; per-function counters are gathered at the same
boundaries.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: (module, function) pairs that are timed, named ``<module>.<function>``
TARGETS = (
    ("opalg", "hermitize"), ("metric", "metric_of"), ("isomap", "map_params"),
    ("spectral", "matrixize"), ("spectral", "eigensolve_hermitian"),
    ("spectral", "hermitian_eigenpairs"), ("spectral", "is_grid_artifact"),
    ("metric", "eigenbasis"), ("metric", "amplitude"),
    ("isomap", "push_wavefn"), ("isomap", "verify_isometry"),
    ("cli", "main"), ("jsonio", "write_json"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)
_SOLVE_SPANS = ("spectral.matrixize", "spectral.eigensolve_hermitian")
#: spans that have traced children, so their self time differs from their time
NESTING = ("op", "spectral.eigensolve_hermitian",
           "spectral.hermitian_eigenpairs", "metric.eigenbasis",
           "isomap.verify_isometry", "cli.main")


def _after_matrixize(counts, args, kwargs, result):
    counts["spectral.matrixize.nnz"] += int(np.count_nonzero(result))
    counts["spectral.matrixize.bytes"] += result.nbytes


def _after_is_grid_artifact(counts, args, kwargs, result):
    counts["spectral.is_grid_artifact.retained"] += not result


def _after_write_json(counts, args, kwargs, result):
    counts["jsonio.write_json.bytes"] += os.path.getsize(result)


def _before_amplitude(counts, args, kwargs):
    u, v, eta = args[:3]
    combined = [cu + cv + ce for cu, cv, ce
                in zip(u.exponent, v.exponent, eta.exponent_coeffs())]
    counts["metric.amplitude.cancelled"] += all(c == 0 for c in combined)


_BEFORE = {"metric.amplitude": _before_amplitude}
_AFTER = {"spectral.matrixize": _after_matrixize,
          "spectral.is_grid_artifact": _after_is_grid_artifact,
          "jsonio.write_json": _after_write_json}


class Tracer:
    """Records spans for one process; ops are opened by ``op(i)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._op_id: int | None = None
        self._patched: list[tuple] = []
        self._count_lock = threading.Lock()     # pool threads share counts

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, fn, args, kwargs):
        stack = self._stack()
        # a pool thread has no open span; its cause is the op thread's
        parent = stack[-1] if stack else (
            self._op_stack[-1] if self._op_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self._op_id, name, start, end))

    def _wrap(self, name: str, fn):
        before, after = _BEFORE.get(name), _AFTER.get(name)

        def wrapper(*args, **kwargs):
            if before:
                with self._count_lock:
                    before(self.counts, args, kwargs)
            result = self._record(name, fn, args, kwargs)
            if after:
                with self._count_lock:
                    after(self.counts, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target wherever the package or a caller bound it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "ptcontour" or name.startswith("ptcontour.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"ptcontour.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def op(self, i: int):
        """One op: the root span of everything called inside it."""
        self._op_id = i
        self._op_stack = self._stack()
        span_id = next(self._ids)
        self._op_stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._op_stack.pop()
            self.spans.append((span_id, None, i, "op", start, end))
            self._op_id = None

    def write(self, path):
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def summary(self) -> dict:
        """Per-op inclusive time, self time and calls of each span name."""
        children = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append((span[4], span[5]))
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        per_op = defaultdict(lambda: defaultdict(float))
        for span_id, _, op, name, start, end in self.spans:
            covered = _covered(children.get(span_id, ()), start, end)
            inclusive[name] += end - start
            self_time[name] += end - start - covered
            calls[name] += 1
            if name in _SOLVE_SPANS:
                per_op[op]["busy"] += end - start
            elif name == "cli.main":
                per_op[op]["main"] += end - start
        n_ops = max(calls["op"], 1)
        out = {}
        for name in ("op",) + SPAN_NAMES:
            out[f"{name}.ms"] = 1e3 * inclusive[name] / n_ops
            if name in NESTING:
                out[f"{name}.self_ms"] = 1e3 * self_time[name] / n_ops
            if name != "op":
                out[f"{name}.calls"] = calls[name] / n_ops
        overlaps = [o["busy"] / o["main"] for o in per_op.values()
                    if o["main"] > 0]
        out["cli.sweep_overlap"] = (sum(overlaps) / len(overlaps)
                                    if overlaps else 0.0)
        c = self.counts
        n_mat = calls["spectral.matrixize"]
        out["spectral.matrixize.nnz"] = c["spectral.matrixize.nnz"] / max(n_mat, 1)
        out["spectral.matrixize.mb"] = (c["spectral.matrixize.bytes"] / 1e6
                                        / max(n_mat, 1))
        out["spectral.retained_ratio"] = (
            c["spectral.is_grid_artifact.retained"]
            / max(calls["spectral.is_grid_artifact"], 1))
        out["metric.amplitude.cancelled_ratio"] = (
            c["metric.amplitude.cancelled"] / max(calls["metric.amplitude"], 1))
        out["jsonio.write_json.bytes"] = c["jsonio.write_json.bytes"] / n_ops
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
