"""One benchmark process: set up a workload, then run its ops in a closed loop.

``run.py`` starts this file in a fresh interpreter, in one of three modes:

    worker.py --root R --workload W --seed N --workdir D --setup-only
    worker.py --root R --workload W --seed N --seconds T --trace 0|1 --workdir D
    worker.py --root R --import-times

Each mode prints one JSON line.  ``ready_at`` is ``time.monotonic()`` once
``ptcontour`` and ``ptcontour.cli`` are imported and the inputs exist; the
monotonic clock is shared by all processes, so the parent turns it into a
set-up time.  The timed phase runs whole op cycles (one client, closed loop)
until ``T`` seconds have passed; with ``--trace 1`` it is split into an
untraced half and a traced half.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import sys
import time
import types
from pathlib import Path

#: package modules in dependency order, for incremental import times
IMPORT_ORDER = ("rational", "opalg", "spectral", "metric", "isomap", "cli")
#: thread settings of the BLAS and OpenMP runtimes, recorded as found
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def import_times(root: Path) -> dict:
    """Incremental import time of each module, package ``__init__`` skipped.

    ``import ptcontour.x`` would first run the package ``__init__``, which
    imports every module; an empty package object takes its place so each
    module pays only for what it adds.
    """
    pkg = types.ModuleType("ptcontour")
    pkg.__path__ = [str(root / "src" / "ptcontour")]
    sys.modules["ptcontour"] = pkg
    out = {}
    for name in IMPORT_ORDER:
        start = time.perf_counter()
        importlib.import_module(f"ptcontour.{name}")
        out[name] = time.perf_counter() - start
    return out


def context_facts() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def one_op(wl, i: int, tracer) -> dict:
    """Run op i; a raised error or a failed check is a failed op, still timed."""
    scope = tracer.op(i) if tracer else contextlib.nullcontext()
    error = None
    start = time.perf_counter()
    try:
        with scope:
            result = wl.call(i)
    except Exception as exc:        # the loop must go on; the failure is kept
        elapsed = time.perf_counter() - start
        return {"i": i, "s": elapsed, "ok": False, "acc": None,
                "error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    try:
        ok, acc = wl.check(i, result)
    except Exception as exc:
        ok, acc, error = False, None, f"check {type(exc).__name__}: {exc}"
    return {"i": i, "s": elapsed, "ok": bool(ok), "acc": acc, "error": error}


def run_phase(wl, seconds: float, tracer=None) -> dict:
    """Whole cycles of ops until ``seconds`` of wall time have passed."""
    ops = []
    cpu0, start = os.times(), time.perf_counter()
    while True:
        for _ in range(wl.cycle):
            ops.append(one_op(wl, len(ops), tracer))
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    cpu1 = os.times()
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return {"ops": ops, "wall_s": wall, "cpu_s": cpu}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--import-times", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.root / "src"))

    if args.import_times:
        print(json.dumps({"import_s": import_times(args.root)}))
        return 0

    import ptcontour            # noqa: F401  (what a CLI user pays)
    import ptcontour.cli        # noqa: F401
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    warmup = one_op(wl, 0, None)
    phases = {}
    if args.trace:
        import spans
        half = args.seconds / 2
        phases["untraced"] = run_phase(wl, half)
        tracer = spans.Tracer()
        tracer.install()
        try:
            phases["traced"] = run_phase(wl, half, tracer)
        finally:
            tracer.restore()
        tracer.write(args.workdir / "spans.jsonl")
        trace_summary = tracer.summary()
    else:
        phases["untraced"] = run_phase(wl, args.seconds)
        trace_summary = None
    print(json.dumps({
        "ready_at": ready_at,
        "warmup": warmup,
        "phases": phases,
        "trace": trace_summary,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "inputs": wl.describe(),
        "context": context_facts(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
