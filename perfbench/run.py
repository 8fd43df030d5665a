"""ptcontour benchmark: one seeded workload, timed end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 10 --trace 0

Workloads are ``spectra``, ``isometry`` and ``sweep`` (see ``workloads.py``).
Set-up time is the median over three fresh interpreters, from process start
to inputs ready.  The workload then runs in its own fresh process
(``worker.py``), one client in a closed loop, and every op is checked against
the package's own gates.  ``--trace 1`` instead reports the
per-layer metrics: incremental import times from fresh interpreters, and
spans around the package's public functions over the traced half of the run.

The last line of standard output is the JSON result; the line before it
holds the run's context facts and the figures that are not gated, among them
the percentile and sample count behind ``op_tail_ms``.  The full
record, with every op's inputs and latency, goes to
``.perfbench_runs/<workload>-seed<seed>-trace<0|1>/record.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("spectra", "isometry", "sweep")
SETUP_SAMPLES = 3            # fresh interpreters per run, the main one included
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0           # the whole run, set-up included
TAIL_BEYOND = 10             # samples that must lie beyond the tail percentile


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; (start, its JSON line)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), "--root", str(ROOT),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - start, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, as (value, pct).

    Below 2*TAIL_BEYOND+1 samples that percentile would sit under the median,
    so the maximum is reported instead, as percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return xs[-1], 100.0
    j = n - 1 - TAIL_BEYOND
    return xs[j], 100.0 * (j + 1) / n


def _max_acc(ops) -> float:
    accs = [op["acc"] for op in ops if op["acc"] is not None]
    return max(accs, default=0.0)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ptcontour" / "__init__.py").is_file():
        print(f"error: no ptcontour sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = (ROOT / ".perfbench_runs"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)]

    setup, imports = [], []
    if args.trace:
        imports = [_worker(["--import-times"], deadline)[1]["import_s"]
                   for _ in range(IMPORT_SAMPLES)]
    else:
        for _ in range(SETUP_SAMPLES - 1):
            start, out = _worker(common + ["--setup-only"], deadline)
            setup.append(out["ready_at"] - start)
    start, run = _worker(common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], deadline)
    setup.append(run["ready_at"] - start)

    phase = run["phases"]["untraced"]
    all_ops = [run["warmup"]] + [op for p in run["phases"].values()
                                 for op in p["ops"]]
    attempted = len(all_ops)
    failed = sum(not op["ok"] for op in all_ops)
    latencies_ms = [1e3 * op["s"] for op in phase["ops"]]
    ops_per_s = len(phase["ops"]) / phase["wall_s"]
    tail_ms, tail_pct = _tail(latencies_ms)
    accuracy = {"spectrum_max_rel_err": None, "amplitude_max_dev": None}
    acc_key = {"spectra": "spectrum_max_rel_err", "sweep": "spectrum_max_rel_err",
               "isometry": "amplitude_max_dev"}.get(args.workload)
    if acc_key:
        accuracy[acc_key] = _max_acc(all_ops)

    if args.trace:
        traced = run["phases"]["traced"]
        metrics = {f"import.{m}_s": statistics.median(s[m] for s in imports)
                   for m in imports[0]}
        metrics.update(run["trace"])
        metrics["proc.cpu_per_wall"] = phase["cpu_s"] / phase["wall_s"]
        metrics["trace.overhead_ratio"] = (
            len(traced["ops"]) / traced["wall_s"] / ops_per_s)
        metrics["check.spectrum_max_rel_err"] = (
            accuracy["spectrum_max_rel_err"] or 0.0)
        metrics["check.amplitude_max_dev"] = accuracy["amplitude_max_dev"] or 0.0
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(latencies_ms),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        }

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree "
              "with BENCHMARK.json", file=sys.stderr)
        return 1
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_ratio": failed / attempted,
        "op_tail_percentile": tail_pct,
        "op_samples": len(latencies_ms),
        **accuracy,
        "setup_samples_s": setup,
        "errors": [op["error"] for op in all_ops if op["error"]][:5],
        "context": {**run["context"], "git_commit": _git_commit(),
                    "src_lines": _src_lines()},
    }
    record = {**details, "metrics": metrics, "inputs": run["inputs"],
              "ops": all_ops, "record_version": 1}
    record_path = workdir / "record.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({**details, "record": str(record_path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
