#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a parent revision against a change.

    python tools/bench_pairs.py --parent REV --workload isometry --pairs 10

exports the parent revision with ``git archive`` into a temporary directory
and runs ``perfbench/run.py`` there and in this checkout (the change, with
its uncommitted edits), ``--pairs`` times each, every run for
``run_seconds`` of ``BENCHMARK.json``, the benchmark's own length.  Pair i
runs the parent first when i is even and the change first when i is odd.

For every end-to-end metric that ``BENCHMARK.json`` declares, the report
lists each pair's two values and its winner, in the direction the metric's
``better`` gives (a tie wins for neither side), then each side's median and
quartiles, the parent's interquartile range, the share of pairs the change
wins and whether the change clears both bars of a claimed gain: it wins at
least nine pairs in ten, and its median beats the parent's by more than the
parent's interquartile range.  Failed operations are counted per side.
Each run's op-latency p10 and p90 come from the ``record.json`` that
``run.py`` names; a run whose p90/p10 exceeds 1.3 is marked, since a
machine that changes speed inside a run spreads its latencies that way
and can make short pairs read a different gain than long ones.
The export is removed afterwards; nothing under ``perfbench/`` is changed,
though each run leaves its record under its side's ``.perfbench_runs/``.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
SPREAD_MARK = 1.3           # p90/p10 of op latency above which a run is marked


def export(rev: str, dest: Path) -> Path:
    """The files of ``rev`` unpacked under ``dest``, without touching the
    repository's work tree or its list of worktrees."""
    proc = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **safe)
    if proc.wait():
        raise SystemExit(f"git archive {rev} exited {proc.returncode}")
    return dest


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its last JSON line, with
    the p10 and p90 of its op latencies (ms, warm-up op excluded) from the
    record that the line before names, as ``latency_p10_p90``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{root}: perfbench/run.py exited {proc.returncode}"
                         f"\n{proc.stderr[-2000:]}")
    *_, details, result = proc.stdout.strip().splitlines()
    record = json.loads(
        (root / json.loads(details)["record"]).read_text("utf-8"))
    latencies = [1e3 * op["s"] for op in record["ops"][1:]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive") \
        if len(latencies) > 1 else latencies
    return {**json.loads(result), "latency_p10_p90": (deciles[0], deciles[-1])}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, runs: dict[str, list[dict]], declared: list[dict],
           first: list[str]) -> None:
    """Print the pairs, medians, parent IQR and win share of each metric."""
    print(f"== {workload}: {len(first)} pairs")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"   {side}: {failed} of {attempted} ops failed")
    print(f"-- op latency p10 / p90 per run (ms; * marks p90/p10 > "
          f"{SPREAD_MARK})")
    for i, side_first in enumerate(first):
        cells = []
        for side in ("parent", "change"):
            p10, p90 = runs[side][i]["latency_p10_p90"]
            mark = "*" if p90 > SPREAD_MARK * p10 else " "
            cells.append(f"{side} {p10:.4g} / {p90:.4g}{mark}")
        print(f"   pair {i:2d} ({side_first} first): {'  '.join(cells)}")
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        par = [r["metrics"][name]["value"] for r in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"]]
        print(f"-- {name} ({metric['unit']}, {metric['better']} is better)")
        wins = ties = 0
        for i, (p, c) in enumerate(zip(par, chg)):
            if p == c:
                ties, who = ties + 1, "tie"
            elif (c > p) == higher:
                wins, who = wins + 1, "change"
            else:
                who = "parent"
            print(f"   pair {i:2d} ({first[i]} first): parent {p:.4g}  "
                  f"change {c:.4g}  -> {who}")
        pq, cq = quartiles(par), quartiles(chg)
        iqr = pq[2] - pq[0]
        gain = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
        share = wins / len(par)
        print(f"   parent median {pq[1]:.4g} (quartiles {pq[0]:.4g} - "
              f"{pq[2]:.4g}, IQR {iqr:.4g});  change median {cq[1]:.4g} "
              f"(quartiles {cq[0]:.4g} - {cq[2]:.4g})")
        print(f"   change wins {wins} of {len(par)} pairs ({share:.0%}), "
              f"{ties} ties; median gain {gain:+.4g} "
              f"({gain / pq[1]:+.1%} of the parent's)")
        print(f"   clears a claimed gain: "
              f"{share >= WIN_SHARE and gain > iqr}")


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision to compare to")
    ap.add_argument("--workload", action="append", required=True,
                    choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    seconds = float(declared["run_seconds"])
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        roots = {"parent": export(args.parent, Path(tmp) / "parent"),
                 "change": ROOT}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            first = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else (
                    "change", "parent")
                first.append(order[0])
                for side in order:
                    runs[side].append(run_once(roots[side], workload,
                                               args.seed, seconds))
                print(f"   {workload} pair {i} done", file=sys.stderr)
            report(workload, runs, declared["end_to_end"], first)
    return 0


if __name__ == "__main__":
    sys.exit(main())
