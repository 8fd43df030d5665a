#!/usr/bin/env python3
"""Snapshot what the ptcontour CLI prints and writes, for a byte-level diff.

    PYTHONPATH=src python tools/cli_snapshot.py OUTDIR

runs every command in COMMANDS in-process through ``ptcontour.cli.main``,
with whatever ``ptcontour`` is first on ``sys.path``.  For each command it
writes ``OUTDIR/<name>/stdout``, ``OUTDIR/<name>/exit_code`` and the
command's ``--out`` tree under ``OUTDIR/<name>/out``.  An exception that
escapes ``main`` is recorded as exit code 1 with its type and message.
Snapshot two checkouts and compare them with ``diff -r OUTDIR_A OUTDIR_B``.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

CATALOG = ("-2i,1,1", "i,1,1", "1,1,1", "1,0,1", "-2i,5,1")

SWEEP_INI = ("[reference]\na = -2i\nb = 1\nc = 1\n\n"
             "[adjacent]\na = 1\nb = 1\nc = 1\nlevels = 3\n")


def _wedges(a, b, c, *extra):
    return ["wedges", "--a", a, "--b", b, "--c", c, *extra]


COMMANDS: dict[str, list[str]] = {
    "algebra-verify": ["algebra-verify"],
    "spectrum-lower": ["spectrum", "--a", "-2i", "--b", "5", "--c", "1"],
    "spectrum-upper-12": ["spectrum", "--a", "i", "--b", "1", "--c", "1",
                          "--levels", "12", "--grid-n", "801"],
    **{f"iso-check-{i}-{j}": ["iso-check", "--src", src, "--dst", dst,
                              "-k", "6"]
       for i, src in enumerate(CATALOG)
       for j, dst in enumerate(("-2i,1,1", "1,1,1", "1,0,1"))},
    "iso-check-adjacent-12": ["iso-check", "--src", "1,1,1",
                              "--dst", "-2i,1,1", "-k", "12"],
    "wedges-adjacent": _wedges("1", "1", "1"),
    "wedges-lower": _wedges("-2i", "1", "1", "--branch", "lower"),
    "wedges-sqrt-ix-upper": _wedges("1", "0", "1", "--branch", "upper"),
    # real roots at the first sample, or a cross-check sample at |x| ~ |b/c|
    "wedges-far-b": _wedges("1", "1+100000000i", "1"),
    "wedges-far-b-upper": _wedges("1", "1+100000000i", "1",
                                  "--branch", "upper"),
    "wedges-b50-upper": _wedges("1", "1+50i", "1", "--branch", "upper"),
    "wedges-b6-upper": _wedges("1", "1+6i", "1", "--branch", "upper"),
    "wkb-adjacent": ["wkb", "--tag", "adjacent"],
    "hermite-demo": ["hermite-demo"],
    "sweep": ["sweep", "--config", "{outdir}/sweep.ini", "--levels", "2",
              "--grid-n", "801"],
    "spectrum-invalid": ["spectrum", "--a", "1+i", "--b", "1", "--c", "1"],
}


def snapshot(outdir: str | Path, names=None) -> Path:
    """Run the named commands (all by default) and record them in outdir."""
    from ptcontour.cli import main
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sweep.ini").write_text(SWEEP_INI)
    for name in names or COMMANDS:
        cmd_dir = outdir / name
        cmd_dir.mkdir()
        argv = [arg.format(outdir=outdir) for arg in COMMANDS[name]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = main([*argv, "--out", str(cmd_dir / "out")])
            except Exception as exc:
                # type and message only: a traceback's paths differ by checkout
                code = 1
                print(f"{type(exc).__name__}: {exc}")
        (cmd_dir / "stdout").write_text(buf.getvalue())
        (cmd_dir / "exit_code").write_text(f"{code}\n")
    return outdir


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    snapshot(sys.argv[1])
