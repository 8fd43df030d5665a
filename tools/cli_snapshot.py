#!/usr/bin/env python3
"""Snapshot what the ptcontour CLI prints and writes, for a byte-level diff.

    PYTHONPATH=src python tools/cli_snapshot.py OUTDIR

runs every command in COMMANDS in-process through ``ptcontour.cli.main``,
with whatever ``ptcontour`` is first on ``sys.path``.  For each command it
writes ``OUTDIR/<name>/stdout``, ``OUTDIR/<name>/exit_code`` and the
command's ``--out`` tree under ``OUTDIR/<name>/out``.  An exception that
escapes ``main`` is recorded as exit code 1 with its type and message.
Snapshot two checkouts and compare them with ``diff -r OUTDIR_A OUTDIR_B``,
or summarize how they differ with

    python tools/cli_snapshot.py --compare OUTDIR_A OUTDIR_B

which prints the largest absolute change of each float field in the files
that differ, keyed by the payload's command and the field's path with list
indices dropped (such as ``spectrum:.eigenvalues[].re``), then lists every
other difference: strings such as ``method``, integers such as exit codes,
NaNs, list lengths, missing keys and files.  JSON files and JSON stdout are
compared field by field, CSV files cell by cell under their header, and any
other text token by token.  The exit code is 0 if the trees are
byte-identical and 1 otherwise.

    PYTHONPATH=src python tools/cli_snapshot.py --manifest FILE

snapshots into a temporary directory and writes FILE: the sha256 of every
file of the tree, the numpy, scipy and OpenBLAS versions that made it, and
the kernel (such as ``SkylakeX``) that each bundled OpenBLAS picked for the
CPU; ``OPENBLAS_CORETYPE`` overrides that pick, and other kernels round
differently.
``tests/test_cli_snapshot.py`` holds the CLI to the committed manifest.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import re
import sys
import tempfile
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


def digests(outdir: str | Path) -> dict[str, str]:
    """The sha256 of every file under a snapshot, keyed by relative path."""
    outdir = Path(outdir)
    return {p.relative_to(outdir).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


#: per package: its bundled OpenBLAS, as a glob under ``<package>.libs``,
#: and the symbol that names the kernel the library picked at load time
OPENBLAS_CORE = {
    "numpy": ("libscipy_openblas64_*.so", "scipy_openblas_get_corename64_"),
    "scipy": ("libscipy_openblas-*.so", "scipy_openblas_get_corename"),
}


def openblas_core(package) -> str | None:
    """The OpenBLAS kernel of an imported package's bundled library, or
    None if the package bundles no such library."""
    name = package.__name__
    pattern, symbol = OPENBLAS_CORE[name]
    libs = sorted((Path(package.__file__).parents[1] / f"{name}.libs")
                  .glob(pattern))
    if not libs:
        return None
    corename = getattr(ctypes.CDLL(str(libs[0])), symbol)
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def versions() -> dict[str, str | None]:
    """The numpy and scipy versions, the OpenBLAS each was built with, and
    the kernel each OpenBLAS runs."""
    import numpy
    import scipy
    import scipy.__config__
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            **{f"{mod.__name__.split('.')[0]}-openblas":
               mod.CONFIG["Build Dependencies"]["lapack"]["version"]
               for mod in (numpy.__config__, scipy.__config__)},
            **{f"{pkg.__name__}-openblas-core": openblas_core(pkg)
               for pkg in (numpy, scipy)}}


def manifest() -> dict:
    """The digests of a fresh snapshot of every command, and the versions."""
    with tempfile.TemporaryDirectory() as tmp:
        return {"versions": versions(), "files": digests(snapshot(tmp))}


_ABSENT = "<absent>"


def _scalar(token: str):
    """A text token as the number it spells, or the token itself."""
    if re.fullmatch(r"[+-]?\d+", token):
        return int(token)
    try:
        return float(token)
    except ValueError:
        return token


def _parsed(path: Path):
    """A snapshot file as (key prefix, nested dicts and lists of scalars)."""
    text = path.read_text()
    try:
        data = json.loads(text)
    except ValueError:
        pass
    else:
        if isinstance(data, dict) and "command" in data:
            return data["command"], data
        return path.name, data
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        return path.name, [{h: _scalar(c) for h, c in zip(rows[0], row)}
                           for row in rows[1:]]
    return path.name, [[_scalar(t) for t in line.split()]
                       for line in text.splitlines()]


def _diff(a, b, path, prefix, where, table, other):
    """Fold the float changes of a -> b into table, list the rest in other."""
    if isinstance(a, dict) and isinstance(b, dict):
        for name in sorted(a.keys() | b.keys()):
            _diff(a.get(name, _ABSENT), b.get(name, _ABSENT), f"{path}.{name}",
                  prefix, where, table, other)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, f"{path}[{i}]", prefix, where, table, other)
    elif (float in (type(a), type(b)) and {type(a), type(b)} <= {int, float}
          and not math.isnan(a - b)):
        key = f"{prefix}:" + re.sub(r"\[\d+\]", "[]", path)
        table[key] = max(table.get(key, 0.0), abs(a - b))
    elif isinstance(a, list) and isinstance(b, list):
        other.append(f"{where} {path}".rstrip()
                     + f": {len(a)} items -> {len(b)} items")
    elif type(a) is not type(b) or a != b:
        other.append(f"{where} {path}".rstrip() + f": {a!r} -> {b!r}")


def compare(dir_a: str | Path, dir_b: str | Path):
    """The largest change of each float field and the other differences."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    files = {p.relative_to(d) for d in (dir_a, dir_b)
             for p in d.rglob("*") if p.is_file()}
    table: dict[str, float] = {}
    other: list[str] = []
    for rel in sorted(files):
        a, b = dir_a / rel, dir_b / rel
        if not (a.exists() and b.exists()):
            other.append(f"{rel}: only in {dir_a if a.exists() else dir_b}")
        elif a.read_bytes() != b.read_bytes():
            (prefix, data_a), (_, data_b) = _parsed(a), _parsed(b)
            _diff(data_a, data_b, "", prefix, rel, table, other)
    return table, other


def _print_comparison(dir_a, dir_b) -> int:
    table, other = compare(dir_a, dir_b)
    if table:
        print("largest absolute change of each float field:")
        width = max(map(len, table))
        for key in sorted(table):
            print(f"  {key:<{width}}  {table[key]:.3g}")
    if other:
        print("other differences:")
        for line in other:
            print(f"  {line}")
    return 1 if table or other else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(_print_comparison(sys.argv[2], sys.argv[3]))
    if len(sys.argv) == 3 and sys.argv[1] == "--manifest":
        Path(sys.argv[2]).write_text(json.dumps(manifest(), indent=1) + "\n")
        sys.exit(0)
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    snapshot(sys.argv[1])
