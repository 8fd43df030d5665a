"""Deterministic JSON and CSV emission.

JSON output is byte-reproducible: keys sorted, floats rendered with 17
significant digits (full double precision), no timestamps or environment
data.  CSV follows RFC 4180 (CRLF line endings, minimal quoting).
"""
from __future__ import annotations

import csv
import json
from pathlib import Path


class _Float17(float):
    def __repr__(self):
        return format(float(self), ".17g")


def _convert(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return _Float17(obj)
    if isinstance(obj, dict):
        return {str(k): _convert(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_convert(v) for v in obj]
    raise TypeError(f"{type(obj).__name__} is not a JSON payload type")


def canonical_dumps(obj) -> str:
    return json.dumps(_convert(obj), sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, obj) -> Path:
    path = Path(path)
    path.write_text(canonical_dumps(obj), encoding="utf-8")
    return path


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])
    return path


def _csv_cell(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return v
