"""Deterministic JSON and CSV emission.

JSON output is byte-reproducible: keys sorted, floats in the shortest repr
that reads back exactly, no timestamps or environment data.  CSV follows
RFC 4180 (CRLF line endings, minimal quoting), floats at 17 digits.  Both
refuse a NaN or an infinity (``ValueError``), which JSON cannot hold.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: str | Path, text: str) -> Path:
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return path


def csv_dumps(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def _csv_cell(v):
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"{v} is not a finite CSV number")
        return format(v, ".17g")
    return v
