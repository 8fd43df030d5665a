"""Deterministic JSON and CSV emission.

JSON output is byte-reproducible: keys sorted, floats in the shortest repr
that reads back exactly, no timestamps or environment data.  CSV follows
RFC 4180 (CRLF line endings, minimal quoting), floats at 17 digits.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
