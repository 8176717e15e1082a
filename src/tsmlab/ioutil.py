"""Deterministic artifact serialization helpers.

All numeric output uses 17 significant digits with '.' as the decimal mark,
CSV rows are RFC-4180 style (CRLF, quoted only when needed), and JSON is
UTF-8 with sorted keys.  Rerunning a writer on identical data yields
byte-identical files; nothing here emits timestamps.  A writer makes its
file's directory first, so an output directory appears with its first
artifact and a run that fails before writing one leaves none behind.
"""

from __future__ import annotations

import csv
import json
import os


def fmt(x) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return "%.17g" % float(x)


def _create(path, **kwargs):
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", **kwargs)


def write_csv(path, header, rows):
    with _create(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))


def read_csv_columns(path) -> dict:
    """Read a numeric CSV back into {column_name: list[float]}."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        cols: dict = {n: [] for n in names}
        for row in reader:
            for n, v in zip(names, row):
                cols[n].append(float(v))
    return cols


def write_json(path, obj):
    with _create(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")

