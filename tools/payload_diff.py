"""Compare two trees of CLI output, file by file.

    python3 tools/payload_diff.py A B

Every file under A and B is matched by its path relative to the tree's
root.  A ``manifest.json`` is compared without its top-level
``timestamp``.  Prints "identical" and exits 0 when every file matches;
otherwise prints one line per file that differs and exits 1:

  only in A / only in B       a file one tree lacks;
  max |change| X at P (a -> b)  a CSV or JSON file whose numbers differ,
                              X the largest absolute change, at cell or
                              key path P;
  differs: ...                any other difference (a string, a shape, a
                              file that is not CSV or JSON).
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _number(x):
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def _walk(a, b, path: str, out: list) -> None:
    """Append (|change|, path, a, b) per differing number, and
    (None, path, a, b) per other difference."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            out.append((None, path or "/", sorted(a), sorted(b)))
            return
        for k in a:
            _walk(a[k], b[k], f"{path}/{k}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append((None, path or "/", f"{len(a)} items", f"{len(b)} items"))
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", out)
    elif a != b:
        x, y = _number(a), _number(b)
        out.append((abs(x - y) if x is not None and y is not None else None, path, a, b))


def _load(path: Path):
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        if path.name == "manifest.json" and isinstance(data, dict):
            data.pop("timestamp", None)
        return data
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            return list(csv.reader(fh))
    return None


def compare(a: Path, b: Path) -> list[str]:
    """One line per file that differs between trees a and b."""
    fa, fb = _files(a), _files(b)
    lines = [f"only in A: {p}" for p in sorted(fa - fb)]
    lines += [f"only in B: {p}" for p in sorted(fb - fa)]
    for rel in sorted(fa & fb):
        pa, pb = a / rel, b / rel
        if pa.read_bytes() == pb.read_bytes():
            continue
        da, db = _load(pa), _load(pb)
        if da is None:
            lines.append(f"{rel}: differs: bytes")
            continue
        diffs = []
        _walk(da, db, "", diffs)
        other = [d for d in diffs if d[0] is None]
        if other:
            _, where, x, y = other[0]
            lines.append(f"{rel}: differs: {where} ({x!r} -> {y!r})")
        elif diffs:
            change, where, x, y = max(diffs, key=lambda d: d[0])
            lines.append(f"{rel}: max |change| {change:.3g} at {where} ({x} -> {y})")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    lines = compare(Path(args[0]), Path(args[1]))
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
