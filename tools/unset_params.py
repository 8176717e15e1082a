"""Defaulted parameters of the library that no call sets.

    python3 tools/unset_params.py [REPO]        (default: the current directory)

Every function and method defined at module or class level in
``REPO/src/tsmlab`` is read, and each of its parameters with a default is
looked for among the calls in ``src/``, ``tests/`` and ``bench/``.  A class
decorated with ``dataclass`` counts as the ``__init__`` it generates: its
annotated fields, in order, are the parameters, those with a default (or
``default_factory``) the defaulted ones, and a ``field(init=False)`` is
none.  A call is matched by name alone (``f(..)``, ``obj.f(..)``; a class
name stands for its ``__init__``), so two functions of one name share their
callers.  A call sets a parameter when it names it as a keyword, when it
passes enough positional arguments to reach it (a method's first
parameter, ``self`` or ``cls``, is not counted), or when it passes
``*args`` or ``**kwargs``, which count as setting every parameter.

The parameters no call sets are printed as ``module.qualname.parameter``.
Those in ``KEPT`` are printed with the reason they stay; any other makes
the exit status 1.  So does a stale ``KEPT`` entry, one that names a
parameter which no longer exists or which a call now sets: it is printed
and should be dropped.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KEPT = {
    "injectivity_lab.assemble_operator.euclid_points":
        "read by name and through inspect.signature by the benchmark's span counters",
    "fields.SampledField.to_csv.header_path": "file paths stay configurable",
    "fields.SampledField.from_csv.header_path": "file paths stay configurable",
}

CALLER_DIRS = ("src", "tests", "bench")


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> tuple[list[str], set[str]]:
    """(positional parameter names after self/cls, defaulted parameter names)."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaulted = set(positional[len(positional) - len(a.defaults):])
    defaulted |= {p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
    return (positional[1:] if is_method else positional), defaulted


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> tuple[list[str], set[str]]:
    """(``__init__`` parameter names, defaulted names) of a dataclass."""
    positional, defaulted = [], set()
    for st in node.body:
        if not (isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)):
            continue
        has_default = st.value is not None
        if (isinstance(st.value, ast.Call)
                and getattr(st.value.func, "id", getattr(st.value.func, "attr", None)) == "field"):
            kw = {k.arg: k.value for k in st.value.keywords}
            if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
                continue
            has_default = "default" in kw or "default_factory" in kw
        positional.append(st.target.id)
        if has_default:
            defaulted.add(st.target.id)
    return positional, defaulted


def definitions(package: Path) -> list[tuple]:
    """(qualified name, call name, positional names, defaulted names) per
    function and method of the package."""
    out = []
    for path in sorted(package.rglob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{module}.{node.name}", node.name, *_defaulted(node, False)))
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    out.append((f"{module}.{node.name}.__init__", node.name,
                                *_dataclass_fields(node)))
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        call = node.name if fn.name == "__init__" else fn.name
                        out.append((f"{module}.{node.name}.{fn.name}", call,
                                    *_defaulted(fn, True)))
    return out


def calls(repo: Path) -> dict[str, list[ast.Call]]:
    """Every call under the caller directories, keyed by the called name."""
    out: dict[str, list[ast.Call]] = {}
    for sub in CALLER_DIRS:
        for path in sorted((repo / sub).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name is not None:
                        out.setdefault(name, []).append(node)
    return out


def _sets(call: ast.Call, positional: list[str], name: str) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return name in positional[:len(call.args)]


def unset(repo: Path) -> list[str]:
    """Qualified names of the defaulted parameters that no call sets."""
    by_name = calls(repo)
    out = []
    for qual, call_name, positional, defaulted in definitions(repo / "src" / "tsmlab"):
        for name in sorted(defaulted):
            if not any(_sets(c, positional, name) for c in by_name.get(call_name, [])):
                out.append(f"{qual}.{name}")
    return out


def main(argv: list[str]) -> int:
    repo = Path(argv[0]) if argv else Path(".")
    if not (repo / "src" / "tsmlab").is_dir():
        print(f"no src/tsmlab under {repo}", file=sys.stderr)
        return 2
    found = unset(repo)
    extra = [q for q in found if q not in KEPT]
    stale = [q for q in KEPT if q not in found]
    for q in found:
        print(f"{q}  (kept: {KEPT[q]})" if q in KEPT else q)
    for q in stale:
        print(f"{q}  (stale KEPT entry: no such parameter, or a call sets it)")
    print(f"{len(found)} unset, {len(found) - len(extra)} kept, {len(extra)} to remove, "
          f"{len(stale)} stale")
    return 1 if extra or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
