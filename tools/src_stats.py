"""Line and parameter counts of a Python source tree.

    python3 tools/src_stats.py [ROOT]        (default: src/tsmlab)

Every ``*.py`` file under ROOT is read.  Each line is counted once:

  docstring      a line of a module, class or function docstring;
  comment/blank  a blank line or a line holding only a comment;
  code           every other line.

Settable values are every function and method parameter (positional,
keyword-only, ``*args`` and ``**kwargs``; nested functions included)
except ``self`` and ``cls``, plus every annotated field of a class
decorated with ``dataclass`` other than a ``field(init=False)``, which no
caller can set.  Lambdas are not counted.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def _code_lines(source: str) -> set[int]:
    """Lines holding a token other than a comment or a line break."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _init_false(st: ast.AnnAssign) -> bool:
    """A ``field(init=False)``: no caller can set it."""
    v = st.value
    return (isinstance(v, ast.Call)
            and getattr(v.func, "id", getattr(v.func, "attr", None)) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in v.keywords))


def _settable(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            count += sum(1 for n in names if n not in ("self", "cls"))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(1 for s in node.body
                         if isinstance(s, ast.AnnAssign) and not _init_false(s))
    return count


def stats(root: Path) -> dict:
    out = {"files": 0, "code": 0, "docstring": 0, "comment_blank": 0, "settable": 0}
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        docs = _docstring_lines(tree)
        code = _code_lines(source) - docs
        total = len(source.splitlines())
        out["files"] += 1
        out["docstring"] += len(docs)
        out["code"] += len(code)
        out["comment_blank"] += total - len(docs) - len(code)
        out["settable"] += _settable(tree)
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/tsmlab")
    if not root.is_dir():
        print(f"no directory {root}", file=sys.stderr)
        return 2
    s = stats(root)
    print(f"{root}: {s['files']} files, {s['code'] + s['docstring'] + s['comment_blank']} lines")
    print(f"  code           {s['code']}")
    print(f"  docstring      {s['docstring']}")
    print(f"  comment/blank  {s['comment_blank']}")
    print(f"  settable       {s['settable']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
