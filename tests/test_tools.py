"""The repository's source checks in ``tools/``: every defaulted parameter
of the library, dataclass fields included, has a call that sets it, and
``src_stats`` counts as settable only what a caller can pass."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_defaulted_parameter_is_set_or_kept():
    assert _tool("unset_params").main([str(REPO)]) == 0


def test_dataclass_fields_count_as_init_parameters(tmp_path):
    pkg = tmp_path / "src" / "tsmlab"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "@dataclass\n"
        "class Rec:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: int = 1\n"
        "    d: dict = field(default_factory=dict)\n"
        "    e: dict = field(default_factory=dict, init=False)\n"
        "    f = 3\n")
    for sub in ("tests", "bench"):
        (tmp_path / sub).mkdir()
    (tmp_path / "tests" / "t.py").write_text("Rec(1, 2)\nRec(1, d={})\n")
    tool = _tool("unset_params")
    assert tool.unset(tmp_path) == ["m.Rec.__init__.c"]
    assert tool.main([str(tmp_path)]) == 1
    # src_stats counts the same four fields as settable: not the
    # init=False one, which no caller can pass, nor the unannotated one
    assert _tool("src_stats").stats(pkg)["settable"] == 4
