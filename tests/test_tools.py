"""The repository's source checks in ``tools/``: every defaulted parameter
of the library, dataclass fields included, has a call that sets it,
``src_stats`` counts as settable only what a caller can pass, and the
payload tools run and compare the standard CLI runs."""

import importlib.util
import json
import re
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


def test_stale_kept_entries_fail(tmp_path, monkeypatch):
    """A ``KEPT`` entry that names a parameter a call now sets, or one that
    no longer exists, exits 1 like an unset parameter that is not kept."""
    pkg = tmp_path / "src" / "tsmlab"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text("def f(a, b=1, c=2):\n    return a\n")
    for sub in ("tests", "bench"):
        (tmp_path / sub).mkdir()
    (tmp_path / "tests" / "t.py").write_text("f(1, c=3)\n")
    tool = _tool("unset_params")
    assert tool.unset(tmp_path) == ["m.f.b"]
    monkeypatch.setattr(tool, "KEPT", {"m.f.b": "kept"})
    assert tool.main([str(tmp_path)]) == 0
    for stale in ("m.f.c", "m.g.x"):
        monkeypatch.setattr(tool, "KEPT", {"m.f.b": "kept", stale: "stale"})
        assert tool.main([str(tmp_path)]) == 1


def test_src_stats_counts_each_line_once(tmp_path, capsys):
    """Docstring, code and comment/blank lines add up to the file's lines;
    a line with code and a trailing comment is code; lambdas, self and a
    ``field(init=False)`` are not settable."""
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text(
        '"""Module docstring\n'
        'on two lines."""\n'
        "\n"
        "# a comment\n"
        "from dataclasses import dataclass, field\n"
        "\n"
        "\n"
        "def f(a, b=1, *args, c, **kw):\n"
        '    """One-line docstring."""\n'
        "    g = lambda x, y: x  # not settable\n"
        "    return (a +\n"
        "            b)\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class Rec:\n"
        "    x: int\n"
        "    y: dict = field(default_factory=dict, init=False)\n"
        "\n"
        "    def m(self, z):\n"
        "        return z\n")
    (pkg / "sub" / "b.py").write_text("x = 1\n")
    tool = _tool("src_stats")
    # a.py: docstring lines 1, 2, 9; comment/blank 3, 4, 6, 7, 13, 14, 19;
    # settable a, b, c, args, kw, z and Rec.x
    assert tool.stats(pkg) == {"files": 2, "code": 12, "docstring": 3,
                               "comment_blank": 7, "settable": 7}
    assert tool.main([str(pkg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{pkg}: 2 files, 22 lines"
    assert out[1:] == ["  code           12", "  docstring      3",
                       "  comment/blank  7", "  settable       7"]
    assert tool.main([str(tmp_path / "missing")]) == 2


def _tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


def test_payload_diff_reports_the_largest_change_per_file(tmp_path, capsys):
    tool = _tool("payload_diff")
    base = {"probe/manifest.json": '{"timestamp": "t1", "checks": [{"value": 1.0}]}',
            "probe/sigma.csv": "K,sigma_min\n10,0.5\n12,0.25\n",
            "probe/report.json": '{"sigma": [3.0, 2.0], "engine": "twisted"}'}
    a = _tree(tmp_path / "a", base)
    same = dict(base, **{"probe/manifest.json":
                         '{"timestamp": "t2", "checks": [{"value": 1.0}]}'})
    b = _tree(tmp_path / "b", same)
    assert tool.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "identical"

    changed = dict(base, **{"probe/sigma.csv": "K,sigma_min\n10,0.5\n12,0.2500001\n",
                            "probe/report.json": '{"sigma": [3.5, 2.0], "engine": "euclid"}',
                            "extra/means.csv": "r,mean\n"})
    c = _tree(tmp_path / "c", changed)
    assert tool.main([str(a), str(c)]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "only in B: extra/means.csv"
    assert lines[1].startswith("probe/report.json: differs: /engine")
    assert lines[2].startswith("probe/sigma.csv: max |change| 1e-07 at [2][1]")
    assert len(lines) == 3
    # numbers alone: the largest change is named with its path
    d = _tree(tmp_path / "d", dict(base, **{"probe/report.json":
                                            '{"sigma": [3.5, 2.0001], "engine": "twisted"}'}))
    assert tool.compare(a, d) == ["probe/report.json: max |change| 0.5 at /sigma[0] (3.0 -> 3.5)"]


def test_cli_runs_writes_one_passing_run_per_subdirectory(tmp_path, capsys):
    tool = _tool("cli_runs")
    assert tool.main([str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(tool.RUNS)
    assert len(tool.RUNS) == 16
    for name, (experiment, overrides) in tool.RUNS.items():
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["experiment"] == experiment and manifest["all_passed"], name
        for ov in overrides:
            key, value = ov.split("=")
            assert str(manifest["config"][key]).lower() == value, (name, key)
    lines = capsys.readouterr().out.strip().splitlines()
    # each run's exit code, then its tracemalloc peak in MB
    assert len(lines) == len(tool.RUNS)
    for name, line in zip(tool.RUNS, lines):
        assert re.fullmatch(rf"{name}: exit 0, peak \d+\.\d MB", line), line
    assert tool.main([]) == 2
