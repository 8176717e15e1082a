"""Command-line harness: config handling, exit codes, artifacts, determinism."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tsmlab import cli
from tsmlab.cli import DEFAULTS, load_config, main
from tsmlab.errors import ConfigError
from tsmlab.euclidean_means import EuclideanSectorBasis, euclidean_mean_table
from tsmlab.ioutil import read_csv_columns


def test_defaults_load_and_copy():
    cfg = load_config(None, [])
    assert set(cfg) == set(DEFAULTS)
    assert cfg["grid.radial_points"] == 64
    assert cfg["grid.extent"] == 12.0
    assert cfg["probe.degree_steps"] == (0, 2, 4)
    assert cfg["probe.export_matrix"] is False


def test_overrides_and_unknown_keys():
    cfg = load_config(None, ["grid.extent=9.5", "probe.export_matrix=true",
                             "probe.degree_steps=0,1"])
    assert cfg["grid.extent"] == 9.5
    assert cfg["probe.export_matrix"] is True
    assert cfg["probe.degree_steps"] == (0, 1)
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, ["grid.bogus=1"])
    with pytest.raises(ConfigError, match="="):
        load_config(None, ["grid.extent"])


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\n\nmean.circle_points = 64   # inline note\n")
    cfg = load_config(str(p), [])
    assert cfg["mean.circle_points"] == 64


def test_every_default_key_is_read():
    """Each key in defaults.cfg is read by a runner, by main, or by a helper
    they call; a key only ``_validate`` mentions configures nothing."""
    source = "".join(inspect.getsource(fn) for name, fn in vars(cli).items()
                     if inspect.isfunction(fn) and fn.__module__ == cli.__name__
                     and name != "_validate")
    assert [key for key in DEFAULTS if f'"{key}"' not in source] == []


def test_probe_degree_steps_are_checked():
    with pytest.raises(ConfigError, match="degree_steps must be >= 0"):
        load_config(None, ["probe.degree_steps=-12,0"])
    # the top truncation stays inside the probe.max_degree cap
    with pytest.raises(ConfigError, match="<= 20, got 110"):
        load_config(None, ["probe.degree_steps=0,100"])
    with pytest.raises(ConfigError, match="<= 20, got 21"):
        load_config(None, ["probe.max_degree=17", "probe.degree_steps=0,4"])
    cfg = load_config(None, ["probe.max_degree=16", "probe.degree_steps=0,4"])
    assert cfg["probe.degree_steps"] == (0, 4)
    with pytest.raises(ConfigError, match="must not repeat a step"):
        load_config(None, ["probe.degree_steps=0,2,2"])


def test_repeated_degree_step_exits_2(tmp_path):
    out = tmp_path / "never"
    code = main(["--experiment", "probe", "--out", str(out),
                 "--override", "probe.degree_steps=0,2,2"])
    assert code == 2
    assert not out.exists()


def test_list_checks_exits_zero(capsys):
    assert main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    assert "verify-identities" in out and "product_relation" in out


def test_unknown_key_exits_2_without_artifacts(tmp_path):
    out = tmp_path / "never"
    code = main(["--experiment", "tsm-eval", "--out", str(out),
                 "--override", "mean.bogus=3"])
    assert code == 2
    assert not out.exists()


def test_invalid_value_exits_2(tmp_path):
    code = main(["--experiment", "tsm-eval", "--out", str(tmp_path / "x"),
                 "--override", "grid.extent=-4"])
    assert code == 2
    code = main(["--experiment", "probe", "--out", str(tmp_path / "y"),
                 "--override", "probe.kind=hexagon"])
    assert code == 2
    for experiment, override in [
            ("counterexample", "mean.sphere3_t=0"), ("counterexample", "mean.sphere3_phi1=0"),
            ("counterexample", "mean.sphere3_phi2=-3"), ("project", "field.degree=-1"),
            ("probe", "probe.r_min=7")]:
        out = tmp_path / override.split("=")[0]
        code = main(["--experiment", experiment, "--out", str(out), "--override", override,
                     "--override", "counterexample.engine=twisted",
                     "--override", "field.kind=laguerre"])
        assert code == 2, override
        assert not out.exists(), override


@pytest.mark.parametrize("experiment,override,message", [
    # e^(-r^2/4) underflows past r = 53.2: no special Hermite order survives
    ("project", "grid.extent=60", "grid.extent must be <= 53.2"),
    # eight radial nodes miss the plane rule's Gaussian moment by 7e-3
    ("project", "grid.radial_points=8", "Gaussian moment check"),
    ("verify-identities", "grid.radial_points=8", "Gaussian moment check"),
    # reflections across Sigma_7 do not pair the 240 circle nodes of the
    # means: the certificate would read quadrature error (4.8e-6)
    ("counterexample", "counterexample.n_lines=7", "counterexample.n_lines must divide 240"),
])
def test_config_the_run_cannot_use_exits_2(experiment, override, message, tmp_path, capsys):
    out = tmp_path / "never"
    code = main(["--experiment", experiment, "--out", str(out), "--override", override])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("overrides, code", [
    # Sigma_7's reflections pair neither circle rule: its odd sectors read
    # sigma 2.1e-5 and 4.4e-5 through assembly, no near-null vector
    (["probe.engine=euclidean", "probe.n_lines=7"], 2),
    # Sigma_8's pair assembly's 240 nodes but not the certificates' 300,
    # which would read the near-null vectors' means at 2.6e-6 and 1.6e-6
    (["probe.engine=euclidean", "probe.n_lines=8"], 2),
    (["probe.engine=euclidean", "probe.n_lines=5"], 0),
    # n_lines is read only by Coxeter sets, and twisted rows need no circle rule
    (["probe.engine=euclidean", "probe.n_lines=7", "probe.kind=sphere"], 0),
    (["probe.engine=twisted", "probe.n_lines=7"], 0),
], ids=["euclidean-7", "euclidean-8", "euclidean-5", "euclidean-sphere", "twisted-7"])
def test_euclidean_probe_lines_pair_both_circle_rules(overrides, code, tmp_path, capsys):
    out = tmp_path / "run"
    args = ["--experiment", "probe", "--out", str(out)]
    assert main(args + [a for o in overrides for a in ("--override", o)]) == code
    if code:
        assert not out.exists()
        assert "probe.n_lines must divide 60" in capsys.readouterr().err
    elif "probe.n_lines=5" in overrides:
        near_null = json.loads((out / "report.json").read_text())["near_null"]
        assert len(near_null) == 4
        assert max(v["roundtrip_max_mean"] for v in near_null) <= 1e-15


FAST_GRID = ["--override", "grid.radial_points=32",
             "--override", "grid.angular_points=96",
             "--override", "grid.extent=10.0"]


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_list_checks_names_the_checks_each_run_makes(experiment, tmp_path):
    out = tmp_path / experiment
    main(["--experiment", experiment, "--out", str(out)] + FAST_GRID)
    man = json.loads((out / "manifest.json").read_text())
    assert [c["name"] for c in man["checks"]] == cli.CHECK_NAMES[experiment]


def test_tsm_eval_artifacts_and_determinism(tmp_path):
    outs = []
    for d in ("a", "b"):
        out = tmp_path / d
        code = main(["--experiment", "tsm-eval", "--out", str(out)] + FAST_GRID
                    + ["--override", "profile.r_count=8"])
        assert code == 0
        outs.append(out)
    prof = read_csv_columns(outs[0] / "profile.csv")
    assert set(prof) == {"r", "re", "im"}
    assert len(prof["r"]) == 8
    # byte-identical payloads; manifests differ only in the timestamp
    a = (outs[0] / "profile.csv").read_bytes()
    b = (outs[1] / "profile.csv").read_bytes()
    assert a == b
    ma = json.loads((outs[0] / "manifest.json").read_text())
    mb = json.loads((outs[1] / "manifest.json").read_text())
    ma.pop("timestamp"), mb.pop("timestamp")
    assert ma == mb


def test_project_check_failure_exits_1(tmp_path):
    # K = 0 cannot reconstruct the Gaussian: the decay check must fail and
    # the manifest must still be written, flagged
    out = tmp_path / "p0"
    code = main(["--experiment", "project", "--out", str(out)] + FAST_GRID
                + ["--override", "project.max_degree=0"])
    assert code == 1
    man = json.loads((out / "manifest.json").read_text())
    assert man["all_passed"] is False
    assert [c["name"] for c in man["checks"]] == ["reconstruction_decay"]


def test_counterexample_certificate(tmp_path):
    out = tmp_path / "ce"
    code = main(["--experiment", "counterexample", "--out", str(out),
                 "--override", "counterexample.centers_per_line=6",
                 "--override", "counterexample.r_count=5"])
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["max_mean_ratio"] <= 1e-10
    assert cert["n_lines"] == 2
    cols = read_csv_columns(out / "means.csv")
    assert len(cols["mean"]) == cert["centers"] * cert["radii"]


def test_twisted_counterexample_determinism(tmp_path):
    """The C^2 vanishing scan, summed slot by slot, writes the same bytes
    on a second run."""
    payloads = []
    for d in ("a", "b"):
        out = tmp_path / d
        code = main(["--experiment", "counterexample", "--out", str(out),
                     "--override", "counterexample.engine=twisted"])
        assert code == 0
        payloads.append((out / "vanishing.json").read_bytes())
    assert payloads[0] == payloads[1]
    report = json.loads(payloads[0])
    assert sum(report["on_zero_locus"]) == 30 and len(report["max_means"]) == 40


def test_twisted_counterexample_one_phase_slot_fails_its_certificate(tmp_path, capsys):
    """One slot-1 phase node cannot resolve the type function: the run
    exits 1 with a failed certificate, not a traceback."""
    out = tmp_path / "one"
    code = main(["--experiment", "counterexample", "--out", str(out),
                 "--override", "counterexample.engine=twisted",
                 "--override", "mean.sphere3_phi1=1"])
    assert code == 1
    assert "FAIL certificate" in capsys.readouterr().out
    man = json.loads((out / "manifest.json").read_text())
    assert man["checks"][0]["value"] > 1e-8


def test_probe_artifacts(tmp_path):
    out = tmp_path / "pr"
    code = main(["--experiment", "probe", "--out", str(out),
                 "--override", "probe.points_per_ray=3",
                 "--override", "probe.extent=3.0",
                 "--override", "probe.max_degree=3",
                 "--override", "probe.r_count=8",
                 "--override", "probe.degree_steps=0,1",
                 "--override", "probe.export_matrix=true"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["engine"] == "twisted"
    assert set(rep["sigma_curve"]) == {"3", "4"}
    assert "caveat" in rep and rep["caveat"]
    assert (out / "sigma.csv").exists()
    assert (out / "operator.csv").exists()


def test_probe_sigma_curve_agrees_with_spectrum(tmp_path):
    """The curve entry at the base truncation is the operator's own
    sigma_min, whatever circle rule the means of other experiments use."""
    out = tmp_path / "pc"
    code = main(["--experiment", "probe", "--out", str(out),
                 "--override", "mean.circle_points=16"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["sigma_curve"][str(rep["K"])] == pytest.approx(min(rep["sigma"]),
                                                              rel=1e-12)


def test_manifest_config_echo(tmp_path):
    out = tmp_path / "m"
    code = main(["--experiment", "tsm-eval", "--out", str(out)] + FAST_GRID
                + ["--override", "profile.r_count=4"])
    assert code == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["experiment"] == "tsm-eval"
    assert man["config"]["grid.radial_points"] == 32
    assert man["config"]["profile.r_count"] == 4
    assert "versions" in man and "numpy" in man["versions"]


@pytest.mark.parametrize("run", [
    ("probe", ["probe.engine=euclidean"], ("report.json", "sigma.csv")),
    ("probe", ["probe.engine=euclidean", "probe.n_lines=3"], ("report.json", "sigma.csv")),
    ("counterexample", [], ("certificate.json", "means.csv")),
], ids=["probe-sigma2", "probe-sigma3", "counterexample"])
def test_euclidean_runs_write_the_same_bytes_without_support_declarations(
        run, tmp_path, monkeypatch):
    """The mean tables read only the circles that meet a declared support;
    with the declarations taken away they read every circle, and every
    payload is the same byte for byte."""
    experiment, overrides, payloads = run
    args = ["--experiment", experiment] + [a for o in overrides for a in ("--override", o)]
    assert main(args + ["--out", str(tmp_path / "declared")]) == 0
    monkeypatch.delattr(EuclideanSectorBasis, "support_radius")
    monkeypatch.setattr(cli, "euclidean_mean_table",
                        lambda f, *a: euclidean_mean_table(
                            SimpleNamespace(dimension=1, evaluate=f.evaluate), *a))
    assert main(args + ["--out", str(tmp_path / "undeclared")]) == 0
    for name in payloads:
        assert ((tmp_path / "declared" / name).read_bytes()
                == (tmp_path / "undeclared" / name).read_bytes()), name


def test_probe_runs_leave_numpy_ma_unimported(tmp_path):
    """np.unique with no return arrays imports numpy.ma (11-13 ms in a
    fresh process); the default and euclidean probes group through its
    inverse, so a process that runs both never imports it."""
    code = ("import sys\n"
            "from tsmlab.cli import main\n"
            "for i, extra in enumerate([[], ['--override', 'probe.engine=euclidean']]):\n"
            "    assert main(['--experiment', 'probe', '--out', sys.argv[1] + str(i)] + extra) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "probe")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"
