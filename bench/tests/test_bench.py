"""Self-tests of the benchmark harness (not of tsmlab).

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Check, Job, run_jobs, tally  # noqa: E402


def _span(name, start, end, parent):
    return [name, float(start), float(end), parent]


def test_self_time_subtracts_children_on_nested_trace():
    trace = [_span("root", 0, 10, -1),
             _span("a", 1, 4, 0),
             _span("a.inner", 2, 3, 1),
             _span("b", 5, 9, 0)]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 4.0]
    agg = spans.aggregate(trace + [_span("b", 11, 12, -1)])
    assert agg["b"] == {"self_s": 5.0, "total_s": 5.0, "calls": 2}
    assert spans.coverage(trace, {0}) == 7.0


def test_self_time_counts_overlapping_children_once():
    trace = [_span("root", 0, 10, -1), _span("x", 1, 4, 0), _span("y", 3, 6, 0)]
    assert spans.self_times(trace)[0] == 5.0


def test_tracer_records_parents_and_counters():
    ticks = iter(range(100))
    tr = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("inner", lambda n: n * 2, lambda a, kw, r: {"items": a[0]})
    outer = tr.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 14
    assert [s[0] for s in tr.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    assert tr.counts["inner.items"] == 7
    assert spans.aggregate(tr.spans)["outer"]["self_s"] == 5.0 - 2.0


def test_failed_ratio_counts_errors_wrong_outputs_and_cli_exits():
    def boom():
        raise ValueError("no output")

    jobs = [Job("ok", lambda: 1.0, lambda x: [Check("c", 0.0, 1e-8)]),
            Job("raises", boom),
            Job("off-tolerance", lambda: 1.0, lambda x: [Check("c", 1e-3, 1e-8)]),
            Job("cli-exit", lambda: 1, lambda code: [Check("exit_code", float(code), 0.0)])]
    outcomes = run_jobs(jobs)
    assert [o["status"] for o in outcomes] == ["ok", "error", "wrong", "wrong"]
    assert "ValueError: no output" in outcomes[1]["error"]
    assert tally(outcomes) == (4, 3, False)
    assert tally(run_jobs(jobs[:2])) == (2, 1, True)


def _tiny_field():
    from tsmlab.fields import SampledField
    from tsmlab.quadrature import plane_rule
    rule = plane_rule(1, extent=6.0, radial_points=12, angular_points=16,
                      tolerance=float("inf"))
    return SampledField.from_function(
        lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / 3.0).astype(complex), rule)


def test_rebinding_catches_calls_through_imported_names():
    import tsmlab
    from tsmlab import cli, twisted_transforms
    original = twisted_transforms.spectral_projections
    f = _tiny_field()
    tr = spans.Tracer()
    restore = spans.install(tr)
    try:
        assert cli.spectral_projections is twisted_transforms.spectral_projections
        assert tsmlab.spectral_projections is twisted_transforms.spectral_projections
        cli.spectral_projections(f, [0, 1], np.array([[0.1 + 0.2j]]))
    finally:
        restore()
    names = [s[0] for s in tr.spans]
    top = names.index("twisted_transforms.spectral_projections")
    assert tr.spans[top][3] == -1
    # calls inside the module resolve through its globals and are caught too
    phase = names.index("twisted_transforms.twist_phase")
    assert tr.spans[phase][3] == top
    assert tr.counts["twisted_transforms.spectral_projections.pairs"] == f.rule.nodes.shape[0]
    assert tr.counts["twisted_transforms.spectral_projections.degrees"] == 2
    assert cli.spectral_projections is original
    assert twisted_transforms.spectral_projections is original
    assert tsmlab.spectral_projections is original


def test_metric_names_match_benchmark_json(tmp_path):
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    cli_jobs = set()
    for i, name in enumerate(workloads.WORKLOADS):
        wl = workloads.build(name, 1, tmp_path / str(i))
        cli_jobs |= {j.name for j in wl.jobs if j.name in spans.CLI_JOBS}
    assert cli_jobs == set(spans.CLI_JOBS)


def test_seed_changes_values_not_sizes(tmp_path):
    a = workloads.build("sample-only", 1, tmp_path / "a")
    b = workloads.build("sample-only", 2, tmp_path / "b")
    assert [j.name for j in a.jobs] == [j.name for j in b.jobs]
    assert a.sizes["nodes"] == b.sizes["nodes"]
    assert a.sizes["field_centre"] != b.sizes["field_centre"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sample-only",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("width", [2.0, 3.0])
def test_gaussian_closed_forms_match_tsmlab(width):
    from tsmlab.fields import SampledField
    from tsmlab.quadrature import plane_rule
    from tsmlab.twisted_transforms import mean_profile, spectral_projections
    rule = plane_rule(1, extent=12.0, radial_points=64, angular_points=256)
    f = SampledField.from_function(
        lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / width).astype(complex), rule)
    z = 0.7 - 0.4j
    radii = np.array([0.3, 1.1, 2.5])
    got = mean_profile(f, [z], radii=radii).values
    assert np.max(np.abs(got - workloads.gaussian_twisted_mean(width, z, radii))) < 1e-10
    a = workloads.gaussian_projection_weights(width, 3)
    q = spectral_projections(f, [0, 1, 2, 3], np.array([[z]]))[0] / (2.0 * np.pi)
    t = 0.5 * abs(z) ** 2
    ref = [a[k] * workloads._laguerre(k, t) * np.exp(-0.5 * t) for k in range(4)]
    assert np.max(np.abs(q - ref)) < 1e-10
