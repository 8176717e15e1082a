"""Sampled fields: evaluation, interpolation, serialization."""

import json
import math

import numpy as np
import pytest

from conftest import phase_matrix_interpolate
from tsmlab.errors import FieldDomainError, GridMismatchError
from tsmlab.euclidean_means import coxeter_odd_counterexample
from tsmlab.fields import (_CHUNK, SampledField, _bary_matrix, _polar_coordinates,
                           interpolate_on_rule)
from tsmlab.quadrature import plane_rule

GAUSS3 = lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / 3.0).astype(complex)


def test_from_function_keeps_evaluator_and_samples(rule_c1, gauss_field):
    assert gauss_field.evaluator is not None
    assert np.allclose(gauss_field.values, GAUSS3(rule_c1.nodes))
    pts = np.array([[0.37 + 0.81j], [5.0 - 3.0j]])
    assert np.allclose(gauss_field.evaluate(pts), GAUSS3(pts))


def test_evaluate_preserves_point_shape(gauss_field):
    pts = (np.linspace(0.1, 1.0, 6).reshape(2, 3) + 0.2j)[..., None]
    out = gauss_field.evaluate(pts)
    assert out.shape == (2, 3)


def test_interpolation_accuracy_off_grid(rule_c1):
    """Sample-only fields read between nodes through barycentric-radial,
    Fourier-angular interpolation; smooth fields come back ~machine.  The
    read spans two full chunks and a partial one."""
    fn = lambda p: (p[:, 0] ** 2 * np.exp(-np.abs(p[:, 0]) ** 2 / 2.0))
    f = SampledField(rule_c1, fn(rule_c1.nodes))
    assert f.evaluator is None
    rng = np.random.default_rng(9)
    count = 5000
    assert count > 2 * _CHUNK[1]
    pts = (rng.uniform(0.2, 8.0, size=count) *
           np.exp(2j * np.pi * rng.uniform(size=count)))[:, None]
    truth = pts[:, 0] ** 2 * np.exp(-np.abs(pts[:, 0]) ** 2 / 2.0)
    got = f.evaluate(pts)
    assert np.max(np.abs(got - truth)) < 1e-8


def test_interpolation_on_c2_rule():
    rule = plane_rule(2, extent=6.0, radial_points=24, sphere3_orders=(8, 16, 16))
    fn = lambda p: np.exp(-np.sum(np.abs(p) ** 2, axis=1) / 3.0).astype(complex)
    f = SampledField(rule, fn(rule.nodes))
    rng = np.random.default_rng(4)
    pts = rng.normal(scale=0.9, size=(15, 2)) + 1j * rng.normal(scale=0.9, size=(15, 2))
    assert np.max(np.abs(f.evaluate(pts) - fn(pts))) < 1e-6


def test_out_of_domain_modes(rule_c1, gauss_field):
    f = SampledField(rule_c1, GAUSS3(rule_c1.nodes))
    outside = np.array([[15.0 + 0.0j]])
    with pytest.raises(FieldDomainError, match="outside"):
        f.evaluate(outside)
    assert f.evaluate(outside, out_of_domain="zero")[0] == 0.0
    with pytest.raises(ValueError):
        interpolate_on_rule(rule_c1, f.values, outside, out_of_domain="clip")
    # an unknown mode is rejected before any point is looked at: on an
    # in-domain read, and on a field that never interpolates
    inside = np.array([[0.5 + 0.0j]])
    with pytest.raises(ValueError, match="out_of_domain"):
        f.evaluate(inside, out_of_domain="clip")
    with pytest.raises(ValueError, match="out_of_domain"):
        interpolate_on_rule(rule_c1, f.values, inside, out_of_domain="clip")
    with pytest.raises(ValueError, match="out_of_domain"):
        gauss_field.evaluate(inside, out_of_domain="clip")


def _oracle_points(rule, rng, count):
    """Random points inside the grid, plus node hits, the origin, points
    at |z| = extent and points beyond it."""
    n = rule.dimension
    z = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    z *= (rule.extent * rng.uniform(size=count) / np.linalg.norm(z, axis=1))[:, None]
    unit = z[:4] / np.linalg.norm(z[:4], axis=1)[:, None]
    hits = rule.nodes[rng.choice(rule.nodes.shape[0], size=6, replace=False)]
    return np.concatenate([z, hits, np.zeros((1, n)), rule.extent * unit,
                           1.5 * rule.extent * unit])


@pytest.mark.parametrize("dimension, sizes, samples, band", [
    (1, 256, "smooth", "cut"), (1, 96, "smooth", "cut"), (1, 63, "smooth", "cut"),
    (2, (6.0, 24, (8, 16, 16)), "smooth", "full"),
    (2, (10.0, 28, (10, 40, 40)), "smooth", "cut"),
    (1, 256, "normal", "full"), (2, (6.0, 24, (8, 16, 16)), "normal", "full"),
    (1, 256, "gauss_offcentre", "cut")],
    ids=["c1_m256", "c1_m96", "c1_m63", "c2_16x16", "c2_40x40",
         "c1_m256_normal", "c2_16x16_normal", "c1_m256_gauss_offcentre"])
def test_interpolation_matches_phase_matrix_oracle(dimension, sizes, samples, band):
    """The factored phases over the cached band and the real GEMM give the
    same trigonometric polynomial as the per-point table of all m phases
    against the whole DFT.  Normal random samples keep all m columns on
    every phase axis; a smooth field keeps only the band above the DFT's
    round-off, cut on every phase axis (the benchmark's off-centre Gaussian
    among them), except on the 16 x 16 C^2 rule, which has no band to cut."""
    if dimension == 1:
        rule = plane_rule(1, extent=12.0, radial_points=64, angular_points=sizes)
        fn = lambda p: p[:, 0] ** 2 * np.exp(-np.abs(p[:, 0] - 0.4 + 0.3j) ** 2 / 2.0)
    else:
        extent, nr, orders = sizes
        rule = plane_rule(2, extent=extent, radial_points=nr, sphere3_orders=orders)
        c = np.array([0.25 - 0.1j, -0.2 + 0.3j])
        fn = lambda p: p[:, 0] * np.exp(-np.sum(np.abs(p - c) ** 2, axis=1) / 3.0)
    if samples == "normal":
        rng = np.random.default_rng(3)
        vals = rng.normal(size=rule.nodes.shape[0]) + 1j * rng.normal(size=rule.nodes.shape[0])
    elif samples == "gauss_offcentre":
        z = rule.nodes[:, 0]
        vals = np.exp(-((z.real - 0.3) ** 2 / 2.5 + (z.imag + 0.5) ** 2 / 3.5)).astype(complex)
    else:
        vals = fn(rule.nodes)
    pts = _oracle_points(rule, np.random.default_rng(11), 60)
    cache = {}
    got = interpolate_on_rule(rule, vals, pts, out_of_domain="zero", cache=cache)
    if band == "full":
        assert cache["bands"] == rule.angular_counts
    else:
        assert all(n < m for n, m in zip(cache["bands"], rule.angular_counts))
    want = phase_matrix_interpolate(rule, vals, pts)
    assert np.all(got[-4:] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(vals))


@pytest.mark.parametrize("dimension", [1, 2])
def test_interpolation_on_and_next_to_a_radial_node(dimension):
    """Points whose radius is exactly a radial node (their barycentric rows
    snap to one-hot) and points 1e-15 further out (inside the snap
    tolerance) against the Lagrange-product oracle, which is one-hot at a
    node and continuous beside it, to 1e-13 of the peak."""
    if dimension == 1:
        rule = plane_rule(1, extent=12.0, radial_points=64, angular_points=63)
        fn = lambda p: p[:, 0] ** 2 * np.exp(-np.abs(p[:, 0] - 0.4 + 0.3j) ** 2 / 2.0)
    else:
        rule = plane_rule(2, extent=6.0, radial_points=24, sphere3_orders=(8, 16, 16))
        c = np.array([0.25 - 0.1j, -0.2 + 0.3j])
        fn = lambda p: p[:, 0] * np.exp(-np.sum(np.abs(p - c) ** 2, axis=1) / 3.0)
    r = rule.radial_nodes[[0, 5, 17, 23]]
    phase = np.exp(1j * np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 64))
    on, near = [], []
    for radius in r:
        # a phase off the grid at which |radius e^(i phi)| reads radius exactly
        z = radius * phase[np.abs(radius * phase) == radius][0]
        on.append([z] + [0.0] * (dimension - 1))
        near.append([z * (1.0 + 1e-15 / radius)] + [0.0] * (dimension - 1))
    pts = np.array(on + near, dtype=complex)
    radii = _polar_coordinates(rule, pts)[0]
    assert np.array_equal(radii[:4], r)
    assert np.all((radii[4:] > r) & (radii[4:] - r < 3e-15))
    rows = _bary_matrix(radii, rule.radial_nodes, rule.barycentric("radial"))
    assert np.array_equal(rows, np.tile(rows[:4], (2, 1)))
    assert np.all(np.sort(rows, axis=1)[:, -2:] == [0.0, 1.0])
    vals = fn(rule.nodes)
    got = interpolate_on_rule(rule, vals, pts)
    want = phase_matrix_interpolate(rule, vals, pts)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(vals))


def test_interpolation_across_chunks_c2():
    """A C^2 read over two full chunks and a partial one, within the 1e-8
    budget on a rule fine enough for it."""
    rule = plane_rule(2, extent=8.0, radial_points=32, sphere3_orders=(12, 24, 24))
    c = np.array([0.25 - 0.1j, -0.2 + 0.3j])
    fn = lambda p: np.exp(-np.sum(np.abs(p - c) ** 2, axis=1) / 3.0).astype(complex)
    f = SampledField(rule, fn(rule.nodes))
    rng = np.random.default_rng(4)
    count = 1100
    assert count > 2 * _CHUNK[2]
    pts = rng.normal(scale=0.9, size=(count, 2)) + 1j * rng.normal(scale=0.9, size=(count, 2))
    assert np.max(np.abs(f.evaluate(pts) - fn(pts))) < 1e-8


def test_values_node_count_mismatch(rule_c1):
    with pytest.raises(GridMismatchError):
        SampledField(rule_c1, np.ones(7))


def _csv_field(kind: str, rule, name: str) -> SampledField:
    """A complex field, a real one, or a real one that declares its
    support (the odd bump of Sigma_2, support 1, on ``rule``)."""
    if kind == "complex":
        return SampledField.from_function(GAUSS3, rule, name=name)
    if kind == "real":
        return SampledField(rule, GAUSS3(rule.nodes).real, name=name)
    odd = coxeter_odd_counterexample(2).evaluator
    return SampledField(rule, odd(rule.nodes), name=name, support_radius=1.0)


def test_csv_round_trip(tmp_path, rule_c1_small):
    for kind in ("complex", "real", "real_supported"):
        f = _csv_field(kind, rule_c1_small, "rt")
        p = tmp_path / f"{kind}.csv"
        f.to_csv(p)
        g = SampledField.from_csv(p)
        assert g.name == "rt"
        assert g.evaluator is None
        assert g.rule.params == rule_c1_small.params
        assert g.values.dtype == f.values.dtype, kind
        assert g.support_radius == f.support_radius, kind
        assert np.max(np.abs(g.values - f.values)) < 1e-15


def test_norms_against_closed_form(gauss_field):
    # int_C exp(-2|z|^2/3) dz = 3 pi / 2
    assert gauss_field.weighted_norm() == pytest.approx(
        math.sqrt(1.5 * math.pi), rel=1e-10)
    assert gauss_field.grid_norm() == pytest.approx(
        float(np.linalg.norm(gauss_field.values)))


def test_dimension_follows_the_rule(rule_c1_small):
    f = SampledField.from_function(GAUSS3, rule_c1_small)
    assert f.dimension == rule_c1_small.dimension == 1
    rule2 = plane_rule(2, extent=6.0, radial_points=12, sphere3_orders=(4, 8, 8),
                       tolerance=float("inf"))
    g = SampledField(rule2, np.ones(rule2.nodes.shape[0]))
    assert g.dimension == 2
    with pytest.raises(AttributeError):
        g.dimension = 1


def test_csv_header_with_decay_class_loads(tmp_path, rule_c1_small):
    # headers written before fields dropped their decay class carry the
    # key; those written before fields were real or declared a support
    # carry neither ``real`` nor ``support_radius``, and read as complex
    # samples with an infinite support
    for kind in ("complex", "real_supported"):
        f = _csv_field(kind, rule_c1_small, "old")
        p = tmp_path / f"{kind}.csv"
        f.to_csv(p)
        head_path = tmp_path / f"{kind}.csv.json"
        head = json.loads(head_path.read_text())
        assert "decay_class" not in head
        head["decay_class"] = "gaussian_quarter_weighted"
        del head["real"], head["support_radius"]
        head_path.write_text(json.dumps(head))
        g = SampledField.from_csv(p)
        assert g.name == "old" and g.dimension == 1
        assert g.values.dtype == complex and g.support_radius == math.inf, kind
        assert np.max(np.abs(g.values - f.values)) < 1e-15


def test_linear_structure(rule_c1, gauss_field):
    two = gauss_field + gauss_field
    assert np.allclose(two.values, 2.0 * gauss_field.values)
    pts = np.array([[0.4 - 0.7j]])
    assert two.evaluate(pts)[0] == pytest.approx(2.0 * GAUSS3(pts)[0])
    sc = gauss_field.scaled(2j)
    assert sc.evaluate(pts)[0] == pytest.approx(2j * GAUSS3(pts)[0])

    other = plane_rule(1, extent=8.0, radial_points=32, angular_points=64)
    h = SampledField.from_function(GAUSS3, other)
    with pytest.raises(GridMismatchError):
        gauss_field + h


@pytest.mark.parametrize("n", [1, 2])
def test_non_finite_points_are_rejected_in_both_modes(n):
    """A non-finite point is bad input, not a point off the grid: every
    interpolated read raises ValueError naming the first one and its row,
    in both out_of_domain modes, with and without a declared support, and
    before a finite point off the grid (row 0) is looked at.  A closed
    form returns what it returns."""
    if n == 1:
        rule = plane_rule(1, extent=8.0, radial_points=16, angular_points=24)
    else:
        rule = plane_rule(2, extent=6.0, radial_points=6, sphere3_orders=(3, 6, 8),
                          tolerance=float("inf"))
    fn = lambda p: np.exp(-np.sum(np.abs(p) ** 2, axis=1) / 3.0)
    pts = np.full((4, n), 0.3 + 0.1j)
    pts[0, 0] = 100.0
    pts[1, -1] = np.nan
    pts[2, 0] = complex(0.0, -np.inf)
    sampled = SampledField(rule, fn(rule.nodes))
    supported = SampledField(rule, fn(rule.nodes), support_radius=rule.extent)
    for mode in ("raise", "zero"):
        with pytest.raises(ValueError, match=r"points must be finite, got .* at row 1"):
            interpolate_on_rule(rule, sampled.values, pts, out_of_domain=mode)
        for f in (sampled, supported):
            with pytest.raises(ValueError, match=r"points must be finite, got .* at row 1"):
                f.evaluate(pts, out_of_domain=mode)
    closed = SampledField(rule, fn(rule.nodes), fn)
    assert np.isnan(closed.evaluate(pts)[1])


def test_nonfinite_values_rejected(rule_c1_small):
    vals = np.ones(rule_c1_small.nodes.shape[0], dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SampledField(rule_c1_small, vals)
