"""Sampling sets, operators, probes, and the two counterexample engines."""

import dataclasses
import itertools
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (peak_mb, per_pair_circular_mean, per_pair_twisted_mean,
                      sector_basis_values)
from tsmlab.cli import main
from tsmlab.constants import REGRESSION
from tsmlab.errors import IllConditionedFitError
from tsmlab import quadrature
from tsmlab.euclidean_means import CIRCLE_POINTS, euclidean_sector_basis
from tsmlab.fields import SampledField
from tsmlab.injectivity_lab import (CERTIFICATE_CIRCLE_POINTS, DEFAULT_RADII,
                                    INJECTIVITY_CAVEAT, ProductHermiteBasis,
                                    SamplingOperator, SamplingSet, TypeFunctionSpec,
                                    assemble_operator,
                                    fit_projection_expansion,
                                    hecke_bochner_counterexample,
                                    injectivity_probe, make_set,
                                    near_null_roundtrip, operator_to_csv,
                                    plane_block_offmass, sigma_curve_to_csv)
from tsmlab.injectivity_lab import _rotation_classes
from tsmlab.quadrature import plane_rule, sphere_rule
from tsmlab.special_functions import solid_harmonic_basis, special_hermite_matrix
from tsmlab.twisted_transforms import (SlotProduct, spectral_projection, twist_phase,
                                       twisted_mean_table)


# ---------------------------------------------------------------------------
# sampling sets


def test_coxeter_set_count_and_membership():
    # 2 N rays x points_per_ray, plus the shared origin
    s = make_set("coxeter_lines", n_lines=2, points_per_ray=7, extent=3.0)
    assert s.centers.shape == (2 * 2 * 7 + 1, 1)
    s.validate()
    # lexicographic order, no duplicates
    c = s.centers[:, 0]
    keys = np.stack([c.real, c.imag], axis=1)
    assert np.all(np.lexsort((keys[:, 1], keys[:, 0])) == np.arange(c.size))
    dists = np.abs(c[:, None] - c[None, :])
    np.fill_diagonal(dists, 1.0)
    assert dists.min() > 1e-9


def _moved(sset: SamplingSet, shift) -> SamplingSet:
    """The centers of ``sset`` moved by ``shift`` (one entry per slot), as
    a custom set on the same radii."""
    return make_set("custom", centers=sset.centers + np.asarray(shift), radii=sset.radii)


def test_set_motion_is_recorded_and_validated():
    s = make_set("coxeter_lines", n_lines=3, points_per_ray=4, extent=2.0,
                 rotation=0.37)
    s.validate()        # membership is checked after unwinding the rotation
    assert s.params["rotation"] == 0.37


def test_validate_rejects_off_locus_center():
    s = make_set("coxeter_lines", n_lines=2, points_per_ray=3, extent=2.0)
    tampered = SamplingSet("coxeter_lines", 1,
                           np.concatenate([s.centers, [[0.5 + 0.31j]]]),
                           s.radii, s.params)
    with pytest.raises(ValueError, match="off the declared"):
        tampered.validate()


def test_sampling_set_radius_validation():
    with pytest.raises(ValueError, match="radii"):
        make_set("coxeter_lines", n_lines=1, radii=[1.0, 0.5])
    with pytest.raises(ValueError, match="radii"):
        make_set("coxeter_lines", n_lines=1, radii=[-1.0, 0.5])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="radii must be finite"):
            make_set("coxeter_lines", n_lines=1, radii=[0.5, bad])
        with pytest.raises(ValueError, match="radii must be finite"):
            SamplingSet("custom", 2, [[0.1, 0.2j]], [bad], {})


@pytest.mark.parametrize("weights", [[2.0], [1.0, np.nan, 1.0], [1.0, -5.0, 1.0],
                                     [1.0, 1.0, 1.0, 1.0]],
                         ids=["broadcast", "nan", "negative", "too_many"])
def test_sampling_set_weight_validation(weights):
    # one finite, positive weight per center, or no set: a weight vector
    # that broadcasts, or a NaN or negative weight, would reach the
    # weighted Gram of plane_block_offmass as a number
    centers = [[0.3 + 0.1j, -0.5 + 0.2j], [-0.8 + 0.4j, 0.6 - 0.3j], [0.2j, 0.9]]
    with pytest.raises(ValueError, match="center_weights"):
        SamplingSet("custom", 2, centers, [0.7, 1.9], {}, np.asarray(weights))


@pytest.mark.parametrize("kind, params, key", [
    ("coxeter_lines", {"n_lines": 2, "points_per_rays": 20}, "points_per_rays"),
    ("plane_cross_coxeter", {"n_lines": 1, "plane_angualr": 16}, "plane_angualr"),
    ("sphere", {"radius": 2.0, "order": (3, 4, 4)}, "order"),
    ("sphere_cross_plane", {"radius": 1.3, "plane_radail": 4}, "plane_radail"),
    ("curve", {"r_profile": lambda t: 1.0 + 0.1 * t, "sample": 20}, "sample"),
    ("custom", {"centers": [[0.1 + 0.2j]], "dim": 1}, "dim"),
    # a sphere reads only the size key of its own dimension
    ("sphere", {"radius": 2.0, "n": 2, "m": 5}, "m"),
    ("sphere", {"radius": 2.0, "n": 1, "orders": (2, 3, 3)}, "orders"),
])
def test_make_set_rejects_unread_keys(kind, params, key):
    with pytest.raises(ValueError, match=f"{kind} sets do not read {key}"):
        make_set(kind, **params)


@pytest.mark.parametrize("kind, params, bad", [
    ("coxeter_lines", {"n_lines": 2.5, "points_per_ray": 2},
     "n_lines must be an integer >= 1, got 2.5"),
    ("coxeter_lines", {"n_lines": 2, "points_per_ray": 1.9},
     "points_per_ray must be an integer >= 1, got 1.9"),
    ("coxeter_lines", {"n_lines": True}, "n_lines must be an integer >= 1, got True"),
    ("coxeter_lines", {"n_lines": 0}, "n_lines must be an integer >= 1, got 0"),
    ("plane_cross_coxeter", {"n_lines": 1, "plane_radial": 4.0}, "plane_radial must be an integer"),
    ("plane_cross_coxeter", {"n_lines": 1, "plane_angular": 6.5}, "plane_angular must be an integer"),
    ("sphere", {"radius": 2.0, "n": 1.0}, "n must be an integer >= 1, got 1.0"),
    ("sphere", {"radius": 2.0, "m": 16.0}, "m must be an integer >= 1, got 16.0"),
    ("sphere", {"radius": 2.0, "n": 2, "orders": (3, 4.5, 4)}, "orders[1] must be an integer"),
    ("sphere_cross_plane", {"radius": 1.3, "m": False}, "m must be an integer >= 1, got False"),
    ("curve", {"r_profile": lambda t: 1.0 + 0.1 * t, "samples": 20.0}, "samples must be an integer"),
    ("curve", {"r_profile": lambda t: 1.0 + 0.1 * t, "samples": 1}, "samples must be an integer"),
    ("custom", {"centers": [[0.1 + 0.2j]], "n": 1.0}, "n must be an integer >= 1, got 1.0"),
])
def test_make_set_counts_are_integers(kind, params, bad):
    # a float count was truncated: n_lines=2.5, points_per_ray=1.9 built
    # Sigma_2 with one point per ray
    with pytest.raises(ValueError, match=re.escape(bad)):
        make_set(kind, **params)


def test_make_set_takes_numpy_integer_counts():
    ref = make_set("coxeter_lines", n_lines=2, points_per_ray=3)
    got = make_set("coxeter_lines", n_lines=np.int64(2), points_per_ray=np.int32(3))
    assert np.array_equal(got.centers, ref.centers)
    assert type(got.params["n_lines"]) is int


def test_sphere_and_curve_sets():
    s = make_set("sphere", radius=2.0, n=2, orders=(3, 4, 4))
    s.validate()
    assert np.allclose(np.linalg.norm(s.centers, axis=1), 2.0)

    spiral = make_set("curve", r_profile=lambda t: 1.0 + 0.1 * t, samples=40)
    spiral.validate()
    assert spiral.centers.shape == (40, 1)
    # curve order preserved (no lex sort): radii grow along the parameter
    assert np.all(np.diff(np.abs(spiral.centers[:, 0])) > 0)


def test_plane_cross_set_carries_weights():
    s = make_set("plane_cross_coxeter", n_lines=2, extent=2.0, points_per_ray=3,
                 plane_extent=3.0, plane_radial=4, plane_angular=6)
    s.validate()
    assert s.center_weights is not None
    assert s.center_weights.shape == (s.centers.shape[0],)
    assert np.all(s.center_weights > 0)


def test_default_radii():
    s = make_set("coxeter_lines", n_lines=1)
    assert np.array_equal(s.radii, np.asarray(DEFAULT_RADII))


# ---------------------------------------------------------------------------
# bases and operator assembly


def test_twisted_basis_shapes():
    b = ProductHermiteBasis((3,))
    assert b.ncols == 16
    sub = b.columns_up_to(1)
    assert [b.labels[j] for j in sub] == \
        ["phi[0,0]", "phi[0,1]", "phi[1,0]", "phi[1,1]"]
    pts = np.array([0.3 + 0.2j, -1.0 + 0.4j])
    m = b.matrix(pts)
    assert m.shape == (2, 16)
    e3 = np.zeros(16)
    e3[3] = 1.0
    assert np.allclose(b.matrix(pts) @ e3, m[:, 3])
    # the one-slot matrix is the special Hermite matrix itself, bit for bit
    assert m.tobytes() == special_hermite_matrix(pts, 3).tobytes()


def test_product_basis_block_structure():
    b = ProductHermiteBasis((1, 1))
    assert b.ncols == 16
    assert b.block_keys[:8].tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    pts = np.array([[0.2 + 0.1j, -0.4 + 0.3j]])
    m = b.matrix(pts)
    b1 = special_hermite_matrix(pts[:, 0], 1)
    b2 = special_hermite_matrix(pts[:, 1], 1)
    assert np.allclose(m, (b1[:, :, None] * b2[:, None, :]).reshape(1, -1))


@pytest.mark.parametrize("degrees", [(0,), (3,), (1, 2), (3, 1)])
def test_product_basis_index_arrays_match_per_column_reference(degrees):
    """Labels, degrees, truncations, slot-1 blocks and rotation classes,
    all taken from the basis's index arrays, against a per-column
    reference: each column a tuple of slot (a, b) pairs from
    itertools.product, slot 1 major."""
    basis = ProductHermiteBasis(degrees)
    slots = [list(itertools.product(range(d + 1), repeat=2)) for d in degrees]
    columns = list(itertools.product(*slots))
    assert basis.ncols == len(columns)
    assert basis.labels == ["*".join(f"phi[{a},{b}]" for a, b in col) for col in columns]
    assert basis.spectral_degrees.tolist() == [sum(a for a, _ in col) for col in columns]
    for top in range(max(degrees) + 2):
        assert basis.columns_up_to(top).tolist() == [
            j for j, col in enumerate(columns) if all(max(pair) <= top for pair in col)]
    assert basis.block_keys.tolist() == [slots[0].index(col[0]) for col in columns]
    for orders in itertools.product((1, 2, 3, 5), repeat=len(degrees)):
        residues = [tuple((a - b) % q for (a, b), q in zip(col, orders)) for col in columns]
        classes = _rotation_classes(basis, orders)
        # one class per residue tuple, ascending with slot 1 outer, each
        # holding every column of its residues in column order
        assert [residues[cols[0]] for cols, _ in classes] == sorted(set(residues))
        for cols, _ in classes:
            assert cols.tolist() == [j for j, r in enumerate(residues) if r == residues[cols[0]]]


@pytest.mark.parametrize("basis", [
    euclidean_sector_basis(10, support_radii=(1.0, 0.6)),
    euclidean_sector_basis(4, support_radii=(1.0,), orders=[2, 4], kinds=("sin",)),
], ids=["cli", "odd_sector"])
def test_sector_matrix_matches_per_column_oracle(basis):
    # all columns at once (one bump read and one power table per radius)
    # against each (kind, order, R) column evaluated on its own; the radii
    # are dense enough to sample each column's peak
    angles = np.exp(1j * np.array([0.1, 0.3, 1.9, 2.7, 4.4, 5.8]))
    on_edge = [0.6, -0.6j, 1.0, -1.0j]          # |z| = R exactly
    pts = np.concatenate([[0.0], np.outer(np.linspace(0.02, 0.58, 29), angles).ravel(),
                          np.outer(np.linspace(0.62, 0.98, 19), angles).ravel(), on_edge,
                          np.outer([1.3, 4.0], angles).ravel()])
    got = basis.matrix(pts)
    assert got.shape == (pts.size, basis.ncols)
    columns = zip(basis.kinds, basis.orders, basis.support_radii, basis.labels)
    for j, (kind, order, R, label) in enumerate(columns):
        ref = sector_basis_values(kind, order, R, pts)
        peak = np.max(np.abs(ref))
        assert peak > 0
        assert np.max(np.abs(got[:, j] - ref)) <= 1e-15 * peak, label
        assert np.all(got[np.abs(pts) >= R, j] == 0.0)


def test_operator_entries_match_direct_means():
    """Spot-check assembled rows against scalar twisted means of the basis
    columns themselves."""
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=2, extent=2.0,
                    radii=[0.8, 1.6])
    op = assemble_operator(sset, max_degree=2, circle_points=128)
    basis = op.basis
    carrier = plane_rule(1, extent=8.0, radial_points=24, angular_points=48)
    ci, ri = sset.row_meta()
    for (row, col) in [(0, 0), (3, 5), (11, 7)]:
        j, i = ci[row], ri[row]
        e = np.zeros(basis.ncols)
        e[col] = 1.0
        fn = lambda p, _e=e: basis.matrix(p) @ _e
        f = SampledField(carrier, fn(carrier.nodes[:, 0]), evaluator=
                         lambda p, _fn=fn: _fn(np.asarray(p)[:, 0]))
        ref = twisted_mean_table(f, sset.centers[j][None, :], [sset.radii[i]], m=128)[0, 0]
        assert abs(op.matrix[row, col] - ref) < 1e-12


def quadrature_operator(sset, basis, circle_points=256,
                        sphere_orders=(16, 32, 32)) -> np.ndarray:
    """Oracle for the closed-form twisted rows: each entry integrates the
    basis column over the sphere rule of its radius, twist included."""
    n = sset.dimension
    nr = sset.radii.size
    M = np.empty((sset.n_rows, basis.ncols), dtype=complex)
    for i, r in enumerate(sset.radii):
        rule = (sphere_rule(1, r, m=circle_points) if n == 1
                else sphere_rule(2, r, orders=sphere_orders))
        for j, z in enumerate(sset.centers):
            B = basis.matrix(z[None, :] - rule.nodes)
            tw = rule.weights * twist_phase(z[None, :], rule.nodes)
            M[j * nr + i] = tw @ B
    return M


def _rel_gap(closed: np.ndarray, oracle: np.ndarray) -> float:
    return float(np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle)))


@pytest.mark.parametrize("sset", [
    _moved(make_set("coxeter_lines", n_lines=3, points_per_ray=4, extent=4.0,
                    rotation=0.37, radii=np.geomspace(0.2, 6.0, 8)), [0.5 - 0.2j]),
    make_set("sphere", radius=2.5, n=1, m=16, radii=np.geomspace(0.2, 6.0, 8)),
    make_set("curve", r_profile=lambda t: 1.0 + 0.2 * t, samples=20,
             radii=np.geomspace(0.2, 6.0, 8)),
], ids=["coxeter_lines", "sphere", "curve"])
def test_closed_form_matches_quadrature_on_c(sset):
    op = assemble_operator(sset, max_degree=6)
    assert _rel_gap(op.matrix, quadrature_operator(sset, op.basis)) <= 1e-12


def test_closed_form_matches_quadrature_for_product_basis():
    sset = make_set("custom", centers=[[0.3 + 0.1j, -0.5 + 0.2j],
                                       [-0.8 + 0.4j, 0.6 - 0.3j],
                                       [1.1 - 0.2j, 0.2 + 0.9j]],
                    radii=[0.7, 1.9])
    op = assemble_operator(sset, basis=ProductHermiteBasis((1, 1)))
    oracle = quadrature_operator(sset, op.basis, sphere_orders=(24, 48, 48))
    assert _rel_gap(op.matrix, oracle) <= 1e-12


def test_spectral_degrees_follow_the_first_indices():
    assert list(ProductHermiteBasis((1,)).spectral_degrees) == [0, 0, 1, 1]
    degrees = ProductHermiteBasis((1, 1)).spectral_degrees
    assert list(degrees[:4]) == [0, 0, 1, 1]       # slot 1 phi[0,0]
    assert list(degrees[8:12]) == [1, 1, 2, 2]     # slot 1 phi[1,0]


def test_unknown_engine_is_named():
    sset = make_set("coxeter_lines", n_lines=1, points_per_ray=2, extent=1.0)
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        assemble_operator(sset, 2, engine="bogus")


def test_basis_engine_must_match():
    sset = make_set("coxeter_lines", n_lines=1, points_per_ray=2, extent=1.0)
    basis = euclidean_sector_basis(2, support_radii=(1.0,))
    with pytest.raises(ValueError, match="euclidean basis"):
        assemble_operator(sset, engine="twisted", basis=basis)


def test_operator_svd_invariance_under_unitary_mixing():
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=3, extent=3.0,
                    radii=np.linspace(0.5, 3.0, 8))
    op = assemble_operator(sset, max_degree=2)
    rng = np.random.default_rng(12)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    u, _ = np.linalg.qr(g)
    mixed = np.linalg.svd(op.matrix @ u, compute_uv=False)
    assert np.max(np.abs(mixed - op.singular_values)
                  / op.singular_values[0]) < 1e-12


def test_sigma_min_monotone_in_rows():
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=3, extent=3.0,
                    radii=np.linspace(0.5, 4.0, 10))
    op = assemble_operator(sset, max_degree=2)
    few = SamplingSet(sset.kind, sset.dimension, sset.centers, sset.radii[:4],
                      sset.params)     # same centers, fewer radii
    ci, ri = sset.row_meta()
    sub = SamplingOperator(op.matrix[ri < 4], few, op.basis)
    assert np.array_equal(few.row_meta()[0], ci[ri < 4])
    assert sub.sigma_min <= op.sigma_min + 1e-12


def test_degenerate_operator_reports_exact_null():
    sset = make_set("coxeter_lines", n_lines=1, points_per_ray=1, extent=1.0,
                    radii=[1.0])       # 3 rows
    op = assemble_operator(sset, max_degree=2)   # 9 columns
    assert op.degenerate
    assert op.sigma_min == 0.0
    null = op.near_null(0.0)
    assert len(null) >= 9 - 3
    sigma, v = null[-1]
    assert sigma == 0.0
    assert np.linalg.norm(op.matrix @ v) < 1e-12


@pytest.mark.parametrize("engine, dimension", [("twisted", 1), ("twisted", 2),
                                               ("euclidean", 1)])
def test_operator_on_a_set_with_no_centres(engine, dimension):
    """No centres, no rows: both engines return a (0, ncols) operator whose
    every column is an exact null direction, each listed once with sigma 0."""
    sset = SamplingSet("custom", dimension, np.zeros((0, dimension), dtype=complex),
                       np.array([0.5, 1.0]), {})
    if engine == "twisted":
        basis = ProductHermiteBasis((2,) * dimension)
    else:
        basis = euclidean_sector_basis(4, support_radii=(1.0,), orders=[2, 4])
    op = assemble_operator(sset, engine=engine, basis=basis)
    assert op.shape == op.matrix.shape == (0, basis.ncols)
    assert op.degenerate and op.sigma_min == 0.0
    null = op.near_null(0.0)
    assert [sigma for sigma, _ in null] == [0.0] * basis.ncols
    # the null vectors are the coordinate vectors, in some order: one entry
    # of modulus 1 per vector, each column hit once
    mags = np.abs(np.array([v for _, v in null]))
    assert np.count_nonzero(mags) == basis.ncols
    assert np.array_equal(mags.sum(axis=0), np.ones(basis.ncols))
    assert np.array_equal(mags.sum(axis=1), np.ones(basis.ncols))


# ---------------------------------------------------------------------------
# euclidean engine and the twisted contrast


@pytest.fixture(scope="module")
def euclid_odd_operator():
    """Mixed basis: sin(2t), sin(4t) are odd for Sigma_2 (annihilated rows
    everywhere on the lines), sin(1t), sin(3t) are not (their columns keep
    the operator's scale honest)."""
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=10, extent=6.0)
    basis = euclidean_sector_basis(4, support_radii=(1.0,), orders=[1, 2, 3, 4],
                                   kinds=("sin",))
    return assemble_operator(sset, engine="euclidean", basis=basis)


def test_euclid_odd_sector_operator_is_singular(euclid_odd_operator):
    op = euclid_odd_operator
    assert not op.degenerate
    assert op.singular_values[0] > 1e-4            # surviving sectors
    assert op.sigma_min < 1e-12 * op.singular_values[0]

    # the counterexample is literally a basis element: its coordinate vector
    # must be annihilated
    for order in (2, 4):
        j = op.basis.index_of("sin", order, 1.0)
        v = np.zeros(op.basis.ncols)
        v[j] = 1.0
        assert np.linalg.norm(op.matrix @ v) / np.linalg.norm(v) < 1e-8


def test_euclidean_operator_entries_match_per_pair_circular_means():
    """Euclidean rows have no closed form: spot-check entries against one
    circle average of the basis column per (centre, radius), to 1e-15 of
    the column's peak."""
    sset = make_set("coxeter_lines", n_lines=3, points_per_ray=3, extent=1.5,
                    radii=[0.3, 0.7, 1.2])
    basis = euclidean_sector_basis(3, support_radii=(1.0, 0.6))
    op = assemble_operator(sset, engine="euclidean", basis=basis)
    lattice = plane_rule(1, extent=1.0, radial_points=32, angular_points=64).nodes[:, 0]
    peaks = np.max(np.abs(basis.matrix(lattice)), axis=0)
    ci, ri = sset.row_meta()
    refs = []
    # both support radii, cos and sin columns, and sin3 (odd across Sigma_3: 0)
    for row, col in [(4, 0), (4, 9), (17, 2), (25, 3), (25, 8), (40, 4), (40, 5), (52, 13)]:
        j, i = ci[row], ri[row]
        column = SimpleNamespace(evaluate=lambda p, _c=col: basis.matrix(p)[:, _c])
        refs.append(per_pair_circular_mean(column, sset.centers[j, 0], sset.radii[i]))
        assert abs(op.matrix[row, col] - refs[-1]) <= 1e-15 * peaks[col], (row, col)
    assert sum(abs(r) > 1e-3 for r in refs) >= 6                 # not all zero


def test_near_null_roundtrip_remeasures_means(euclid_odd_operator):
    op = euclid_odd_operator
    sigma, v = op.near_null(1e-10)[0]
    worst = near_null_roundtrip(op, v)
    assert worst < 1e-10


class _RealPart:
    """What the circle oracle reads: any object with an ``evaluate``."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, points):
        return np.real(self.fn(points))


def test_euclidean_roundtrip_equals_per_pair_circular_means(euclid_odd_operator):
    # reference: one circle average per (centre, radius) pair, on the
    # certificate's own circle rule
    op = euclid_odd_operator
    sset = op.sampling_set
    near_null = op.near_null(1e-10)[0][1]
    generic = np.random.default_rng(11).normal(size=op.basis.ncols)
    refs = []
    for v in (near_null, generic):
        fn = lambda p, _e=v / np.linalg.norm(v): op.basis.matrix(p) @ _e
        refs.append(max(abs(per_pair_circular_mean(_RealPart(fn), z, r,
                                                   m=CERTIFICATE_CIRCLE_POINTS))
                        for z in sset.centers[:, 0] for r in sset.radii))
        assert abs(near_null_roundtrip(op, v) - refs[-1]) <= 1e-15
    # both vectors as the columns of one matrix: one table call
    got = near_null_roundtrip(op, np.stack([near_null, generic], axis=1))
    assert got.shape == (2,)
    assert np.max(np.abs(got - refs)) <= 1e-15


def test_euclidean_certificate_does_not_reread_the_assembly_rule(monkeypatch):
    """Assembly on a faulty circle rule, each of its 240 nodes a repeat of
    w = r or w = -r: the Sigma_2 operator gains spurious near-null vectors,
    and their certificates, read on the certificate's own circle rule, show
    their true means far above the 1e-8 threshold."""
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=10, extent=6.0)
    basis = euclidean_sector_basis(10, support_radii=(1.0, 0.6))
    true_null = len(assemble_operator(sset, engine="euclidean", basis=basis).near_null(1e-8))
    unit_rule = quadrature._unit_rule
    faulty = np.arange(CIRCLE_POINTS) // (CIRCLE_POINTS // 2) * (CIRCLE_POINTS // 2)

    def patched(dimension, size):
        rule = unit_rule(dimension, size)
        if size != (CIRCLE_POINTS,):
            return rule
        return quadrature.SphereRule(1, 1.0, rule.nodes[faulty], rule.weights,
                                     rule.t_weights, (rule.slot_nodes[0][:, faulty],))

    monkeypatch.setattr(quadrature, "_unit_rule", patched)
    op = assemble_operator(sset, engine="euclidean", basis=basis)
    null = op.near_null(1e-8)
    assert len(null) > true_null
    means = near_null_roundtrip(op, np.stack([v for _, v in null], axis=1))
    assert np.sum(means > 1e-6) >= len(null) - true_null


@pytest.mark.parametrize("n", [1, 2])
def test_twisted_roundtrip_equals_per_pair_means(n):
    # reference: one quadrature mean per (centre, radius) pair of the field
    # the coefficients reconstruct, carried on a plane rule
    if n == 1:
        sset = make_set("coxeter_lines", n_lines=2, points_per_ray=2, extent=2.0,
                        radii=[0.4, 1.1, 2.3])
        op = assemble_operator(sset, max_degree=2)
        carrier = plane_rule(1, extent=8.0, radial_points=16, angular_points=32)
    else:
        sset = make_set("custom", centers=[[0.3 + 0.1j, -0.5 + 0.2j],
                                           [-0.8 + 0.4j, 0.6 - 0.3j]], radii=[0.7, 1.9])
        op = assemble_operator(sset, basis=ProductHermiteBasis((1, 1)))
        carrier = plane_rule(2, extent=8.0, radial_points=6, sphere3_orders=(3, 6, 6),
                             tolerance=float("inf"))
    rng = np.random.default_rng(5)
    vs = [rng.normal(size=op.basis.ncols)] + list(
        rng.normal(size=(3, op.basis.ncols)) + 1j * rng.normal(size=(3, op.basis.ncols)))
    refs = []
    for v in vs:
        fn = lambda p, _e=v / np.linalg.norm(v): op.basis.matrix(p) @ _e
        f = SampledField(carrier, fn(carrier.nodes), evaluator=fn)
        refs.append(max(abs(per_pair_twisted_mean(f, z, r))
                        for z in sset.centers for r in sset.radii))
    assert abs(near_null_roundtrip(op, vs[0]) - refs[0]) <= 1e-15 * refs[0]
    # all four vectors as the columns of one matrix: one table call
    got = near_null_roundtrip(op, np.stack(vs, axis=1))
    assert got.shape == (4,)
    assert np.max(np.abs(got - refs) / refs) <= 1e-15


def test_twisted_operator_matches_frozen_regression():
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=10, extent=6.0)
    op = assemble_operator(sset, max_degree=10)
    frozen = REGRESSION["twisted_sigma_min_coxeter2_K10"]
    assert op.sigma_min == pytest.approx(frozen, rel=1e-10)
    # rerun is bit-identical (fixed node order, compensated reductions)
    again = assemble_operator(sset, max_degree=10)
    assert again.sigma_min == op.sigma_min


def test_probe_report_structure():
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=4, extent=4.0,
                    radii=np.geomspace(0.3, 4.0, 12))
    op = assemble_operator(sset, max_degree=4)
    rep = injectivity_probe(op, degree_steps=(0, 2))
    assert rep.engine == "twisted"
    assert set(rep.sigma_curve) == {4, 6}
    assert rep.sigma_curve[6] < rep.sigma_curve[4]   # tighter truncation
    assert rep.caveat == INJECTIVITY_CAVEAT
    json.dumps(rep.as_dict())                        # serializable as-is
    # a single nonzero step is the wider truncation, not the base degree
    alone = injectivity_probe(op, degree_steps=(2,))
    assert alone.sigma_curve == {6: rep.sigma_curve[6]}


def _record_svd_calls(monkeypatch) -> list:
    """(shape, compute_uv) of every np.linalg.svd call from here on."""
    calls = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


def test_probe_decomposes_each_truncation_once(monkeypatch):
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=4, extent=4.0,
                    radii=np.geomspace(0.3, 4.0, 12))
    calls = _record_svd_calls(monkeypatch)
    op = assemble_operator(sset, max_degree=2)
    assert calls == []                               # decomposed on first use
    rep = injectivity_probe(op, degree_steps=(0, 2, 4))
    # the operator with vectors, the two wider truncations without, each
    # as one block per rotation class (Sigma_2 has q = 4): every column of
    # a truncation once
    assert sset.rotation_orders == (4,)
    with_uv = [shape[1] for shape, uv in calls if uv]
    without = [shape[1] for shape, uv in calls if not uv]
    assert len(with_uv) == 4 and sum(with_uv) == 9
    assert len(without) == 2 * 4 and sum(without) == 25 + 49
    assert rep.sigma_curve[2] == op.sigma_min
    # a repeated step is decomposed once
    first = list(calls)
    calls.clear()
    again = injectivity_probe(assemble_operator(sset, max_degree=2),
                              degree_steps=(0, 2, 2, 4, 4))
    assert calls == first
    assert again.sigma_curve == rep.sigma_curve


def _dense(op: SamplingOperator) -> SamplingOperator:
    """The oracle: the same matrix with no factors, decomposed as is."""
    return SamplingOperator(op.matrix, op.sampling_set, op.basis)


def _projector(null: list) -> np.ndarray:
    V = np.stack([v for _, v in null], axis=1)
    return V @ V.conj().T


def _coxeter(n_lines: int, **motion) -> SamplingSet:
    return make_set("coxeter_lines", n_lines=n_lines, points_per_ray=4, extent=4.0,
                    radii=np.geomspace(0.2, 6.0, 8), **motion)


FACTORED_CASES = {
    # moved off the origin: no rotation symmetry, one class
    "coxeter_lines": (lambda: _moved(_coxeter(3, rotation=0.37), [0.5 - 0.2j]), 6),
    **{f"coxeter_{n}{'_rotated' * bool(rot)}": (lambda n=n, rot=rot: _coxeter(n, rotation=rot), 6)
       for n in (1, 2, 3) for rot in (0.0, 0.37)},
    # |z| = sqrt(2): L_1(1) = 0 takes phi[1,1] off the circle, a near-null column
    "sphere": (lambda: make_set("sphere", radius=np.sqrt(2.0), n=1, m=16,
                                radii=np.geomspace(0.2, 6.0, 8)), 3),
    # the S^3 rule's nodes: eight phases per slot
    "sphere_c2": (lambda: make_set("sphere", radius=1.5, n=2,
                                   radii=np.geomspace(0.3, 4.0, 6)), 2),
    "curve": (lambda: make_set("curve", r_profile=lambda t: 1.0 + 0.2 * t, samples=20,
                               radii=np.geomspace(0.2, 6.0, 8)), 5),
    "custom": (lambda: make_set("custom", centers=[[0.3 + 0.1j, -0.5 + 0.2j],
                                                   [-0.8 + 0.4j, 0.6 - 0.3j],
                                                   [1.1 - 0.2j, 0.2 + 0.9j]],
                                radii=np.geomspace(0.3, 4.0, 6)), 1),
    "plane_cross_coxeter": (lambda: make_set("plane_cross_coxeter", n_lines=2, extent=2.5,
                                             points_per_ray=2, plane_radial=4,
                                             plane_angular=6,
                                             radii=np.geomspace(0.4, 3.0, 5)), 1),
    # |z1| = 2: 18 exact null columns at K = 2
    "sphere_cross_plane": (lambda: make_set("sphere_cross_plane", radius=2.0,
                                            radii=np.geomspace(0.2, 6.0, 8)), 2),
    # 2 centres, 5 degrees: N is 10 x 25 while M is 32 x 25
    "wide_factors": (lambda: make_set("custom", centers=[[0.4 - 0.3j], [-1.2 + 0.5j]],
                                      radii=np.geomspace(0.3, 4.0, 16)), 4),
    # {-1, 0, 1}, split in two: each class's N is wide and M (48 x 25) tall
    "wide_symmetric": (lambda: make_set("coxeter_lines", n_lines=1, points_per_ray=1,
                                        extent=1.0, radii=np.geomspace(0.3, 4.0, 16)), 4),
}


@pytest.mark.parametrize("case", list(FACTORED_CASES))
def test_factored_svd_matches_dense_oracle(case):
    build, K = FACTORED_CASES[case]
    op = assemble_operator(build(), max_degree=K)
    assert op.factors is not None and not op.degenerate
    dense = _dense(op)
    s, ref = op.singular_values, dense.singular_values
    assert s.shape == ref.shape == (op.shape[1],)
    assert np.max(np.abs(s - ref)) <= 1e-13 * ref[0]
    threshold = 1e-8 * ref[0]
    null, null_ref = op.near_null(threshold), dense.near_null(threshold)
    assert len(null) == len(null_ref)
    if null:
        assert np.max(np.abs(_projector(null) - _projector(null_ref))) <= 1e-12
    for sigma, v in null:
        assert np.linalg.norm(op.matrix @ v) <= 1e-12 * ref[0]
    if case == "wide_factors":
        # rank(B) (k_max + 1) = 2 * 5 < 25 columns: M's tail is exact zeros
        assert np.all(s[10:] == 0.0) and len(null) == 15
    elif case == "sphere_cross_plane":
        assert len(null) == 18
    elif case == "sphere":
        assert len(null) == 1
    # each near-null vector lies in one rotation class
    classes = _rotation_classes(op.basis, op.sampling_set.rotation_orders)
    for sigma, v in null:
        assert sum(bool(np.any(v[c] != 0)) for c, _ in classes) == 1


@pytest.mark.parametrize("case", list(FACTORED_CASES))
def test_class_blocks_are_the_design_matrix_columns(case, monkeypatch):
    # oracle: the dense design matrix B, formed only here; each class's QR
    # reads its block B[:, class], built from the slot tables, bit for bit
    build, K = FACTORED_CASES[case]
    op = assemble_operator(build(), max_degree=K)
    blocks, qr = [], np.linalg.qr

    def recording(a, *args, **kwargs):
        blocks.append(np.array(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    op.singular_values
    B = op.basis.matrix(op.sampling_set.centers)
    classes = _rotation_classes(op.basis, op.sampling_set.rotation_orders)
    assert len(blocks) == len(classes) + 1                 # the last is F's
    for (cols, _), block in zip(classes, blocks):
        assert np.array_equal(block, B[:, cols])
    # the classes partition the columns by their residues mod q_s
    assert np.array_equal(np.sort(np.concatenate([c for c, _ in classes])),
                          np.arange(op.shape[1]))
    res = _frequencies(op.basis) % np.asarray(op.sampling_set.rotation_orders)
    labels = [{tuple(r) for r in res[cols]} for cols, _ in classes]
    assert all(len(lab) == 1 for lab in labels)
    assert len(set.union(*labels)) == len(classes)


@pytest.mark.parametrize("case", ["coxeter_lines", "coxeter_2", "coxeter_3",
                                  "coxeter_3_rotated", "sphere", "curve",
                                  "wide_factors", "wide_symmetric"])
def test_probe_curve_matches_dense_truncations(case):
    # each wider truncation from the top factors against the dense matrix
    # assembled at that truncation
    build, K = FACTORED_CASES[case]
    sset = build()
    rep = injectivity_probe(assemble_operator(sset, max_degree=K), degree_steps=(0, 1, 2))
    assert sorted(rep.sigma_curve) == [K, K + 1, K + 2]
    for k, sigma in rep.sigma_curve.items():
        M = assemble_operator(sset, max_degree=k).matrix
        s = np.linalg.svd(M, compute_uv=False)
        ref = s[-1] if M.shape[0] >= M.shape[1] else 0.0
        assert abs(sigma - ref) <= 1e-13 * s[0], k


SYMMETRIC_SETS = {
    "coxeter_lines": (lambda: make_set("coxeter_lines", n_lines=3, points_per_ray=3,
                                       extent=3.0, rotation=0.2), (6,)),
    "sphere": (lambda: make_set("sphere", radius=2.0, m=10), (10,)),
    "sphere_c2": (lambda: make_set("sphere", radius=1.5, n=2, orders=(3, 6, 10)), (6, 10)),
    "plane_cross_coxeter": (lambda: make_set("plane_cross_coxeter", n_lines=2, extent=2.5,
                                             points_per_ray=2, plane_radial=4,
                                             plane_angular=6), (6, 8)),
    "sphere_cross_plane": (lambda: make_set("sphere_cross_plane", radius=1.3, m=10,
                                            plane_radial=3, plane_angular=6), (10, 6)),
}


@pytest.mark.parametrize("case", list(SYMMETRIC_SETS))
def test_rotation_orders_map_the_centers_onto_themselves(case):
    build, orders = SYMMETRIC_SETS[case]
    sset = build()
    assert sset.rotation_orders == orders
    c = sset.centers
    for s, q in enumerate(orders):
        moved = c.copy()
        moved[:, s] *= np.exp(2j * np.pi / q)
        gap = np.max(np.abs(moved[:, None, :] - c[None, :, :]), axis=2).min(axis=1)
        assert gap.max() <= 1e-12 * max(1.0, np.abs(c).max())


def _frequencies(basis: ProductHermiteBasis) -> np.ndarray:
    """(ncols, slots) angular frequency a_s - b_s of each column's slot
    factors, in the basis's column order (slot 1 major)."""
    return np.array([[a - b for a, b in col]
                     for col in itertools.product(*(zip(*idx) for idx in basis.slot_indices))])


@pytest.mark.parametrize("case", list(SYMMETRIC_SETS))
def test_cross_class_gram_entries_vanish(case):
    # columns of different rotation classes are orthogonal in M itself;
    # normalised by sigma_0^2, as exact null columns leave the diagonal 0
    build, orders = SYMMETRIC_SETS[case]
    sset = build()
    op = assemble_operator(sset, max_degree=4 if sset.dimension == 1 else 2)
    G = op.matrix.conj().T @ op.matrix
    res = _frequencies(op.basis) % np.asarray(orders)
    cross = np.any(res[:, None, :] != res[None, :, :], axis=2)
    assert cross.any()
    sigma0 = np.linalg.svd(op.matrix, compute_uv=False)[0]
    assert np.max(np.abs(G[cross])) <= 1e-13 * sigma0 ** 2


def test_sets_without_rotation_symmetry_report_order_one(monkeypatch):
    assert _moved(_coxeter(2), [0.3]).rotation_orders == (1,)
    # moved in one slot: the other slot keeps its order
    assert FOUND_ORDER_SETS["sphere_c2_translated"][0]().rotation_orders == (8, 1)
    assert FOUND_ORDER_SETS["plane_cross_coxeter_translated"][0]().rotation_orders == (1, 4)
    assert FACTORED_CASES["curve"][0]().rotation_orders == (1,)
    assert FACTORED_CASES["custom"][0]().rotation_orders == (1, 1)
    # on the lines of Sigma_2 but not symmetric: order 1, and
    # the operator is decomposed in one block
    lopsided = SamplingSet("coxeter_lines", 1, [[0.0], [0.5], [1.2], [-0.7j], [2.0j]],
                           np.geomspace(0.3, 4.0, 6), {"n_lines": 2})
    lopsided.validate()
    assert lopsided.rotation_orders == (1,)
    calls = _record_svd_calls(monkeypatch)
    op = assemble_operator(lopsided, max_degree=3)
    dense = np.linalg.svd(op.matrix, compute_uv=False)
    calls.clear()
    assert np.max(np.abs(op.singular_values - dense)) <= 1e-13 * dense[0]
    assert [shape[1] for shape, _ in calls] == [16]


FOUND_ORDER_SETS = {
    "sphere_c2_translated": (lambda: _moved(make_set(
        "sphere", radius=1.5, n=2, radii=np.geomspace(0.3, 4.0, 6)), [0.0, 0.1j]), (8, 1)),
    "plane_cross_coxeter_translated": (lambda: _moved(make_set(
        "plane_cross_coxeter", n_lines=1, extent=2.0, points_per_ray=2, plane_radial=3,
        radii=np.geomspace(0.4, 3.0, 5)), [0.2, 0.0]), (1, 4)),
    "custom_sigma2": (lambda: make_set("custom", centers=make_set(
        "coxeter_lines", n_lines=2, points_per_ray=4, extent=4.0).centers,
        radii=np.geomspace(0.2, 6.0, 8)), (4,)),
    "custom_empty": (lambda: SamplingSet("custom", 1, np.zeros((0, 1)),
                                         np.geomspace(0.3, 4.0, 6), {}), (1,)),
    "custom_empty_c2": (lambda: SamplingSet("custom", 2, np.zeros((0, 2)),
                                            np.geomspace(0.3, 4.0, 6), {}), (1, 1)),
}


@pytest.mark.parametrize("case", list(FOUND_ORDER_SETS))
def test_found_rotation_orders_split_the_svd(case, monkeypatch):
    # the orders come from the centers, whatever the kind or motion
    # declares; each class is decomposed once and the union of their
    # singular values is the dense SVD's
    build, orders = FOUND_ORDER_SETS[case]
    sset = build()
    assert sset.rotation_orders == orders
    basis = ProductHermiteBasis((4,) if sset.dimension == 1 else (2, 2))
    op = assemble_operator(sset, basis=basis)
    calls = _record_svd_calls(monkeypatch)
    s = op.singular_values
    # slot s has frequencies -d_s..d_s: min(q_s, 2 d_s + 1) residues
    assert len(calls) == math.prod(min(q, 2 * d + 1)
                                   for d, q in zip(basis.slot_degrees, orders))
    dense = np.linalg.svd(op.matrix, compute_uv=False)
    assert s.shape == dense.shape
    if dense.size:
        assert np.max(np.abs(s - dense)) <= 1e-13 * dense[0]


def test_cli_default_probe_decomposes_rotation_blocks(tmp_path, monkeypatch):
    # Sigma_2 at K = 10, steps 0, 2, 4: classes of a - b mod 4
    calls = _record_svd_calls(monkeypatch)
    assert main(["--experiment", "probe", "--out", str(tmp_path)]) == 0
    with_uv = [shape[1] for shape, uv in calls if uv]
    without = [shape[1] for shape, uv in calls if not uv]
    assert len(with_uv) == 4 and sum(with_uv) == 121 and max(with_uv) == 31
    assert len(without) == 8 and sum(without) == 169 + 225 and max(without) == 57


def test_operator_without_factors_decomposes_its_matrix():
    # a bare matrix is decomposed as given, even where the set and basis
    # could rebuild factors: here the matrix is not their product
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=2, extent=2.0,
                    radii=[0.5, 1.0, 2.0])
    op = assemble_operator(sset, max_degree=1)
    assert op.dense is None and op.factors is not None
    halved = SamplingOperator(0.5 * op.matrix, sset, op.basis)
    assert halved.factors is None
    assert np.allclose(halved.singular_values, 0.5 * op.singular_values, rtol=1e-13)
    # an operator holds one representation: both, or neither, raise
    with pytest.raises(ValueError, match="exactly one"):
        SamplingOperator(op.matrix, sset, op.basis, op.factors)
    with pytest.raises(ValueError, match="exactly one"):
        dataclasses.replace(op, dense=0.5 * op.matrix)
    with pytest.raises(ValueError, match="exactly one"):
        SamplingOperator(None, sset, op.basis)
    # the factors are the twisted operator itself: halving the slot-1 table
    # halves M
    (T1, *others), F = op.factors
    scaled = SamplingOperator(None, sset, op.basis, ((0.5 * T1, *others), F))
    assert np.array_equal(scaled.matrix, 0.5 * op.matrix)
    assert np.allclose(scaled.singular_values, halved.singular_values, rtol=1e-13)


def _traced_coxeter4_probe(K: int) -> tuple:
    """(set, basis, tracemalloc peak) of assembling Coxeter-4 at (K, K)
    and reading the vectors of its four smallest sigma."""
    sset = make_set("plane_cross_coxeter", n_lines=2)
    basis = ProductHermiteBasis((K, K))
    held = []

    def probe():
        op = assemble_operator(sset, basis=basis)
        held.append((op, op.near_null(op.singular_values[-4])))    # the four smallest

    peak = peak_mb(probe) * 2 ** 20
    (op, null), = held
    assert op.shape == (sset.n_rows, basis.ncols) and not op.degenerate
    assert len(null) >= 4 and all(v.shape == (basis.ncols,) for _, v in null)
    return sset, basis, peak


def test_factored_probe_stays_off_the_dense_matrix():
    # Coxeter-4 at K = 3: M would be 76 032 x 256 complex, 311 MB; the
    # factors and their per-class reductions peak near 15 MB
    sset, basis, peak = _traced_coxeter4_probe(3)
    assert sset.n_rows * basis.ncols * 16 > 300e6
    assert peak < 64e6, peak


def test_factored_probe_stays_off_the_design_matrix():
    # Coxeter-4 at K = 5: B alone would be 3 168 x 1 296 complex, 66 MB;
    # the slot tables (3 168 x 36 each) and one class block at a time peak
    # near 9 MB
    sset, basis, peak = _traced_coxeter4_probe(5)
    assert sset.centers.shape[0] * basis.ncols * 16 > 63e6
    assert peak < 16e6, peak


def test_probe_rejects_steps_below_degree_zero():
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=4, extent=4.0,
                    radii=np.geomspace(0.3, 4.0, 12))
    op = assemble_operator(sset, max_degree=2)
    with pytest.raises(ValueError, match="below 0"):
        injectivity_probe(op, degree_steps=(-3, 0))


def test_plane_cross_block_offmass():
    sset = make_set("plane_cross_coxeter", n_lines=2, extent=2.5,
                    points_per_ray=2, radii=np.geomspace(0.4, 3.0, 4))
    op = assemble_operator(sset, basis=ProductHermiteBasis((1, 1)),
                           sphere_orders=(8, 16, 16))
    assert plane_block_offmass(op) < 1e-8
    # the blocks are the slot-1 factors: a one-slot basis has none
    sset1 = make_set("coxeter_lines", n_lines=2, points_per_ray=2, extent=2.0)
    with pytest.raises(ValueError, match="two-slot"):
        plane_block_offmass(assemble_operator(sset1, max_degree=1))


@pytest.mark.parametrize("carrier", [{}, {"plane_radial": 3, "plane_angular": 4}],
                         ids=["default", "coarse"])
def test_block_offmass_from_factors_matches_dense_weighted_gram(carrier):
    # oracle: the weighted Gram of M itself, each row weighted by its
    # center's rule weight; the coarse carrier leaves a large off-mass
    sset = make_set("plane_cross_coxeter", n_lines=2, extent=2.5, points_per_ray=2,
                    rotation=0.3, radii=np.geomspace(0.4, 3.0, 4), **carrier)
    op = assemble_operator(sset, basis=ProductHermiteBasis((1, 1)))
    A, w = op.matrix, sset.center_weights[sset.row_meta()[0]]
    G = (A.conj().T * w[None, :]) @ A
    keys = op.basis.block_keys
    off = keys[:, None] != keys[None, :]
    ref = np.sum(np.abs(G[off]) ** 2) / np.sum(np.abs(G) ** 2)
    got = plane_block_offmass(op)
    # the off-block part's norm relative to the Gram's: round-off of the
    # Gram, not of the off-mass, which is 1.8e-14 on the default carrier
    assert abs(np.sqrt(got) - np.sqrt(ref)) <= 1e-12
    if carrier:
        assert ref > 1e-2 and abs(got - ref) <= 1e-12 * ref
    # an operator given its matrix has no factors to take the Gram from
    with pytest.raises(ValueError, match="factors"):
        plane_block_offmass(SamplingOperator(A, sset, op.basis))


def test_probe_curve_is_for_the_one_slot_basis():
    # on C the default basis is the one-slot product basis and draws the
    # sigma-curve; on C^2 the report keeps no base degree and one entry
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=3, extent=3.0,
                    radii=np.geomspace(0.3, 4.0, 10))
    op = assemble_operator(sset, max_degree=2)
    assert op.basis.slot_degrees == (2,)
    rep = injectivity_probe(op, degree_steps=(0, 1))
    assert rep.base_degree == 2 and sorted(rep.sigma_curve) == [2, 3]
    sset2 = make_set("custom", centers=[[0.3 + 0.1j, -0.5 + 0.2j],
                                        [-0.8 + 0.4j, 0.6 - 0.3j]], radii=[0.7, 1.9])
    op2 = assemble_operator(sset2, max_degree=0)
    assert op2.basis.slot_degrees == (0, 0)
    rep2 = injectivity_probe(op2, degree_steps=(0, 1))
    assert rep2.as_dict()["K"] is None and rep2.sigma_curve == {0: op2.sigma_min}


@pytest.mark.parametrize("degrees", [(), (1, 1, 1), (-1,), (2, -1)])
def test_product_basis_rejects_bad_slot_degrees(degrees):
    with pytest.raises(ValueError, match="slot degrees"):
        ProductHermiteBasis(degrees)


@pytest.mark.parametrize("degrees, bad", [
    ((2.7,), "slot degrees[0] must be an integer >= 0, got 2.7"),
    ((True,), "slot degrees[0] must be an integer >= 0, got True"),
    ((1, 1.0), "slot degrees[1] must be an integer >= 0, got 1.0"),
])
def test_product_basis_slot_degrees_are_integers(degrees, bad):
    # a float or a bool was truncated to a degree: (2.7,) built degree 2
    with pytest.raises(ValueError, match=re.escape(bad)):
        ProductHermiteBasis(degrees)
    basis = ProductHermiteBasis((np.int64(2), np.int32(1)))
    assert basis.slot_degrees == (2, 1) and all(type(d) is int for d in basis.slot_degrees)


def test_operator_shape_must_match_set_and_basis():
    sset = make_set("coxeter_lines", n_lines=1, points_per_ray=2, extent=1.0,
                    radii=[0.5, 1.0])
    op = assemble_operator(sset, max_degree=1)
    assert op.engine == "twisted"
    with pytest.raises(ValueError, match="matrix shape"):
        SamplingOperator(op.matrix[1:], sset, op.basis)
    with pytest.raises(ValueError, match="matrix shape"):
        SamplingOperator(op.matrix, sset, ProductHermiteBasis((2,)))


# ---------------------------------------------------------------------------
# Hecke-Bochner vanishing scan


def test_hecke_bochner_zero_set_detection():
    P = solid_harmonic_basis(1, 1, 2)[0]
    spec = TypeFunctionSpec(P)
    rep = hecke_bochner_counterexample(spec, sphere_orders=(8, 16, 16))
    assert rep.centers.shape[1] == 2
    assert rep.max_on_set <= 1e-8 * rep.field_peak
    assert rep.min_off_set >= 1e-3 * rep.field_peak
    # no sphere candidate: no center off P^(-1)(0) measured zero
    assert not np.any(rep.detected_zero & ~rep.on_zero_locus)
    json.dumps(rep.as_dict())


def _plane_rule_peak(spec, rule) -> float:
    """The field peak as the scan read it once: max |f| over every node of
    the plane rule, in one evaluation."""
    return float(np.max(np.abs(spec.evaluate(rule.nodes))))


# (harmonic (p, q, n), the scan's default plane rule)
DEFAULT_PEAK_RULES = {
    1: ((2, 0, 1), dict(extent=12.0, radial_points=64, angular_points=256)),
    2: ((1, 1, 2), dict(extent=12.0, radial_points=40, sphere3_orders=(10, 20, 20))),
}


@pytest.mark.parametrize("n", [1, 2])
def test_field_peak_is_the_plane_rule_peak(n, monkeypatch):
    """The peak read ring by ring equals max |f| over the default plane
    rule's nodes bit for bit, and the scan does not build that rule."""
    pqn, params = DEFAULT_PEAK_RULES[n]
    spec = TypeFunctionSpec(solid_harmonic_basis(*pqn)[0])
    default = plane_rule(n, **params)
    scan = dict(sphere_orders=(4, 8, 8))

    def no_plane_rule(*args, **kw):
        raise AssertionError("the default scan built a plane rule")

    monkeypatch.setattr(quadrature.PlaneRule, "__init__", no_plane_rule)
    got = hecke_bochner_counterexample(spec, **scan).field_peak
    assert got == _plane_rule_peak(spec, default)


def test_default_c2_scan_stays_small():
    # a peak read over the whole 160 000-node default plane rule takes 20.8 MB
    spec = TypeFunctionSpec(solid_harmonic_basis(1, 1, 2)[0])
    hecke_bochner_counterexample(spec)          # caches built outside the trace
    peak = peak_mb(lambda: hecke_bochner_counterexample(spec))
    assert peak <= 4.0, peak


def test_scan_reads_slot_points_only(monkeypatch):
    # counting factors: the scan reads each slot's columns at the S^3
    # rules' own slot nodes, once per distinct slot value, and the type
    # function at no S^3 node
    reads = {0: 0, 1: 0}
    plain = TypeFunctionSpec.slot_product

    def counting(self):
        product = plain(self)

        def wrap(s, g):
            def columns(z):
                reads[s] += np.size(z)
                return g(z)
            return columns

        return SlotProduct(tuple(wrap(s, g) for s, g in enumerate(product.factors)),
                           product.coupling)

    def no_node_reads(self, points):
        raise AssertionError("the type function was read at S^3 nodes")

    monkeypatch.setattr(TypeFunctionSpec, "slot_product", counting)
    monkeypatch.setattr(SlotProduct, "evaluate", no_node_reads)
    orders = (6, 8, 12)
    spec = TypeFunctionSpec(solid_harmonic_basis(1, 1, 2)[0])
    rep = hecke_bochner_counterexample(spec, sphere_orders=orders)
    T, M1, M2 = orders
    distinct = [np.unique(rep.centers[:, s]).size for s in range(2)]
    assert distinct == [16, 17] and rep.centers.shape[0] == 40
    assert reads == {0: distinct[0] * rep.radii.size * T * M1,
                     1: distinct[1] * rep.radii.size * T * M2}
    assert rep.max_on_set <= 1e-8 * rep.field_peak


def test_product_roundtrip_means_come_from_slot_columns(monkeypatch):
    # a two-slot product basis is remeasured through per-slot special
    # Hermite matrices; the face-splitting matrix is read at no S^3 node
    sset = make_set("custom", centers=[[0.3 + 0.1j, -0.5 + 0.2j],
                                       [-0.8 + 0.4j, 0.6 - 0.3j]], radii=[0.7, 1.9])
    op = assemble_operator(sset, basis=ProductHermiteBasis((1, 1)))

    def no_basis_reads(self, points):
        raise AssertionError("the product matrix was read at S^3 nodes")

    monkeypatch.setattr(ProductHermiteBasis, "matrix", no_basis_reads)
    assert near_null_roundtrip(op, np.ones(op.basis.ncols)) > 0


def test_type_function_spec_guards():
    P = solid_harmonic_basis(1, 1, 2)[0]
    spec = TypeFunctionSpec(P)
    with pytest.raises(ValueError, match="C\\^2"):
        TypeFunctionSpec(solid_harmonic_basis(1, 0, 1)[0]).slot_product()
    # four C points are not two C^2 points
    with pytest.raises(ValueError, match="last axis 2"):
        spec.evaluate(np.ones((4, 1), dtype=complex))
    with pytest.raises(ValueError, match="last axis 2"):
        spec.evaluate(np.ones(4, dtype=complex))
    assert spec.evaluate(np.ones((3, 2), dtype=complex)).shape == (3,)


# ---------------------------------------------------------------------------
# sector expansion fit


@pytest.fixture(scope="module")
def q2_of_type_p1(rule_c1_small_module):
    # profile deliberately not e^(-|z|^2/4): that one is a single spectral
    # line (z e^(-|z|^2/4) is a basis element) and would leave Q_2 empty
    f = SampledField.from_function(
        lambda p: p[:, 0] * np.exp(-np.abs(p[:, 0]) ** 2 / 3.0),
        rule_c1_small_module, name="type_p1")
    return spectral_projection(f, 2)


@pytest.fixture(scope="module")
def rule_c1_small_module():
    return plane_rule(1, extent=10.0, radial_points=40, angular_points=128)


def test_fit_localizes_and_predicts(q2_of_type_p1):
    fit = fit_projection_expansion(q2_of_type_p1, 2)
    assert fit.dominant_sector() == ("p", 1)
    assert fit.condition_number < 10.0
    # held-out check away from the grid
    pts = np.array([0.45 + 0.3j, 1.3 - 0.8j, 2.2 + 0.4j])
    ref = q2_of_type_p1.evaluate(pts[:, None])
    pred = fit.predict(pts)
    scale = float(np.max(np.abs(ref)))
    assert np.max(np.abs(pred - ref)) < 1e-6 * scale
    json.dumps(fit.as_dict())


def test_fit_condition_guard(q2_of_type_p1, monkeypatch):
    # no plane rule reaches the 1e10 guard: the normalised sector design
    # is near-orthonormal (condition 1.0 here), so its singular values are
    # patched to a condition just past the guard, then to one on it
    def singular_values(cond):
        return lambda a, compute_uv: np.array([cond, 1.0])

    monkeypatch.setattr(np.linalg, "svd", singular_values(1.0000001e10))
    with pytest.raises(IllConditionedFitError) as err:
        fit_projection_expansion(q2_of_type_p1, 2)
    assert err.value.condition_number == 1.0000001e10
    monkeypatch.setattr(np.linalg, "svd", singular_values(1e10))
    assert fit_projection_expansion(q2_of_type_p1, 2).condition_number == 1e10


def test_fit_requires_c1(c2_stub=None):
    rule = plane_rule(2, extent=4.0, radial_points=8, sphere3_orders=(3, 6, 6),
                      tolerance=float("inf"))
    f = SampledField.from_function(
        lambda p: np.exp(-np.sum(np.abs(p) ** 2, axis=1)).astype(complex), rule)
    with pytest.raises(ValueError, match="on C"):
        fit_projection_expansion(f, 1)


# ---------------------------------------------------------------------------
# exports


def test_operator_and_sigma_csv(tmp_path, euclid_odd_operator):
    op = euclid_odd_operator
    csv_p = tmp_path / "operator.csv"
    meta_p = tmp_path / "operator.json"
    operator_to_csv(op, csv_p, meta_p)
    lines = csv_p.read_text().strip().splitlines()
    assert len(lines) == op.shape[0] + 1
    meta = json.loads(meta_p.read_text())
    assert meta["labels"] == op.basis.labels

    rep = injectivity_probe(op)
    sig_p = tmp_path / "sigma.csv"
    sigma_curve_to_csv(rep, sig_p)
    assert len(sig_p.read_text().strip().splitlines()) == len(rep.sigma_curve) + 1


def test_operator_csv_cells_are_the_factor_products(tmp_path):
    # a twisted operator's M is formed from its factors once per export
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=2, extent=2.0,
                    radii=[0.5, 1.0, 2.0])
    op = assemble_operator(sset, max_degree=2)
    reads = []

    class Counting(SamplingOperator):
        @property
        def matrix(self):
            reads.append(1)
            return super().matrix

    counted = Counting(None, sset, op.basis, op.factors)
    operator_to_csv(counted, tmp_path / "operator.csv")
    assert len(reads) == 1
    # one slot: the slot table is the design matrix
    (T,), F = op.factors
    k = op.basis.spectral_degrees
    lines = (tmp_path / "operator.csv").read_text().strip().splitlines()
    assert len(lines) == op.shape[0] + 1
    for line in lines[1:]:
        cells = line.split(",")
        j, i = int(cells[0]), int(cells[1])
        parts = np.asarray(cells[2:], dtype=float)
        assert np.array_equal(parts[0::2] + 1j * parts[1::2], T[j] * F[i, k])
