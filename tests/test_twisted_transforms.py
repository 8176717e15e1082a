"""Twisted means, convolutions, and spectral projections.

The module-level identities here are the working core: the radial product
rule, expansion orthogonality, translate covariance, and the polar bridge.
Each is checked well below its documented tolerance so acceptance-level
drift shows up here first.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (StackedFields, design_matrix_coefficients,
                      direct_projection_table, direct_projection_values,
                      nested_piece_values, peak_mb, per_pair_twisted_mean,
                      special_hermite_basis, whole_grid_pieces, whole_mode_table)
from tsmlab import twisted_transforms
from tsmlab.constants import TWIST_SIGN, sphere_surface_area
from tsmlab.euclidean_means import bump_profile
from tsmlab.errors import (FieldDomainError, GridMismatchError,
                           TranslateTailWarning, TruncationTailWarning)
from tsmlab.fields import SampledField
from tsmlab.quadrature import plane_rule, radial_rule
from tsmlab.special_functions import (LaguerreSpec, laguerre_function,
                                      radial_eigenfunction_origin)
from tsmlab.twisted_transforms import (convolution_values, mean_profile,
                                       polar_bridge, projection_values,
                                       spectral_projection,
                                       spectral_projections,
                                       special_hermite_coefficients,
                                       special_hermite_truncation,
                                       tensor_decompose_projection,
                                       twist_phase, SlotProduct,
                                       twisted_mean_table,
                                       twisted_spherical_mean,
                                       twisted_translate)
from tsmlab.injectivity_lab import ProductHermiteBasis, TypeFunctionSpec
from tsmlab.special_functions import solid_harmonic_basis, special_hermite_matrix


def _phi_field(rule, k):
    spec = LaguerreSpec(k, rule.dimension - 1)
    return SampledField.from_function(
        lambda p: laguerre_function(spec, np.linalg.norm(p, axis=1)).astype(complex),
        rule, name=f"phi{k}")


def test_twist_phase_structure():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    w = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    ph = twist_phase(z, w)
    assert np.allclose(np.abs(ph), 1.0)
    assert np.allclose(twist_phase(w, z), np.conj(ph))   # antisymmetric exponent
    assert np.allclose(twist_phase(z, z), 1.0)


def test_mean_at_radius_zero_is_evaluation(gauss_field):
    z = np.array([0.7 - 0.2j])
    assert twisted_spherical_mean(gauss_field, z, 0.0) == pytest.approx(
        complex(gauss_field.evaluate(z[None, :])[0]))


def test_mean_input_validation(gauss_field):
    with pytest.raises(ValueError, match=">= 0"):
        twisted_spherical_mean(gauss_field, np.array([0j]), -1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            twisted_spherical_mean(gauss_field, np.array([0j]), bad)
    with pytest.raises(ValueError, match="center"):
        twisted_spherical_mean(gauss_field, np.array([0j, 0j]), 1.0)


def test_mean_small_radius_continuity(gauss_field):
    z = np.array([0.5 + 0.5j])
    f0 = complex(gauss_field.evaluate(z[None, :])[0])
    drift = abs(twisted_spherical_mean(gauss_field, z, 1e-5) - f0)
    assert drift < 1e-9


def test_mean_is_linear(rule_c1_small):
    f = _phi_field(rule_c1_small, 0)
    g = _phi_field(rule_c1_small, 2)
    z = np.array([0.9 + 0.1j])
    h = SampledField(rule_c1_small, f.values + 2.5j * g.values,
                     lambda p: f.evaluator(p) + 2.5j * g.evaluator(p))
    lhs = twisted_spherical_mean(h, z, 1.4)
    rhs = (twisted_spherical_mean(f, z, 1.4)
           + 2.5j * twisted_spherical_mean(g, z, 1.4))
    assert abs(lhs - rhs) < 1e-14


# 11 radii past 0: the C table reads f in blocks of 8 circles, 2048 points
TABLE_RADII = np.concatenate([[0.0], np.geomspace(0.2, 6.0, 11)])
TABLE_CENTERS = np.array([[0.3 + 0.2j], [-1.1 + 0.7j], [2.0 - 0.4j]])


def _offcentre(rule):
    return SampledField.from_function(
        lambda p: (1.0 + 0.4 * p[:, 0]) * np.exp(-np.abs(p[:, 0] - (0.6 - 0.3j)) ** 2 / 2.5),
        rule, name="offcentre")


def _per_pair(f, centers, radii, **kw):
    return np.array([[per_pair_twisted_mean(f, z, r, **kw) for r in radii]
                     for z in centers])


@pytest.mark.parametrize("which", ["gaussian", "offcentre"])
def test_mean_table_matches_per_pair_oracle(which, gauss_field, rule_c1):
    f = gauss_field if which == "gaussian" else _offcentre(rule_c1)
    peak = np.max(np.abs(f.values))
    for kw in ({}, {"m": 64}):
        table = twisted_mean_table(f, TABLE_CENTERS, TABLE_RADII, **kw)
        ref = _per_pair(f, TABLE_CENTERS, TABLE_RADII, **kw)
        assert table.shape == (3, 12)
        assert np.max(np.abs(table - ref)) <= 1e-15 * peak


def test_mean_table_matches_per_pair_oracle_on_c2():
    # criterion 7's type function, z1 conj(z2) exp(-|z|^2/4)
    rule = plane_rule(2, extent=8.0, radial_points=12, sphere3_orders=(4, 8, 8),
                      tolerance=float("inf"))
    f = SampledField.from_function(
        TypeFunctionSpec(solid_harmonic_basis(1, 1, 2)[0]).evaluate, rule)
    centers = np.array([[0.6 + 0.0j, 0.0j], [0.5 - 0.2j, 0.3 + 0.4j],
                        [-1.1j, 1.6 + 0.0j]])
    radii = np.array([0.3, 1.1, 3.0])
    table = twisted_mean_table(f, centers, radii)
    ref = _per_pair(f, centers, radii)
    assert np.max(np.abs(table - ref)) <= 1e-15 * np.max(np.abs(f.values))


def test_mean_table_slot_bookkeeping_on_c2():
    """Non-square S^3 orders and a field that tells its slots apart, off
    centre in both: a slot mix-up in the twist or the contraction order
    cannot cancel.  Centres have both slots nonzero; r = 0 included."""
    rule = plane_rule(2, extent=8.0, radial_points=12, sphere3_orders=(4, 8, 8),
                      tolerance=float("inf"))
    f = SampledField.from_function(
        lambda p: ((1.0 + 0.3 * p[:, 0] - 0.5j * np.conj(p[:, 1]))
                   * np.exp(-np.abs(p[:, 0] - (0.7 - 0.2j)) ** 2 / 2.0
                            - np.abs(p[:, 1] + (0.3 + 0.9j)) ** 2 / 3.5)),
        rule, name="slots")
    centers = np.array([[0.5 - 0.2j, 0.3 + 0.4j], [-1.1j, 1.6 + 0.2j],
                        [0.9 + 0.8j, -0.6 - 1.2j]])
    radii = np.array([0.0, 0.3, 1.1, 2.4])
    for orders in [(5, 6, 10), (3, 12, 4)]:
        table = twisted_mean_table(f, centers, radii, orders=orders)
        ref = _per_pair(f, centers, radii, orders=orders)
        assert np.max(np.abs(table - ref)) <= 1e-15 * np.max(np.abs(f.values)), orders


@pytest.mark.parametrize("n", [1, 2])
def test_untwisted_table_is_the_plain_spherical_mean(n):
    """twist=False: the plain average of |z - w|^2 over |w| = r is
    |z|^2 + r^2, and a real field gives a real table.  On C^2 a
    ``SlotProduct`` of the same field is read at the S^3 nodes like any
    field."""
    norm2 = lambda p: np.sum(np.abs(p) ** 2, axis=-1)
    centers = (np.array([[0.6 - 0.2j], [1.5j]]) if n == 1
               else np.array([[0.6 - 0.2j, 0.3j], [-1.1j, 1.6 + 0.0j]]))
    radii = np.array([0.0, 0.4, 2.5])
    ref = norm2(centers)[:, None] + radii ** 2
    fields = [SimpleNamespace(dimension=n, evaluate=norm2)]
    if n == 2:
        fields.append(SlotProduct((lambda z: np.stack([np.abs(z) ** 2, np.ones(z.shape)], axis=1),
                                   lambda z: np.stack([np.ones(z.shape), np.abs(z) ** 2], axis=1)),
                                  np.eye(2)))
    for f in fields:
        table = twisted_mean_table(f, centers, radii, twist=False)
        assert table.dtype == float
        assert np.max(np.abs(table - ref)) <= 1e-14 * np.max(ref)


# repeated slot values: the slot sums are shared between centres
SLOT_CENTERS = np.array([[0.6 + 0.0j, 0.0j], [0.5 - 0.2j, 0.3 + 0.4j],
                         [-1.1j, 1.6 + 0.0j], [0.6 + 0.0j, 0.3 + 0.4j]])
SLOT_RADII = np.array([0.0, 0.3, 1.1, 3.0])


@pytest.mark.parametrize("which", [0, 1, 2])
def test_slot_product_means_match_generic_table_and_per_pair_oracle(which):
    # every (1,1) harmonic: z1 conj(z2), z2 conj(z1) and the two-monomial one
    rule = plane_rule(2, extent=8.0, radial_points=12, sphere3_orders=(4, 8, 8),
                      tolerance=float("inf"))
    spec = TypeFunctionSpec(solid_harmonic_basis(1, 1, 2)[which])
    f = SampledField.from_function(spec.evaluate, rule)
    product = spec.slot_product()
    peak = np.max(np.abs(f.values))
    assert np.max(np.abs(product.evaluate(rule.nodes) - f.values)) <= 1e-15 * peak
    for orders in [None, (5, 6, 10)]:
        table = twisted_mean_table(product, SLOT_CENTERS, SLOT_RADII, orders=orders)
        generic = twisted_mean_table(f, SLOT_CENTERS, SLOT_RADII, orders=orders)
        ref = _per_pair(f, SLOT_CENTERS, SLOT_RADII, orders=orders)
        assert table.shape == (4, 4)
        assert np.max(np.abs(table - generic)) <= 1e-15 * peak, orders
        assert np.max(np.abs(table - ref)) <= 1e-15 * peak, orders


def test_slot_product_means_of_product_basis_vectors():
    # V = 3 coefficient vectors of a (1, 2) product basis, columns slot 1 outer
    basis = ProductHermiteBasis((1, 2))
    rng = np.random.default_rng(7)
    c = rng.normal(size=(basis.ncols, 3)) + 1j * rng.normal(size=(basis.ncols, 3))
    product = SlotProduct((lambda z: special_hermite_matrix(z, 1),
                           lambda z: special_hermite_matrix(z, 2)), c.reshape(4, 9, 3))
    stacked = SimpleNamespace(dimension=2, evaluate=lambda p: basis.matrix(p) @ c)
    lattice = plane_rule(2, extent=6.0, radial_points=8, sphere3_orders=(4, 8, 8),
                         tolerance=float("inf")).nodes
    peak = np.max(np.abs(stacked.evaluate(lattice)))
    assert np.max(np.abs(product.evaluate(lattice) - stacked.evaluate(lattice))) <= 1e-15 * peak
    orders = (6, 8, 12)
    table = twisted_mean_table(product, SLOT_CENTERS, SLOT_RADII, orders=orders)
    assert table.shape == (4, 4, 3)
    generic = twisted_mean_table(stacked, SLOT_CENTERS, SLOT_RADII, orders=orders)
    assert np.max(np.abs(table - generic)) <= 1e-15 * peak
    for v in range(3):
        column = SimpleNamespace(dimension=2, evaluate=lambda p, _v=v: stacked.evaluate(p)[:, _v])
        ref = _per_pair(column, SLOT_CENTERS, SLOT_RADII, orders=orders)
        assert np.max(np.abs(table[..., v] - ref)) <= 1e-15 * peak, v


def test_mean_table_of_csv_import_matches_per_pair_oracle(rule_c1_small, tmp_path):
    _offcentre(rule_c1_small).to_csv(tmp_path / "f.csv")
    sampled = SampledField.from_csv(tmp_path / "f.csv")
    assert sampled.evaluator is None                  # every read interpolates
    table = twisted_mean_table(sampled, TABLE_CENTERS, TABLE_RADII)
    ref = _per_pair(sampled, TABLE_CENTERS, TABLE_RADII)
    assert np.max(np.abs(table - ref)) <= 1e-15 * np.max(np.abs(sampled.values))


@pytest.mark.parametrize("case", ["c1", "c2", "csv"])
def test_vector_table_equals_scalar_tables(case, gauss_field, rule_c1_small, tmp_path):
    """A field returning (P, V) gets the (C, R, V) table whose column v is,
    bit for bit, the scalar table of field v; r = 0 columns included."""
    if case == "c2":
        rule = plane_rule(2, extent=8.0, radial_points=12, sphere3_orders=(4, 8, 8),
                          tolerance=float("inf"))
        fields = [SampledField.from_function(TypeFunctionSpec(h).evaluate, rule)
                  for h in solid_harmonic_basis(1, 1, 2)]
        centers = np.array([[0.6 + 0.0j, 0.0j], [0.5 - 0.2j, 0.3 + 0.4j]])
        radii = np.array([0.0, 0.3, 1.1, 3.0])
    else:
        half = SampledField(gauss_field.rule, 0.5j * gauss_field.values,
                            lambda p: 0.5j * gauss_field.evaluator(p))
        fields = [half, _offcentre(gauss_field.rule)]
        if case == "csv":
            _offcentre(rule_c1_small).to_csv(tmp_path / "f.csv")
            fields[1] = SampledField.from_csv(tmp_path / "f.csv")
            fields[0] = _phi_field(rule_c1_small, 2)
        centers, radii = TABLE_CENTERS, TABLE_RADII
    assert len(fields) >= 2
    table = twisted_mean_table(StackedFields(fields), centers, radii)
    assert table.shape == (len(centers), len(radii), len(fields))
    for v, f in enumerate(fields):
        assert np.array_equal(table[:, :, v], twisted_mean_table(f, centers, radii)), v


def test_mean_table_input_validation(gauss_field):
    with pytest.raises(ValueError, match=">= 0"):
        twisted_mean_table(gauss_field, [[0j]], [1.0, -0.5])
    with pytest.raises(ValueError, match="finite"):
        twisted_mean_table(gauss_field, [[0j]], [1.0, np.nan])
    with pytest.raises(ValueError, match="center"):
        twisted_mean_table(gauss_field, [[0j, 0j]], [1.0])
    with pytest.raises(ValueError, match="center"):
        twisted_mean_table(gauss_field, [0j, 0.5j], [1.0])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_centers_are_rejected(n, bad, gauss_field):
    """A non-finite center meets no sphere, so it would read +0.0 (NaN at
    r = 0): every mean entry raises ValueError naming it instead."""
    if n == 1:
        fields = [gauss_field, SampledField(gauss_field.rule, gauss_field.values)]
    else:
        fields = [SimpleNamespace(dimension=2, evaluate=lambda p: np.ones(len(p))),
                  SlotProduct((lambda v: np.ones((v.size, 1)),) * 2, np.ones((1, 1)))]
    good = np.full(n, 0.3 + 0.1j)
    bad_center = good.copy()
    bad_center[-1] = bad
    for f in fields:
        for twist in (True, False):
            with pytest.raises(ValueError, match=r"finite, got .* at row 1"):
                twisted_mean_table(f, [good, bad_center], [0.0, 0.5, 1.0], twist=twist)
        with pytest.raises(ValueError, match="finite"):
            twisted_spherical_mean(f, bad_center, 0.5)
        with pytest.raises(ValueError, match="finite"):
            mean_profile(f, bad_center, [0.0, 0.5])


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_targets_are_rejected(n, bad):
    """A non-finite target reads NaN from every kernel: the projections at
    it, of fields with and without an evaluator, raise ValueError naming
    the first one and its row instead."""
    if n == 1:
        rule = plane_rule(1, extent=8.0, radial_points=16, angular_points=24)
    else:
        rule = plane_rule(2, extent=6.0, radial_points=6, sphere3_orders=(3, 6, 8),
                          tolerance=float("inf"))
    fn = lambda p: np.exp(-np.sum(np.abs(p - 0.2j) ** 2, axis=1) / 3.0).astype(complex)
    targets = np.full((3, n), 0.3 + 0.1j)
    targets[1, -1] = bad
    targets[2, 0] = np.nan
    for f in (SampledField.from_function(fn, rule), SampledField(rule, fn(rule.nodes))):
        reads = [lambda t: projection_values(f, 1, t),
                 lambda t: spectral_projections(f, [0, 2], t)]
        if n == 1:
            reads.append(spectral_projection(f, 1).evaluate)
        for read in reads:
            with pytest.raises(ValueError, match=r"targets must be finite, got .* at row 1"):
                read(targets)


@pytest.mark.parametrize("n", [1, 2])
def test_convolution_rejects_non_finite_targets(n):
    """The w-form sum reads NaN at a non-finite target: ``convolution_values``
    raises ValueError naming the first one and its row instead."""
    if n == 1:
        rule = plane_rule(1, extent=8.0, radial_points=16, angular_points=24)
    else:
        rule = plane_rule(2, extent=6.0, radial_points=6, sphere3_orders=(3, 6, 8),
                          tolerance=float("inf"))
    fn = lambda p: np.exp(-np.sum(np.abs(p - 0.2j) ** 2, axis=1) / 3.0).astype(complex)
    f = SampledField.from_function(fn, rule)
    targets = np.full((3, n), 0.3 + 0.1j)
    targets[1, -1] = np.nan
    targets[2, 0] = np.inf
    with pytest.raises(ValueError, match=r"targets must be finite, got .* at row 1"):
        convolution_values(f, f, targets)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("twist", [True, False])
def test_means_of_radial_gaussians_match_their_closed_form(n, twist):
    """For f = exp(-|z|^2/w), w < 4, and rho = |z|: f x mu_r(z) is
    exp(-(rho^2 + r^2)/w) I_0(s) on C and exp(-(rho^2 + r^2)/w) 2 I_1(s)/s
    on C^2, with s = r rho sqrt(4/w^2 - 1/4) twisted and s = 2 r rho / w
    untwisted; Bessel values from scipy."""
    iv = pytest.importorskip("scipy.special").iv
    centers = {1: [[0.3 + 0.2j], [-1.1 + 0.4j], [0.05 - 1.7j]],
               2: [[0.3 + 0.2j, -0.4 + 0.1j], [1.0 - 0.5j, 0.2 + 0.7j], [0j, 1.2 - 0.3j]]}[n]
    radii = np.array([0.4, 1.3, 2.2, 3.1])
    rho = np.linalg.norm(centers, axis=1)[:, None]
    for w in (1.0, 2.0, 3.5):
        f = SimpleNamespace(dimension=n, evaluate=lambda p, _w=w: np.exp(
            -np.sum(np.abs(p) ** 2, axis=1) / _w))
        s = radii * rho * (math.sqrt(4.0 / w ** 2 - 0.25) if twist else 2.0 / w)
        exact = np.exp(-(rho ** 2 + radii ** 2) / w) * (iv(0, s) if n == 1 else 2.0 * iv(1, s) / s)
        table = twisted_mean_table(f, centers, radii, twist=twist)
        assert np.max(np.abs(table - exact) / exact) < 1e-13, w


@pytest.mark.parametrize("n", [1, 2])
def test_fields_without_a_support_skip_the_cull(n, monkeypatch):
    """A field that declares no support, or an infinite one, has every
    (center, radius) pair read, center-major, and no cull computed: its
    means are those of the same field declaring a support that every
    sphere meets, bit for bit."""
    rng = np.random.default_rng(3)
    centers = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
    radii = [0.0, 0.4, 1.3, 2.7]

    def g(p):
        return np.exp(-np.sum(np.abs(p) ** 2, axis=1)) * (1.0 + p[:, 0])

    wide = SimpleNamespace(dimension=n, evaluate=g, support_radius=1e300)
    refs = [twisted_mean_table(wide, centers, radii, twist=t) for t in (True, False)]

    def no_norm(*args, **kw):
        raise AssertionError("the support cull was computed")

    monkeypatch.setattr(np.linalg, "norm", no_norm)
    for f in (SimpleNamespace(dimension=n, evaluate=g),
              SimpleNamespace(dimension=n, evaluate=g, support_radius=np.inf)):
        for twist, ref in zip((True, False), refs):
            assert np.array_equal(twisted_mean_table(f, centers, radii, twist=twist), ref)


# the circle rule's own error on the means of a radial bump, which is
# smooth but not analytic across its support's edge: measured 4.5e-8
# (R = 1) and 1.7e-7 (R = 0.6) at 240 nodes, 1.3e-13 and 1.3e-12 at 960
CIRCLE_RULE_ERROR = {240: 5e-7, 960: 5e-12}


@pytest.mark.parametrize("R", [1.0, 0.6])
@pytest.mark.parametrize("m", sorted(CIRCLE_RULE_ERROR))
def test_means_of_radial_bumps_match_quad(R, m):
    """The untwisted means of g = bump_profile(R), a field declaring its
    support, against quad of (1/2 pi) int g(|x0 + r e^(i theta)|) d theta,
    on circles well inside, crossing, grazing and just missing the
    support's edge.  The circles the support cull skips are not read and
    are exactly 0.0."""
    quad = pytest.importorskip("scipy.integrate").quad
    g = bump_profile(R)
    read = []

    def evaluate(p):
        read.append(len(p))
        return g(np.abs(p[:, 0]))

    f = SimpleNamespace(dimension=1, support_radius=R, evaluate=evaluate)
    centers = np.array([0.0, 0.3 * np.exp(0.4j), 0.8 * np.exp(2.1j), 1.7 * np.exp(-0.9j)])
    rho = np.abs(centers)
    # ||x0| - r| = R (1 + d): the circle crosses the support's edge
    # (d < 0), touches it (d = 0) or passes just outside (d > 0)
    graze = [c + s * R * (1 + d) for c in rho for s in (1, -1) for d in (-0.05, -1e-3, 0.0, 1e-3)]
    radii = np.unique([r for r in [0.2, 0.5, 0.9, 1.4, 2.2] + graze if r > 0])
    table = twisted_mean_table(f, centers[:, None], radii, m=m, twist=False)
    exact = np.array([[quad(lambda t: g(abs(z + r * np.exp(1j * t))), 0.0, 2.0 * np.pi,
                            epsabs=1e-15, epsrel=1e-13, limit=400)[0] / (2.0 * np.pi)
                       for r in radii] for z in centers])
    assert table.dtype == float
    assert np.max(np.abs(table - exact)) <= CIRCLE_RULE_ERROR[m]
    culled = np.abs(rho[:, None] - radii) >= R * (1 + 1e-9)
    assert 0 < culled.sum() < culled.size
    assert np.all(table[culled] == 0.0) and np.all(exact[culled] == 0.0)
    assert sum(read) == m * np.sum(~culled)


@pytest.mark.parametrize("n", [1, 2])
def test_one_table_builds_one_unit_rule(n, monkeypatch):
    """A table call reads one sphere rule, of radius 1, however many radii
    it has; the rule of radius r is r times it."""
    calls = []
    rule = twisted_transforms.sphere_rule

    def counted(*args, **kw):
        calls.append(args[:2])
        return rule(*args, **kw)

    monkeypatch.setattr(twisted_transforms, "sphere_rule", counted)
    f = SimpleNamespace(dimension=n, evaluate=lambda p: np.exp(-np.sum(np.abs(p) ** 2, axis=1)))
    slot = SlotProduct((lambda v: np.exp(-np.abs(v) ** 2)[:, None],) * 2, np.ones((1, 1)))
    for radii in ([0.7], np.geomspace(0.1, 5.0, 24), [0.0, 1.0]):
        for g in ([f, slot] if n == 2 else [f]):
            calls.clear()
            twisted_mean_table(g, [[0.2 - 0.1j] * n], radii)
            assert calls == [(n, 1.0)]
    calls.clear()
    twisted_mean_table(f, [[0.2 - 0.1j] * n], [0.0])
    assert calls == []


@pytest.mark.parametrize("n", [1, 2])
def test_product_relation(n, probe_targets):
    """phi_k x mu_r(z) = B(n,k) phi_k(r) phi_k(|z|) with
    B(n,k) = k! (n-1)! / (k+n-1)!."""
    if n == 1:
        rule = plane_rule(1, extent=12.0, radial_points=48, angular_points=160)
        centers = probe_targets
        ks = range(7)
    else:
        rule = plane_rule(2, extent=10.0, radial_points=32,
                          sphere3_orders=(10, 20, 20))
        centers = np.array([[0.5 + 0.2j, -0.4 + 0.6j],
                            [1.2 - 0.3j, 0.8 + 0.9j]])
        ks = range(4)
    radii = [0.6, 1.5, 2.8]
    for k in ks:
        f = _phi_field(rule, k)
        spec = LaguerreSpec(k, n - 1)
        B = 1.0 / radial_eigenfunction_origin(n, k)
        for z in centers:
            for r in radii:
                lhs = twisted_spherical_mean(f, z, r)
                ref = B * laguerre_function(spec, np.array([r]))[0] \
                    * laguerre_function(spec, np.array([np.linalg.norm(z)]))[0]
                assert abs(lhs - ref) <= 1e-10 * (1.0 + abs(ref))


def test_projection_of_radial_field_is_radial(gauss_field):
    z0 = 1.1
    pts = np.array([[z0 * np.exp(1j * t)] for t in np.linspace(0, 2 * np.pi, 7)])
    vals = projection_values(gauss_field, 2, pts)
    assert np.max(np.abs(vals - vals[0])) < 1e-12 * max(1.0, abs(vals[0]))


def test_expansion_constant_phi0(rule_c1_small, probe_targets):
    # phi_0 x phi_0 = 2 pi phi_0: the normalization everything hangs on
    f = _phi_field(rule_c1_small, 0)
    got = convolution_values(f, f, probe_targets)
    ref = 2.0 * np.pi * laguerre_function(
        LaguerreSpec(0, 0), np.abs(probe_targets[:, 0]))
    assert np.max(np.abs(got - ref)) < 1e-12


def test_projection_orthogonality(rule_c1_small, probe_targets):
    """phi_k x phi_m = 2 pi delta_km phi_k on C (k, m <= 2 here; acceptance
    covers <= 4)."""
    for k in range(3):
        fk = _phi_field(rule_c1_small, k)
        for m in range(3):
            fm = _phi_field(rule_c1_small, m)
            got = convolution_values(fk, fm, probe_targets)
            if k == m:
                ref = 2.0 * np.pi * laguerre_function(
                    LaguerreSpec(k, 0), np.abs(probe_targets[:, 0]))
            else:
                ref = np.zeros(probe_targets.shape[0], dtype=complex)
            assert np.max(np.abs(got - ref)) < 1e-10


def test_convolution_requires_compatible_rules(rule_c1_small, gauss_field):
    f = _phi_field(rule_c1_small, 0)
    with pytest.raises(GridMismatchError):
        convolution_values(gauss_field, f, np.array([[0j]]))


def test_translate_covariance(gauss_field):
    """tau_eta f x mu_r = tau_eta (f x mu_r): vanishing sets transport."""
    eta = np.array([0.6 - 0.4j])
    tf = twisted_translate(gauss_field, eta)
    for z, r in [(np.array([0.3 + 0.8j]), 1.1), (np.array([-1.0 + 0.2j]), 2.0)]:
        lhs = twisted_spherical_mean(tf, z, r)
        phase = np.exp(0.5j * np.imag(eta[0] * np.conj(z[0])))
        rhs = phase * twisted_spherical_mean(gauss_field, z - eta, r)
        assert abs(lhs - rhs) < 1e-13


def test_translate_tail_warning(gauss_field):
    with pytest.warns(TranslateTailWarning):
        twisted_translate(gauss_field, np.array([10.0 + 8.0j]))


def test_translate_input_validation(gauss_field):
    with pytest.raises(ValueError):
        twisted_translate(gauss_field, np.array([1.0 + 0j, 0j]))


def test_spectral_projections_batch_matches_singles(gauss_field, probe_targets):
    batch = spectral_projections(gauss_field, [0, 2, 5], targets=probe_targets)
    for i, k in enumerate([0, 2, 5]):
        single = projection_values(gauss_field, k, probe_targets)
        assert np.max(np.abs(batch[:, i] - single)) < 1e-13
    assert spectral_projections(gauss_field, [0, 2, 5], probe_targets[:0]).shape == (0, 3)


# fields for the on-grid engine: radial, the p = 1 sector, and an
# off-centre anisotropic Gaussian (no rotational structure at all)
ENGINE_FIELDS = {
    "radial": lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / 3.0).astype(complex),
    "sector_p1": lambda p: p[:, 0] * np.exp(-np.abs(p[:, 0]) ** 2 / 3.0),
    "offcentre": lambda p: np.exp(-((p[:, 0].real - 0.4) ** 2 / 2.5
                                    + (p[:, 0].imag + 0.3) ** 2 / 3.5)).astype(complex),
}


@pytest.mark.parametrize("field_name", sorted(ENGINE_FIELDS))
@pytest.mark.parametrize("rule_name, bound", [("rule_c1", 1e-12),
                                              ("rule_c1_small", 1e-8)])
def test_on_grid_engine_matches_direct_oracle(request, rule_name, bound, field_name):
    """Both library paths sum the closed-form kernel against f's samples;
    the oracle integrates f's closed form against phi_k sampled on the grid.
    Checked at 200 nodes (the per-mode table) and at the same nodes turned
    by half a phase step (the direct sum).  Degrees stop at 8: beyond that the
    oracle's phi_k is cut off at the grid edge and the oracle, not the
    library, parts from the exact value."""
    rule = request.getfixturevalue(rule_name)
    f = SampledField.from_function(ENGINE_FIELDS[field_name], rule)
    degrees = list(range(9))
    on_grid = spectral_projections(f, degrees)
    assert on_grid.shape == (rule.nodes.shape[0], len(degrees))
    picked = np.random.default_rng(5).choice(rule.nodes.shape[0], 200, replace=False)
    turned = rule.nodes[picked] * np.exp(1j * np.pi / rule.shape[1])
    off_grid = spectral_projections(f, degrees, turned)
    scale = float(np.max(np.abs(on_grid)))
    for targets, got in ((rule.nodes[picked], on_grid[picked]), (turned, off_grid)):
        ref = direct_projection_table(f, degrees, targets)
        for k in degrees:
            assert np.max(np.abs(got[:, k] - ref[:, k])) <= bound * scale, k
    # the input picks the path: passing the nodes is the same call
    assert np.array_equal(spectral_projections(f, degrees, targets=rule.nodes), on_grid)
    # and the single-degree field takes its grid values from the table
    assert np.array_equal(spectral_projection(f, 3).values, on_grid[:, 3])


def test_sample_only_field_projects_off_grid(rule_c1, tmp_path):
    """A CSV-imported field has no evaluator; its projections at targets
    off the origin sum its own samples and read nothing off the grid."""
    exact = SampledField.from_function(ENGINE_FIELDS["offcentre"], rule_c1, name="offc")
    exact.to_csv(tmp_path / "f.csv")
    sampled = SampledField.from_csv(tmp_path / "f.csv")
    assert sampled.evaluator is None
    targets = np.array([[2.0 + 0j], [1.3 - 2.1j], [-2.6 + 0.7j], [0.4 + 3.0j]])
    degrees = [0, 1, 2, 3]
    got = spectral_projections(sampled, degrees, targets)
    ref = direct_projection_table(exact, degrees, targets)
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))
    single = projection_values(sampled, 2, targets)
    assert np.array_equal(single, got[:, 2])
    q2 = spectral_projection(sampled, 2)
    assert np.max(np.abs(q2.evaluate(targets) - ref[:, 2])) <= 1e-8 * np.max(np.abs(ref))


def test_off_grid_projection_keeps_the_kernel_past_the_grid_edge(rule_c1_small):
    """At k = 12, phi_k(10) = 0.12: a w-form sum would cut phi_k off at the
    edge of the extent-10 grid, the u form evaluates it wherever z - u
    lands.  The reference is the oracle on a grid twice as wide."""
    held = np.array([0.37 + 0.21j, -0.9 + 0.4j, 1.3 - 0.7j, 0.1 - 1.1j, 2.0 + 0.3j])[:, None]
    wide = plane_rule(1, extent=20.0, radial_points=128, angular_points=384)
    ref = direct_projection_values(
        SampledField.from_function(ENGINE_FIELDS["offcentre"], wide), 12, held)
    f = SampledField.from_function(ENGINE_FIELDS["offcentre"], rule_c1_small)
    got = projection_values(f, 12, held)
    assert np.max(np.abs(got - ref)) <= 3e-6 * np.max(np.abs(ref))


@pytest.mark.parametrize("m", [24, 25])
def test_on_grid_projections_fold_aliased_modes(m):
    """On a coarse grid the m phases under-resolve the kernel: its phase
    modes p <= k reach past m at k >= m, and its modes below -m/2 are far
    from negligible.  The table folds every mode mod m, so it still sums
    exactly what the u form sums over the nodes: the ring sum, with the
    whole grid as its one ring."""
    rule = plane_rule(1, extent=8.0, radial_points=16, angular_points=m)
    f = SampledField.from_function(ENGINE_FIELDS["offcentre"], rule)
    degrees = list(range(31))
    got = spectral_projections(f, degrees)
    ref = twisted_transforms._ring_projections(f, degrees, rule.nodes)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


_TABLE_RULES = ["rule_c1", "rule_c1_odd", "rule_c1_one_chunk"]


@pytest.mark.parametrize("degrees", [list(range(13)), [40], [7, 0, 4, 4]])
@pytest.mark.parametrize("rule_name", _TABLE_RULES)
def test_chunked_mode_table_is_the_whole_table(request, rule_name, degrees):
    """The on-grid projections, walked one m-mode chunk at a time, against
    the whole-table oracle bit for bit: the chunks are added in increasing
    mode order as the whole fold sums them, and each order's sums come from
    the same (K+1, R) @ (R, 4) product."""
    rule = request.getfixturevalue(rule_name)
    f = SampledField.from_function(ENGINE_FIELDS["offcentre"], rule)
    got = spectral_projections(f, degrees)
    assert np.array_equal(got, whole_mode_table(f, max(degrees), degrees)[1])


@pytest.mark.parametrize("K", [3, 12, 40])
@pytest.mark.parametrize("rule_name", _TABLE_RULES)
def test_chunked_coefficients_are_the_whole_table(request, rule_name, K):
    rule = request.getfixturevalue(rule_name)
    f = SampledField.from_function(ENGINE_FIELDS["offcentre"], rule)
    assert np.array_equal(special_hermite_coefficients(f, K), whole_mode_table(f, K)[0])
    coefficients, projections = whole_mode_table(f, K, list(range(K + 1)))
    trunc = special_hermite_truncation(f, K)
    assert np.array_equal(trunc.coefficients, coefficients)
    for k, q in enumerate(trunc.projections):
        assert np.array_equal(q.values, projections[:, k]), k


def test_projection_memory_budget(gauss_field, probe_targets):
    # the on-grid table is walked one m-mode chunk at a time, holding one
    # chunk's (orders, degrees, radii) floats and one (m, R) total per
    # degree, and the off-grid path a few (targets, nodes) arrays: neither
    # may grow with the square of the grid
    on_grid = peak_mb(lambda: spectral_projections(gauss_field, range(13)))
    assert on_grid < 48.0
    assert peak_mb(lambda: spectral_projections(gauss_field, [12])) <= 5.0
    off_grid = peak_mb(lambda: spectral_projections(gauss_field, range(13),
                                                     probe_targets[:3]))
    assert off_grid < 8.0


def test_spectral_projections_reject_bad_degrees(gauss_field):
    for bad in ([], [2, -1]):
        with pytest.raises(ValueError, match="degrees"):
            spectral_projections(gauss_field, bad)
    # no silent truncation or parsing: the error names the bad entry
    for bad, named in (([2.7], r"degrees\[0\] .*got 2\.7"), ([1, "3"], r"degrees\[1\] .*got '3'"),
                       ([True], r"degrees\[0\] .*got True")):
        with pytest.raises(ValueError, match=named):
            spectral_projections(gauss_field, bad)
    with pytest.raises(ValueError, match="got 2.5"):
        projection_values(gauss_field, 2.5, [[0.3 + 0.1j]])
    with pytest.raises(ValueError, match="got 1.0"):
        spectral_projection(gauss_field, 1.0)
    # numpy integers are degrees
    assert np.array_equal(spectral_projections(gauss_field, np.arange(2)),
                          spectral_projections(gauss_field, [0, 1]))


@pytest.mark.parametrize("bad", [-1, 2.5, "3"])
def test_special_hermite_reject_bad_max_degree(gauss_field, bad):
    for fn in (special_hermite_coefficients, special_hermite_truncation):
        with pytest.raises(ValueError, match="max_degree"):
            fn(gauss_field, bad)


@pytest.mark.parametrize("K", [3, 12, 40])
@pytest.mark.parametrize("rule_name", ["rule_c1", "rule_c1_odd"])
def test_coefficients_match_design_matrix_oracle(request, rule_name, K):
    """The mode table against the weighted samples times the conjugated
    special Hermite matrix; the off-centre field has no symmetry, so every
    coefficient is in play."""
    rule = request.getfixturevalue(rule_name)
    f = SampledField.from_function(ENGINE_FIELDS["offcentre"], rule)
    ref = design_matrix_coefficients(f, K)
    scale = float(np.max(np.abs(ref)))
    assert np.max(np.abs(special_hermite_coefficients(f, K) - ref)) <= 1e-13 * scale
    if K <= 12:
        got = special_hermite_truncation(f, K).coefficients
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale


def test_truncation_memory_budget(gauss_field):
    # the coefficients come from the mode table, with no (nodes, (K+1)^2)
    # design matrix (440 MB at K = 40 on the default grid), and the table
    # is never held whole: 14.5 and 41.7 MB when it was
    assert peak_mb(lambda: special_hermite_truncation(gauss_field, 12)) <= 9.0
    assert peak_mb(lambda: special_hermite_truncation(gauss_field, 40)) <= 24.0


def test_special_hermite_coefficients_pick_out_basis(rule_c1):
    f = SampledField.from_function(
        lambda p: special_hermite_basis(1, 0, p[:, 0]), rule_c1, name="phi10")
    C = special_hermite_coefficients(f, 3)
    ref = np.zeros((4, 4))
    ref[1, 0] = 1.0
    assert np.max(np.abs(C - ref)) < 1e-10


def test_truncation_reconstructs_gaussian(rule_c1_small):
    f = SampledField.from_function(
        lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / 3.0).astype(complex),
        rule_c1_small)
    trunc = special_hermite_truncation(f, 8)
    errs = trunc.partial_errors(f)
    assert np.all(np.diff(errs) < 1e-12)            # monotone improvement
    assert errs[-1] / f.grid_norm() < 1e-6          # geometric tail
    # coefficient matrix rides along for n = 1 and is radially diagonal
    assert trunc.coefficients is not None
    off = trunc.coefficients - np.diag(np.diag(trunc.coefficients))
    assert np.max(np.abs(off)) < 1e-10


def test_mean_profile_linearity_and_bridge(rule_c1, gauss_field):
    rad = radial_rule(1, extent=12.0, points=48)
    z = np.array([0.3 + 0.2j])
    prof = mean_profile(gauss_field, z, radial_rule=rad)
    assert np.array_equal(prof.radii, rad.nodes)
    # profile is linear in the field
    double = SampledField(gauss_field.rule, 2.0 * gauss_field.values,
                          lambda p: 2.0 * gauss_field.evaluator(p))
    prof2 = mean_profile(double, z, radial_rule=rad)
    assert np.max(np.abs(prof2.values - 2.0 * prof.values)) < 1e-14

    for k in range(5):
        bridged = polar_bridge(prof, k, 1)
        direct = direct_projection_values(gauss_field, k, z[None, :])[0]
        assert abs(bridged - direct) <= 1e-8 * (1.0 + abs(direct))


def test_polar_bridge_zero_iff_zero(rule_c1):
    """Vanishing mean profile <=> vanishing projection, both directions,
    shown on an eigenfunction (profile proportional to phi_m(r))."""
    m = 2
    f = _phi_field(rule_c1, m)
    rad = radial_rule(1, extent=12.0, points=48)
    z = np.array([1.2 + 0.4j])
    prof = mean_profile(f, z, radial_rule=rad)
    assert np.max(np.abs(prof.values)) > 1e-3       # the profile itself lives
    for k in (1, m):
        bridged = polar_bridge(prof, k, 1)
        direct = direct_projection_values(f, k, z[None, :])[0]
        if k == m:
            assert abs(direct) > 1e-3                # nonvanishing example
            assert abs(bridged - direct) < 1e-8
        else:
            assert abs(direct) < 1e-10               # vanishing example
            assert abs(bridged) < 1e-8


def test_polar_bridge_requires_rule(gauss_field):
    prof = mean_profile(gauss_field, np.array([0j]), radii=np.linspace(0.5, 3, 7))
    with pytest.raises(ValueError, match="RadialRule"):
        polar_bridge(prof, 0, 1)


def test_polar_bridge_tail_warning(gauss_field):
    rad = radial_rule(1, extent=3.0, points=24)      # truncates the Gaussian
    prof = mean_profile(gauss_field, np.array([0j]), radial_rule=rad)
    with pytest.warns(TruncationTailWarning):
        polar_bridge(prof, 0, 1)


def test_eigenvalue_transport_through_projection(rule_c1_small):
    """Q_k f is an eigenfunction: checked spectrally rather than by finite
    differences -- project twice and compare against (2 pi) Q_k."""
    f = SampledField.from_function(
        lambda p: (p[:, 0] * np.exp(-np.abs(p[:, 0]) ** 2 / 4.0)),
        rule_c1_small)
    pts = np.array([[0.4 + 0.1j], [1.0 - 0.6j]])
    q1 = spectral_projections(f, [1], targets=None)          # on the grid
    qf = SampledField(rule_c1_small, q1[:, 0],
                      evaluator=lambda p: projection_values(f, 1, p))
    again = projection_values(qf, 1, pts)
    once = projection_values(f, 1, pts)
    assert np.max(np.abs(again - 2.0 * np.pi * once)) < 1e-8


# ---------------------------------------------------------------------------
# C^2: tensor decomposition


@pytest.fixture(scope="module")
def c2_field():
    rule = plane_rule(2, extent=8.0, radial_points=24, sphere3_orders=(8, 24, 24))
    fn = lambda p: np.exp(-(np.abs(p[:, 0]) ** 2 + 1.3 * np.abs(p[:, 1]) ** 2) / 4.0)
    return SampledField.from_function(lambda p: fn(p).astype(complex), rule)


def test_tensor_pieces_sum_to_projection(c2_field):
    k = 1
    pieces = tensor_decompose_projection(c2_field, k)
    targets = pieces[0].rule.nodes
    total = np.sum([p.values for p in pieces], axis=0)
    direct = direct_projection_values(c2_field, k, targets)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.linalg.norm(total - direct) / np.sqrt(direct.size) < 1e-6 * scale


def test_direct_sum_matches_direct_oracle_on_c2(c2_field):
    """The ring-factored sum on C^2, k <= 2, off the grid, against the
    w-form oracle; this coarse grid holds the two quadratures to 1e-6 of
    the peak."""
    targets = np.array([[0.3 + 0.2j, -0.5 + 0.1j], [1.1 - 0.4j, 0.2 + 0.7j],
                        [-0.7 + 0.9j, 1.3 - 0.2j], [2.0 + 0.1j, -0.4 - 1.0j]])
    got = spectral_projections(c2_field, range(3), targets)
    scale = float(np.max(np.abs(got)))
    ref = direct_projection_table(c2_field, range(3), targets)
    for k in range(3):
        assert np.max(np.abs(got[:, k] - ref[:, k])) <= 1e-6 * scale, k
    assert spectral_projections(c2_field, range(3), targets[:0]).shape == (0, 3)


def test_ring_sum_matches_pairwise_scipy_oracle(monkeypatch):
    """The ring-factored C^2 sum against the pairwise u-form sum over every
    node, with scipy's L_k^1 in place of the library's recurrence.  The rule
    has m1 != m2 and n_t != radial_points, so a swapped ring axis shows; the
    degrees are unsorted and repeated; the 11 scattered targets span three
    blocks (4, 4 and 3 targets), each summed over 120 ring blocks of one
    ring.  Same quadrature, regrouped: to 1e-12 of the peak."""
    from scipy.special import eval_genlaguerre
    rule = plane_rule(2, extent=8.0, radial_points=20, sphere3_orders=(6, 12, 20))
    fn = lambda p: np.exp(-(np.abs(p[:, 0] - (0.4 - 0.3j)) ** 2 / 3.0
                            + 1.3 * np.abs(p[:, 1] + 0.2j) ** 2 / 4.0))
    f = SampledField.from_function(lambda p: fn(p).astype(complex), rule)
    degrees = [3, 0, 3, 1]
    rng = np.random.default_rng(11)
    targets = (rng.uniform(-2.0, 2.0, (11, 2)) + 1j * rng.uniform(-2.0, 2.0, (11, 2)))
    # the slot kernels of 4 targets over one ring: 4 x (m1 + m2) x (max degree + 1)
    monkeypatch.setattr(twisted_transforms, "_SLOT_BLOCK", 4 * (12 + 20) * 4)
    got = spectral_projections(f, degrees, targets)

    u = rule.nodes
    t = 0.5 * np.sum(np.abs(targets[:, None, :] - u[None, :, :]) ** 2, axis=-1)
    im = np.sum((targets[:, None, :] * np.conj(u)[None, :, :]).imag, axis=-1)
    pair = np.exp(-0.5 * t - 0.5j * TWIST_SIGN * im) * (f.values * rule.weights)[None, :]
    ref = np.stack([np.sum(eval_genlaguerre(k, 1, t) * pair, axis=1) for k in degrees],
                   axis=1)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sample_only_field_projects_off_grid_on_c2(c2_offcentre, tmp_path):
    """A CSV-imported C^2 field has no evaluator; its projections at targets
    off the grid sum its own samples.  Against the w-form oracle on the
    evaluator copy, to 1e-6 of the peak (the two quadratures on this coarse
    grid)."""
    c2_offcentre.to_csv(tmp_path / "f.csv")
    sampled = SampledField.from_csv(tmp_path / "f.csv")
    assert sampled.evaluator is None
    targets = np.array([[0.3 + 0.2j, -0.5 + 0.1j], [1.1 - 0.4j, 0.2 + 0.7j],
                        [-0.7 + 0.9j, 1.3 - 0.2j], [2.0 + 0.1j, -0.4 - 1.0j]])
    degrees = [0, 1, 2]
    got = spectral_projections(sampled, degrees, targets)
    ref = direct_projection_table(c2_offcentre, degrees, targets)
    assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


def _slot_rule():
    # the default slot rule of tensor_decompose_projection
    return plane_rule(1, extent=10.0, radial_points=32, angular_points=48)


@pytest.fixture(scope="module")
def c2_offcentre(c2_field):
    """Off-centre in both slots, so no tensor piece vanishes (c2_field is
    exp(-|z1|^2/4) = phi_0 in slot 1: its b1 >= 1 pieces are zero)."""
    fn = lambda p: np.exp(-(np.abs(p[:, 0] - (0.4 - 0.3j)) ** 2 / 3.0
                            + 1.3 * np.abs(p[:, 1] + 0.2j) ** 2 / 4.0))
    return SampledField.from_function(lambda p: fn(p).astype(complex), c2_field.rule)


@pytest.mark.parametrize("field_name", ["c2_field", "c2_offcentre"])
def test_tensor_pieces_match_nested_oracle(field_name, request):
    """Each piece, not only their sum, against the nested w-form oracle,
    k <= 2, at every 8th node of the evaluation lattice, to 1e-10 of the
    largest piece."""
    f = request.getfixturevalue(field_name)
    for k in range(3):
        pieces = tensor_decompose_projection(f, k)
        ref = nested_piece_values(f, k, pieces[0].rule.nodes[::8], _slot_rule())
        got = np.stack([p.values[::8] for p in pieces], axis=1)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), k


@pytest.mark.parametrize("field_name", ["c2_field", "c2_offcentre"])
def test_tensor_pieces_match_whole_grid_oracle(field_name, request):
    """The pieces sum the slot-1 products of the sampled grid's row blocks
    as they are read; against one product over the whole grid, k <= 2, at
    every lattice node: the same quadrature regrouped, to 1e-14 of the
    largest piece."""
    f = request.getfixturevalue(field_name)
    for k in range(3):
        pieces = tensor_decompose_projection(f, k)
        ref = whole_grid_pieces(f, k, pieces[0].rule.nodes)
        got = np.stack([p.values for p in pieces], axis=1)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), k


def test_tensor_piece_evaluators(c2_offcentre):
    """On the lattice each piece's evaluator returns its values exactly;
    off the lattice it matches the nested oracle to 1e-10 of the largest
    piece."""
    k = 2
    pieces = tensor_decompose_projection(c2_offcentre, k)
    for p in pieces:
        assert np.array_equal(p.evaluate(p.rule.nodes), p.values)
    pts = np.array([[0.3 + 0.2j, -0.5 + 0.1j], [1.1 - 0.4j, 0.2 + 0.7j],
                    [-0.7 + 0.9j, 1.3 - 0.2j], [2.0 + 0.1j, -0.4 - 1.0j]])
    ref = nested_piece_values(c2_offcentre, k, pts, _slot_rule())
    got = np.stack([p.evaluate(pts) for p in pieces], axis=1)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_tensor_piece_evaluators_reject_non_finite_targets(c2_offcentre):
    pieces = tensor_decompose_projection(c2_offcentre, 1)
    for bad in (np.nan, np.inf):
        for p in pieces:
            with pytest.raises(ValueError, match=r"targets must be finite, got .* at row 1"):
                p.evaluate(np.array([[0.3, 0.1j], [0.2, bad]]))


def test_tensor_pieces_read_the_slot_grid_in_blocks(c2_offcentre):
    """Work count: f is read at the 1536 x 1536 slot grid's points once to
    build the pieces, once more on the first evaluator read off the
    lattice, which forms the grid, and never after, by any piece."""
    reads = []

    def counted(p):
        reads.append(len(p))
        return c2_offcentre.evaluate(p)

    f = SampledField(c2_offcentre.rule, c2_offcentre.values, counted)
    grid = twisted_transforms._default_slot_rule().weights.size ** 2
    pieces = tensor_decompose_projection(f, 2)
    assert sum(reads) == grid == 2_359_296
    assert max(reads) <= twisted_transforms._GRID_POINTS
    off = np.array([[0.3 + 0.2j, -0.5 + 0.1j], [1.1 - 0.4j, 0.2 + 0.7j]])
    first = pieces[1].evaluate(off)
    assert sum(reads) == 2 * grid
    assert np.array_equal(pieces[1].evaluate(off), first)
    for p in pieces:
        assert np.array_equal(p.evaluate(p.rule.nodes), p.values)
    assert sum(reads) == 2 * grid


def test_tensor_decomposition_memory_budget(c2_offcentre):
    """A decomposition read at the lattice alone forms no slot x slot array
    (the 1536 x 1536 complex grid is 36 MB): it holds one block of grid
    rows and the slot kernels, within 12 MB traced.  The first evaluator
    read forms the grid, within the 42.8 MB that building the pieces took
    when it held the grid whole; a second read forms nothing."""
    pieces = []
    assert peak_mb(lambda: pieces.extend(tensor_decompose_projection(c2_offcentre, 2))) <= 12.0
    off = np.array([[0.3 + 0.2j, -0.5 + 0.1j], [1.1 - 0.4j, 0.2 + 0.7j]])
    assert peak_mb(lambda: pieces[0].evaluate(off)) <= 42.8
    assert peak_mb(lambda: pieces[2].evaluate(off)) <= 1.0


def _repeating_targets(case: str, lattice: np.ndarray) -> np.ndarray:
    """Targets whose slot values repeat: the probe lattice (96 nodes, 24
    distinct z1 and 24 distinct z2), the lattice shuffled, rows listed
    twice, and a single target."""
    if case == "lattice":
        return lattice
    if case == "shuffled":
        return lattice[np.random.default_rng(8).permutation(lattice.shape[0])]
    if case == "duplicated":
        return np.concatenate([lattice[:20], lattice[50:60], lattice[:20], lattice[55:58]])
    return lattice[37:38]


@pytest.fixture(scope="module")
def c1_offcentre(rule_c1_small):
    return SampledField.from_function(ENGINE_FIELDS["offcentre"], rule_c1_small)


@pytest.mark.parametrize("field_name, case", [
    ("c2_offcentre", "lattice"), ("c2_offcentre", "shuffled"),
    ("c2_offcentre", "duplicated"), ("c2_offcentre", "single"),
    ("c1_offcentre", "shuffled"), ("c1_offcentre", "duplicated"),
    ("c1_offcentre", "single")],
    ids=["lattice", "shuffled", "duplicated", "single",
         "c1-shuffled", "c1-duplicated", "c1-single"])
def test_c2_batched_reads_match_per_target_reads(c2_offcentre, field_name, case, request):
    """The slot kernels are built once per distinct slot value of a block
    of targets and each target is read from the block's tables.  Ring
    projections (and on C^2 the tensor piece evaluators) over a batch of
    such targets against one call per target, to 1e-14 of the peak.  On C
    the targets are the lattice's z1 column: 24 distinct values, each
    listed four times."""
    k = 2
    f = request.getfixturevalue(field_name)
    pieces = tensor_decompose_projection(c2_offcentre, k)
    lattice = pieces[0].rule.nodes[:, :f.dimension]
    targets = _repeating_targets(case, lattice)
    reads = [lambda pts: projection_values(f, k, pts)]
    if f.dimension == 2:
        reads += [p.evaluate for p in pieces]
    for read in reads:
        got = read(targets)
        ref = np.array([read(z[None])[0] for z in targets])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_on_grid_c2_projections_match_one_node_at_a_time():
    """On a C^2 grid's own nodes each z1 repeats over the slot-2 phases and
    each z2 over the slot-1 phases; Q_k at all nodes at once against the
    ring sum read one node at a time, to 1e-14 of each degree's peak."""
    rule = plane_rule(2, extent=6.0, radial_points=6, sphere3_orders=(3, 6, 8),
                      tolerance=float("inf"))
    fn = lambda p: np.exp(-(np.abs(p[:, 0] - (0.4 - 0.3j)) ** 2 / 3.0
                            + 1.3 * np.abs(p[:, 1] + 0.2j) ** 2 / 4.0)) * (1.0 + p[:, 0] * p[:, 1])
    f = SampledField(rule, fn(rule.nodes))
    degrees = [0, 1, 3]
    got = spectral_projections(f, degrees)
    ref = np.concatenate([spectral_projections(f, degrees, z[None]) for z in rule.nodes])
    assert np.all(np.max(np.abs(got - ref), axis=0) <= 1e-14 * np.max(np.abs(ref), axis=0))


def test_tensor_pieces_build_slot_kernels_per_distinct_slot_value(c2_offcentre, c1_offcentre,
                                                                   monkeypatch):
    """Work count: the probe lattice's 96 targets have 24 distinct z1 and
    24 distinct z2, so the slot kernels of the pieces take 24 + 24 rows of
    targets, not 96 + 96, and so do those of the ring sum on C^2 (one
    block of targets, one block of rings).  A C read of duplicated targets
    builds one kernel row per distinct target."""
    rows = []
    pairing = twisted_transforms._pairing_kernel_args

    def counted(z, u):
        rows.append(z.shape[0])
        return pairing(z, u)

    monkeypatch.setattr(twisted_transforms, "_pairing_kernel_args", counted)
    pieces = tensor_decompose_projection(c2_offcentre, 2)
    assert pieces[0].rule.nodes.shape[0] == 96
    assert rows == [24, 24]
    rows.clear()
    targets = _repeating_targets("duplicated", pieces[0].rule.nodes[:, :1])
    spectral_projections(c1_offcentre, [0, 2], targets)
    assert (targets.shape[0], np.unique(targets).size) == (53, 8)
    assert rows == [8]
    rows.clear()
    projection_values(c2_offcentre, 2, pieces[0].rule.nodes)
    assert rows == [24, 24]


@pytest.mark.parametrize("n", [1, 2])
def test_ring_sum_reads_the_rule_factors(n, monkeypatch):
    """The ring sum's slot tables and weighted samples, built from the
    radii, the unit slot tables and one weight per C^2 ring, equal bit for
    bit those cut from the node and weight tables: on C one ring of every
    node, on C^2 slot s of ring (radius, inclination) the column of its
    nodes' z_s, and its samples times their weights."""
    rule = (plane_rule(1, extent=8.0, radial_points=24, angular_points=16) if n == 1 else
            plane_rule(2, extent=6.0, radial_points=6, sphere3_orders=(3, 8, 12),
                       tolerance=float("inf")))
    f = SampledField.from_function(lambda p: np.exp(-0.3 * np.sum(np.abs(p - 0.2) ** 2, axis=1)
                                                    + 0.1j * p[:, 0].real), rule)
    seen = []
    pieces = twisted_transforms._slot_pieces

    def spied(targets, slots, weighted, *rest):
        seen.append((slots, weighted(slice(None), slice(None))))
        return pieces(targets, slots, weighted, *rest)

    monkeypatch.setattr(twisted_transforms, "_slot_pieces", spied)
    spectral_projections(f, [0, 1], np.array([[0.3 - 0.1j, 1j][:n]]))
    [(slots, fw)] = seen
    nodes, weights = rule.nodes, rule.weights
    if n == 1:
        want, want_fw = [nodes.T], (f.values * weights)[None]
    else:
        R, nt, m1, m2 = rule.shape
        u = nodes.reshape(R * nt, m1, m2, 2)
        want = [u[:, :, 0, 0], u[:, 0, :, 1]]
        want_fw = (f.values * weights).reshape(R * nt, m1, m2)
    assert [s.tobytes() for s in slots] == [np.ascontiguousarray(w).tobytes() for w in want]
    assert fw.tobytes() == want_fw.tobytes()


def test_c2_ring_sum_memory_budget(c2_offcentre):
    """The ring sums on C^2 hold one block of targets' slot kernels over one
    block of rings, and its tables: on a small C^2 grid, reads at the probe
    lattice and at the grid's own nodes (8192 targets, 512 distinct z1 and
    512 distinct z2: all-pairs tables would take 42 MB) stay within the
    _SLOT_BLOCK budget plus the output.  Each block of rings weights its
    own samples: on the 448 000-node (28, 10, 40, 40) rule, where all of
    them take 7.2 MB, a read at the lattice stays within the budget plus
    one ring block's weighted samples and the output."""
    rule = plane_rule(2, extent=6.0, radial_points=8, sphere3_orders=(4, 16, 16),
                      tolerance=float("inf"))
    f = SampledField.from_function(c2_offcentre.evaluate, rule)
    lattice = tensor_decompose_projection(c2_offcentre, 0)[0].rule.nodes
    budget = twisted_transforms._SLOT_BLOCK * np.dtype(complex).itemsize / 2 ** 20
    for read in (lambda: spectral_projections(f, range(4), lattice),
                 lambda: spectral_projections(f, range(4))):
        out_mb = read().nbytes / 2 ** 20
        assert peak_mb(read) <= budget + out_mb

    rule = plane_rule(2, extent=10.0, radial_points=28, sphere3_orders=(10, 40, 40))
    f = SampledField.from_function(c2_offcentre.evaluate, rule)
    R, nt, m1, m2 = rule.shape
    degrees = 3
    # the ring block of _slot_pieces: one ring's own nodes as targets
    # take (m1^2 + m2^2) kernel entries per degree
    ring_block = min(R * nt, twisted_transforms._SLOT_BLOCK // (degrees * (m1 * m1 + m2 * m2)))
    ring_mb = ring_block * m1 * m2 * np.dtype(complex).itemsize / 2 ** 20
    read = lambda: spectral_projections(f, range(degrees), lattice)
    out_mb = read().nbytes / 2 ** 20
    assert peak_mb(read) <= budget + ring_mb + out_mb


def test_tensor_pieces_separable_product_route(c2_field):
    """For f = g(z1) h(z2) each piece factors into 1-d projections; the
    pieces must match the product route to near machine."""
    k = 1
    pieces = tensor_decompose_projection(c2_field, k)
    slot = _slot_rule()
    g = SampledField.from_function(
        lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / 4.0).astype(complex), slot)
    h = SampledField.from_function(
        lambda p: np.exp(-1.3 * np.abs(p[:, 0]) ** 2 / 4.0).astype(complex), slot)
    targets = pieces[0].rule.nodes
    for b1 in range(k + 1):
        b2 = k - b1
        ref = (direct_projection_values(g, b1, targets[:, :1])
               * direct_projection_values(h, b2, targets[:, 1:]))
        assert np.max(np.abs(pieces[b1].values - ref)) < 1e-12


def test_tensor_rejects_c1_fields(gauss_field):
    with pytest.raises(ValueError, match="C\\^2"):
        tensor_decompose_projection(gauss_field, 1)


def test_tensor_rejects_negative_degree(c2_field):
    for bad in (-1, 2.5):
        with pytest.raises(ValueError, match=f"degree must be an integer >= 0, got {bad}"):
            tensor_decompose_projection(c2_field, bad)
