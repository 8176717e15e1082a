"""Plain circular means and the odd Coxeter counterexample."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import StackedFields, per_pair_circular_mean
from tsmlab.errors import FieldDomainError
from tsmlab.euclidean_means import (EuclideanSectorBasis, bump_profile,
                                    circular_mean, coxeter_odd_counterexample,
                                    coxeter_odd_orders, euclidean_mean_table,
                                    euclidean_sector_basis, write_mean_table)
from tsmlab.fields import SampledField
from tsmlab.injectivity_lab import assemble_operator, make_set, near_null_roundtrip
from tsmlab.ioutil import read_csv_columns
from tsmlab.quadrature import plane_rule
from tsmlab.twisted_transforms import twisted_mean_table


def test_bump_profile_support_and_smoothness():
    g = bump_profile(1.0)
    r = np.array([0.0, 0.5, 0.999, 1.0, 1.5])
    v = g(r)
    assert v[0] == pytest.approx(np.exp(-1.0))
    assert v[2] < 1e-200          # C-infinity flat at the edge
    assert v[3] == 0.0 and v[4] == 0.0


def _unbounded(fn):
    """A real field without a declared support; fn reads flat points."""
    rule = plane_rule(1, extent=4.0, radial_points=24, angular_points=64)
    ev = lambda p: fn(p[:, 0])
    return SampledField(rule, ev(rule.nodes), ev)


def _peak(f) -> float:
    return float(np.max(np.abs(f.values)))


def _sample_only(f):
    """f's samples and declared support, without its evaluator."""
    return SampledField(f.rule, f.values, None, f.name, support_radius=f.support_radius)


def test_circular_mean_constant_and_r0():
    f = _unbounded(lambda p: np.ones_like(np.abs(p)))
    assert circular_mean(f, 0.3 + 0.1j, 0.7) == pytest.approx(1.0)
    g = _unbounded(lambda p: np.exp(-np.abs(p) ** 2))
    assert circular_mean(g, 0.5 + 0.5j, 0.0) == pytest.approx(np.exp(-0.5))


def test_circular_mean_value_property_for_harmonic():
    # mean over any circle of a harmonic function equals the center value
    h = _unbounded(lambda p: (p ** 3).real)
    for c, r in [(0.4 + 0.2j, 0.9), (-1.0 + 0.5j, 1.7)]:
        assert circular_mean(h, c, r) == pytest.approx((c ** 3).real, abs=1e-12)


def test_mean_table_shape_and_export(tmp_path):
    f = coxeter_odd_counterexample(2)
    centers = np.array([0.2 + 0.0j, 0.0 + 0.35j])
    radii = np.array([0.3, 0.8, 1.4])
    table = euclidean_mean_table(f, centers, radii)
    assert table.shape == (2, 3)
    p = tmp_path / "means.csv"
    write_mean_table(p, centers, radii, table)
    cols = read_csv_columns(p)
    assert len(cols["mean"]) == 6
    assert np.allclose(np.asarray(cols["r"]).reshape(2, 3), radii[None, :])


def test_mean_table_matches_per_pair_circular_means():
    # 4 centres x 39 radii past 0: the table reads f in blocks of 24 circles
    f = coxeter_odd_counterexample(2)
    centers = np.array([0.2 + 0.0j, 0.35j, 0.3 + 0.4j, -0.5 + 0.1j])
    radii = np.concatenate([[0.0], np.geomspace(0.05, 1.5, 39)])
    table = euclidean_mean_table(f, centers, radii)
    ref = np.array([[per_pair_circular_mean(f, x, r) for r in radii] for x in centers])
    assert table.shape == (4, 40)
    assert np.max(np.abs(table - ref)) <= 1e-15 * _peak(f)
    assert np.max(np.abs(table[2:, 1:])) > 1e-3 * _peak(f)   # off the lines


def test_vector_table_equals_scalar_tables():
    """A field returning (P, V) gets the (C, R, V) table whose column v is
    the scalar table of field v: exactly at r = 0, and to 1e-15 of the peak
    on circles, where the vector sums run over the nodes in order and the
    scalar ones pairwise.  The sample-only copy interpolates every read."""
    odd = coxeter_odd_counterexample(2)
    fields = [odd, coxeter_odd_counterexample(3), _sample_only(odd)]
    centers = np.array([0.2 + 0.0j, 0.35j, 0.3 + 0.4j, -0.5 + 0.1j])
    radii = np.concatenate([[0.0], np.geomspace(0.05, 1.5, 39)])
    table = euclidean_mean_table(StackedFields(fields), centers, radii)
    assert table.shape == (4, 40, 3)
    for v, f in enumerate(fields):
        ref = euclidean_mean_table(f, centers, radii)
        assert np.array_equal(table[:, 0, v], ref[:, 0]), v
        assert np.max(np.abs(table[:, :, v] - ref)) <= 1e-15 * _peak(f), v


def test_mean_table_input_validation():
    f = coxeter_odd_counterexample(2)
    with pytest.raises(ValueError, match=">= 0"):
        euclidean_mean_table(f, [0.1j], [0.5, -0.5])
    with pytest.raises(ValueError, match="center"):
        euclidean_mean_table(f, [[0.1j, 0.2 + 0.0j]], [0.5])
    with pytest.raises(ValueError, match=">= 0"):
        circular_mean(f, 0.1j, -0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            circular_mean(f, 0.3, bad)
        with pytest.raises(ValueError, match="finite"):
            euclidean_mean_table(f, [0.1j], [0.5, bad])


def test_non_finite_centers_are_rejected():
    """A non-finite center meets no circle of the support, so it would
    read a zero mean, which is what a certificate looks for."""
    f = coxeter_odd_counterexample(2)
    for bad in (np.inf, np.nan, complex(0.2, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            circular_mean(f, bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            circular_mean(f, bad, 0.0)
        with pytest.raises(ValueError, match=r"finite, got .* at row 1"):
            euclidean_mean_table(f, [0.1j, bad], [0.0, 0.5])


@pytest.mark.parametrize("n_lines", [1, 2, 3])
def test_counterexample_annihilates_on_coxeter_lines(n_lines):
    """Means of the odd bump vanish at every center on Sigma_N, at every
    radius, while the field itself is far from zero."""
    f = coxeter_odd_counterexample(n_lines)
    peak = _peak(f)
    assert peak > 0.01
    rng = np.random.default_rng(n_lines)
    ts = rng.uniform(-2.0, 2.0, size=8)
    radii = rng.uniform(0.1, 1.6, size=5)
    worst = 0.0
    for l in range(n_lines):
        direction = np.exp(1j * np.pi * l / n_lines)
        for t in ts:
            for r in radii:
                worst = max(worst, abs(circular_mean(f, t * direction, r)))
    assert worst <= 1e-12 * peak
    # teeth: a generic off-line center does not vanish
    off = 0.7 * np.exp(1j * np.pi / (2 * n_lines))
    vals = [abs(circular_mean(f, off, r)) for r in radii]
    assert max(vals) > 1e-4 * peak


def test_counterexample_is_odd_under_the_reflection_group():
    f = coxeter_odd_counterexample(2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.8, 0.8, size=10) + 1j * rng.uniform(-0.8, 0.8, size=10)
    # reflection across each line of Sigma_2 flips the sign
    for l in range(2):
        axis = np.exp(1j * np.pi * l / 2)
        reflected = axis * np.conj(pts / axis)
        assert np.allclose(f.evaluate(reflected[:, None]), -f.evaluate(pts[:, None]),
                           atol=1e-13)


@pytest.mark.parametrize("n_lines", [2, 3])
def test_csv_imported_counterexample_keeps_its_certificate(tmp_path, n_lines):
    """The odd field read back from CSV is real, declares support 1 and
    holds the same samples bit for bit.  Its means on the CLI's centres of
    Sigma_N vanish to the CLI's 1e-10 of the peak.  On the same centres
    turned onto the bisectors of the lines they follow the evaluator's
    table to the interpolation's accuracy, which the bump's edge limits
    (pointwise errors reach about 5e-3 of the peak inside the disk)."""
    f = coxeter_odd_counterexample(n_lines)
    f.to_csv(tmp_path / "odd.csv")
    g = SampledField.from_csv(tmp_path / "odd.csv")
    assert g.evaluator is None and g.values.dtype == float and g.support_radius == 1.0
    assert g.values.tobytes() == f.values.tobytes()
    peak = _peak(f)
    t = np.linspace(-3.0, 3.0, 21)
    t = t[t != 0.0]
    radii = np.geomspace(0.1, 2.0, 20)
    turned = lambda turn: np.concatenate([t * np.exp(1j * np.pi * (l + turn) / n_lines)
                                          for l in range(n_lines)])
    on = euclidean_mean_table(g, turned(0.0), radii)
    assert on.dtype == float and np.max(np.abs(on)) <= 1e-10 * peak
    got, ref = (euclidean_mean_table(h, turned(0.5), radii) for h in (g, f))
    assert np.max(np.abs(got - ref)) <= 2e-3 * peak
    assert np.max(np.abs(ref)) >= 0.4 * peak     # off the lines


def test_coxeter_odd_orders():
    assert coxeter_odd_orders(2, 9) == [2, 4, 6, 8]
    assert coxeter_odd_orders(3, 9) == [3, 6, 9]
    assert coxeter_odd_orders(1, 4) == [1, 2, 3, 4]


def test_sector_basis_functions():
    b = EuclideanSectorBasis(["sin"], [3], [1.0])
    assert b.labels == ["sin3_R1"]
    pts = 0.5 * np.exp(1j * np.linspace(0.1, 2.0, 9))
    got = b.matrix(pts)[:, 0]
    ref = (np.abs(pts) / 1.0) ** 3 * np.sin(3 * np.angle(pts)) * bump_profile(1.0)(np.abs(pts))
    assert np.allclose(got, ref, atol=1e-13)
    outside = np.array([1.4 + 0.2j])
    assert b.matrix(outside)[0, 0] == 0.0
    # read as a field of the mean tables, the basis is its matrix
    assert np.array_equal(b.evaluate(pts[:, None]), b.matrix(pts))


@pytest.mark.parametrize("radius", [0.0, -1.0, float("inf"), float("nan")])
def test_sector_support_radius_must_be_positive_and_finite(radius):
    with pytest.raises(ValueError, match="support radius"):
        EuclideanSectorBasis(["sin"], [1], [radius])
    # a non-integer order is no Fourier mode (the basis matrix would raise
    # TypeError on it); numpy integers are integers
    for order in (1.5, 2.0, "2"):
        with pytest.raises(ValueError, match="must be an integer"):
            EuclideanSectorBasis(["sin"], [order], [1.0])
    assert EuclideanSectorBasis(["cos"], [np.int64(2)], [1.0]).orders.tolist() == [2]
    with pytest.raises(ValueError, match="support radius"):
        euclidean_sector_basis(3, support_radii=(radius,))


@pytest.mark.parametrize("columns, message", [
    ((["tan"], [1], [1.0]), "unknown sector kind 'tan'"),
    ((["sin"], [0], [1.0]), "bad angular order"),
    ((["cos"], [-1], [1.0]), "bad angular order"),
    (([], [], []), "empty basis"),
    ((["sin", "cos"], [1], [1.0, 1.0]), "one kind, order and support radius per column"),
])
def test_sector_basis_rejects_bad_columns(columns, message):
    with pytest.raises(ValueError, match=message):
        EuclideanSectorBasis(*columns)


def test_sector_basis_collection():
    basis = euclidean_sector_basis(4, support_radii=(1.0, 0.6))
    assert len(basis.labels) == len(set(basis.labels)) == basis.ncols
    assert np.all(basis.orders <= 4)
    some = euclidean_sector_basis(6, support_radii=(1.0,), orders=[2, 4],
                                  kinds=("sin",))
    assert some.orders.tolist() == [2, 4]
    assert np.all(some.kinds == "sin")
    with pytest.raises(ValueError, match="order 5 above max_order 4"):
        euclidean_sector_basis(4, orders=[5])
    with pytest.raises(ValueError, match="empty basis"):
        euclidean_sector_basis(4, orders=[0], kinds=("sin",))


def test_euclidean_field_domain_guard():
    f = coxeter_odd_counterexample(2)
    sampled = _sample_only(f)
    inside = np.array([[0.3 + 0.3j]])
    # the bump profile has an essential singularity at the support edge;
    # polynomial-radial interpolation tops out around 1e-5 there
    assert abs(sampled.evaluate(inside)[0] - f.evaluate(inside)[0]) < 1e-4
    far = np.array([[2.5 + 0.1j]])     # outside support: defined as zero
    assert sampled.evaluate(far)[0] == 0.0
    # inside a declared support that reaches past the grid (extent 2): undefined
    wide = SampledField(f.rule, f.values, support_radius=3.0)
    with pytest.raises(FieldDomainError, match="outside the sampled domain"):
        wide.evaluate(np.concatenate([inside, far]))


def test_euclidean_field_rejects_slow_tail():
    rule = plane_rule(1, extent=2.0, radial_points=16, angular_points=32)
    with pytest.raises(ValueError, match="support"):
        # support declared smaller than the actual mass: the constructor
        # checks the boundary tail
        SampledField(rule, np.ones(rule.nodes.shape[0]), support_radius=1.0)
    # on C^2 the tail is read by |z|, not by |z1|: a bump in each slot
    # reaches |z| = sqrt(2), past a declared 1, with every |z1| < 1
    rule2 = plane_rule(2, extent=2.0, radial_points=16, sphere3_orders=(6, 8, 8),
                       tolerance=float("inf"))
    g = bump_profile(1.0)
    vals = g(np.abs(rule2.nodes[:, 0])) * g(np.abs(rule2.nodes[:, 1]))
    assert np.max(np.abs(rule2.nodes[vals > 0, 0])) < 1.0
    with pytest.raises(ValueError, match="outside the declared support"):
        SampledField(rule2, vals, support_radius=1.0)
    f = SampledField(rule2, vals, support_radius=1.5)
    past = np.array([[0.8, 0.8j], [0.9, 1.3j]])      # |z| 1.13 and 1.58
    got = f.evaluate(past)
    assert got.dtype == float and got[0] != 0.0 and got[1] == 0.0


# ---------------------------------------------------------------------------
# the support read: circles that miss a declared support are not read


def _undeclared(f):
    """f with no support declaration: the table reads every circle."""
    return SimpleNamespace(dimension=1, evaluate=f.evaluate)


def _bit_equal(a, b) -> bool:
    """Equal values, dtype and bytes: signs of zeros included, real or complex."""
    return (a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
            and a.tobytes() == b.tobytes())


_SKIP_RADII = np.concatenate([[0.0], np.geomspace(0.2, 6.0, 12), [0.5, 2.5]])
_SKIP_SETS = {
    "sigma1": dict(kind="coxeter_lines", n_lines=1, extent=6.0, points_per_ray=6),
    "sigma2": dict(kind="coxeter_lines", n_lines=2, extent=6.0, points_per_ray=6),
    "sigma3": dict(kind="coxeter_lines", n_lines=3, extent=6.0, points_per_ray=6),
    "sphere": dict(kind="sphere", radius=1.3, n=1, m=12),
    "curve": dict(kind="curve", r_profile=lambda t: 3.0 * np.exp(-t / (4.0 * np.pi)),
                  samples=16),
    # |x| = 1.5 against radii 0.5 and 2.5: ||x| - r| = R = 1 exactly
    "custom": dict(kind="custom", centers=np.array([[1.5], [1.5j], [-0.2 + 0.1j], [4.0]]),
                   n=1),
}


@pytest.mark.parametrize("name", sorted(_SKIP_SETS))
def test_declared_support_table_is_the_undeclared_table(name):
    """Bit for bit, signs of zeros included: on every set, for V = 1 and
    V = 10 fields of sector columns, at r = 0 and on every circle, for a
    declared support larger than every circle, and for the circular table
    and the twisted one on C (256 nodes, complex).  The columns are combined
    by an elementwise sum, whose value at a point does not depend on how
    many points one read holds; a BLAS product's can (OpenBLAS takes
    another kernel for products of at most 10^6 multiply-adds)."""
    params = dict(_SKIP_SETS[name])
    centers = make_set(params.pop("kind"), **params).centers
    basis = euclidean_sector_basis(6, support_radii=(1.0, 0.6))
    c = np.random.default_rng(5).normal(size=(basis.ncols, 10))
    fields = [lambda p: (basis.matrix(p) * c[:, 0]).sum(axis=1),
              lambda p: (basis.matrix(p)[:, :, None] * c).sum(axis=1)]
    for table, evaluate in itertools.product((euclidean_mean_table, twisted_mean_table),
                                             fields):
        ref = table(SimpleNamespace(dimension=1, evaluate=evaluate), centers, _SKIP_RADII)
        for support in (basis.support_radius, 100.0):
            got = table(SimpleNamespace(dimension=1, evaluate=evaluate, support_radius=support),
                        centers, _SKIP_RADII)
            assert _bit_equal(got, ref), (name, table.__name__, support)
        assert np.max(np.abs(ref)) > 1e-3
    # a real SampledField that declares the basis's support culls alike
    rule = plane_rule(1, extent=2.0, radial_points=8, angular_points=16)
    f = SampledField(rule, fields[0](rule.nodes), fields[0],
                     support_radius=basis.support_radius)
    for table in (euclidean_mean_table, twisted_mean_table):
        assert _bit_equal(table(f, centers, _SKIP_RADII),
                          table(_undeclared(f), centers, _SKIP_RADII)), (name, table.__name__)


def test_basis_support_is_its_widest_column():
    basis = euclidean_sector_basis(3, support_radii=(0.6, 1.0))
    assert basis.support_radius == 1.0
    with pytest.raises(AttributeError):
        basis.support_radius = 2.0


def test_table_reads_only_circles_that_meet_the_support():
    """The default euclidean probe (Sigma_2, 41 centres, 24 radii) hands the
    basis 279 circles of 240 nodes, of its 984."""
    sset = make_set("coxeter_lines", radii=np.geomspace(0.2, 6.0, 24), n_lines=2,
                    extent=6.0, points_per_ray=10)
    basis = euclidean_sector_basis(10, support_radii=(1.0, 0.6))
    read = []
    matrix = basis.matrix
    basis.matrix = lambda p: (read.append(np.size(p)), matrix(p))[1]
    assemble_operator(sset, engine="euclidean", basis=basis)
    assert sset.n_rows == 984
    assert sum(read) == 279 * 240


def test_table_keeps_its_shape_when_every_circle_misses():
    basis = euclidean_sector_basis(4, support_radii=(1.0,))
    sset = make_set("custom", radii=[0.5, 1.5], centers=np.array([[4.0], [-3.0j]]), n=1)
    op = assemble_operator(sset, engine="euclidean", basis=basis)
    assert op.matrix.shape == (4, basis.ncols)
    assert not np.any(op.matrix) and not np.any(np.signbit(op.matrix))
    got = near_null_roundtrip(op, np.eye(basis.ncols)[:, :3])
    assert got.shape == (3,) and not np.any(got)


def test_declared_support_zeroes_a_leak_below_the_field_tolerance():
    """An evaluator that leaks 1e-13 of the peak past its declared support:
    the field accepts it, and the table reads 0 on the circles that miss the
    disk, within 1e-12 of the peak of the table that reads them."""
    odd = coxeter_odd_counterexample(2)
    peak = _peak(odd)
    leak = 1e-13 * peak
    ev = lambda p: odd.evaluate(p) + leak * (np.abs(p[:, 0]) > 1.0)
    f = SampledField(odd.rule, ev(odd.rule.nodes), ev, support_radius=1.0)
    centers = np.array([0.3 + 0.2j, 1.8, 3.0j])
    radii = np.array([0.0, 0.4, 1.0, 2.5, 5.0])
    got = euclidean_mean_table(f, centers, radii)
    ref = euclidean_mean_table(_undeclared(f), centers, radii)
    gap = np.max(np.abs(got - ref))
    assert 0.0 < gap <= 1e-12 * peak


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_declared_support_must_be_positive(radius):
    """A NaN support would select no circle and read a zero table."""
    f = coxeter_odd_counterexample(2)
    with pytest.raises(ValueError, match="support radius"):
        SampledField(f.rule, f.values, support_radius=radius)
    with pytest.raises(ValueError, match="support radius"):
        euclidean_mean_table(
            SimpleNamespace(dimension=1, evaluate=f.evaluate, support_radius=radius),
            [0.1j], [0.5])
