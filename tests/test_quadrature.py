"""Quadrature rules against closed-form moments."""

import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import peak_mb
from tsmlab import quadrature
from tsmlab.errors import QuadratureError
from tsmlab.quadrature import (compensated_sum, gauss_legendre, plane_rule,
                               radial_rule, sphere_rule)


def test_compensated_sum_matches_fsum():
    rng = np.random.default_rng(7)
    v = np.concatenate([rng.normal(size=9000) * 1e8, rng.normal(size=9000)])
    rng.shuffle(v)
    assert compensated_sum(v) == pytest.approx(math.fsum(v), abs=1e-6)


def test_compensated_sum_axis_and_dtype():
    m = np.arange(12.0).reshape(3, 4)
    assert np.allclose(compensated_sum(m, axis=0), m.sum(axis=0))
    c = m + 1j * m[::-1]
    out = compensated_sum(c, axis=1)
    assert out.dtype.kind == "c"
    assert np.allclose(out, c.sum(axis=1))


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(8, 0.0, 3.0)
    for p in range(0, 16):          # degree <= 2*8-1
        exact = 3.0 ** (p + 1) / (p + 1)
        assert np.dot(w, x ** p) == pytest.approx(exact, rel=1e-13)


def test_circle_rule_trig_moments():
    rule = sphere_rule(1, 1.7, m=32)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
    rule.validate()
    th = np.angle(rule.nodes[:, 0])
    for k in range(1, 16):          # all modes below the aliasing limit
        assert abs(rule.integrate(np.exp(1j * k * th))) < 1e-14
    assert rule.integrate(np.ones(32)) == pytest.approx(1.0)


def test_circle_rule_rejects_bad_input():
    with pytest.raises(ValueError):
        sphere_rule(1, 0.0)
    with pytest.raises(ValueError):
        sphere_rule(1, 1.0, m=3)
    with pytest.raises(ValueError):
        sphere_rule(3, 1.0)
    # non-finite radii, on the circle and on S^3
    for n in (1, 2):
        for radius in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                sphere_rule(n, radius)


def test_sphere3_moments():
    """Normalized S^3 moments: E |w1|^(2a) |w2|^(2b) = a! b! / (a+b+1)! r^(2a+2b)."""
    r = 1.3
    # the t factor is Gauss-Legendre against a trig integrand, not exact;
    # order 20 puts its error well below the tolerance
    rule = sphere_rule(2, r, orders=(20, 8, 8))
    rule.validate()
    a1 = np.abs(rule.nodes[:, 0])
    a2 = np.abs(rule.nodes[:, 1])
    for a in range(4):
        for b in range(4):
            exact = (math.factorial(a) * math.factorial(b)
                     / math.factorial(a + b + 1)) * r ** (2 * (a + b))
            got = rule.integrate(a1 ** (2 * a) * a2 ** (2 * b))
            assert got.real == pytest.approx(exact, rel=1e-12)
            assert abs(got.imag) < 1e-15


def test_sphere3_phase_moments_vanish():
    rule = sphere_rule(2, 1.0, orders=(6, 8, 8))
    w1, w2 = rule.nodes[:, 0], rule.nodes[:, 1]
    for (j, k) in [(1, 0), (0, 1), (2, 1), (1, 3)]:
        assert abs(rule.integrate(w1 ** j * np.conj(w2) ** k)) < 1e-14


@pytest.mark.parametrize("case", ["circle", "s3"])
def test_sphere_rule_is_product_of_its_factors(case):
    """nodes and weights are, bit for bit, the row-major product of the
    t weights and the slot tables; the tables are r cos(t) e^(i p1) and
    r sin(t) e^(i p2) on C^2, r e^(i p) on C."""
    r = 1.7
    if case == "circle":
        rules = [((1, m), sphere_rule(1, r, m=m)) for m in (4, 7, 64)]
    else:
        rules = [(o, sphere_rule(2, r, orders=o))
                 for o in [(5, 6, 10), (3, 8, 4), (16, 32, 32)]]
    for (nt, *counts), rule in rules:
        slots, tw = rule.slot_nodes, rule.t_weights
        assert [s.shape for s in slots] == [(nt, m) for m in counts] and tw.shape == (nt,)
        idx = list(itertools.product(range(tw.size), *map(range, counts)))
        nodes = np.array([[slots[j][i[0], i[j + 1]] for j in range(len(slots))] for i in idx])
        weights = np.array([tw[i[0]] * (1.0 / math.prod(counts)) for i in idx])
        assert rule.nodes.tobytes() == nodes.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()
        assert tw.sum() == pytest.approx(1.0, abs=1e-15)
        if case == "circle":
            t, moduli = np.zeros(1), [np.full(1, r)]
        else:
            t, _ = gauss_legendre(tw.size, 0.0, 0.5 * np.pi)
            moduli = [r * np.cos(t), r * np.sin(t)]
        for s, mod, m in zip(slots, moduli, counts):
            want = mod[:, None] * np.exp(2j * np.pi * np.arange(m) / m)[None, :]
            assert np.max(np.abs(s - want)) <= 1e-15 * r


def test_radial_rule_moments():
    rule = radial_rule(1, extent=14.0, points=48)
    errs = rule.moment_errors()
    assert errs.max() < 1e-12
    rule2 = radial_rule(2, extent=14.0, points=64)
    assert rule2.moment_errors().max() < 1e-12


def test_plane_rule_gaussian_and_polynomial_moments():
    rule = plane_rule(1, extent=12.0, radial_points=48, angular_points=64)
    sq = np.abs(rule.nodes[:, 0]) ** 2
    # int |z|^(2p) e^(-|z|^2/2) dz = pi 2^(p+1) p!
    for p in range(5):
        exact = math.pi * 2.0 ** (p + 1) * math.factorial(p)
        got = rule.integrate(sq ** p * np.exp(-0.5 * sq))
        assert got.real == pytest.approx(exact, rel=1e-11)


def test_plane_rule_c2_gaussian():
    rule = plane_rule(2, extent=10.0, radial_points=40, sphere3_orders=(8, 12, 12))
    sq = np.sum(np.abs(rule.nodes) ** 2, axis=1)
    got = rule.integrate(np.exp(-0.5 * sq))
    assert got.real == pytest.approx((2.0 * math.pi) ** 2, rel=1e-9)


def test_plane_rule_small_extent_checks_truncated_mass():
    # compact-support work needs small windows; the self-check must compare
    # against the truncated Gaussian moment, not the full-plane value
    rule = plane_rule(1, extent=2.0, radial_points=32, angular_points=64)
    assert rule.moment_error < 1e-9


def test_plane_rule_self_check_reads_radii():
    """Every node's |z| is its radial node, so the moment check makes no
    (nodes, n) or (nodes,) temporaries: 28.6 MB traced on this 448 000-node
    rule when it took |z|^2 from the nodes, 17.7 MB of it the rule itself."""
    assert peak_mb(lambda: plane_rule(2, extent=10.0, radial_points=28,
                                      sphere3_orders=(10, 40, 40))) <= 24.0


def test_plane_rule_checks_its_unit_rule(monkeypatch):
    """The moment check reads |z| from the radial nodes, so a unit rule
    whose nodes sit off the sphere is caught by its own check."""
    build = quadrature._build_unit_rule
    monkeypatch.setattr(quadrature, "_build_unit_rule", lambda n, size: dataclasses.replace(
        build(n, size), nodes=1.01 * build(n, size).nodes))
    for n in (1, 2):
        with pytest.raises(QuadratureError, match="off the sphere"):
            plane_rule(n, radial_points=16, angular_points=16, sphere3_orders=(4, 8, 8))


def test_plane_rule_self_check_failure_raises():
    with pytest.raises(QuadratureError, match="Gaussian moment"):
        plane_rule(1, extent=12.0, radial_points=4, angular_points=16)


def test_plane_rule_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        plane_rule(3)


def _fresh_rules(r):
    """gauss_legendre(7, 0, 2) and the sphere rules of radius r of 12
    circle nodes and of S^3 orders (5, 6, 8), written out from numpy's
    leggauss and nothing cached: r times the unit rule's tables."""
    x, w = np.polynomial.legendre.leggauss(7)
    gl = (0.0 + 1.0 * (x + 1.0), 1.0 * w)
    circle = r * np.exp(1j * (2.0 * np.pi * np.arange(12) / 12))
    t, wt = np.polynomial.legendre.leggauss(5)
    t, wt = 0.25 * np.pi * (t + 1.0), 0.25 * np.pi * wt
    wt = wt * 2.0 * np.sin(t) * np.cos(t)
    wt /= wt.sum()
    slots = (r * (np.cos(t)[:, None] * np.exp(1j * (2.0 * np.pi * np.arange(6) / 6))[None, :]),
             r * (np.sin(t)[:, None] * np.exp(1j * (2.0 * np.pi * np.arange(8) / 8))[None, :]))
    return gl, circle, wt, slots


def _same(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("r", [1.0, 0.37])
def test_rules_are_built_bit_for_bit_from_leggauss(r):
    """Tables computed once per size give the rules a fresh construction
    gives, on the first build and on every later one."""
    gl, circle, wt, slots = _fresh_rules(r)
    for _ in range(2):
        x, w = gauss_legendre(7, 0.0, 2.0)
        assert _same(x, gl[0]) and _same(w, gl[1])
        c = sphere_rule(1, r, m=12)
        assert _same(c.slot_nodes[0], circle[None, :]) and _same(c.nodes[:, 0], circle)
        s = sphere_rule(2, r, orders=(5, 6, 8))
        assert _same(s.t_weights, wt)
        assert all(_same(a, b) for a, b in zip(s.slot_nodes, slots))
        assert _same(s.nodes[::8, 0], slots[0].ravel())


def test_mutating_a_rule_leaves_the_next_one_alone():
    gl, circle, wt, slots = _fresh_rules(1.0)
    x, w = gauss_legendre(7, 0.0, 2.0)
    c = sphere_rule(1, 1.0, m=12)
    s = sphere_rule(2, 1.0, orders=(5, 6, 8))
    for a in (x, w, c.nodes, c.slot_nodes[0], s.t_weights, s.weights, s.nodes,
              *s.slot_nodes):
        a[...] = 0
    x, w = gauss_legendre(7, 0.0, 2.0)
    assert _same(x, gl[0]) and _same(w, gl[1])
    assert _same(sphere_rule(1, 1.0, m=12).nodes[:, 0], circle)
    s = sphere_rule(2, 1.0, orders=(5, 6, 8))
    assert _same(s.t_weights, wt) and all(_same(a, b) for a, b in zip(s.slot_nodes, slots))


@pytest.mark.parametrize("n, size", [(1, {"m": 12}), (1, {}), (2, {"orders": (5, 6, 8)}), (2, {})])
def test_sphere_rule_is_its_radius_times_the_unit_rule(n, size):
    """Every array of sphere_rule(n, r) is r times, or for the weights
    equal to, that of sphere_rule(n, 1.0), bit for bit."""
    unit = sphere_rule(n, 1.0, **size)
    for r in (0.37, 1.0, 2.9):
        rule = sphere_rule(n, r, **size)
        assert rule.radius == r
        assert _same(rule.nodes, r * unit.nodes)
        assert _same(rule.weights, unit.weights) and _same(rule.t_weights, unit.t_weights)
        assert len(rule.slot_nodes) == n
        assert all(_same(a, r * b) for a, b in zip(rule.slot_nodes, unit.slot_nodes))
        rule.validate()


@pytest.mark.parametrize("n, size", [(1, {"angular_points": 12}),
                                     (2, {"sphere3_orders": (5, 6, 8)})])
def test_plane_rule_keeps_no_cached_unit_rule(n, size):
    """Ring i of a plane rule is r_i times the unit sphere rule, bit for
    bit, and the plane rule builds that unit rule itself: the mean tables'
    cache is neither read nor filled, so a one-off grid's tables do not
    stay resident.  Its sizes are checked as sphere_rule checks them."""
    before = quadrature._unit_rule.cache_info()
    rule = plane_rule(n, extent=8.0, radial_points=7, tolerance=float("inf"), **size)
    after = quadrature._unit_rule.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    unit = sphere_rule(n, 1.0, m=size.get("angular_points"), orders=size.get("sphere3_orders"))
    for r, ring in zip(rule.radial_nodes, rule.nodes.reshape(7, -1, n)):
        assert _same(ring, r * unit.nodes)
    with pytest.raises(ValueError, match="at least 4 nodes"):
        plane_rule(1, angular_points=3)


# sha256 of nodes.tobytes() and weights.tobytes() when the rule stored both
# tables: rebuilding them from the factors changes no byte
_TABLE_DIGESTS = [
    ((1,), {},
     "c91806562827d211c79432ea8f878a68644ec7e5eacf48152b1682debc2acdc8",
     "e865ccffebd12c89b2adcc9163b54a9f82545309e7e60ff51cc23932d28f90c6"),
    ((2,), {"extent": 10.0, "radial_points": 28, "sphere3_orders": (10, 40, 40)},
     "2e2da36764712da0bb413711fe8a24b8775f84cd0368206fe9e3051ca4230453",
     "d0c8f32a881a87e3677e604898b05a3de1c236e5b021e0b801125c96d15bbe36"),
    ((2,), {"extent": 8.0, "radial_points": 24, "sphere3_orders": (8, 24, 24)},
     "d722f4435d27e76bdda968124a60368c6b9720e1608cd1e243b8c9c882808780",
     "73c529ac4b15fe57d1f17240ce9ca6b16d1fb265773c6e7f5425a24ccf4d0520"),
]


@pytest.mark.parametrize("args, kwargs, nodes_sha, weights_sha", _TABLE_DIGESTS,
                         ids=["c1-default", "c2-criterion8", "c2-fixture"])
def test_plane_rule_tables_are_pinned(args, kwargs, nodes_sha, weights_sha):
    """The node and weight tables built from the factors, byte for byte:
    the default C rule, criterion 8's C^2 rule and a 110 592-node C^2 rule."""
    rule = plane_rule(*args, **kwargs)
    nodes, weights = rule.nodes, rule.weights
    assert nodes.flags.c_contiguous and nodes.shape == (rule.size, rule.dimension)
    assert weights.shape == (rule.size,)
    assert hashlib.sha256(nodes.tobytes()).hexdigest() == nodes_sha
    assert hashlib.sha256(weights.tobytes()).hexdigest() == weights_sha


def test_plane_rule_keeps_its_factors_only():
    """A kept plane rule holds its radial nodes and weights and its unit
    sphere rule, 0.65 MB on the 448 000-node (28, 10, 40, 40) rule whose
    node and weight tables take 17.1 MB; every read builds them afresh."""
    plane_rule(2, radial_points=8, sphere3_orders=(2, 4, 4), tolerance=float("inf"))
    tracemalloc.start()
    try:
        rule = plane_rule(2, extent=10.0, radial_points=28, sphere3_orders=(10, 40, 40))
        held = tracemalloc.get_traced_memory()[0] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert held < 1.0
    assert rule.size == 448_000 and rule.nodes is not rule.nodes


@pytest.mark.parametrize("build, bad", [
    (lambda: plane_rule(1, extent=6.0, radial_points=24, angular_points=32.7),
     "angular_points must be an integer >= 1, got 32.7"),
    (lambda: plane_rule(1, extent=6.0, radial_points=24.5),
     "radial_points must be an integer >= 1, got 24.5"),
    (lambda: plane_rule(2, extent=6.0, radial_points=8, sphere3_orders=(4, 8.0, 8)),
     "sphere3_orders[1] must be an integer >= 1, got 8.0"),
    (lambda: sphere_rule(1, 1.0, m=16.5), "m must be an integer >= 1, got 16.5"),
    (lambda: sphere_rule(2, 1.0, orders=(4, 8, 7.5)), "orders[2] must be an integer >= 1, got 7.5"),
    (lambda: radial_rule(1, extent=4.0, points=20.5), "points must be an integer >= 2, got 20.5"),
    (lambda: radial_rule(1, extent=4.0, points=1), "points must be an integer >= 2, got 1"),
    # bools are not counts
    (lambda: plane_rule(1, extent=6.0, radial_points=True),
     "radial_points must be an integer >= 1, got True"),
    (lambda: plane_rule(1, extent=6.0, angular_points=True),
     "angular_points must be an integer >= 1, got True"),
    (lambda: plane_rule(2, extent=6.0, sphere3_orders=(True, 8, 8)),
     "sphere3_orders[0] must be an integer >= 1, got True"),
    (lambda: sphere_rule(1, 1.0, m=True), "m must be an integer >= 1, got True"),
    (lambda: sphere_rule(2, 1.0, orders=(4, False, 8)), "orders[1] must be an integer >= 1, got False"),
    (lambda: radial_rule(1, points=True), "points must be an integer >= 2, got True"),
])
def test_rule_node_counts_are_integers(build, bad):
    # angular_points=32.7 built 33 phases, m=16.5 17 circle nodes, and a
    # float radial count raised numpy's "deg must be an integer"
    with pytest.raises(ValueError, match=re.escape(bad)):
        build()


def test_rules_take_numpy_integer_counts():
    ref = plane_rule(1, extent=6.0, radial_points=24, angular_points=32)
    got = plane_rule(1, extent=6.0, radial_points=np.int64(24), angular_points=np.int32(32))
    assert _same(got.nodes, ref.nodes) and got.params == ref.params
    assert type(got.params["radial_points"]) is int and type(got.params["angular_points"]) is int
    ref2 = plane_rule(2, extent=6.0, radial_points=8, sphere3_orders=(4, 8, 8),
                      tolerance=float("inf"))
    got2 = plane_rule(2, extent=6.0, radial_points=8, sphere3_orders=np.array([4, 8, 8]),
                      tolerance=float("inf"))
    assert _same(got2.nodes, ref2.nodes) and got2.params == ref2.params
    assert all(type(o) is int for o in got2.params["sphere3_orders"])
    assert _same(sphere_rule(1, 1.0, m=np.int64(16)).nodes, sphere_rule(1, 1.0, m=16).nodes)
    assert _same(sphere_rule(2, 1.0, orders=np.array([4, 8, 8])).nodes,
                 sphere_rule(2, 1.0, orders=(4, 8, 8)).nodes)
    assert _same(radial_rule(1, extent=4.0, points=np.int64(20)).nodes,
                 radial_rule(1, extent=4.0, points=20).nodes)
