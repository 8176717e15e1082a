"""Laguerre and special Hermite building blocks.

The Laguerre recurrence is checked against an independent closed-form
series oracle (exact binomial coefficients, Horner evaluation) and against
scipy, so a defect in the recurrence cannot hide.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from conftest import solid_harmonic_values, special_hermite_basis
from tsmlab.quadrature import plane_rule
from tsmlab.special_functions import (LaguerreSpec, laguerre_function,
                                      laguerre_polynomial, laguerre_sequence,
                                      radial_eigenfunction_origin,
                                      SolidHarmonic, solid_harmonic_basis,
                                      special_hermite_indices,
                                      special_hermite_matrix,
                                      special_hermite_order_limit,
                                      special_hermite_radial)


def laguerre_series_oracle(k: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """L_k^alpha(x) = sum_j (-1)^j C(k+alpha, k-j) x^j / j!.

    Evaluated in exact rational arithmetic (the grid points are dyadic), so
    the alternating series loses nothing to cancellation; rounding happens
    once, at the end."""
    coeffs = [Fraction((-1) ** j * math.comb(k + alpha, k - j), math.factorial(j))
              for j in range(k + 1)]
    out = []
    for xv in np.asarray(x, dtype=float).ravel():
        xf = Fraction(xv)
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * xf + c
        out.append(float(acc))
    return np.asarray(out).reshape(np.shape(x))


XGRID = np.linspace(0.0, 40.0, 81)


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_laguerre_recurrence_vs_series_oracle(alpha):
    # error scaled by the sup of |L| on the grid: pointwise-relative error
    # at the zero crossings only measures rounding of the working amplitude
    # one pass of the sequence gives every degree; single evaluations run
    # the same recurrence and must agree with it bit for bit
    for k, got in enumerate(laguerre_sequence(alpha, XGRID, 12)):
        assert np.array_equal(got, laguerre_polynomial(LaguerreSpec(k, alpha), XGRID))
        ref = laguerre_series_oracle(k, alpha, XGRID)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(got - ref)) < 1e-12 * scale
    assert k == 12


def test_laguerre_vs_scipy():
    # scipy rounds a little worse than the recurrence near sign changes;
    # the strict comparison lives in the exact-series test above
    for k in [0, 1, 4, 9, 15]:
        for alpha in [0, 1, 3]:
            got = laguerre_polynomial(LaguerreSpec(k, alpha), XGRID)
            ref = scipy.special.eval_genlaguerre(k, alpha, XGRID)
            scale = np.maximum(1.0, np.abs(ref))
            assert np.max(np.abs(got - ref) / scale) < 1e-9


def test_laguerre_sequence_broadcasts_orders():
    # one run over an array of orders is every scalar run at once
    orders = np.arange(6)[:, None]
    for k, got in enumerate(laguerre_sequence(orders, XGRID, 8)):
        assert got.shape == (6, XGRID.size)
        for alpha in range(6):
            assert np.array_equal(got[alpha], laguerre_polynomial(LaguerreSpec(k, alpha), XGRID))


def _radial_oracle(a: int, d: int, x: np.ndarray) -> np.ndarray:
    """rho_(a,d) at x > 0: the exact-series Laguerre value, the rest of the
    factor in log space, so nothing overflows at high d."""
    lag = laguerre_series_oracle(a, d, x)
    log_rest = (0.5 * (math.lgamma(a + 1) - math.lgamma(a + d + 1))
                + 0.5 * d * np.log(x) - 0.5 * x)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(lag)) + log_rest
    return np.sign(lag) * np.exp(log_mag)


def test_special_hermite_radial_vs_oracle():
    """|rho| <= 1, so the error is absolute; up to d = 1000 at r = 12,
    where (r/sqrt(2))^d alone overflows past d = 330."""
    r = np.array([0.25, 1.0, 2.5, 6.0, 9.5, 12.0])
    x = 0.5 * r * r
    with np.errstate(over="raise", invalid="raise"):
        rho = np.stack(list(special_hermite_radial(x, 12, range(1001))))
    assert rho.shape == (13, 1001, r.size)
    for a in (0, 1, 4, 12):
        for d in (0, 1, 2, 7, 30, 72, 150, 400, 1000):
            assert np.max(np.abs(rho[a, d] - _radial_oracle(a, d, x))) < 1e-13, (a, d)


@pytest.mark.parametrize("orders", [[0], [917, 3, 0, 3, 916], list(range(768, 513, -1)), []])
def test_special_hermite_radial_order_selection_is_rows_of_all_orders(orders):
    """A selection of orders, in any order and with repeats, yields those
    rows of the call over every order, bit for bit: the per-mode table
    reads its orders a chunk at a time.  Across the underflow at r = 12."""
    x = 0.5 * np.linspace(0.0, 12.0, 9) ** 2
    whole = np.stack(list(special_hermite_radial(x, 12, range(1001))))
    picked = np.stack(list(special_hermite_radial(x, 12, orders)))
    assert picked.shape == (13, len(orders), x.size)
    assert np.array_equal(picked, whole[:, orders])


def test_special_hermite_radial_exact_at_origin():
    rho = np.stack(list(special_hermite_radial(np.zeros(1), 8, range(21))))
    assert np.array_equal(rho[:, 0, 0], np.ones(9))
    assert np.array_equal(rho[:, 1:, 0], np.zeros((9, 20)))
    mat = special_hermite_matrix(np.zeros(1), 6)
    alpha, beta = special_hermite_indices(6)
    diag = alpha == beta
    assert np.array_equal(mat[0], np.where(diag, (2.0 * math.pi) ** -0.5, 0.0))


@pytest.mark.parametrize("r", [0.0, 1.0, 12.0, 20.0])
def test_special_hermite_order_limit_marks_underflow(r):
    # at the limit every factor on [0, r] is 0; the order below is not
    x = 0.5 * r * r
    D = special_hermite_order_limit(x)
    rho = np.stack(list(special_hermite_radial(np.array([x, 0.5 * x]), 12, range(D + 1))))
    assert np.all(rho[:, D] == 0.0)
    assert np.all(rho[:, D - 1, 0] != 0.0)


def test_special_hermite_order_limit_rejects_underflowing_seed():
    with pytest.raises(ValueError, match="underflow"):
        special_hermite_order_limit(0.5 * 60.0 ** 2)


def test_laguerre_rejects_bad_spec():
    with pytest.raises(ValueError):
        LaguerreSpec(-1, 0)
    with pytest.raises(ValueError):
        LaguerreSpec(2, -1)


def test_laguerre_function_value_and_origin():
    rho = np.linspace(0.0, 8.0, 33)
    for n in (1, 2):
        for k in range(6):
            got = laguerre_function(LaguerreSpec(k, n - 1), rho)
            ref = (laguerre_series_oracle(k, n - 1, 0.5 * rho ** 2)
                   * np.exp(-0.25 * rho ** 2))
            assert np.max(np.abs(got - ref)) < 1e-12
            # L_k^alpha(0) = C(k+alpha, k)
            assert radial_eigenfunction_origin(n, k) == pytest.approx(
                math.comb(k + n - 1, k), rel=1e-14)
            assert got[0] == pytest.approx(radial_eigenfunction_origin(n, k))


def test_special_hermite_explicit_low_orders():
    z = np.array([0.4 + 0.3j, -1.2 + 0.8j, 2.0 - 0.5j])
    g = np.exp(-0.25 * np.abs(z) ** 2)
    c = (2.0 * np.pi) ** -0.5
    mat = special_hermite_matrix(z, 1)
    col = {(a, b): mat[:, j] for j, (a, b) in enumerate(zip(*special_hermite_indices(1)))}
    assert np.allclose(col[(0, 0)], c * g)
    assert np.allclose(col[(0, 1)], c * (1j * np.conj(z) / np.sqrt(2.0)) * g)
    # index swap is complex conjugation
    assert np.allclose(col[(1, 0)], np.conj(col[(0, 1)]))


def test_special_hermite_orthonormality():
    """Gram matrix of phi_(a,b), a, b <= 3, is the identity in L^2(C)."""
    rule = plane_rule(1, extent=10.0, radial_points=40, angular_points=128)
    idx = list(zip(*special_hermite_indices(3)))
    mat = special_hermite_matrix(rule.nodes[:, 0], 3)
    cols = dict(zip(idx, mat.T))
    for i1 in idx:
        for i2 in idx:
            inner = rule.integrate(cols[i1] * np.conj(cols[i2]))
            want = 1.0 if i1 == i2 else 0.0
            assert abs(inner - want) < 1e-7


def test_special_hermite_matrix_agrees_with_single_evaluations():
    rng = np.random.default_rng(3)
    z = rng.normal(size=40) + 1j * rng.normal(size=40)
    K = 4
    mat = special_hermite_matrix(z, K)
    for j, (a, b) in enumerate(zip(*special_hermite_indices(K))):
        ref = special_hermite_basis(a, b, z)
        assert np.max(np.abs(mat[:, j] - ref)) < 1e-12


def _fd_laplacian(fn, pts, h=0.25):
    """Exact for polynomials of per-variable degree <= 3."""
    out = np.zeros(pts.shape[0], dtype=complex)
    n = pts.shape[1]
    for j in range(n):
        for step in (h, 1j * h):
            e = np.zeros((1, n), dtype=complex)
            e[0, j] = step
            out += (fn(pts + e) - 2.0 * fn(pts) + fn(pts - e)) / h ** 2
    return out


@pytest.mark.parametrize("p,q,n,dim", [
    (1, 0, 1, 1), (0, 2, 1, 1), (1, 1, 1, 0),
    (1, 0, 2, 2), (1, 1, 2, 3), (2, 1, 2, 4),
])
def test_solid_harmonic_dimensions_and_harmonicity(p, q, n, dim):
    basis = solid_harmonic_basis(p, q, n)
    assert len(basis) == dim
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(12, n)) + 1j * rng.normal(size=(12, n))
    for h in basis:
        lap = _fd_laplacian(h.evaluate, pts)
        scale = max(1.0, float(np.max(np.abs(h.evaluate(pts)))))
        assert np.max(np.abs(lap)) < 1e-9 * scale


def test_solid_harmonic_bigrading():
    # H(e^(i t) z) = e^(i (p - q) t) H(z)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    t = 0.73
    for (p, q) in [(1, 0), (1, 1), (2, 1)]:
        for h in solid_harmonic_basis(p, q, 2):
            lhs = h.evaluate(pts * np.exp(1j * t))
            rhs = np.exp(1j * (p - q) * t) * h.evaluate(pts)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_solid_harmonic_evaluate_matches_oracle():
    """Unit and non-unit coefficients, unit and higher powers, conjugated
    and plain slots, one- and two-slot harmonics, flat and batched points."""
    rng = np.random.default_rng(13)
    pts = 2.0 * (rng.normal(size=(3, 50, 2)) + 1j * rng.normal(size=(3, 50, 2)))
    harmonics = [h for pq in [(1, 1), (2, 1), (2, 2)] for h in solid_harmonic_basis(*pq, 2)]
    harmonics += [SolidHarmonic(1, 1, 2, {((1, 0), (0, 1)): Fraction(-3, 7)}),
                  SolidHarmonic(0, 0, 2, {((0, 0), (0, 0)): Fraction(1)}),
                  SolidHarmonic(0, 0, 2, {((0, 0), (0, 0)): Fraction(5, 2)})]
    assert any(c != 1 for h in harmonics for c in h.coefficients.values())
    for h in harmonics:
        for z in (pts, pts[0]):
            want = solid_harmonic_values(h, z)
            got = h.evaluate(z)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), h.coefficients
    for h in solid_harmonic_basis(3, 0, 1) + solid_harmonic_basis(0, 2, 1):
        z = pts[0, :, :1]
        want = solid_harmonic_values(h, z)
        assert np.max(np.abs(h.evaluate(z) - want)) <= 1e-14 * np.max(np.abs(want))


def test_solid_harmonic_values_do_not_depend_on_batch_size():
    """A point reads the same bits alone and among 20 000 others (past the
    size where numpy reuses temporaries in place)."""
    rng = np.random.default_rng(3)
    pts = 3.0 * (rng.normal(size=(20000, 2)) + 1j * rng.normal(size=(20000, 2)))
    for h in solid_harmonic_basis(1, 1, 2) + solid_harmonic_basis(2, 1, 2):
        assert np.array_equal(h.evaluate(pts)[:500], h.evaluate(pts[:500])), h.coefficients


def test_solid_harmonic_span_contains_z1_z2bar():
    basis = solid_harmonic_basis(1, 1, 2)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
    A = np.stack([h.evaluate(pts) for h in basis], axis=1)
    b = pts[:, 0] * np.conj(pts[:, 1])
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert np.max(np.abs(A @ coef - b)) < 1e-10
