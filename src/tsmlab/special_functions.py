"""Laguerre polynomials, radial eigenfunctions, the special Hermite family
on C, and bigraded solid harmonics with exact rational coefficients.

Frozen conventions
------------------
* ``laguerre_function(LaguerreSpec(k, n-1), rho)`` is
  ``L_k^(n-1)(rho^2/2) exp(-rho^2/4)``.  With this scaling the operator
  ``-Laplacian + |z|^2/4`` acting on the induced radial field on C^n has
  eigenvalue ``2k + n``.
* The special Hermite family phi_(alpha,beta) on C is evaluated only by
  ``special_hermite_matrix``, whose docstring fixes its convention; its
  columns are indexed by the (alpha, beta) arrays of
  ``special_hermite_indices``, and its radial factors come from
  ``special_hermite_radial`` alone, which the per-mode projections of
  ``twisted_transforms`` read as well.
* Solid harmonic bases are ordered by the lexicographic order on the
  concatenated exponent pair (alpha, beta), largest first, and kernel
  vectors are produced by exact Gauss-Jordan elimination over Fractions:
  the output is deterministic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

_NORM_2PI = (2.0 * math.pi) ** (-0.5)


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree and order of a generalized Laguerre polynomial L_k^alpha."""

    degree: int
    order: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")


def laguerre_sequence(order, x, max_degree: int):
    """Yield L_k^order(x) for k = 0, 1, ..., max_degree.

    This is the package's one Laguerre recurrence, upward in the degree:
        (k+1) L_(k+1) = (2k+1+alpha-x) L_k - (k+alpha) L_(k-1),
    stable for x >= 0 at the degrees used here, so every degree up to
    ``max_degree`` costs one step.  ``order`` may be an integer array: it
    broadcasts against x, and every yielded array (degree 0 included) has
    the broadcast shape, so one run serves many orders at once.  The
    yielded arrays are the recurrence's own state: read or copy them,
    never write into them.
    """
    x = np.asarray(x, dtype=float)
    cur = np.ones(np.broadcast_shapes(np.shape(order), x.shape))
    yield cur
    if max_degree >= 1:
        prev, cur = cur, 1.0 + order - x
        yield cur
    for j in range(1, max_degree):
        prev, cur = cur, ((2 * j + 1 + order - x) * cur - (j + order) * prev) / (j + 1)
        yield cur


def laguerre_polynomial(spec: LaguerreSpec, x):
    """Evaluate L_k^alpha(x) through ``laguerre_sequence``.

    x may be a scalar or an ndarray; negative or non-finite inputs are
    rejected.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise ValueError("laguerre_polynomial requires finite x >= 0")
    for out in laguerre_sequence(spec.order, arr, spec.degree):
        pass
    return out if arr.ndim else float(out)


def laguerre_function(spec: LaguerreSpec, rho):
    """L_k^alpha(rho^2/2) exp(-rho^2/4) for rho >= 0.

    For alpha = n-1 this is the degree-k radial eigenfunction on C^n
    (eigenvalue 2k+n of -Laplacian + |z|^2/4); general alpha appears in
    the sector expansions of spectral projections.
    """
    r = np.asarray(rho, dtype=float)
    if r.size and (not np.all(np.isfinite(r)) or np.any(r < 0.0)):
        raise ValueError("laguerre_function requires finite rho >= 0")
    t = 0.5 * r * r
    out = laguerre_polynomial(spec, t) * np.exp(-0.5 * t)
    return out if r.ndim else float(out)


def radial_eigenfunction_origin(n: int, k: int) -> float:
    """Value at rho = 0: L_k^(n-1)(0) = binom(k+n-1, k)."""
    return float(math.comb(k + n - 1, k))


def special_hermite_indices(max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta): every index pair with both indices <= max_degree,
    row-major in alpha, as two integer arrays of (K+1)^2 entries.  This is
    the frozen column order of ``special_hermite_matrix``."""
    return np.divmod(np.arange((max_degree + 1) ** 2), max_degree + 1)


def special_hermite_radial(x, max_degree: int, orders):
    """Yield the radial factors rho_(a,d) at x = r^2/2 for a = 0, 1, ...,
    max_degree, each an array (len(orders),) + x.shape over the orders d
    asked for (a 1-D sequence of integers >= 0, ``range(D)`` for all below D):

        rho_(a,d)(r) = sqrt(a!/(a+d)!) (r/sqrt(2))^d L_a^d(r^2/2) exp(-r^2/4),

    so that phi_(a,a+d)(r e^(i th)) = (2 pi)^(-1/2) i^d e^(-i d th) rho_(a,d)(r)
    (``special_hermite_matrix``).  This is the package's one implementation
    of the factor.  It is taken as g_d(x) L_a^d(x) / sqrt(binom(a+d, a)) with

        g_d(x) = exp(-x/2) prod_(i <= d) sqrt(x/i),

    a running product that peaks near d = x and then falls until it
    underflows, so high orders never overflow where (r/sqrt(2))^d alone
    would (d > 330 at r = 12).  The running product is taken once, up to
    the highest order asked for, and read at the orders asked for; the
    orders' factors come from one ``laguerre_sequence`` run broadcast over
    them, and 1/sqrt(binom(a+d, a)) from one factor sqrt(a/(a+d)) per
    degree step.  Every factor is elementwise in d, so a selection of
    orders yields, bit for bit, those rows of the call over all orders:
    the per-mode tables read the orders a block at a time.  At r = 0 the
    values are exact: 1 for d = 0 and 0 beyond.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(orders, dtype=int).reshape((-1,) + (1,) * x.ndim)
    i = np.arange(d.max(initial=0) + 1).reshape((-1,) + (1,) * x.ndim)
    steps = np.empty(i.shape[:1] + x.shape)
    steps[0] = np.exp(-0.5 * x)
    steps[1:] = np.sqrt(x / i[1:])
    g = np.cumprod(steps, axis=0, out=steps)[d.ravel()]
    scale = np.ones(d.shape)
    for a, lag in enumerate(laguerre_sequence(d, x, max_degree)):
        if a:
            scale = scale * np.sqrt(a / (a + d))
        yield g * lag * scale


def special_hermite_order_limit(x_max: float) -> int:
    """The number of orders d at which ``special_hermite_radial`` is nonzero
    anywhere on 0 <= x <= x_max: the first d past the peak at which
    g_d(x_max) underflows to 0.  Since g_d(x) grows with x for d > x, every
    factor of a higher order on [0, x_max] is below the smallest double.

    The count follows from x_max alone (about 920 orders at r = 12).  Raises
    ValueError when exp(-x_max/2) is itself below the smallest normal
    double (r > 53): the running product would start from 0.
    """
    x_max = float(x_max)
    g = math.exp(-0.5 * x_max)
    if g < sys.float_info.min:
        raise ValueError(f"special Hermite radial factors at r = {math.sqrt(2.0 * x_max):.4g} "
                         f"underflow from order 0: exp(-r^2/4) is below the smallest "
                         f"normal double (r must stay below 53.2)")
    orders = 1
    while g > 0.0:
        g *= math.sqrt(x_max / orders)
        orders += 1
    return orders - 1


def special_hermite_matrix(z, max_degree: int) -> np.ndarray:
    """phi_(a,b)(z_m) for all a, b <= max_degree at once: (len(z), (K+1)^2).

    The frozen convention is, for b >= a,

        phi_ab(z) = (2 pi)^(-1/2) sqrt(a!/b!) (i conj(z)/sqrt(2))^(b-a)
                    L_a^(b-a)(|z|^2/2) exp(-|z|^2/4)

    and ``phi_ab = conj(phi_ba)`` for a > b.  The family is orthonormal in
    L^2(C, Lebesgue); the diagonal element of index (k, k) equals
    ``(2 pi)^(-1/2)`` times the degree-k radial eigenfunction.  With the
    twisted convolution sign of ``constants.TWIST_SIGN`` the degree-k
    projection of a field lands in span{phi_(k, m) : m >= 0}, i.e. the
    *first* index is the spectral one.  Any phase change breaks the last
    property silently, so it is pinned by tests.

    Column (a, a+d) is (2 pi)^(-1/2) (i conj(z)/|z|)^d rho_(a,d)(|z|) with
    the radial factor of ``special_hermite_radial``; columns follow
    ``special_hermite_indices``."""
    zz = np.asarray(z, dtype=complex).reshape(-1)
    K = max_degree
    r = np.abs(zz)
    # i conj(z)/|z| is 1 at the origin, where rho_(a,d) vanishes for d > 0
    unit = np.ones_like(zz)
    np.divide(1j * np.conj(zz), r, out=unit, where=r > 0)
    phases = np.empty((K + 1, zz.shape[0]), dtype=complex)
    phases[0] = _NORM_2PI
    for d in range(1, K + 1):
        phases[d] = phases[d - 1] * unit
    out = np.empty((zz.shape[0], K + 1, K + 1), dtype=complex)
    t = 0.5 * (zz.real ** 2 + zz.imag ** 2)
    for a, rho in enumerate(special_hermite_radial(t, K, range(K + 1))):
        vals = (phases[:K + 1 - a] * rho[:K + 1 - a]).T     # columns (a, a), .., (a, K)
        out[:, a, a:] = vals
        out[:, a + 1:, a] = np.conj(vals[:, 1:])
    return out.reshape(zz.shape[0], (K + 1) ** 2)


# ---------------------------------------------------------------------------
# bigraded solid harmonics


def _exponents(total: int, nvars: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, lexicographically
    descending (z_1-heavy first).  Deterministic basis ordering hangs on it."""
    if nvars == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _exponents(total - first, nvars - 1):
            out.append((first,) + rest)
    return out


def _fraction_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis of the matrix with the given rows, exact arithmetic.

    Gauss-Jordan with leftmost-pivot selection; free columns generate the
    kernel vectors in ascending column order.
    """
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [vi - f * vr for vi, vr in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -mat[prow][fcol]
        kernel.append(vec)
    return kernel


@dataclass
class SolidHarmonic:
    """A bigraded polynomial P(z) = sum c_(alpha,beta) z^alpha conj(z)^beta
    with Delta P = 0, Delta = 4 sum_j d^2/(dz_j dconj(z_j)).

    Coefficients are exact Fractions keyed by the exponent pair."""

    p: int
    q: int
    dimension: int
    coefficients: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = field(default_factory=dict)

    def evaluate(self, z):
        """P at points of shape (..., n) complex."""
        pts = np.asarray(z, dtype=complex)
        if pts.shape[-1] != self.dimension:
            raise ValueError(f"points must have last axis {self.dimension}")
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for (al, be), c in self.coefficients.items():
            # each factor on the left: complex products round differently
            # with their operands swapped
            term = None if c == 1 else complex(c)
            for j in range(self.dimension):
                for e, conj in ((al[j], False), (be[j], True)):
                    if e:
                        x = np.conj(pts[..., j]) if conj else pts[..., j]
                        x = x if e == 1 else x ** e
                        term = x if term is None else x * term
            out += 1.0 if term is None else term
        return out


def solid_harmonic_basis(p: int, q: int, n: int) -> list[SolidHarmonic]:
    """Basis of the harmonic subspace of bidegree-(p, q) polynomials on C^n.

    The Laplacian is a linear map between monomial coefficient lattices, so
    the basis is its exact kernel.  May be empty: for n = 1 the space is
    nonzero only when min(p, q) = 0.
    """
    if p < 0 or q < 0 or n < 1:
        raise ValueError("need p, q >= 0 and n >= 1")
    mono_p = _exponents(p, n)
    mono_q = _exponents(q, n)
    cols = [(al, be) for al in mono_p for be in mono_q]
    if p == 0 or q == 0:
        return [SolidHarmonic(p, q, n, {pair: Fraction(1)}) for pair in cols]

    rows_index = {pair: i for i, pair in enumerate(
        (al, be) for al in _exponents(p - 1, n) for be in _exponents(q - 1, n))}
    rows = [[Fraction(0)] * len(cols) for _ in rows_index]
    for ci, (al, be) in enumerate(cols):
        for j in range(n):
            if al[j] and be[j]:
                al2 = al[:j] + (al[j] - 1,) + al[j + 1:]
                be2 = be[:j] + (be[j] - 1,) + be[j + 1:]
                rows[rows_index[(al2, be2)]][ci] += 4 * al[j] * be[j]
    kernel = _fraction_kernel(rows, len(cols))
    basis = []
    for vec in kernel:
        coeffs = {cols[i]: v for i, v in enumerate(vec) if v != 0}
        basis.append(SolidHarmonic(p, q, n, coeffs))
    return basis
