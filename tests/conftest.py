"""Shared fixtures and the basis, mean, projection and interpolation
oracles. Heavy grids are session-scoped so the suite builds each one
exactly once."""

import math
import tracemalloc

import numpy as np
import pytest

from tsmlab.euclidean_means import bump_profile
from tsmlab.fields import SampledField, _polar_coordinates
from tsmlab.quadrature import compensated_sum, plane_rule, sphere_rule
from tsmlab.special_functions import (LaguerreSpec, laguerre_function, laguerre_polynomial,
                                      special_hermite_matrix, special_hermite_order_limit,
                                      special_hermite_radial)
from tsmlab.constants import TWIST_SIGN
from tsmlab.twisted_transforms import (_GRID_POINTS, _default_slot_rule, _slot_pieces,
                                       twist_phase)


def peak_mb(fn) -> float:
    """The tracemalloc peak of one call fn(), in MB (2^20 bytes)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def special_hermite_basis(a: int, b: int, z):
    """Oracle for one column of ``special_hermite_matrix``: phi_(a,b)(z)
    on C, vectorized over a complex array z, with its own Laguerre call
    per element."""
    zz = np.asarray(z, dtype=complex)
    if b < a:
        return np.conj(special_hermite_basis(b, a, zz))
    d = b - a
    t = 0.5 * (zz.real ** 2 + zz.imag ** 2)
    amp = math.exp(0.5 * (math.lgamma(a + 1) - math.lgamma(b + 1)))
    out = (2.0 * math.pi) ** (-0.5) * amp * (1j * np.conj(zz) / math.sqrt(2.0)) ** d
    out = out * laguerre_polynomial(LaguerreSpec(a, d), t) * np.exp(-0.5 * t)
    return out


def design_matrix_coefficients(f, max_degree):
    """Oracle for ``special_hermite_coefficients``: the weighted samples
    against the conjugated (nodes, (K+1)^2) ``special_hermite_matrix``,
    conjugated in place so no second such array is made."""
    fw = f.values * f.rule.weights
    H = special_hermite_matrix(f.rule.nodes[:, 0], max_degree)
    np.conjugate(H, out=H)
    return (fw @ H).reshape(max_degree + 1, max_degree + 1)


def whole_mode_table(f, max_degree, degrees=()):
    """Whole-table oracle for the per-mode table on C: ``(coefficients,
    projections)``, the (K+1, K+1) <f, phi_(a,b)> and, for ``degrees``,
    Q_k f at the grid's nodes, (R m, len(degrees)).

    The radial factors of every order at once, (D, K+1, R), D the
    coefficients' K+1 orders or, with ``degrees``, every order the grid
    resolves; their sums with the phase DFT in one batched product; and
    per degree every mode p = 1 - D .. k laid out on one row p mod m of an
    array of whole m-row chunks, summed over the chunks at once, and one
    inverse FFT over all degrees.  The library walks the chunks one at a
    time and never holds the whole table."""
    R, m = f.rule.shape
    K = max_degree
    x = 0.5 * f.rule.radial_nodes ** 2
    D = max(K + 1, special_hermite_order_limit(x.max())) if degrees else K + 1
    rho = np.stack(list(special_hermite_radial(x, K, range(D))), axis=1)
    F = np.fft.fft((f.values * f.rule.weights).reshape(R, m), axis=1)
    d = np.arange(D)
    Fd = np.stack([F.T[d % m], F.T[-d % m]], axis=-1)
    sums = np.matmul(rho, Fd.view(float)).view(complex)
    a, b = np.indices((K + 1, K + 1))
    coefficients = (sums[np.abs(a - b), np.minimum(a, b), (a < b).astype(int)]
                    * ((2.0 * math.pi) ** -0.5 * np.array([1.0, 1.0j, -1.0, -1.0j])[(a - b) % 4]))
    if not degrees:
        return coefficients, None
    # row i of ``modes`` holds mode p = i - start - (D-1), so that i = p mod m
    start = -(D - 1) % m
    modes = np.zeros((-(-(start + D + max(degrees)) // m) * m, R), dtype=complex)
    H = np.empty((len(degrees), R, m), dtype=complex)
    for i, k in enumerate(degrees):
        pos = np.arange(k + 1)
        radial = np.concatenate([rho[:0:-1, k], rho[pos, k - pos]])
        coef = np.concatenate([sums[:0:-1, k, 1], sums[pos, k - pos, 0]])
        np.multiply(radial, coef[:, None], out=modes[start:start + D + k])
        modes[start + D + k:] = 0.0
        H[i] = modes.reshape(-1, m, R).sum(axis=0).T
    projections = np.fft.ifft(H, axis=2, norm="forward").transpose(1, 2, 0).reshape(-1, len(degrees))
    return coefficients, projections


def sector_basis_values(kind: str, order: int, R: float, points) -> np.ndarray:
    """Oracle for one column of ``EuclideanSectorBasis.matrix``: the column
    of that kind ("sin" | "cos"), angular order and support radius R
    evaluated on its own, with its own bump read and power over every
    point."""
    p = np.asarray(points, dtype=complex)
    rho = np.abs(p)
    g = bump_profile(R)(rho)
    if order == 0:
        return g
    # (rho/R)^s trig(s theta) written via p^s for smoothness at 0
    mono = (p / R) ** order
    ang = mono.imag if kind == "sin" else mono.real
    return g * ang


def solid_harmonic_values(h, z):
    """Oracle for ``SolidHarmonic.evaluate``: every monomial built from a
    full array of its coefficient, times each power of z and of the whole
    conjugated array, unit powers included."""
    pts = np.asarray(z, dtype=complex)
    out = np.zeros(pts.shape[:-1], dtype=complex)
    zc = np.conj(pts)
    for (al, be), c in h.coefficients.items():
        term = np.full(pts.shape[:-1], complex(c))
        for j in range(h.dimension):
            if al[j]:
                term = term * pts[..., j] ** al[j]
            if be[j]:
                term = term * zc[..., j] ** be[j]
        out += term
    return out


def lagrange_rows(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(Q, N) Lagrange basis values l_j(x_q) = prod_(k != j) (x_q - x_k) /
    (x_j - x_k), each row an explicit product: exactly one-hot at a node
    and continuous next to one, with no barycentric weights and no snap."""
    x = np.asarray(x, dtype=float)
    rows = np.empty((x.size, nodes.size))
    for j in range(nodes.size):
        others = np.delete(nodes, j)
        rows[:, j] = np.prod((x[:, None] - others) / (nodes[j] - others), axis=1)
    return rows


def _phase_matrix(theta: np.ndarray, m: int) -> np.ndarray:
    freqs = np.fft.fftfreq(m, d=1.0 / m)
    return np.exp(1j * theta[:, None] * freqs[None, :]) / m


def phase_matrix_interpolate(rule, values, points):
    """Oracle for ``interpolate_on_rule``: a per-point table of all m
    phases exp(i theta f) / m against the unshifted, unpadded DFT, the
    radial and inclination rows of ``lagrange_rows``, and an einsum chain
    over the whole coefficient tensor.  Points beyond the grid are read at
    the clipped radius and then set to 0 ("zero" mode)."""
    pts = np.asarray(points, dtype=complex)
    coords = _polar_coordinates(rule, pts)
    r = coords[0]
    bad = ~(r <= rule.extent * (1.0 + 1e-12))
    tensor = np.asarray(values).reshape(rule.shape)
    if rule.dimension == 1:
        coef = np.fft.fft(tensor, axis=1)
    else:
        coef = np.fft.fft(np.fft.fft(tensor, axis=2), axis=3)
    wr = lagrange_rows(np.clip(r, 0.0, rule.extent), rule.radial_nodes)
    if rule.dimension == 1:
        e = _phase_matrix(coords[1], rule.angular_counts[0])
        t = wr @ coef
        t *= e
        out = t.sum(axis=1)
    else:
        wt = lagrange_rows(coords[1], rule.theta_nodes)
        e1 = _phase_matrix(coords[2], rule.angular_counts[0])
        e2 = _phase_matrix(coords[3], rule.angular_counts[1])
        t = np.einsum("qa,abcd->qbcd", wr, coef)
        t = np.einsum("qb,qbcd->qcd", wt, t)
        t = np.einsum("qc,qcd->qd", e1, t)
        out = np.einsum("qd,qd->q", e2, t)
    out[bad] = 0.0
    return out


def per_pair_twisted_mean(f, z, r, m=None, orders=None) -> complex:
    """Oracle for one entry of ``twisted_mean_table``: f x mu_r(z) by its
    own sphere rule, one (center, radius) pair per call, with the default
    sizes 256 and (16, 32, 32) written out."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (f.dimension,):
        raise ValueError(f"center must be a point of C^{f.dimension}")
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if r == 0.0:
        return complex(f.evaluate(z[None, :])[0])
    sph = (sphere_rule(1, r, m=m or 256) if f.dimension == 1
           else sphere_rule(2, r, orders=orders or (16, 32, 32)))
    vals = f.evaluate(z[None, :] - sph.nodes)
    return complex(compensated_sum(sph.weights * vals * twist_phase(z[None, :], sph.nodes)))


def per_pair_circular_mean(f, x, r, m=240) -> float:
    """Oracle for one entry of ``euclidean_mean_table``: the plain average
    of f over m equispaced nodes of one circle, read as (m, 1) points."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    x = complex(x)
    if r == 0.0:
        return float(np.real(f.evaluate(np.array([[x]]))[0]))
    theta = 2.0 * np.pi * np.arange(m) / m
    pts = x + r * np.exp(1j * theta)
    vals = np.asarray(f.evaluate(pts[:, None]), dtype=float)
    return float(compensated_sum(vals) / m)


class StackedFields:
    """V fields read as one, the form the mean tables take for V columns:
    ``evaluate`` on P points returns (P, V), column v field v's values."""

    def __init__(self, fields):
        self.fields = list(fields)
        self.dimension = getattr(self.fields[0], "dimension", 1)

    def evaluate(self, points):
        return np.stack([f.evaluate(points) for f in self.fields], axis=1)


def direct_projection_table(f, degrees, targets):
    """Oracle for Q_k f = f x phi_k at arbitrary targets for every k in
    ``degrees``: (T, len(degrees)) complex.  The w form: f's closed form
    read at z - w for every node w of f's grid, times the twist, against
    phi_k sampled on the grid.

    f is read once per chunk of targets and the product summed against
    every phi_k column, each sum exactly the twisted convolution of
    ``convolution_values``.  The library sums the u form over f's samples
    instead; this quadrature shares neither the kernel nor the samples with
    it.  It cuts phi_k off at the grid edge, so at high degree on small
    grids it is the less accurate of the two.
    """
    rule = f.rule
    w = rule.nodes
    r = np.linalg.norm(w, axis=-1)
    phi_w = [laguerre_function(LaguerreSpec(k, rule.dimension - 1), r).astype(complex)
             * rule.weights for k in degrees]
    targets = np.asarray(targets, dtype=complex).reshape(-1, f.dimension)
    out = np.empty((targets.shape[0], len(degrees)), dtype=complex)
    chunk = max(1, 4_000_000 // w.shape[0])
    for s in range(0, targets.shape[0], chunk):
        zc = targets[s:s + chunk]
        pts = zc[:, None, :] - w[None, :, :]
        vals = f.evaluate(pts.reshape(-1, f.dimension)).reshape(zc.shape[0], w.shape[0])
        vals *= twist_phase(zc[:, None, :], w[None, :, :])
        for i, gw in enumerate(phi_w):
            out[s:s + chunk, i] = compensated_sum(vals * gw[None, :], axis=-1)
    return out


def direct_projection_values(f, k, targets):
    """Oracle for Q_k f at arbitrary targets: one column of
    ``direct_projection_table``."""
    return direct_projection_table(f, [k], targets)[:, 0]


def nested_piece_values(f, k, targets, slot):
    """Oracle for the C^2 tensor pieces of Q_k f: all (b1, b2 = k - b1)
    pieces at the targets, (T, k+1) complex.

    The w form slot by slot: f's closed form read at (z1 - w1, z2 - w2)
    for every pair of nodes of the C rule ``slot``, against phi_b sampled
    on it, as two nested twisted convolutions.  The library samples f once
    and uses the closed-form u-form kernel instead.
    """
    w = slot.nodes[:, 0]
    u = slot.weights
    lag = np.stack([laguerre_function(LaguerreSpec(b, 0), np.abs(w))
                    for b in range(k + 1)], axis=0) * u[None, :]   # (k+1, S)
    targets = np.asarray(targets, dtype=complex).reshape(-1, 2)
    S = w.shape[0]
    out = np.empty((targets.shape[0], k + 1), dtype=complex)
    chunk = max(1, int(3_000_000 // (S * S)) or 1)
    for s in range(0, targets.shape[0], chunk):
        zc = targets[s:s + chunk]
        c = zc.shape[0]
        p1 = zc[:, 0][:, None] - w[None, :]            # (c, S)
        p2 = zc[:, 1][:, None] - w[None, :]
        pairs = np.empty((c, S, S, 2), dtype=complex)
        pairs[..., 0] = p1[:, :, None]
        pairs[..., 1] = p2[:, None, :]
        F = f.evaluate(pairs.reshape(-1, 2)).reshape(c, S, S)
        tw1 = np.exp(0.5j * TWIST_SIGN * (zc[:, 0][:, None] * np.conj(w)[None, :]).imag)
        tw2 = np.exp(0.5j * TWIST_SIGN * (zc[:, 1][:, None] * np.conj(w)[None, :]).imag)
        inner = np.einsum("cij,bj,cj->cib", F, lag, tw2)      # slot-2 conv
        allp = np.einsum("cib,ai,ci->cab", inner, lag, tw1)   # slot-1 conv
        for b1 in range(k + 1):
            out[s:s + chunk, b1] = allp[:, b1, k - b1]
    return out


def whole_grid_pieces(f, k, targets):
    """Regrouping oracle for the C^2 tensor pieces of Q_k f: all (b1, b2 =
    k - b1) pieces at the targets, (T, k+1) complex.

    f's weighted samples F on the whole slot x slot grid of the default
    slot rule, read in blocks of ``_GRID_POINTS`` points, then contracted
    in slot 1 by one product over all its nodes: ``_slot_pieces`` with the
    whole F as one block of one ring.  The library sums the products of
    F's row blocks instead; the two differ only in that grouping."""
    slot = _default_slot_rule()
    u, w = slot.nodes, slot.weights
    N = u.shape[0]
    step = max(1, _GRID_POINTS // N)
    F = np.empty((N, N), dtype=complex)
    pts = np.empty((step, N, 2), dtype=complex)
    pts[..., 1] = u.T
    for s in range(0, N, step):
        block = pts[:min(step, N - s)]
        block[..., 0] = u[s:s + step]
        F[s:s + step] = f.evaluate(block) * np.outer(w[s:s + step], w)
    targets = np.asarray(targets, dtype=complex).reshape(-1, 2)
    return _slot_pieces(targets, [u.T, u.T], lambda ring, rows: F[None],
                        [(b1, k - b1) for b1 in range(k + 1)])


@pytest.fixture(scope="session")
def rule_c1():
    # the default working grid on C
    return plane_rule(1, extent=12.0, radial_points=64, angular_points=256)


@pytest.fixture(scope="session")
def rule_c1_small():
    # cheap grid for tests that only need moderate accuracy
    return plane_rule(1, extent=10.0, radial_points=40, angular_points=128)


@pytest.fixture(scope="session")
def rule_c1_odd():
    # an odd phase count below 2K at K = 40: the modes a - b of the
    # coefficients wrap around mod m, and no mode but 0 is its own negative
    return plane_rule(1, extent=10.0, radial_points=40, angular_points=45)


@pytest.fixture(scope="session")
def rule_c1_one_chunk():
    # more phases than orders resolved at the outer radius (479 at extent
    # 4): every negative mode of the per-mode table lies in one m-mode chunk
    rule = plane_rule(1, extent=4.0, radial_points=24, angular_points=512)
    assert special_hermite_order_limit(0.5 * rule.extent ** 2) - 1 <= rule.shape[1]
    return rule


@pytest.fixture(scope="session")
def gauss_field(rule_c1):
    """f(z) = exp(-|z|^2/3) on the default C grid, closed form retained."""
    return SampledField.from_function(
        lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / 3.0).astype(complex),
        rule_c1, name="gauss3")


@pytest.fixture(scope="session")
def probe_targets():
    # fixed off-axis probe points in C, away from grid symmetries
    return np.array([[0.3 + 0.2j], [1.1 - 0.4j], [-0.7 + 0.9j],
                     [2.0 + 0.1j], [-1.3 - 1.1j]], dtype=complex)
