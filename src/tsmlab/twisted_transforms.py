"""Twisted translates, spherical means, convolutions, and degreewise
spectral projections on C^n (n <= 2).

All operators share one twist convention (see ``constants``): the weight
``exp(+i/2 Im(z . conj(w)))`` with the Hermitian pairing
``z . conj(w) = sum_j z_j conj(w_j)``.  The definitions:

* translate:        tau_eta f(xi) = f(xi - eta) exp(i/2 Im(eta . conj(xi)))
* spherical mean:   f x mu_r(z)   = int_{|w|=r} f(z-w) twist(z,w) dmu_r(w)
* convolution:      f x g(z)      = int f(z-w) g(w) twist(z,w) dw
* projection:       Q_k f = f x phi_k with the degree-k radial eigenfunction

and the polar bridge ties them together: with omega = sphere_surface_area(n),

    omega * int_0^inf (f x mu_r)(z) phi_k(r) r^(2n-1) dr = (f x phi_k)(z).

Means.  Every spherical mean in the library comes from
``twisted_mean_table``: a centers x radii table that reads one unit
``sphere_rule`` per call, the rule of radius r being r times it, and reads
f over blocks of (center, radius) pairs.  A
single mean is its 1 x 1 case, a profile one row, and V fields read
together its V columns, bit for bit.  With ``twist=False`` it is the plain
spherical mean, the twist set to 1: on C that is the circular mean of
``euclidean_means`` (w -> -w maps the circle onto itself).  A field that
declares ``support_radius`` is read only on the spheres that meet its
support.
The sum over a sphere is contracted through the rule's factors: node
(t, a_1, .., a_n) is (slot_1[t, a_1], .., slot_n[t, a_n]) with weight
w_t / (M_1 .. M_n), and the twist is a product over slots, so

    f x mu_r(z) = sum_t w_t / (M_1 M_2) * e_1[t]^T F[t] e_2[t]    (C^2)

with e_s[t, a] = exp(i/2 Im(z_s conj(slot_s[t, a]))) and F[t] (M_1, M_2)
the values of f at z - w on the nodes of inclination t: one batched mat-vec
per slot, T (M_1 + M_2) exponentials in place of one per node.  The circle
on C is the one-slot case, T = 1 and sum_a e_1[a] F[a] / M_1.

A field that is itself a sum of slot products (``SlotProduct``: f(z) =
sum g1_j1(z1) C[j1, j2] g2_j2(z2), such as a Gaussian times a solid
harmonic, or product-basis vectors) is summed with the same nodes and
weights, grouped by slot: F[t] = G1[t] C G2[t]^T with the slot sums
G_s[t, a] = g_s(z_s - slot_s[t, a]), so

    f x mu_r(z) = sum_t w_t / (M_1 M_2) * (e_1[t]^T G1[t]) C (e_2[t]^T G2[t])^T,

one-slot twisted circle sums of each slot's columns on the S^3 rule's own
slot nodes (radius r cos t, or r sin t).  They depend on their own slot
value alone, so they are taken once per distinct z_s among the centers,
and f is read at no S^3 node.  Every other field on C^2, and every field
on C, is read at the nodes as above.

Degreewise structure (n = 1): Q_k f lands in span{phi_(k, m) : m >= 0} of
the special Hermite family -- the first index is the spectral one.  In
particular Q_k maps the angular sector z^p a(|z|) to multiples of
``z^p L_(k-p)^p(|z|^2/2) exp(-|z|^2/4)`` (zero for k < p) and the sector
conj(z)^q a(|z|) to multiples of ``conj(z)^q L_k^q(|z|^2/2) exp(-|z|^2/4)``.

Projection paths.  Substituting u = z - w,

    Q_k f(z) = int f(u) phi_k(|z-u|) exp(-(i/2) Im(z . conj(u))) du,

so the kernel is known in closed form and f is read only at its own nodes.
``spectral_projections`` sums this u form over f's weighted samples and
picks one of two ways from its input alone:

* on the grid (n = 1, targets are the field's own nodes): the kernel's
  series in the special Hermite family,

      phi_k(|z-u|) exp(-(i/2) Im(z . conj(u))) = 2 pi sum_(b >= 0) phi_(k,b)(z) conj(phi_(k,b)(u)),

  is term by term a radial factor at |z| times the same at |u| times
  e^(i p (th_z - th_u)), p = k - b (``special_hermite_radial``).  The polar
  grid's phases are uniform, so the sum over its nodes takes one FFT of the
  samples along the phase axis and one contraction over the radial nodes
  per mode, the per-mode table of ``_mode_table``; on the grid
  Q_k f = 2 pi sum_b <f, phi_(k,b)> phi_(k,b), modes folded mod m (the
  kernel's DFT is its series folded, by Poisson summation) and one inverse
  FFT per degree.  The modes stop where the radial factor underflows at
  the grid's outer radius, so the table sums what the nodes' quadrature
  sums.  It is built one chunk of the fold at a time, the m consecutive
  modes that land on the m distinct phase residues: a chunk's radial
  factors and sums are made, added into one (m, R) total per degree, and
  dropped, so the whole (orders, degrees, radii) table is never held, and
  each degree's inverse FFT is its projection's values.  The special
  Hermite coefficients are the same table's entries;
* at every other target, on C and C^2, with or without an evaluator:
  ring by ring through the slot factorisation.  With
  t_s = |z_s - u_s|^2 / 2, exp(-t/2) and the twist are products over the
  slots and L_k^1(t_1 + t_2) = sum_(b1+b2=k) L_b1(t_1) L_b2(t_2), so the
  C^2 kernel is a sum of products of two C slot kernels.  Each
  (radius, inclination) ring of the polar grid is the m1 x m2 product of
  its slot-1 nodes r cos(th) e^(i p1) and slot-2 nodes r sin(th) e^(i p2),
  so the sum over a ring is (slot-1 kernel) @ (samples) @ (slot-2 kernel)^T,
  each block of rings weighting its own samples when it is read.
  A slot kernel depends on its own slot value alone, so a block of targets
  builds each kernel once per distinct slot value and ring, takes the
  slot-1 products in one batched matrix product over the rings per slot-1
  degree, and contracts them with the slot-2 kernels into one U1 x U2
  table per piece, a BLAS product per ring, read at each target's (z1, z2)
  (``_slot_pieces``).  That pays off when slot values repeat among the
  targets: the 96 targets of the C^2 probe lattice have 24 distinct z1 and
  24 distinct z2, and the m1 m2 targets of a ring of a C^2 grid's own nodes
  have m1 + m2.  C is the one-slot case: its whole grid is one ring and the
  table is (kernel) @ (samples).

On C^2, ``tensor_decompose_projection`` takes the slot pieces of the
product relation from the same ``_slot_pieces``, with a slot x slot grid
as its one ring: f is read on it in blocks of slot-1 rows and each block's
slot-1 products are summed as it is read, so the grid is not held whole.
Every path off the C grid builds the kernel through ``_twisted_kernels``.
The w form, reading f at z - w against phi_k sampled on the grid
(``convolution_values``; slot by slot for the pieces), is their
independent oracle in the tests; it cuts phi_k off at the grid edge.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import TWIST_SIGN, sphere_surface_area
from .errors import GridMismatchError, TruncationTailWarning, TranslateTailWarning
from .fields import (_CHUNK, MeanProfile, SampledField, SpectrumTruncation, _finite,
                     _integer)
from .quadrature import (PlaneRule, RadialRule, compensated_sum, plane_rule,
                         sphere_rule)
from .special_functions import (LaguerreSpec, laguerre_function, laguerre_sequence,
                                special_hermite_order_limit, special_hermite_radial)

__all__ = [
    "SampledField", "MeanProfile", "SpectrumTruncation",
    "twist_phase", "twisted_translate", "twisted_spherical_mean",
    "twisted_mean_table", "SlotProduct",
    "mean_profile", "convolution_values",
    "spectral_projection", "spectral_projections", "projection_values",
    "special_hermite_coefficients", "special_hermite_truncation",
    "polar_bridge", "tensor_decompose_projection",
]


def twist_phase(z, w):
    """exp(i/2 Im(z . conj(w))), broadcast over leading axes of (..., n);
    Im(z . conj(w)) is summed slot by slot, with no (..., n) product."""
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    im = (z[..., 0] * np.conj(w[..., 0])).imag
    for j in range(1, z.shape[-1]):
        im = im + (z[..., j] * np.conj(w[..., j])).imag
    return np.exp(0.5j * TWIST_SIGN * im)


def twisted_translate(f: SampledField, eta) -> SampledField:
    """Twisted translate of a field, resampled on its own grid.

    Warns (TranslateTailWarning) when the translate moves more than 1e-9
    of the field's absolute mass outside the grid.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=complex))
    if eta.shape != (f.dimension,):
        raise ValueError(f"eta must be a point of C^{f.dimension}")
    nodes = f.rule.nodes
    shifted = np.linalg.norm(nodes + eta[None, :], axis=1)
    mass = np.abs(f.values) * f.rule.weights
    total = float(mass.sum())
    lost = float(mass[shifted > f.rule.extent].sum())
    if total > 0 and lost > 1e-9 * total:
        warnings.warn(
            f"twisted translate by {eta} pushes {lost / total:.2e} of the "
            f"field's mass off the grid (extent {f.rule.extent})",
            TranslateTailWarning, stacklevel=2)
    vals = f.evaluate(nodes - eta[None, :], out_of_domain="zero") \
        * twist_phase(eta[None, :], nodes)
    ev = None
    if f.evaluator is not None:
        ev = lambda pts, _b=f.evaluator: (np.asarray(_b(np.asarray(pts, dtype=complex) - eta))
                                          * twist_phase(eta, pts))
    return SampledField(f.rule, vals, ev, name=f.name and f"{f.name}|translated")


# points per f.evaluate call in a mean table: one interpolate_on_rule chunk
# on C, one default S^3 sphere on C^2
_MEAN_POINTS = {1: _CHUNK[1], 2: 16384}


@dataclass(frozen=True)
class SlotProduct:
    """A field on C^2 that is a sum of slot products,

        f(z) = sum_(j1, j2) g1_j1(z1) C[j1, j2] g2_j2(z2),

    or V such fields when the coupling C is (J_1, J_2, V).  ``factors``
    holds one callable per slot: slot values (P,) -> (P, J_s), the columns
    g_s.  ``evaluate`` returns the sum, (P,) or (P, V), for every reader;
    ``twisted_mean_table`` takes its means slot by slot (see the module
    docstring)."""
    factors: tuple
    coupling: np.ndarray

    dimension = 2

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=complex).reshape(-1, 2)
        g1, g2 = (g(pts[:, s]) for s, g in enumerate(self.factors))
        c = np.asarray(self.coupling)
        t = (g1 @ c.reshape(c.shape[0], -1)).reshape((-1,) + c.shape[1:])
        return np.einsum("pj...,pj->p...", t, g2)


def _slot_product_means(f: SlotProduct, centers: np.ndarray, slots: list,
                        t_weights: np.ndarray) -> np.ndarray:
    """The means of a ``SlotProduct`` at every center and radius of the
    rules whose slot tables (R, T, M_s) and weights w_t / (M_1 M_2) (T,),
    the same at every radius, are given: (C, R) or (C, R, V).

    G_s (U_s, R, T, J_s) are the one-slot twisted circle sums of slot s's
    columns over the rule's own slot nodes, sum_a g_s(z_s - node) e_s[t, a],
    at each of the U_s distinct values z_s among the centers; then per
    distinct z_1, f x mu_r(z) = sum_t w_t G_1[t] C G_2[t]^T for every center
    with that z_1."""
    G, at = [], []
    for g, nodes, values in zip(f.factors, slots, centers.T):
        distinct, inv = np.unique(values, return_inverse=True)
        conj_nodes = np.conj(nodes)
        sums = []
        for zs in distinct:
            cols = g((zs - nodes).ravel()).reshape(nodes.shape + (-1,))
            e = np.exp(0.5j * TWIST_SIGN * (zs * conj_nodes).imag)
            sums.append((e[..., None, :] @ cols)[..., 0, :])
        G.append(np.stack(sums))
        at.append(inv)
    c = np.asarray(f.coupling)
    R, T, J1, J2 = G[0].shape[1], G[0].shape[2], c.shape[0], c.shape[1]
    out = np.empty(centers.shape[:1] + (R,) + c.shape[2:], dtype=complex)
    for i, G1 in enumerate(G[0]):
        rows = np.flatnonzero(at[0] == i)
        # (R T, J2, V) per z1, then every center's slot-2 sums against it
        H = (G1.reshape(R * T, J1) @ c.reshape(J1, -1)).reshape(R * T, J2, -1)
        G2 = G[1][at[1][rows]].reshape(rows.size, R * T, J2).transpose(1, 0, 2)
        vals = (G2 @ H).reshape(R, T, rows.size, -1)
        vals = np.einsum("rtcv,t->crv", vals, t_weights)
        out[rows] = vals.reshape((rows.size,) + out.shape[1:])
    return out


def twisted_mean_table(f: SampledField, centers, radii, m: int | None = None,
                       orders=None, twist: bool = True) -> np.ndarray:
    """f x mu_r(z) for every center (rows, points of C^n) and radius
    (columns): (C, R), or (C, R, V) when ``f.evaluate`` returns (P, V) on
    P points; V is learnt from one read of no points (from the coupling
    of a ``SlotProduct``, which is read at no point of the sphere rules).
    f needs only ``dimension`` and ``evaluate``.  ``twist=False`` takes
    the plain spherical mean, with weight 1 in place of the twist: each
    slot's twist factor is skipped and the table's dtype is the values'
    (real values give a real table); a twisted table is complex.

    One unit ``sphere_rule`` (``m`` circle nodes on C, S^3 ``orders`` on
    C^2) is read per call; the rule of radius r is r times it, slot tables
    and nodes, and its t weights are the unit rule's at every r.  Centers
    and radii must be finite: a non-finite center meets no sphere, so it
    would read as a zero mean.  f is read over blocks of (center,
    radius) pairs, center-major, at most ``_MEAN_POINTS[n]`` points each,
    so a single center's reads are its radii in blocks.  Each pair's sum
    is contracted slot by slot against the rule's twist factors, slot n
    first, then weighted over the rule's inclinations (see the module
    docstring); untwisted, each inclination's contiguous node values are
    summed in numpy's pairwise order, then weighted.  A twisted
    ``SlotProduct`` is read slot by slot instead, once per distinct slot
    value at the rules' slot nodes (``_slot_product_means``).  r = 0 degenerates to f(z) (continuity),
    read at every center.  Off-grid reads of sample-only fields raise
    FieldDomainError naming the offending node.

    An f that declares ``support_radius`` R says it is 0 at every
    |z| > R.  Only the spheres with ||z| - r| < R (1 + 1e-9) can meet
    that ball, so only they are read; every other entry is +0.0, what the
    sum of their zero node values gives.  A sphere that is read sums its
    node values in the same order as without the declaration, so its mean
    is the same bit for bit whenever f's value at a point does not depend
    on how many points one read holds.  The 1e-9 margin exceeds the node
    round-off and the 1e-12 slack of a ``SampledField``'s declared
    support, so no node that may be nonzero is skipped.  Without the
    attribute, or with R infinite, every pair is read, center-major, and
    no cull is computed.
    """
    centers = np.asarray(centers, dtype=complex)
    if centers.ndim != 2 or centers.shape[1] != f.dimension:
        raise ValueError(f"centers must be points of C^{f.dimension}, "
                         f"shape (C, {f.dimension}); got {centers.shape}")
    _finite(centers, "centers")
    radii = np.asarray(radii, dtype=float).reshape(-1)
    bad = np.flatnonzero(~(np.isfinite(radii) & (radii >= 0)))
    if bad.size:
        raise ValueError(f"radius must be >= 0 and finite, got {radii[bad[0]]}")
    support = getattr(f, "support_radius", np.inf)
    if not support > 0:
        raise ValueError(f"support radius must be positive, got {support}")
    slotwise = twist and isinstance(f, SlotProduct)
    if slotwise:
        tail, dtype = np.shape(f.coupling)[2:], complex
    else:
        empty = f.evaluate(np.empty((0, f.dimension), dtype=complex))
        tail, dtype = empty.shape[1:], (complex if twist else np.result_type(empty, float))
    out = np.zeros(centers.shape[:1] + radii.shape + tail, dtype=dtype)

    at_zero = radii == 0.0
    if at_zero.any():
        out[:, at_zero] = f.evaluate(centers)[:, None]
    on = np.flatnonzero(~at_zero)
    if on.size:
        unit, radii_on = sphere_rule(f.dimension, 1.0, m=m, orders=orders), radii[on]
        # the rule of radius r is r times the unit rule: its slot tables
        # (R, T, M_s) and, per block, its nodes; w_t / (M_1 .. M_n), the
        # weight of every node at inclination t, is the same at every r
        slots = [radii_on[:, None, None] * s for s in unit.slot_nodes]
        t_weights = unit.t_weights * (1.0 / (unit.weights.size // unit.t_weights.size))
        if slotwise:
            out[:, on] = _slot_product_means(f, centers, slots, t_weights)
            return out
        conj_slots = [np.conj(s) for s in slots]
        if support < np.inf:
            rows, cols = np.nonzero(np.abs(np.linalg.norm(centers, axis=1)[:, None] - radii_on)
                                    < support * (1 + 1e-9))
        else:
            rows, cols = np.indices((centers.shape[0], on.size)).reshape(2, -1)
        block = max(1, _MEAN_POINTS[f.dimension] // unit.weights.size)
        for s in range(0, rows.size, block):
            j, i = rows[s:s + block], cols[s:s + block]
            z, r = centers[j], radii_on[i, None]
            # z - r w one slot column at a time: a broadcast over the n-wide
            # last axis runs numpy's inner loop n elements at a time
            pts = np.empty((j.size,) + unit.nodes.shape, dtype=complex)
            for k in range(f.dimension):
                np.subtract(z[:, k, None], r * unit.nodes[:, k], out=pts[..., k])
            vals = f.evaluate(pts.reshape(-1, f.dimension))
            # fields first, contiguous; each pair's values as (T, M_1 * .. * M_n, 1)
            vals = np.ascontiguousarray(vals.T).reshape(
                vals.shape[1:] + (j.size,) + t_weights.shape + (-1, 1))
            if twist:
                # slot n first: one mat-vec per (pair, t) with the slot's twist
                # e[t, a] = exp(i/2 Im(z_s conj(node))), so (.., T, 1, 1) is left
                for zs, conj_nodes in zip(z.T[::-1], conj_slots[::-1]):
                    e = np.exp(0.5j * TWIST_SIGN * (zs[:, None, None] * conj_nodes[i]).imag)
                    vals = vals.reshape(vals.shape[:-2] + (-1, e.shape[-1])) @ e[..., None]
            else:
                vals = vals.sum(axis=-2, keepdims=True)
            vals = vals.reshape(vals.shape[:-3] + (1, -1)) @ t_weights[:, None]
            out[j, on[i]] = vals[..., 0, 0].T
    return out


def twisted_spherical_mean(f: SampledField, z, r: float, m: int | None = None) -> complex:
    """f x mu_r(z) over the normalized sphere of radius r centered at z:
    the 1 x 1 ``twisted_mean_table`` (the default S^3 rule on C^2)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))[None, :]
    return complex(twisted_mean_table(f, z, [r], m)[0, 0])


def mean_profile(f: SampledField, z, radii=None,
                 radial_rule: RadialRule | None = None,
                 m: int | None = None, name: str = "") -> MeanProfile:
    """Means of f at one center over a radius grid: one row of
    ``twisted_mean_table`` (the default S^3 rule on C^2).

    Pass ``radial_rule`` (its nodes become the radii) when the profile is
    destined for ``polar_bridge``; an explicit ``radii`` array works for
    plain scans.  The profile map is linear in the field.
    """
    if radii is None:
        if radial_rule is None:
            raise ValueError("need radii or a radial_rule")
        radii = radial_rule.nodes
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    vals = twisted_mean_table(f, z[None, :], radii, m)[0]
    return MeanProfile(z, radii, vals, radial_rule=radial_rule, name=name)


# ---------------------------------------------------------------------------
# twisted convolution and spectral projections

# (target, node) pairs per chunk of the w-form sum of ``convolution_values``
_PAIR_CHUNK = 4_000_000


def convolution_values(f: SampledField, g: SampledField, targets) -> np.ndarray:
    """(f x g) at arbitrary targets, integrating over g's grid.  Targets
    must be finite: a non-finite one raises ValueError naming it and its
    row."""
    if not f.rule.compatible(g.rule):
        raise GridMismatchError("twisted convolution needs fields on one rule")
    targets = _finite(np.asarray(targets, dtype=complex).reshape(-1, f.dimension), "targets")
    w = g.rule.nodes
    gw = g.values * g.rule.weights
    out = np.empty(targets.shape[0], dtype=complex)
    chunk = max(1, _PAIR_CHUNK // max(1, w.shape[0]))
    for s in range(0, targets.shape[0], chunk):
        zc = targets[s:s + chunk]
        pts = zc[:, None, :] - w[None, :, :]
        vals = np.asarray(f.evaluate(pts.reshape(-1, f.dimension)), dtype=complex)
        vals = vals.reshape(zc.shape[0], w.shape[0])
        vals *= twist_phase(zc[:, None, :], w[None, :, :])
        out[s:s + chunk] = compensated_sum(vals * gw[None, :], axis=-1)
    return out


def projection_values(f: SampledField, k: int, targets) -> np.ndarray:
    """Q_k f = f x phi_k evaluated at arbitrary targets: one column of
    ``spectral_projections``."""
    return spectral_projections(f, [k], targets)[:, 0]


def spectral_projection(f: SampledField, k: int) -> SampledField:
    """Degree-k spectral projection of f as a field on f's grid (values from
    ``spectral_projections``), with the ``projection_values`` evaluator for
    off-grid reads."""
    vals = spectral_projections(f, [k])[:, 0]
    ev = lambda pts: projection_values(f, k, pts)
    return SampledField(f.rule, vals, ev, name=f"({f.name})x(phi_{k})")


def _twisted_kernels(t: np.ndarray, weight: np.ndarray, degrees: list):
    """``(columns, L_k(t) * weight)`` for each k asked for, all degrees from
    one Laguerre recurrence; ``columns`` are the positions in ``degrees``
    that ask for k.

    With t = |z-u|^2 / 2 and weight = exp(-t/2) times the twist
    exp(-(i/2) Im(z . conj(u))), this is the closed-form kernel
    phi_k(|z-u|) exp(-(i/2) Im(z . conj(u))) on C: slot by slot, of every
    ring sum.
    """
    for k, lag in enumerate(laguerre_sequence(0, t, max(degrees))):
        columns = [i for i, d in enumerate(degrees) if d == k]
        if columns:
            yield columns, lag * weight


def _mode_table(f: SampledField, max_degree: int, degrees=()):
    """The per-mode table of f on its own polar grid on C, with K =
    max_degree: ``(sums, projections)``.

    With F(r_j, q) the phase DFT of f's weighted samples and rho_(a,d) the
    radial factors of ``special_hermite_radial``, each order d's sums over
    the radial nodes for a = 0..K are one (K+1, R) @ (R, 4) real product,

        sums[d, a, 0] = sum_j rho_(a,d)(r_j) F(r_j,  d mod m),
        sums[d, a, 1] = sum_j rho_(a,d)(r_j) F(r_j, -d mod m),

    and ``sums`` (K+1, K+1, 2) holds orders 0..K, the coefficients' orders.
    ``projections`` holds Q_k f at the grid's nodes, (R m,) for each k in
    ``degrees`` (K = max(degrees) then).  The kernel's phase series is
    sum_(p <= k) rho_k,p(r_z) rho_k,p(r_u) e^(i p (th_z - th_u)), rho_k,p =
    rho_(k-p, p) for p >= 0 and rho_(k, -p) for p < 0, so on the grid

        Q_k f(r_i, th) = sum_(p <= k) e^(i p th) rho_k,p(r_i) sum_j rho_k,p(r_j) F(r_j, p mod m),

    over every mode p >= 1 - D, D the orders ``special_hermite_order_limit``
    finds nonzero at the grid's outer radius (at least K+1).  The phases th
    are the m uniform grid phases, so modes equal mod m are summed first
    (the DFT of the kernel is its series folded mod m) and one inverse FFT
    along the phase axis finishes each degree.  The fold is walked one
    chunk at a time: the m modes [c m, (c+1) m), one per residue, none of
    two signs.  A chunk takes its orders' factors and sums, adds its terms
    into one (m, R) total per degree, chunks in increasing mode order, and
    is dropped, so no (D, K+1, R) table is held.
    """
    R, m = f.rule.shape
    K = max_degree
    x = 0.5 * f.rule.radial_nodes ** 2
    F = np.fft.fft((f.values * f.rule.weights).reshape(R, m), axis=1).T    # (m, R)

    def order_sums(d: np.ndarray):
        rho = np.empty((d.size, K + 1, R))
        for a, factor in enumerate(special_hermite_radial(x, K, d)):
            rho[:, a] = factor
        Fd = np.stack([F[d % m], F[-d % m]], axis=-1)              # (orders, R, 2)
        # one real product per order, over the real and imaginary parts of both columns
        return rho, np.matmul(rho, Fd.view(float)).view(complex)

    if not degrees:
        return order_sums(np.arange(K + 1))[1], []
    D = max(K + 1, special_hermite_order_limit(x.max()))
    sums = np.empty((K + 1, K + 1, 2), dtype=complex)
    # one (m, R) total per degree, row p mod m: mode p's terms; a list, so
    # each total is dropped once its inverse FFT is taken
    totals = [np.zeros((m, R), dtype=complex) for _ in degrees]

    def add_chunk(lo: int):
        # the chunk's factors and sums are dropped on return, before the next's are made
        p = np.arange(max(lo, 1 - D), min(lo + m, K + 1))
        rho, chunk = order_sums(np.abs(p))
        if lo >= 0:
            sums[p] = chunk
        first = p[0] - lo
        for i, k in enumerate(degrees):
            if lo < 0:                  # mode -d: rho_(k, d)
                radial, coef = rho[:, k], chunk[:, k, 1]
            else:                       # mode p <= k: rho_(k-p, p)
                j = np.arange(np.count_nonzero(p <= k))
                radial, coef = rho[j, k - p[j]], chunk[j, k - p[j], 0]
            totals[i][first:first + coef.size] += radial * coef[:, None]

    for lo in range((1 - D) // m * m, K + 1, m):
        add_chunk(lo)
    projections = []
    for i in range(len(degrees)):
        # (R, m), radius-major like the nodes
        projections.append(np.fft.ifft(totals[i].T, axis=1, norm="forward").reshape(-1))
        totals[i] = None
    return sums, projections


_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _table_coefficients(sums: np.ndarray, max_degree: int) -> np.ndarray:
    """<f, phi_(a,b)> for a, b <= max_degree from the mode table: with
    phi_(a,b) = (2 pi)^(-1/2) (-i)^(a-b) e^(i (a-b) th) rho_(min, |a-b|)(r),
    it is (2 pi)^(-1/2) i^(a-b) sums[|a-b|, min(a, b), a < b]."""
    a, b = np.indices((max_degree + 1, max_degree + 1))
    return (sums[np.abs(a - b), np.minimum(a, b), (a < b).astype(int)]
            * ((2.0 * np.pi) ** -0.5 * _I_POWERS[(a - b) % 4]))


def _pairing_kernel_args(z: np.ndarray, u: np.ndarray):
    """``(t, weight)`` of ``_twisted_kernels`` for targets z (T, n) and
    nodes u (N, n) from one pairing product z . conj(u): its real part
    gives t = (|z|^2 + |u|^2) / 2 - Re, its imaginary part the twist."""
    weight = z @ np.conj(u).T
    t = 0.5 * (np.sum(z.real ** 2 + z.imag ** 2, axis=1)[:, None]
               + np.sum(u.real ** 2 + u.imag ** 2, axis=1)[None, :])
    t -= weight.real
    np.multiply(t, -0.5, out=weight.real)
    weight.imag *= -0.5 * TWIST_SIGN
    return t, np.exp(weight, out=weight)


# slot-kernel entries (every slot, every slot degree) that the ring sums hold
# at once: 16 MB of complex128.  Kernels are built, and slot 2 contracted
# into U_1 x U_2 tables, once per distinct slot value of a block of targets,
# so blocks are cut by their distinct values, not by their targets (the 96
# targets of the C^2 probe lattice, 24 + 24 values, are one block), and the
# rings are taken in blocks that depend on the rule and the degrees alone,
# sized so that the m_1 + m_2 values of one ring's own nodes fill the budget
_SLOT_BLOCK = 1 << 20

# slot-2 nodes per BLAS product of a ring sum's tables: a product sums each
# entry along its whole inner axis, and over thousands of nodes that sum
# loses digits that per-ring tables, summed pairwise, keep
_RUN = 48

# table entries per target that a block of targets may compute.  A block's
# tables cover every pair of its distinct z1 and z2: 6 entries per target on
# the C^2 probe lattice, 1 on a ring of a C^2 grid's own nodes, but as many
# as the block has targets when no slot value repeats
_TABLE_PER_TARGET = 8


def _target_blocks(at: tuple, m: tuple, budget: int):
    """Cut the targets, in order, into blocks for ``_slot_pieces``; at[s]
    (T,) holds each target's index among the U_s distinct values of slot s.
    A block ends before the target that would take its kernels,
    sum_s U_s m_s rows x nodes, past ``budget``, or its table, prod_s U_s
    entries, past ``_TABLE_PER_TARGET`` per target or past the ring
    products it contracts (U_2 <= m_2, so a C^2 grid's own nodes come one
    ring a block); it holds one target at least."""
    T, prev = at[0].size, []
    for a in at:    # the target before each one with the same slot value, or -1
        order = np.argsort(a, kind="stable")
        same = a[order[1:]] == a[order[:-1]]
        p = np.full(T, -1)
        p[order[1:][same]] = order[:-1][same]
        prev.append(p)
    start, width = 0, 1
    while start < T:
        while True:        # widen the window until the block ends inside it
            stop = min(T, start + width)
            U = [np.cumsum(p[start:stop] < start) for p in prev]
            table = functools.reduce(np.multiply, U)
            fits = ((sum(mi * u for mi, u in zip(m, U)) <= budget)
                    & (table <= _TABLE_PER_TARGET * np.arange(1, stop - start + 1))
                    & (table <= U[0] * np.prod(m[1:], dtype=int)))
            n = int(np.argmin(fits)) if not fits.all() else stop - start
            if n < stop - start or stop == T:
                break
            width *= 2
        n = max(n, 1)
        yield slice(start, start + n)
        start, width = start + n, n


def _slot_pieces(targets: np.ndarray, slots: list, weighted, pieces: list,
                 row_blocks=(slice(None),)) -> np.ndarray:
    """Pieces (b_1, .., b_n) of the u-form sum at targets (T, n), n <= 2, one
    column per degree tuple in ``pieces``: (T, len(pieces)) complex.

    The weighted samples fw lie on G rings, ring g the product grid of
    slot nodes slots[s][g] (G, m_s), and are read block by block:
    ``weighted(ring, rows)`` gives those of a slice of the rings and a
    slice of the slot-1 nodes, (rings, rows, m_2 ..), for each slice in
    ``row_blocks`` (default: all the slot-1 nodes at once).  With the slot
    kernels K_b of ``_twisted_kernels`` (see the module docstring) on the
    U_s distinct values of z_s, piece (b1, b2) is read, at each target's
    (z1, z2) indices, from the U_1 x U_2 table

        sum_g (K_b1[g] @ fw[g]) @ K_b2[g]^T:

    one batched (G, U_1, m_1) x (G, m_1, m_2) ring product P per slot-1
    degree (over several row blocks, the block products summed in their
    order, each block read once against every slot-1 degree), then per
    piece one U_1 x U_2 BLAS product per ring (per run of ``_RUN`` slot-2
    nodes on longer rings), summed over the rings.  With one slot (C) the
    table is P = K_b1 @ fw itself.  The tables pay off when slot values
    repeat: the 96 targets of the C^2 probe lattice have 24 distinct z1
    and 24 distinct z2, and the m_1 m_2 targets of a ring of a C^2 grid's
    own nodes have m_1 + m_2.  The targets are cut into blocks by
    ``_target_blocks`` (see ``_SLOT_BLOCK``) and each block builds its
    kernels once per distinct slot value and ring; the rings are taken in
    blocks that do not depend on the targets.
    """
    G, m = slots[0].shape[0], tuple(s.shape[1] for s in slots)
    degrees = max(map(max, pieces)) + 1
    # one ring's own nodes as targets take sum_s m_s^2 kernel rows x nodes
    ring_block = min(G, max(1, _SLOT_BLOCK // (degrees * sum(mi * mi for mi in m))))
    values, at = zip(*(np.unique(z, return_inverse=True) for z in targets.T))
    out = np.empty((targets.shape[0], len(pieces)), dtype=complex)

    def kernels(j: int, z: np.ndarray, ring: slice):
        # slot j's kernels on the slot values z, over a block of rings
        return _twisted_kernels(*_pairing_kernel_args(z[:, None], slots[j][ring].reshape(-1, 1)),
                                [b[j] for b in pieces])

    def products(z: np.ndarray, ring: slice, rings: int):
        # (columns, P) per slot-1 degree, P (rings, U_1, m_2) from (rings, U_1, m_1) kernels
        shape = lambda K: K.reshape(-1, rings, m[0]).transpose(1, 0, 2)
        if len(row_blocks) == 1:
            w = weighted(ring, row_blocks[0])
            w = w.reshape(w.shape[:2] + (-1,))
            for cols, K in kernels(0, z, ring):
                P = np.matmul(shape(K), w)
                del K   # not held while the recurrence takes its next step
                yield cols, P
            return
        # every slot-1 degree's kernels stacked, (rings, degrees x U_1, m_1):
        # one product per block of rows
        K1 = [(cols, shape(K)) for cols, K in kernels(0, z, ring)]
        columns, K1 = [cols for cols, _ in K1], np.concatenate([K for _, K in K1], axis=1)
        P = None
        for block in row_blocks:
            w = weighted(ring, block)
            p = np.matmul(K1[..., block], w.reshape(w.shape[:2] + (-1,)))
            P = p if P is None else np.add(P, p, out=P)
            del w, p    # not held while the next block is read
        U = P.shape[1] // len(columns)
        yield from ((cols, P[:, i * U:(i + 1) * U]) for i, cols in enumerate(columns))

    for rows in _target_blocks(at, m, _SLOT_BLOCK // (degrees * ring_block)):
        used, idx = zip(*(np.unique(a[rows], return_inverse=True) for a in at))
        z = [v[i] for v, i in zip(values, used)]      # the block's distinct slot values
        cells = (idx[0], idx[1] if len(m) == 2 else 0)
        tables = [None] * len(pieces)
        for g in range(0, G, ring_block):
            ring = slice(g, g + ring_block)
            rings = min(G, g + ring_block) - g
            # slot-2 kernels per degree as (rings, m_2, U_2)
            K2 = {pieces[cols[0]][1]: K.reshape(-1, rings, m[1]).transpose(1, 2, 0)
                  for cols, K in (kernels(1, z[1], ring) if len(m) == 2 else ())}
            for cols, P in products(z[0], ring, rings):
                for col in cols:
                    if K2:
                        K = K2[pieces[col][1]]
                        # (rings x runs, U_1, U_2) partial tables, summed pairwise
                        part = np.concatenate([np.matmul(P[..., s:s + _RUN], K[:, s:s + _RUN])
                                               for s in range(0, m[1], _RUN)])
                        part = np.ascontiguousarray(np.moveaxis(part, 0, -1)).sum(axis=-1)
                    else:
                        part = P[0]
                    tables[col] = part if tables[col] is None else tables[col] + part
        for col, table in enumerate(tables):
            out[rows, col] = table[cells]
    return out


def _ring_projections(f: SampledField, degrees: list, targets: np.ndarray) -> np.ndarray:
    """Q_k f at arbitrary targets: the sum of ``_slot_pieces`` with
    b_1 + .. + b_n = k.  On C the whole grid is one ring of one slot, its
    weighted samples formed once; on C^2 each (radius, inclination) ring of
    f's polar rule is the m1 x m2 product grid of slot nodes r cos(th) e^(i p1)
    and r sin(th) e^(i p2), and each block of rings weights its own samples
    when it is read, so no whole weighted copy of f's values is made."""
    u = f.rule.nodes
    if f.dimension == 1:
        slots, fw = [u.T], (f.values * f.rule.weights)[None]
        weighted = lambda ring, rows: fw
    else:
        R, nt, m1, m2 = f.rule.shape
        u = u.reshape(R * nt, m1, m2, 2)
        slots = [u[:, :, 0, 0], u[:, 0, :, 1]]
        samples, wts = (a.reshape(R * nt, m1, m2) for a in (f.values, f.rule.weights))
        weighted = lambda ring, rows: samples[ring] * wts[ring]
    pieces = [b for b in itertools.product(range(max(degrees) + 1), repeat=f.dimension)
              if sum(b) in degrees]
    vals = _slot_pieces(targets, slots, weighted, pieces)
    return np.stack([sum(vals[:, i] for i, b in enumerate(pieces) if sum(b) == k)
                     for k in degrees], axis=1)


def spectral_projections(f: SampledField, degrees, targets=None) -> np.ndarray:
    """Q_k f at the targets (default: f's own nodes) for every k in
    ``degrees``.  Returns (targets, len(degrees)) complex.

    Only f's samples are read, so fields with and without an evaluator take
    the same path.  The input picks it (see the module docstring): on C,
    targets None or equal to ``f.rule.nodes`` take the per-mode table,
    walked one m-mode chunk at a time and never held whole; all
    other targets, and every target on C^2, take the ring sum of
    ``_slot_pieces``, all degrees from one Laguerre recurrence per slot.
    Targets must be finite: a non-finite one raises ValueError naming it
    and its row.
    """
    degrees = [_integer(k, f"degrees[{i}]") for i, k in enumerate(degrees)]
    if not degrees:
        raise ValueError("degrees must be a non-empty list of integers >= 0, got []")
    w = f.rule.nodes
    if targets is not None:
        targets = _finite(np.asarray(targets, dtype=complex).reshape(-1, f.dimension), "targets")
    if f.dimension == 1 and (targets is None or np.array_equal(targets, w)):
        return np.stack(_mode_table(f, max(degrees), degrees)[1], axis=1)
    return _ring_projections(f, degrees, w if targets is None else targets)


def special_hermite_coefficients(f: SampledField, max_degree: int) -> np.ndarray:
    """Matrix of inner products <f, phi_(a,b)> for a, b <= max_degree (n = 1),
    (K+1, K+1) complex.  On the polar grid, with phi_(a,b) =
    (2 pi)^(-1/2) (-i)^(a-b) e^(i (a-b) th) rho_(min(a,b), |a-b|)(r),

        <f, phi_(a,b)> = (2 pi)^(-1/2) i^(a-b) sum_j rho(r_j) F(r_j, a-b mod m)

    with F the phase DFT of f's weighted samples: the mode table of the
    K+1 orders (``_mode_table``), no (nodes, (K+1)^2) matrix."""
    if f.dimension != 1:
        raise ValueError("special Hermite coefficients are an n = 1 notion")
    K = _integer(max_degree, "max_degree")
    return _table_coefficients(_mode_table(f, K)[0], K)


def special_hermite_truncation(f: SampledField, max_degree: int) -> SpectrumTruncation:
    """Degreewise projections Q_0..Q_K of f on its grid, plus the
    coefficient matrix when f lives on C (n = 1).  On C both come from one
    walk of the mode table over the orders the grid resolves, one m-mode
    chunk at a time, and each projection's values are its degree's
    inverse FFT, not a copied column."""
    K = _integer(max_degree, "max_degree")
    degrees = list(range(K + 1))
    if f.dimension == 1:
        sums, vals = _mode_table(f, K, degrees)
        coeffs = _table_coefficients(sums, K)
    else:
        coeffs, table = None, spectral_projections(f, degrees)
        vals = [table[:, k] for k in degrees]
    projections = [SampledField(f.rule, vals[k],
                                lambda pts, _k=k: projection_values(f, _k, pts),
                                name=f"Q{k}") for k in degrees]
    return SpectrumTruncation(f.dimension, K, projections, coeffs)


def polar_bridge(profile: MeanProfile, k: int, n: int) -> complex:
    """Radial resummation of a mean profile into the degree-k projection:

        omega_(2n-1) int_0^inf profile(r) phi_k(r) r^(2n-1) dr.

    The profile must be sampled on a RadialRule (its nodes carry the rule's
    Gauss weights and Jacobian).  Warns when the integrand has not decayed
    at the rule's outer boundary.
    """
    rule = profile.radial_rule
    if rule is None:
        raise ValueError("polar_bridge needs a profile sampled on a RadialRule "
                         "(pass radial_rule= to mean_profile)")
    if rule.dimension != n:
        raise ValueError(f"radial rule is for n={rule.dimension}, asked n={n}")
    if not np.array_equal(profile.radii, rule.nodes):
        raise ValueError("profile radii do not match the radial rule nodes")
    phi = laguerre_function(LaguerreSpec(k, n - 1), rule.nodes)
    integrand = profile.values * phi
    weighted = np.abs(integrand) * rule.weights
    total = float(weighted.sum())
    if total > 0 and weighted[-1] > 1e-12 * total:
        warnings.warn(
            f"polar bridge integrand at r={rule.extent:g} still carries "
            f"{weighted[-1] / total:.1e} of the integral; extend the radial rule",
            TruncationTailWarning, stacklevel=2)
    return complex(sphere_surface_area(n) * rule.integrate(integrand))


# ---------------------------------------------------------------------------
# tensor decomposition of projections on C^2


# points of the slot x slot grid per f.evaluate call
_GRID_POINTS = 1 << 16


def _default_slot_rule() -> PlaneRule:
    return plane_rule(1, extent=10.0, radial_points=32, angular_points=48)


def tensor_decompose_projection(f: SampledField, k: int) -> list[SampledField]:
    """Split Q_k of a field on C^2 into its diagonal tensor pieces.

    The degree-k radial eigenfunction on C^2 tensor-decomposes over C x C:
    phi_k^(1)(z1, z2) = sum_(b1+b2=k) phi_b1^(0)(z1) phi_b2^(0)(z2), so

        f x phi_k^(1) = sum_(b1+b2=k) (f x_2 phi_b2^(0)) x_1 phi_b1^(0)

    with x_i the twisted convolution in slot i alone.  With the u-form slot
    kernel K_b(z)[t, u] = phi_b(|z_t - u|) exp(-(i/2) Im(z_t conj(u))) and
    F f's weighted samples on the slot x slot product grid of
    ``_default_slot_rule``, piece (b1, b2) is the table
    (K_b1(z1) @ F) @ K_b2(z2)^T read at each target's (z1, z2):
    ``_slot_pieces`` with the grid as its one ring.  f is read on the grid
    in blocks of slot-1 rows, at most ``_GRID_POINTS`` points each, and
    K_b1 @ F is summed over the blocks as they are read, so building the
    pieces forms no N x N array.  Fields without an evaluator raise
    FieldDomainError: the product grid reaches past their extent.  Returns the pieces, b1 ascending, as fields on a
    small probe lattice of C^2.  The pieces hold f: the first read of any
    piece's evaluator forms F whole, in place, once per decomposition, and
    every read sums its row blocks in the same order, so a read at the
    lattice returns the piece's values bit for bit.  Targets must be
    finite, as in ``spectral_projections``.  Summing the pieces reproduces
    ``spectral_projection(f, k)``.
    """
    if f.dimension != 2:
        raise ValueError("tensor decomposition applies to fields on C^2")
    k = _integer(k, "degree")
    # evaluation lattice only; its weights are never used as a quadrature,
    # hence the disabled moment check
    lattice = plane_rule(2, extent=2.5, radial_points=3, sphere3_orders=(2, 4, 4),
                         tolerance=float("inf"))
    slot = _default_slot_rule()
    u, w = slot.nodes, slot.weights
    N = u.shape[0]
    step = max(1, _GRID_POINTS // N)
    row_blocks = [slice(s, min(s + step, N)) for s in range(0, N, step)]

    def sampler():
        # F's rows, read from f at their slot x slot points through one buffer
        pts = np.empty((min(step, N), N, 2), dtype=complex)
        pts[..., 1] = u.T

        def sampled(ring: slice, rows: slice) -> np.ndarray:
            block = pts[:rows.stop - rows.start]
            block[..., 0] = u[rows]
            return (f.evaluate(block) * np.outer(w[rows], w))[None]
        return sampled

    @functools.cache
    def whole() -> np.ndarray:
        # the whole F, filled in place on the first evaluator read
        F, sampled = np.empty((1, N, N), dtype=complex), sampler()
        for block in row_blocks:
            F[:, block] = sampled(None, block)
        return F

    formed = lambda ring, rows: whole()[:, rows]

    def piece_values(targets, pairs: list, weighted) -> np.ndarray:
        targets = _finite(np.asarray(targets, dtype=complex).reshape(-1, 2), "targets")
        return _slot_pieces(targets, [u.T, u.T], weighted, pairs, row_blocks)

    pairs = [(b1, k - b1) for b1 in range(k + 1)]
    vals = piece_values(lattice.nodes, pairs, sampler())
    return [SampledField(lattice, vals[:, b1],
                         lambda pts, _p=p: piece_values(pts, [_p], formed)[:, 0],
                         name=f"piece_b1={p[0]}_b2={p[1]}") for b1, p in enumerate(pairs)]
