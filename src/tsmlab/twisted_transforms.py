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

* on the grid (n = 1, targets are the field's own nodes): the kernel is
  invariant under rotating z and u together -- |z-u| and Im(z . conj(u))
  depend only on |z|, |u| and the phase difference.  The polar grid's
  phases are uniform, so the quadrature sum over its nodes is a circular
  convolution along the phase axis, done by FFT with one R x R product per
  phase mode;
* at every other target, with or without an evaluator: the sum over the
  nodes taken directly.

On C^2, ``tensor_decompose_projection`` takes the slot pieces of the product
relation from one sampling of f on a slot x slot grid and two slot kernels.
All three paths build the kernel through ``_twisted_kernels``.  The w form,
reading f at z - w against phi_k sampled on the grid (``convolution_values``;
slot by slot for the pieces), is their independent oracle in the tests; it
cuts phi_k off at the grid edge.
"""

from __future__ import annotations

import warnings

import numpy as np

from .constants import TWIST_SIGN, sphere_surface_area
from .errors import GridMismatchError, TruncationTailWarning, TranslateTailWarning
from .fields import MeanProfile, SampledField, SpectrumTruncation
from .quadrature import (PlaneRule, RadialRule, SphereRule, compensated_sum,
                         plane_rule, sphere_rule)
from .special_functions import (LaguerreSpec, laguerre_function,
                                laguerre_sequence, special_hermite_matrix)

CIRCLE_POINTS = 256
SPHERE3_ORDERS = (16, 32, 32)

__all__ = [
    "SampledField", "MeanProfile", "SpectrumTruncation",
    "twist_phase", "twisted_translate", "twisted_spherical_mean",
    "mean_profile", "twisted_convolution", "convolution_values",
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


def twisted_translate(f: SampledField, eta, tail_tol: float = 1e-9) -> SampledField:
    """Twisted translate of a field, resampled on its own grid.

    Warns (TranslateTailWarning) when the translate moves more than
    ``tail_tol`` of the field's absolute mass outside the grid.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=complex))
    if eta.shape != (f.dimension,):
        raise ValueError(f"eta must be a point of C^{f.dimension}")
    nodes = f.rule.nodes
    shifted = np.linalg.norm(nodes + eta[None, :], axis=1)
    mass = np.abs(f.values) * f.rule.weights
    total = float(mass.sum())
    lost = float(mass[shifted > f.rule.extent].sum())
    if total > 0 and lost > tail_tol * total:
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
    return SampledField(f.dimension, f.rule, vals, f.decay_class, ev,
                        name=f.name and f"{f.name}|translated")


def twisted_spherical_mean(f: SampledField, z, r: float,
                           rule: SphereRule | None = None,
                           m: int | None = None, orders=None) -> complex:
    """f x mu_r(z) over the normalized sphere of radius r centered at z.

    r = 0 degenerates to f(z) (continuity).  Off-grid reads of sample-only
    fields raise FieldDomainError naming the offending node.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (f.dimension,):
        raise ValueError(f"center must be a point of C^{f.dimension}")
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if r == 0.0:
        return complex(f.evaluate(z[None, :])[0])
    sph = rule if rule is not None else (
        sphere_rule(1, r, m=m or CIRCLE_POINTS) if f.dimension == 1
        else sphere_rule(2, r, orders=orders or SPHERE3_ORDERS))
    if abs(sph.radius - r) > 1e-12 * max(1.0, r):
        raise ValueError("sphere rule radius disagrees with r")
    vals = f.evaluate(z[None, :] - sph.nodes)
    return complex(compensated_sum(sph.weights * vals * twist_phase(z[None, :], sph.nodes)))


def mean_profile(f: SampledField, z, radii=None,
                 radial_rule: RadialRule | None = None,
                 m: int | None = None, orders=None, name: str = "") -> MeanProfile:
    """Means of f at one center over a radius grid.

    Pass ``radial_rule`` (its nodes become the radii) when the profile is
    destined for ``polar_bridge``; an explicit ``radii`` array works for
    plain scans.  The profile map is linear in the field.
    """
    if radii is None:
        if radial_rule is None:
            raise ValueError("need radii or a radial_rule")
        radii = radial_rule.nodes
    radii = np.asarray(radii, dtype=float)
    vals = np.array([twisted_spherical_mean(f, z, r, m=m, orders=orders)
                     for r in radii])
    return MeanProfile(np.atleast_1d(np.asarray(z, dtype=complex)), radii, vals,
                       radial_rule=radial_rule, name=name)


# ---------------------------------------------------------------------------
# twisted convolution and spectral projections

# (target, node) pairs per chunk of the direct sums
_PAIR_CHUNK = 4_000_000


def convolution_values(f: SampledField, g: SampledField, targets) -> np.ndarray:
    """(f x g) at arbitrary targets, integrating over g's grid."""
    if not f.rule.compatible(g.rule):
        raise GridMismatchError("twisted convolution needs fields on one rule")
    targets = np.asarray(targets, dtype=complex).reshape(-1, f.dimension)
    w = g.rule.nodes
    gw = g.values * g.rule.weights
    out = np.empty(targets.shape[0], dtype=complex)
    chunk = max(1, _PAIR_CHUNK // max(1, w.shape[0]))
    for s in range(0, targets.shape[0], chunk):
        zc = targets[s:s + chunk]
        pts = zc[:, None, :] - w[None, :, :]
        vals = f.evaluate(pts.reshape(-1, f.dimension)).reshape(zc.shape[0], w.shape[0])
        vals *= twist_phase(zc[:, None, :], w[None, :, :])
        out[s:s + chunk] = compensated_sum(vals * gw[None, :], axis=-1)
    return out


def twisted_convolution(f: SampledField, g: SampledField) -> SampledField:
    """f x g resampled on the shared grid, with a lazy exact evaluator."""
    vals = convolution_values(f, g, f.rule.nodes)
    ev = lambda pts: convolution_values(f, g, pts)
    return SampledField(f.dimension, f.rule, vals, f.decay_class, ev,
                        name=f"({f.name})x({g.name})" if f.name or g.name else "")


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
    return SampledField(f.dimension, f.rule, vals, f.decay_class, ev,
                        name=f"({f.name})x(phi_{k})")


def _twisted_kernels(order: int, t: np.ndarray, weight: np.ndarray, degrees: list):
    """``(columns, L_k^order(t) * weight)`` for each k asked for, all degrees
    from one Laguerre recurrence; ``columns`` are the positions in
    ``degrees`` that ask for k.

    With t = |z-u|^2 / 2 and weight = exp(-t/2) times the twist
    exp(-(i/2) Im(z . conj(u))), this is the closed-form kernel
    phi_k(|z-u|) exp(-(i/2) Im(z . conj(u))) of every projection path.
    """
    for k, lag in enumerate(laguerre_sequence(order, t, max(degrees))):
        columns = [i for i, d in enumerate(degrees) if d == k]
        if columns:
            yield columns, lag * weight


# kernel entries the on-grid engine builds at once: 16 of the 64 target
# radii of the default 64 x 256 grid, 4 MB of complex128 per degree
_ENGINE_BLOCK = 1 << 18


def _on_grid_projections(f: SampledField, degrees: list) -> np.ndarray:
    """Q_k f at f's own nodes on C, by rotation equivariance.

    For z = r_i e^(i th_a) and u = r_j e^(i th_b) the kernel depends on
    (i, j, a-b) only, so summing it against f's weighted samples is a
    circular convolution along the phase axis: one FFT of the samples, one
    FFT of the kernel per degree and block of target radii, an R x R
    product per phase mode, one inverse FFT.
    """
    R, m = f.rule.shape
    r = f.rule.radial_nodes
    F = np.fft.fft((f.values * f.rule.weights).reshape(R, m), axis=1)
    theta = 2.0 * np.pi * np.arange(m) / m
    out = np.empty((R, m, len(degrees)), dtype=complex)
    rows = max(1, _ENGINE_BLOCK // (R * m))
    for s in range(0, R, rows):
        ri = r[s:s + rows, None, None]
        rr = ri * r[None, :, None]
        t = 0.5 * (ri * ri + (r * r)[None, :, None]) - rr * np.cos(theta)
        # exp(-t/2) and the twist in one complex exponential
        weight = np.exp(-0.5 * t - 0.5j * TWIST_SIGN * rr * np.sin(theta))
        for columns, kernel in _twisted_kernels(0, t, weight, degrees):
            kernel = np.fft.fft(kernel, axis=2)
            q = np.fft.ifft(np.einsum("ijl,jl->il", kernel, F), axis=1)
            out[s:s + rows, :, columns] = q[:, :, None]
    return out.reshape(R * m, len(degrees))


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


def _direct_projections(f: SampledField, degrees: list, targets: np.ndarray) -> np.ndarray:
    """Q_k f at arbitrary targets: the u form summed directly over f's
    weighted samples, in chunks of targets; t and the twist come from one
    pairing product."""
    u = f.rule.nodes
    fw = f.values * f.rule.weights
    out = np.empty((targets.shape[0], len(degrees)), dtype=complex)
    chunk = max(1, _PAIR_CHUNK // u.shape[0])
    for s in range(0, targets.shape[0], chunk):
        t, weight = _pairing_kernel_args(targets[s:s + chunk], u)
        for columns, kernel in _twisted_kernels(f.dimension - 1, t, weight, degrees):
            out[s:s + chunk, columns] = (kernel @ fw)[:, None]
            del kernel   # not held while the recurrence takes its next step
    return out


def spectral_projections(f: SampledField, degrees, targets=None) -> np.ndarray:
    """Q_k f at the targets (default: f's own nodes) for every k in
    ``degrees``, all degrees from one Laguerre recurrence.  Returns
    (targets, len(degrees)) complex.

    Only f's samples are read, so fields with and without an evaluator take
    the same path.  The input picks it (see the module docstring): targets
    None or equal to ``f.rule.nodes`` on C take the FFT engine, all others
    the direct sum.
    """
    degrees = [int(k) for k in degrees]
    if not degrees or min(degrees) < 0:
        raise ValueError(f"degrees must be a non-empty list of integers >= 0, got {degrees}")
    w = f.rule.nodes
    if targets is not None:
        targets = np.asarray(targets, dtype=complex).reshape(-1, f.dimension)
    if f.dimension == 1 and (targets is None or np.array_equal(targets, w)):
        return _on_grid_projections(f, degrees)
    return _direct_projections(f, degrees, w if targets is None else targets)


def special_hermite_coefficients(f: SampledField, max_degree: int) -> np.ndarray:
    """Matrix of inner products <f, phi_(a,b)> for a, b <= max_degree (n=1):
    one weighted product against the conjugated ``special_hermite_matrix``,
    conjugated in place so no second (nodes, (K+1)^2) array is made."""
    if f.dimension != 1:
        raise ValueError("special Hermite coefficients are an n = 1 notion")
    fw = f.values * f.rule.weights
    H = special_hermite_matrix(f.rule.nodes[:, 0], max_degree)
    np.conjugate(H, out=H)
    return (fw @ H).reshape(max_degree + 1, max_degree + 1)


def special_hermite_truncation(f: SampledField, max_degree: int,
                               with_coefficients: bool | None = None) -> SpectrumTruncation:
    """Degreewise projections Q_0..Q_K of f on its grid (plus the n = 1
    coefficient matrix unless disabled)."""
    if with_coefficients is None:
        with_coefficients = f.dimension == 1
    # the coefficients first: their Hermite matrix is the larger array
    coeffs = special_hermite_coefficients(f, max_degree) if with_coefficients else None
    degrees = list(range(max_degree + 1))
    vals = spectral_projections(f, degrees)
    projections = [SampledField(f.dimension, f.rule, vals[:, k], f.decay_class,
                                lambda pts, _k=k: projection_values(f, _k, pts),
                                name=f"Q{k}") for k in degrees]
    return SpectrumTruncation(f.dimension, max_degree, projections, coeffs)


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


def _default_eval_rule() -> PlaneRule:
    # evaluation lattice only; its weights are never used as a quadrature,
    # hence the disabled moment check
    return plane_rule(2, extent=2.5, radial_points=3, sphere3_orders=(2, 4, 4),
                      tolerance=float("inf"))


def _default_slot_rule() -> PlaneRule:
    return plane_rule(1, extent=10.0, radial_points=32, angular_points=48)


def tensor_decompose_projection(f: SampledField, k: int,
                                eval_rule: PlaneRule | None = None,
                                slot_rule: PlaneRule | None = None) -> list[SampledField]:
    """Split Q_k of a field on C^2 into its diagonal tensor pieces.

    The degree-k radial eigenfunction on C^2 tensor-decomposes over C x C:
    phi_k^(1)(z1, z2) = sum_(b1+b2=k) phi_b1^(0)(z1) phi_b2^(0)(z2), so

        f x phi_k^(1) = sum_(b1+b2=k) (f x_2 phi_b2^(0)) x_1 phi_b1^(0)

    with x_i the twisted convolution in slot i alone.  f is sampled once on
    the slot x slot product grid of ``slot_rule`` and weighted to F; with the
    u-form slot kernel K_b(z)[t, u] = phi_b(|z_t - u|) exp(-(i/2) Im(z_t conj(u))),
    piece (b1, b2) is rowsum((K_b1(z1) @ F) * K_b2(z2)).  Fields without an
    evaluator raise FieldDomainError: the product grid reaches past their
    extent.  Returns the pieces, b1 ascending, as fields on ``eval_rule``
    (default: a small probe lattice) whose evaluators sum the same F.
    Summing the pieces reproduces ``spectral_projection(f, k)``.
    """
    if f.dimension != 2:
        raise ValueError("tensor decomposition applies to fields on C^2")
    if k < 0:
        raise ValueError(f"degree must be an integer >= 0, got {k}")
    eval_rule = eval_rule or _default_eval_rule()
    slot = slot_rule or _default_slot_rule()
    if eval_rule.dimension != 2 or slot.dimension != 1:
        raise ValueError("eval_rule must live on C^2 and slot_rule on C")

    u = slot.nodes
    F = f.evaluate(np.stack(np.broadcast_arrays(u, u.T), axis=-1))   # (S, S)
    F *= np.outer(slot.weights, slot.weights)
    degrees = list(range(k + 1))
    chunk = max(1, _PAIR_CHUNK // ((k + 1) * u.shape[0]))

    def slot_kernels(z: np.ndarray) -> list:
        """K_b(z) for b = 0..k at targets z (T, 1) of one slot: (T, S) each."""
        return [kernel for _, kernel in
                _twisted_kernels(0, *_pairing_kernel_args(z, u), degrees)]

    def piece_values(targets: np.ndarray) -> np.ndarray:
        """All (b1, b2 = k - b1) pieces at the targets: (T, k+1) complex."""
        targets = np.asarray(targets, dtype=complex).reshape(-1, 2)
        out = np.empty((targets.shape[0], k + 1), dtype=complex)
        for s in range(0, targets.shape[0], chunk):
            zc = targets[s:s + chunk]
            K1, K2 = slot_kernels(zc[:, :1]), slot_kernels(zc[:, 1:])
            for b1 in degrees:
                out[s:s + chunk, b1] = np.sum((K1[b1] @ F) * K2[k - b1], axis=1)
        return out

    vals = piece_values(eval_rule.nodes)
    return [SampledField(2, eval_rule, vals[:, b1], f.decay_class,
                         lambda pts, _b1=b1: piece_values(pts)[:, _b1],
                         name=f"piece_b1={b1}_b2={k - b1}") for b1 in degrees]
