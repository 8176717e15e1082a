"""Deterministic quadrature rules: circles, the 3-sphere, radial half-lines,
and full planes C^n (n <= 2) in polar form.

Design notes
------------
* Sphere rules carry *normalized* surface measure: weights sum to 1.  They
  also carry the factors they are the product of (t weights, one node
  table per slot), which ``twisted_mean_table`` contracts against.
* A sphere rule is its radius times the unit rule, the one sphere
  construction (the circle on C is its one-slot case).  The unit rule of
  the mean tables is built once per dimension and size in a process and
  is read-only; ``sphere_rule`` returns fresh arrays.
* A plane rule is a radius times a sphere rule: node (r, w) is r w with
  r a Gauss-Legendre node on [0, extent] and w a node of the unit sphere
  rule (the circle on C, S^3 on C^2; built for the plane rule alone, not
  cached), weight
  ``w_r r^(2n-1) * omega_(2n-1) w_w`` -- Lebesgue measure in the polar
  factorization ``dz = omega_(2n-1) r^(2n-1) dr dmu_r``.  One construction
  serves both n.
* ``integrate`` reduces in fixed node order through ``compensated_sum``
  so a serial rerun (or any future chunked-parallel one that combines
  partials in index order) reproduces results bit for bit.
* Every plane rule self-checks the Gaussian moment
  ``int exp(-|z|^2/2) dz = (2 pi)^n`` at construction, restricted to its
  own disk, and refuses to build if the achieved error exceeds its
  declared tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import sphere_surface_area
from .errors import QuadratureError

_SUM_CHUNK = 4096


def compensated_sum(values, axis: int = -1):
    """Sum along an axis: pairwise inside fixed 4096-wide blocks, blocks
    combined in index order with Kahan correction."""
    v = np.moveaxis(np.asarray(values), axis, -1)
    total = np.zeros(v.shape[:-1], dtype=v.dtype if v.dtype.kind == "c" else float)
    comp = np.zeros_like(total)
    for start in range(0, v.shape[-1], _SUM_CHUNK):
        part = v[..., start:start + _SUM_CHUNK].sum(axis=-1)
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _frozen(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple:
    return _frozen(*np.polynomial.legendre.leggauss(n))


def gauss_legendre(n: int, a: float, b: float):
    """Gauss-Legendre nodes/weights mapped to [a, b]; numpy's ``leggauss``
    runs once per n in a process."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric weights for polynomial interpolation on arbitrary nodes,
    computed in log space to dodge overflow, normalized to max 1."""
    x = np.asarray(nodes, dtype=float)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    logw = -np.sum(np.log(np.abs(diff)), axis=1)
    sign = np.prod(np.sign(diff), axis=1)
    logw -= logw.max()
    return sign * np.exp(logw)


@dataclass
class SphereRule:
    """Nodes/weights for a sphere |w| = radius in C^n, normalized measure.

    Every sphere rule is a tensor product over T inclinations and the n
    slots: ``t_weights`` (T,) and one ``slot_nodes[s]`` (T, M_s) table per
    slot.  Node (t, a_1, .., a_n) is (slot_nodes[0][t, a_1], ..,
    slot_nodes[n-1][t, a_n]) with weight t_weights[t] / (M_1 .. M_n);
    ``nodes`` and ``weights`` list them row-major over (T, M_1, .., M_n).
    """

    dimension: int          # complex dimension n
    radius: float
    nodes: np.ndarray       # (N, n) complex
    weights: np.ndarray     # (N,) positive, sum 1
    t_weights: np.ndarray   # (T,) positive, sum 1
    slot_nodes: tuple       # n arrays (T, M_s) complex

    def integrate(self, values) -> complex:
        return complex(compensated_sum(self.weights * np.asarray(values)))

    def validate(self):
        if np.any(self.weights <= 0):
            raise QuadratureError("sphere rule has non-positive weights")
        if abs(self.weights.sum() - 1.0) > 1e-13:
            raise QuadratureError("sphere rule weights do not sum to 1")
        radii = np.linalg.norm(self.nodes, axis=1)
        err = np.max(np.abs(radii - self.radius))
        if err > 1e-12 * max(1.0, self.radius):
            raise QuadratureError(f"sphere rule nodes off the sphere by {err:.3e}")


def _build_unit_rule(dimension: int, size: tuple) -> SphereRule:
    """The read-only rule on the unit sphere: ``size`` is (m,) on C, m
    equispaced phases e^(2 pi i a / m) and T = 1 with t weight 1, or the
    S^3 orders (T, m1, m2) on C^2, slot tables cos(t) e^(i p1) and
    sin(t) e^(i p2) with t Gauss-Legendre on [0, pi/2] against the density
    2 sin t cos t, uniform in both phases, t weights renormalized to sum
    exactly 1.  Node (t, a_1, .., a_n) takes slot s from
    slot_nodes[s][t, a_s], weight t_weights[t] / (M_1 .. M_n).  A circle
    of fewer than 4 nodes raises ValueError."""
    if dimension == 1 and size[0] < 4:
        raise ValueError("circle rule needs at least 4 nodes")
    phases = [np.exp(1j * (2.0 * np.pi * np.arange(m) / m)) for m in size[dimension - 1:]]
    if dimension == 1:
        t_weights, slot_nodes = np.ones(1), (phases[0][None, :],)
    else:
        t, t_weights = gauss_legendre(size[0], 0.0, 0.5 * np.pi)
        t_weights = t_weights * 2.0 * np.sin(t) * np.cos(t)
        t_weights /= t_weights.sum()
        slot_nodes = (np.cos(t)[:, None] * phases[0][None, :],
                      np.sin(t)[:, None] * phases[1][None, :])
    index = np.indices([s.shape[1] for s in slot_nodes]).reshape(dimension, -1)
    nodes = np.stack([s[:, a].ravel() for s, a in zip(slot_nodes, index)], axis=1)
    weights = (t_weights[:, None] * np.full((1, index.shape[1]), 1.0 / index.shape[1])).ravel()
    _frozen(nodes, weights, t_weights, *slot_nodes)
    return SphereRule(dimension, 1.0, nodes, weights, t_weights, slot_nodes)


# the unit rules of the mean tables, built once per (dimension, size)
_unit_rule = functools.lru_cache(maxsize=64)(_build_unit_rule)


def sphere_rule(dimension: int, radius: float, m: int | None = None,
                orders: tuple[int, int, int] | None = None) -> SphereRule:
    """The sphere rule of every twisted mean, radius times the unit rule
    (``_unit_rule``) in fresh arrays: ``m`` circle nodes on C, the S^3
    product rule of ``orders`` on C^2; None takes the default size, 256
    nodes and (16, 32, 32)."""
    if dimension not in (1, 2):
        raise ValueError("sphere rules implemented for n in {1, 2}")
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if dimension == 1:
        size = (256 if m is None else m,)
    else:
        size = (16, 32, 32) if orders is None else tuple(orders)
    unit = _unit_rule(dimension, size)
    return SphereRule(dimension, radius, radius * unit.nodes, unit.weights.copy(),
                      unit.t_weights.copy(), tuple(radius * s for s in unit.slot_nodes))


@dataclass
class RadialRule:
    """Gauss-Legendre rule on [0, extent] with the r^(2n-1) Jacobian folded
    into the weights, for radial integrals over C^n."""

    dimension: int
    extent: float
    nodes: np.ndarray      # (m,) ascending, in (0, extent)
    weights: np.ndarray    # (m,) gl weight * r^(2n-1)
    declared_degree = 12   # polynomial-times-Gaussian degree the self-test covers

    def integrate(self, values) -> complex:
        return complex(compensated_sum(self.weights * np.asarray(values)))

    def moment_errors(self) -> np.ndarray:
        """Relative errors on int_0^inf r^m exp(-r^2/2) r^(2n-1) dr,
        m = 0 .. declared_degree."""
        errs = []
        for m in range(self.declared_degree + 1):
            a = m + 2 * self.dimension - 1
            exact = 2.0 ** ((a - 1) / 2.0) * math.gamma((a + 1) / 2.0)
            got = float(np.real(self.integrate(self.nodes ** m * np.exp(-0.5 * self.nodes ** 2))))
            errs.append(abs(got - exact) / exact)
        return np.array(errs)


def radial_rule(dimension: int, extent: float = 12.0, points: int = 64) -> RadialRule:
    if extent <= 0 or points < 2:
        raise ValueError("radial rule needs extent > 0 and points >= 2")
    r, w = gauss_legendre(points, 0.0, extent)
    jac = r ** (2 * dimension - 1)
    return RadialRule(dimension, extent, r, w * jac)


@dataclass
class PlaneRule:
    """Polar product rule over C^n (n <= 2) carrying Lebesgue measure.

    ``nodes`` enumerate the polar grid in row-major order over ``shape``:
    (radius, angle) for n = 1 and (radius, t, phase1, phase2) for n = 2.
    The axis metadata drives interpolation of fields sampled on the rule.
    """

    dimension: int
    extent: float
    nodes: np.ndarray        # (N, n) complex
    weights: np.ndarray      # (N,) Lebesgue weights
    shape: tuple             # value-tensor shape
    radial_nodes: np.ndarray
    theta_nodes: np.ndarray | None   # n = 2 only, GL nodes in [0, pi/2]
    angular_counts: tuple            # (m,) or (m1, m2)
    params: dict
    tolerance: float
    moment_error: float = field(default=0.0, init=False)   # measured by plane_rule
    _bary: dict = field(default_factory=dict, init=False, repr=False)

    def integrate(self, values) -> complex:
        return complex(compensated_sum(self.weights * np.asarray(values)))

    def compatible(self, other: "PlaneRule") -> bool:
        return self.dimension == other.dimension and self.params == other.params

    def barycentric(self, axis: str) -> np.ndarray:
        if axis not in self._bary:
            nodes = self.radial_nodes if axis == "radial" else self.theta_nodes
            self._bary[axis] = _barycentric_weights(nodes)
        return self._bary[axis]


def plane_rule(dimension: int,
               extent: float = 12.0,
               radial_points: int = 64,
               angular_points: int = 256,
               sphere3_orders: tuple[int, int, int] = (16, 32, 32),
               tolerance: float = 1e-9) -> PlaneRule:
    """Build the polar plane rule and run the Gaussian moment self-check.

    Raises QuadratureError with a diagnostic if the achieved error on
    ``int exp(-|z|^2/2) dz`` exceeds ``tolerance`` (for example when the
    extent truncates the Gaussian or the radial order is too low).
    """
    if dimension not in (1, 2):
        raise ValueError("plane rules implemented for n in {1, 2}")
    if extent <= 0:
        raise ValueError("extent must be positive")
    n = dimension
    r, wr = gauss_legendre(radial_points, 0.0, extent)
    # the unit rule built for this grid alone, not kept with the mean
    # tables' cached rules: a plane grid is mostly built once
    sph = _build_unit_rule(n, (angular_points,) if n == 1 else tuple(sphere3_orders))
    # the moment check below reads the radial nodes, not the nodes, so the
    # unit rule's nodes are checked here: on the unit sphere, weights sum 1
    sph.validate()
    nodes = (r[:, None, None] * sph.nodes[None, :, :]).reshape(-1, n)
    weights = (wr * r ** (2 * n - 1))[:, None] * (sphere_surface_area(n) * sph.weights)[None, :]
    if n == 1:
        theta_nodes, angular = None, {"angular_points": angular_points}
    else:
        theta_nodes = gauss_legendre(sphere3_orders[0], 0.0, 0.5 * np.pi)[0]
        angular = {"sphere3_orders": tuple(sphere3_orders)}
    angular_counts = tuple(s.shape[1] for s in sph.slot_nodes)
    # (radius, [inclination,] phase per slot)
    shape = (radial_points,) + np.shape(theta_nodes) + angular_counts
    params = {"dimension": n, "extent": extent, "radial_points": radial_points,
              **angular, "tolerance": tolerance}
    rule = PlaneRule(n, extent, np.ascontiguousarray(nodes), weights.ravel(), shape, r,
                     theta_nodes, angular_counts, params, tolerance)
    # every node's |z| is its radial node (the nodes are radius-major), so
    # the Gaussian is read once per radius, against that radius's weight sum
    got = float(compensated_sum(np.exp(-0.5 * r * r) * compensated_sum(weights, axis=1)))
    # Gaussian moment restricted to the rule's own disk, so small-extent
    # rules (compactly supported work) are checked fairly: with x = E^2/2,
    # (2 pi)^n (1 - e^(-x) sum_(j<n) x^j / j!)
    x = 0.5 * extent ** 2
    exact = (2.0 * np.pi) ** n * (1.0 - math.exp(-x) * sum(x ** j / math.factorial(j)
                                                          for j in range(n)))
    rule.moment_error = abs(got - exact) / exact
    if rule.moment_error > tolerance:
        raise QuadratureError(
            f"plane rule failed the Gaussian moment check: relative error "
            f"{rule.moment_error:.3e} > tolerance {tolerance:.1e} "
            f"(extent={extent}, radial_points={radial_points})")
    return rule


def plane_rule_from_params(params: dict) -> PlaneRule:
    """Rebuild a plane rule from its serialized parameter dict."""
    p = dict(params)
    dim = p.pop("dimension")
    if "sphere3_orders" in p:
        p["sphere3_orders"] = tuple(p["sphere3_orders"])
    return plane_rule(dim, **p)
