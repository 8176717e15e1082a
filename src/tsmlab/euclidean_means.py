"""Plain (untwisted) circular means on R^2 and the odd-function
counterexamples that defeat them.

The plane is coordinatized as C: a point x = (x1, x2) is the complex
number x1 + i x2.  The circular mean is the average

    M_r f(x) = (1/2pi) int_0^2pi f(x + r e^(i theta)) dtheta,

with no phase weight.  A function that is odd across a line L has zero
mean on every circle centered on L (the reflection fixing the circle
negates the integrand), so the union Sigma_N of N concurrent lines at
angles pi l / N never determines compactly supported functions: the field

    f(x) = g(|x|) Im((x1 + i x2)^N)  =  g(rho) rho^N sin(N theta)

is odd across every line of Sigma_N yet not identically zero.

Every circular mean comes from ``euclidean_mean_table`` (centers x radii,
each radius's circle nodes built once); ``circular_mean`` is its 1 x 1 case
and the euclidean sampling operator its table of the basis matrix.  Every
field here is compactly supported, and a field or basis that declares
``support_radius`` R is 0 outside the disk |z| <= R by that declaration: a
circle about x of radius r with ||x| - r| >= R misses the disk, its mean is
0, and the table does not read it.
Sector basis columns come only from ``injectivity_lab.EuclideanSectorBasis``
``.matrix``; ``SectorBasisFunction`` names a column and holds no evaluator.

The angular sector odd across all of Sigma_N is spanned by sin(s theta)
with N | s; the counterexample occupies the lowest rung s = N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import FieldDomainError
from .fields import interpolate_on_rule
from .ioutil import fmt, write_csv
from .quadrature import PlaneRule, circle_rule, compensated_sum, plane_rule

CIRCLE_POINTS = 240      # divisible by 1..6: reflection pairs nodes exactly

__all__ = [
    "EuclideanField", "SectorBasisFunction", "bump_profile", "circular_mean",
    "euclidean_mean_table", "write_mean_table", "coxeter_odd_counterexample",
    "coxeter_odd_orders", "euclidean_sector_basis", "CIRCLE_POINTS",
]


def bump_profile(support_radius: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth bump rho -> exp(-1/(1-(rho/R)^2)) inside rho < R, 0 outside."""
    R = float(support_radius)
    if R <= 0:
        raise ValueError("support radius must be positive")

    def g(rho):
        rho = np.asarray(rho, dtype=float)
        out = np.zeros_like(rho)
        inside = np.abs(rho) < R
        t = (rho[inside] / R) ** 2
        out[inside] = np.exp(-1.0 / (1.0 - t))
        return out

    return g


@dataclass(frozen=True)
class EuclideanField:
    """Real-valued field on R^2 sampled on a polar grid.

    ``support_radius`` R declares the compact numerical support: the field
    is 0 at every |z| > R.  Construction rejects samples above 1e-12 of
    the peak outside R (1 + 1e-12); smaller ones are accepted, and
    ``evaluate`` returns 0 past that radius for a field without an
    evaluator.  ``euclidean_mean_table`` reads no circle that misses the
    disk, so a mean there is 0 with an evaluator too, even one that leaks
    past R.
    """
    rule: PlaneRule
    values: np.ndarray
    support_radius: float
    evaluator: Callable | None = None
    name: str = ""
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rule.dimension != 1:
            raise ValueError("Euclidean fields live on the plane (rule dimension 1)")
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.rule.nodes.shape[0],):
            raise ValueError("one sample per grid node required")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field samples must be finite")
        if not self.support_radius > 0:
            raise ValueError("support radius must be positive")
        r = np.abs(self.rule.nodes[:, 0])
        outside = r > self.support_radius * (1 + 1e-12)
        peak = float(np.max(np.abs(vals))) if vals.size else 0.0
        if peak > 0 and outside.any():
            tail = float(np.max(np.abs(vals[outside])))
            if tail > 1e-12 * peak:
                raise ValueError(
                    f"samples reach {tail:.2e} outside the declared support "
                    f"radius {self.support_radius} (peak {peak:.2e})")

    @classmethod
    def from_function(cls, fn, rule: PlaneRule, support_radius: float,
                      name: str = "") -> "EuclideanField":
        vals = np.asarray(fn(rule.nodes[:, 0]), dtype=float)
        return cls(rule, vals, support_radius, evaluator=fn, name=name)

    def evaluate(self, points) -> np.ndarray:
        """Values at complex plane points (any shape)."""
        pts = np.asarray(points, dtype=complex)
        flat = pts.reshape(-1)
        if self.evaluator is not None:
            out = np.asarray(self.evaluator(flat), dtype=float)
        else:
            # outside the support the field is zero by declaration, so only
            # reads in the grid-to-support gap are genuinely undefined
            out = np.zeros(flat.shape[0], dtype=float)
            r = np.abs(flat)
            inside = r <= self.support_radius * (1 + 1e-12)
            if inside.any():
                if np.any(r[inside] > self.rule.extent * (1 + 1e-12)):
                    bad = flat[inside][r[inside] > self.rule.extent * (1 + 1e-12)]
                    raise FieldDomainError(
                        "circular mean reads inside the declared support but "
                        "off the grid", points=bad[:8])
                out[inside] = interpolate_on_rule(
                    self.rule, self.values, flat[inside, None],
                    cache=self._cache).real
        return out.reshape(pts.shape)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def scaled(self, a: float) -> "EuclideanField":
        ev = None if self.evaluator is None else \
            (lambda p, _e=self.evaluator, _a=a: _a * np.asarray(_e(p)))
        return EuclideanField(self.rule, a * self.values, self.support_radius,
                              ev, name=self.name)


# points per f.evaluate call in a mean table: 24 circles of 240 nodes.  A
# 42-column sector basis read of this size is 1.9 MB; on a Xeon with 2 MB
# of L2 per core, both tables of the default euclidean probe ran fastest at
# this size among blocks of 1440 to 8192 points (52 ms against 58 ms)
_MEAN_POINTS = 5760


def euclidean_mean_table(f, centers, radii, m: int = CIRCLE_POINTS) -> np.ndarray:
    """Circular means M_r f(x) for every center (rows, complex points of the
    plane) and radius (columns): (C, R) float.

    Any object with an ``evaluate`` accepting P complex points works; if it
    returns (P, V) the table is (C, R, V), column v field v's to round-off
    (numpy sums one field's circle pairwise, V fields' node by node).  V is
    learnt from one read of no points.  Each radius's ``circle_rule`` is
    built once per call; f is read over blocks of (center, circle) pairs,
    center-major, at most ``_MEAN_POINTS`` points each.  r = 0 columns hold
    f(x), read at every center.

    An object that declares ``support_radius`` R says it is 0 at every
    |z| > R.  Only the circles with ||x| - r| < R (1 + 1e-9) can meet that
    disk, so only they are read; every other entry is +0.0, what the sum of
    their zero node values gives.  A circle that is read sums its m node
    values in the same order as without the declaration, so its mean is
    the same bit for bit whenever f's value at a point does not depend on
    how many points one read holds.  The 1e-9 margin exceeds the node
    round-off and the 1e-12 slack of ``EuclideanField``, so no node that
    may be nonzero is skipped.  Without the attribute every circle is read.
    """
    centers = np.asarray(centers, dtype=complex)
    if centers.ndim > 1 and centers.shape[1:] != (1,):
        raise ValueError(f"centers must be complex points of the plane, "
                         f"got shape {centers.shape}")
    centers = centers.reshape(-1)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if np.any(radii < 0):
        raise ValueError(f"radius must be >= 0, got {radii.min()}")
    support = getattr(f, "support_radius", np.inf)
    if not support > 0:
        raise ValueError(f"support radius must be positive, got {support}")
    tail = np.shape(np.real(f.evaluate(np.empty(0, dtype=complex))))[1:]
    out = np.zeros(centers.shape + radii.shape + tail)

    at_zero = radii == 0.0
    if at_zero.any():
        out[:, at_zero] = np.real(f.evaluate(centers))[:, None]
    on = np.flatnonzero(~at_zero)
    if on.size:
        ring = np.stack([circle_rule(r, m).nodes[:, 0] for r in radii[on]])   # (R, m)
        rows, cols = np.nonzero(np.abs(np.abs(centers)[:, None] - radii[on])
                                < support * (1 + 1e-9))
        block = max(1, _MEAN_POINTS // m)
        for s in range(0, rows.size, block):
            j, i = rows[s:s + block], cols[s:s + block]
            vals = np.real(f.evaluate((centers[j, None] + ring[i]).reshape(-1)))
            vals = vals.reshape((-1, m) + vals.shape[1:])
            out[j, on[i]] = compensated_sum(vals, axis=1) / m
    return out


def circular_mean(f, x, r: float) -> float:
    """Average of f over the circle of radius r about x (a complex point):
    the 1 x 1 ``euclidean_mean_table``.  r = 0 degenerates to f(x)."""
    return float(euclidean_mean_table(f, [x], [r])[0, 0])


def write_mean_table(path, centers, radii, table) -> None:
    centers = np.asarray(centers, dtype=complex).reshape(-1)
    radii = np.asarray(radii, dtype=float)
    rows = []
    for j, c in enumerate(centers):
        for i, r in enumerate(radii):
            rows.append([fmt(c.real), fmt(c.imag), fmt(r), fmt(table[j, i])])
    write_csv(path, ["re_center", "im_center", "r", "mean"], rows)


def coxeter_odd_counterexample(n_lines: int) -> EuclideanField:
    """The compactly supported field g(|x|) Im((x1+ix2)^N), odd across every
    line of Sigma_N, whose circular means vanish at all centers on Sigma_N:
    g the unit ``bump_profile``, support radius 1, sampled on the polar
    rule of extent 2."""
    if n_lines < 1:
        raise ValueError("need at least one line")
    g = bump_profile()
    N = int(n_lines)

    def f(p):
        p = np.asarray(p, dtype=complex)
        return g(np.abs(p)) * np.imag(p ** N)

    rule = plane_rule(1, extent=2.0, radial_points=48, angular_points=CIRCLE_POINTS)
    return EuclideanField.from_function(f, rule, 1.0, name=f"odd_sigma{N}")


def coxeter_odd_orders(n_lines: int, max_order: int) -> list[int]:
    """Angular orders s with sin(s theta) odd across every line of Sigma_N:
    exactly the multiples of N."""
    return [s for s in range(1, max_order + 1) if s % n_lines == 0]


@dataclass(frozen=True)
class SectorBasisFunction:
    """One (radial bump) x (Fourier mode) basis element for the Euclidean
    sampling operator: bump(rho; R) (rho/R)^s trig(s theta).

    A record only: its values come from ``EuclideanSectorBasis.matrix``,
    which builds every column of a basis together."""
    kind: str              # "sin" | "cos"
    order: int
    support_radius: float

    def __post_init__(self):
        if self.kind not in ("sin", "cos"):
            raise ValueError(f"unknown sector kind {self.kind!r}")
        if self.order < 0 or (self.kind == "sin" and self.order == 0):
            raise ValueError("bad angular order")
        if not (math.isfinite(self.support_radius) and self.support_radius > 0):
            raise ValueError(f"support radius must be positive and finite, "
                             f"got {self.support_radius}")

    @property
    def name(self) -> str:
        return f"{self.kind}{self.order}_R{self.support_radius:g}"


def euclidean_sector_basis(max_order: int,
                           support_radii=(1.0, 0.6),
                           orders: list[int] | None = None,
                           kinds=("sin", "cos")) -> list[SectorBasisFunction]:
    """Basis (radial bumps) x (Fourier modes): all requested orders at each
    support radius.  Restrict ``orders``/``kinds`` to carve out a sector,
    e.g. orders=coxeter_odd_orders(N, K), kinds=("sin",)."""
    if orders is None:
        orders = list(range(0, max_order + 1))
    out = []
    for R in support_radii:
        for s in orders:
            for kind in kinds:
                if kind == "sin" and s == 0:
                    continue
                if s > max_order:
                    raise ValueError(f"order {s} above max_order {max_order}")
                out.append(SectorBasisFunction(kind, s, R))
    return out
