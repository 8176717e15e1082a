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

The circular mean is the twisted spherical mean on C with the twist set
to 1 (w -> -w maps the circle onto itself), so every circular mean comes
from ``twisted_transforms.twisted_mean_table`` with ``twist=False``:
``euclidean_mean_table`` is that table on ``CIRCLE_POINTS`` circle nodes
and ``circular_mean`` its 1 x 1 case.  Fields here speak the table's
point protocol, (..., 1) complex points of the plane.  The odd
counterexample is a real ``fields.SampledField`` that declares
``support_radius`` 1; a field or basis that declares a support R is 0
outside the disk |z| <= R by that declaration: a circle about x of
radius r with ||x| - r| >= R misses the disk, its mean is 0, and the
table does not read it.
Sector basis columns come only from ``EuclideanSectorBasis.matrix``: the
basis holds (kind, order, support radius) arrays, one entry per column,
and ``euclidean_sector_basis`` builds it.

The angular sector odd across all of Sigma_N is spanned by sin(s theta)
with N | s; the counterexample occupies the lowest rung s = N.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .fields import SampledField
from .ioutil import fmt, write_csv
from .quadrature import PlaneRule, _integer, plane_rule
from .twisted_transforms import twisted_mean_table

CIRCLE_POINTS = 240      # a reflection across Sigma_N pairs these nodes when N | 240

__all__ = [
    "EuclideanSectorBasis", "bump_profile", "circular_mean",
    "euclidean_mean_table", "write_mean_table", "coxeter_odd_counterexample",
    "euclidean_sector_basis", "CIRCLE_POINTS",
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


class EuclideanSectorBasis:
    """(radial bump) x (Fourier mode) columns bump(rho; R) (rho/R)^s trig(s theta):
    column j has kind ``kinds[j]`` (trig sin or cos), angular order
    ``orders[j]`` and support radius ``support_radii[j]``, held as three
    arrays.  A field of the mean tables' point protocol whose ``evaluate``
    is its ``matrix``, one value per column, 0 outside ``support_radius``."""

    engine = "euclidean"
    dimension = 1

    def __init__(self, kinds, orders, support_radii):
        kinds, orders, radii = list(kinds), list(orders), list(support_radii)
        if not kinds:
            raise ValueError("empty basis")
        if not len(kinds) == len(orders) == len(radii):
            raise ValueError("need one kind, order and support radius per column")
        for kind in kinds:
            if kind not in ("sin", "cos"):
                raise ValueError(f"unknown sector kind {kind!r}")
        self.kinds = np.asarray(kinds)
        self.orders = np.asarray([_integer(s, "angular order", None) for s in orders],
                                 dtype=int)
        self.support_radii = np.asarray(radii, dtype=float)
        if np.any((self.orders < 0) | ((self.kinds == "sin") & (self.orders == 0))):
            raise ValueError("bad angular order")
        bad = ~(np.isfinite(self.support_radii) & (self.support_radii > 0))
        if bad.any():
            raise ValueError(f"support radius must be positive and finite, "
                             f"got {radii[np.argmax(bad)]}")
        # per support radius, ascending: its columns, their orders, which are
        # sin columns, and the exponents 0 .. top order of its power table
        self._groups = []
        # grouped through the inverse: np.unique with no return arrays imports numpy.ma
        radii, group = np.unique(self.support_radii, return_inverse=True)
        for g, R in enumerate(radii):
            cols = np.flatnonzero(group == g)
            self._groups.append((R, cols, self.orders[cols], self.kinds[cols, None] == "sin",
                                 np.arange(self.orders[cols].max() + 1)[:, None]))

    @property
    def ncols(self) -> int:
        return self.orders.size

    @property
    def labels(self) -> list[str]:
        return [f"{kind}{s}_R{R:g}"
                for kind, s, R in zip(self.kinds, self.orders, self.support_radii)]

    @property
    def support_radius(self) -> float:
        """The largest column support: every column is 0 outside it."""
        return float(self.support_radii.max())

    def matrix(self, points: np.ndarray) -> np.ndarray:
        """bump(rho; R) (z/R)^s, imaginary part for sin and real part for
        cos columns: (points, ncols) float, 0 outside each support.

        Per support radius, ascending, over the points inside rho < R: one
        bump read and one ``np.power`` table of (z/R)^s, s = 0 .. the
        largest order there, in one call; the radius's columns, the bump
        times the real or imaginary part of their rows, are written
        together as rows of the transposed result (the matrix is returned
        in Fortran order, each column contiguous, the layout the mean
        table sums)."""
        pts = np.asarray(points, dtype=complex).reshape(-1)
        rho = np.abs(pts)
        out = np.zeros((self.ncols, pts.shape[0]))
        for R, cols, orders, sin, exponents in self._groups:
            inside = np.flatnonzero(rho < R)
            rungs = np.power(pts[inside] / R, exponents)[orders]
            out[cols[:, None], inside] = bump_profile(R)(rho[inside]) * np.where(
                sin, rungs.imag, rungs.real)
        return out.T

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """The basis read as a field of the mean tables: its ``matrix``."""
        return self.matrix(points)

    def index_of(self, kind: str, order: int, support_radius: float) -> int:
        hit = np.flatnonzero((self.kinds == kind) & (self.orders == order)
                             & (np.abs(self.support_radii - support_radius) < 1e-12))
        if not hit.size:
            raise KeyError(f"no basis element {kind}{order} at R={support_radius}")
        return int(hit[0])


def euclidean_mean_table(f, centers, radii) -> np.ndarray:
    """Circular means M_r f(x) for every center (rows, complex points of the
    plane, (C,) or (C, 1)) and radius (columns): (C, R), or (C, R, V) when
    f returns (P, V).  The untwisted ``twisted_mean_table`` on
    ``CIRCLE_POINTS`` circle nodes, which reads only the circles that meet
    a declared ``support_radius``; real values give a real table."""
    centers = np.asarray(centers, dtype=complex)
    if centers.ndim == 1:
        centers = centers[:, None]
    return twisted_mean_table(f, centers, radii, m=CIRCLE_POINTS, twist=False)


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


def coxeter_odd_counterexample(n_lines: int) -> SampledField:
    """The compactly supported field g(|x|) Im((x1+ix2)^N), odd across every
    line of Sigma_N, whose circular means vanish at all centers on Sigma_N:
    g the unit ``bump_profile``, sampled on the polar rule of extent 2 as a
    real field that declares support radius 1.

    That 48 x 240 grid does not resolve the bump's edge (exp(-1/(1 - rho^2))
    is not analytic at rho = 1): a sample-only read, such as the field's CSV
    import, is off by up to about 5e-3 of the peak, far above the ~1e-8
    interpolation budget of ``fields``.  The closed form has no such error,
    and the Sigma_N certificate on the lines is unaffected: odd samples
    interpolate to an odd field."""
    if n_lines < 1:
        raise ValueError("need at least one line")
    g = bump_profile()
    N = int(n_lines)

    def f(p):
        z = np.asarray(p, dtype=complex)[:, 0]
        return g(np.abs(z)) * np.imag(z ** N)

    rule = plane_rule(1, extent=2.0, radial_points=48, angular_points=CIRCLE_POINTS)
    return SampledField(rule, f(rule.nodes), f, f"odd_sigma{N}", support_radius=1.0)


def euclidean_sector_basis(max_order: int,
                           support_radii=(1.0, 0.6),
                           orders: list[int] | None = None,
                           kinds=("sin", "cos")) -> EuclideanSectorBasis:
    """Basis (radial bumps) x (Fourier modes): all requested orders at each
    support radius, radius-major, then order, then kind.  Restrict
    ``orders``/``kinds`` to carve out a sector, e.g. the one odd across
    every line of Sigma_N: orders=range(N, K + 1, N), kinds=("sin",)."""
    if orders is None:
        orders = list(range(0, max_order + 1))
    columns = [(kind, s, R) for R in support_radii for s in orders for kind in kinds
               if not (kind == "sin" and s == 0)]
    for _, s, _ in columns:
        if s > max_order:
            raise ValueError(f"order {s} above max_order {max_order}")
    return EuclideanSectorBasis(*(zip(*columns) if columns else ((), (), ())))
