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
Sector basis columns come only from ``injectivity_lab.EuclideanSectorBasis``
``.matrix``; ``SectorBasisFunction`` names a column and holds no evaluator.

The angular sector odd across all of Sigma_N is spanned by sin(s theta)
with N | s; the counterexample occupies the lowest rung s = N.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import SampledField
from .ioutil import fmt, write_csv
from .quadrature import PlaneRule, plane_rule
from .twisted_transforms import twisted_mean_table

CIRCLE_POINTS = 240      # divisible by 1..6: reflection pairs nodes exactly

__all__ = [
    "SectorBasisFunction", "bump_profile", "circular_mean",
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
        if not isinstance(self.order, numbers.Integral):
            raise ValueError(f"angular order must be an integer, got {self.order!r}")
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
