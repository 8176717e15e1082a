"""Finite-difference residual checks for the degreewise eigen-relations.

Two operators matter here.  On radial profiles g(rho) the oscillator

    A g = -g'' - (2n-1)/rho g' + rho^2/4 g

satisfies A phi_k = (2k + n) phi_k.  A general degree-k projection is not
radial, and A alone does not transport the eigenvalue; the full operator

    L f = -Lap f + |z|^2/4 f - i sum_j (x_j d/dy_j - y_j d/dx_j) f

does: L (Q_k f) = (2k + n) (Q_k f).  The rotation term's sign is pinned by
the twist convention (the basis member phi_(a,b) carries angular momentum
b - a and satisfies -i N phi = (a - b) phi with N the rotation generator).
"""

from __future__ import annotations

import numpy as np

__all__ = ["radial_operator_residual", "transport_residual"]

# 8th-order central stencils on a uniform grid
_D1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0,
                4 / 5, -1 / 5, 4 / 105, -1 / 280])
_D2 = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72,
                8 / 5, -1 / 5, 8 / 315, -1 / 560])


def radial_operator_residual(fn, n: int, eigenvalue: float) -> float:
    """Max relative residual of (A - eigenvalue) fn over the probe radii,
    45 equispaced on [0.5, 6] (away from the rho = 0 coordinate
    singularity), with 8th-order stencils of step 1e-2.

    ``fn`` maps a float array of radii to values.
    """
    rho, h = np.linspace(0.5, 6.0, 45), 1e-2
    offsets = (np.arange(-4, 5) * h)[None, :]
    grid = rho[:, None] + offsets
    vals = np.asarray(fn(grid.ravel())).reshape(grid.shape)
    d1 = vals @ _D1 / h
    d2 = vals @ _D2 / h ** 2
    center = vals[:, 4]
    applied = -d2 - (2 * n - 1) / rho * d1 + 0.25 * rho ** 2 * center
    scale = float(np.max(np.abs(center)))
    if scale == 0.0:
        return float("inf")
    return float(np.max(np.abs(applied - eigenvalue * center)) / scale)


def transport_residual(value_fn, n: int, eigenvalue: float, points) -> float:
    """Max relative residual of (L - eigenvalue) at the probe points.

    ``value_fn`` maps an (M, n) complex array to (M,) complex values; it is
    typically an exact projection evaluator, so 4th-order stencils at a
    moderate step h = 0.05 keep the FD truncation below quadrature noise.
    """
    h = 0.05
    points = np.asarray(points, dtype=complex).reshape(-1, n)
    m = points.shape[0]
    # batch all stencil evaluations: per point, per real axis (2n of them),
    # offsets -2h..2h excluding 0, plus the center once
    axes = []
    for j in range(n):
        for part in (1.0, 1j):
            e = np.zeros(n, dtype=complex)
            e[j] = part
            axes.append(e)
    offs = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    batch = [points]
    for e in axes:
        for o in offs:
            batch.append(points + o * e[None, :])
    vals = np.asarray(value_fn(np.concatenate(batch, axis=0)))
    center = vals[:m]
    shifted = vals[m:].reshape(len(axes), 4, m)

    lap = np.zeros(m, dtype=complex)
    rot = np.zeros(m, dtype=complex)
    d1 = {}
    for a, e in enumerate(axes):
        f_m2, f_m1, f_p1, f_p2 = shifted[a]
        lap += (-f_m2 + 16 * f_m1 - 30 * center + 16 * f_p1 - f_p2) / (12 * h ** 2)
        d1[a] = (f_m2 - 8 * f_m1 + 8 * f_p1 - f_p2) / (12 * h)
    for j in range(n):
        x = points[:, j].real
        y = points[:, j].imag
        rot += x * d1[2 * j + 1] - y * d1[2 * j]
    r2 = np.sum(np.abs(points) ** 2, axis=1)
    applied = -lap + 0.25 * r2 * center - 1j * rot
    scale = float(np.max(np.abs(center)))
    if scale == 0.0:
        return float("inf")
    return float(np.max(np.abs(applied - eigenvalue * center)) / scale)
