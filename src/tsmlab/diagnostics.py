"""Finite-difference residual check for the degreewise eigen-relation.

On radial profiles g(rho) the oscillator

    A g = -g'' - (2n-1)/rho g' + rho^2/4 g

satisfies A phi_k = (2k + n) phi_k.
"""

from __future__ import annotations

import numpy as np

__all__ = ["radial_operator_residual"]

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
