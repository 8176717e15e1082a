"""Finite-difference residuals for the harmonic-oscillator-type operator."""

import pytest

from tsmlab.diagnostics import radial_operator_residual
from tsmlab.special_functions import LaguerreSpec, laguerre_function


def _radial_fn(n, k):
    return lambda rho: laguerre_function(LaguerreSpec(k, n - 1), rho)


@pytest.mark.parametrize("n,k", [(1, 0), (1, 3), (2, 2), (2, 5)])
def test_eigen_residual_small_for_true_pairs(n, k):
    res = radial_operator_residual(_radial_fn(n, k), n, 2 * k + n)
    assert res < 1e-6


def test_eigen_residual_large_for_wrong_eigenvalue():
    # teeth: an off-by-two eigenvalue must light up
    res = radial_operator_residual(_radial_fn(1, 3), 1, 2 * 3 + 1 + 2)
    assert res > 1e-2

