"""Shared fixtures and the projection oracle. Heavy grids are
session-scoped so the suite builds each one exactly once."""

import numpy as np
import pytest

from tsmlab.fields import SampledField
from tsmlab.quadrature import plane_rule
from tsmlab.special_functions import LaguerreSpec, laguerre_function
from tsmlab.twisted_transforms import convolution_values


def direct_projection_values(f, k, targets):
    """Oracle for Q_k f = f x phi_k at arbitrary targets: the w form,
    reading f's closed form at z - w against phi_k sampled on f's grid.

    The library sums the u form over f's samples instead; this quadrature
    shares neither the kernel nor the samples with it.  It cuts phi_k off
    at the grid edge, so at high degree on small grids it is the less
    accurate of the two.
    """
    spec = LaguerreSpec(k, f.rule.dimension - 1)
    fn = lambda pts: laguerre_function(spec, np.linalg.norm(pts, axis=-1)).astype(complex)
    return convolution_values(f, SampledField.from_function(fn, f.rule, name=f"phi_{k}"),
                              targets)


@pytest.fixture(scope="session")
def rule_c1():
    # the default working grid on C
    return plane_rule(1, extent=12.0, radial_points=64, angular_points=256)


@pytest.fixture(scope="session")
def rule_c1_small():
    # cheap grid for tests that only need moderate accuracy
    return plane_rule(1, extent=10.0, radial_points=40, angular_points=128)


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
