"""Shared fixtures and the projection oracles. Heavy grids are
session-scoped so the suite builds each one exactly once."""

import numpy as np
import pytest

from tsmlab.fields import SampledField
from tsmlab.quadrature import plane_rule
from tsmlab.special_functions import LaguerreSpec, laguerre_function
from tsmlab.constants import TWIST_SIGN
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


def nested_piece_values(f, k, targets, slot):
    """Oracle for the C^2 tensor pieces of Q_k f: all (b1, b2 = k - b1)
    pieces at the targets, (T, k+1) complex.

    The w form slot by slot: f's closed form read at (z1 - w1, z2 - w2)
    for every pair of nodes of the C rule ``slot``, against phi_b sampled
    on it, as two nested twisted convolutions.  The library samples f once
    and uses the closed-form u-form kernel instead.
    """
    w = slot.nodes[:, 0]
    u = slot.weights
    lag = np.stack([laguerre_function(LaguerreSpec(b, 0), np.abs(w))
                    for b in range(k + 1)], axis=0) * u[None, :]   # (k+1, S)
    targets = np.asarray(targets, dtype=complex).reshape(-1, 2)
    S = w.shape[0]
    out = np.empty((targets.shape[0], k + 1), dtype=complex)
    chunk = max(1, int(3_000_000 // (S * S)) or 1)
    for s in range(0, targets.shape[0], chunk):
        zc = targets[s:s + chunk]
        c = zc.shape[0]
        p1 = zc[:, 0][:, None] - w[None, :]            # (c, S)
        p2 = zc[:, 1][:, None] - w[None, :]
        pairs = np.empty((c, S, S, 2), dtype=complex)
        pairs[..., 0] = p1[:, :, None]
        pairs[..., 1] = p2[:, None, :]
        F = f.evaluate(pairs.reshape(-1, 2)).reshape(c, S, S)
        tw1 = np.exp(0.5j * TWIST_SIGN * (zc[:, 0][:, None] * np.conj(w)[None, :]).imag)
        tw2 = np.exp(0.5j * TWIST_SIGN * (zc[:, 1][:, None] * np.conj(w)[None, :]).imag)
        inner = np.einsum("cij,bj,cj->cib", F, lag, tw2)      # slot-2 conv
        allp = np.einsum("cib,ai,ci->cab", inner, lag, tw1)   # slot-1 conv
        for b1 in range(k + 1):
            out[s:s + chunk, b1] = allp[:, b1, k - b1]
    return out


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
