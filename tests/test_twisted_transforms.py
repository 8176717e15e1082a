"""Twisted means, convolutions, and spectral projections.

The module-level identities here are the working core: the radial product
rule, expansion orthogonality, translate covariance, and the polar bridge.
Each is checked well below its documented tolerance so acceptance-level
drift shows up here first.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import direct_projection_values, nested_piece_values
from tsmlab.constants import sphere_surface_area
from tsmlab.errors import (FieldDomainError, GridMismatchError,
                           TranslateTailWarning, TruncationTailWarning)
from tsmlab.fields import SampledField
from tsmlab.quadrature import circle_rule, plane_rule, radial_rule
from tsmlab.special_functions import (LaguerreSpec, laguerre_function,
                                      radial_eigenfunction_origin,
                                      special_hermite_basis,
                                      SpecialHermiteIndex)
from tsmlab.twisted_transforms import (convolution_values, mean_profile,
                                       polar_bridge, projection_values,
                                       spectral_projection,
                                       spectral_projections,
                                       special_hermite_coefficients,
                                       special_hermite_truncation,
                                       tensor_decompose_projection,
                                       twist_phase, twisted_convolution,
                                       twisted_spherical_mean,
                                       twisted_translate)


def _phi_field(rule, k):
    spec = LaguerreSpec(k, rule.dimension - 1)
    return SampledField.from_function(
        lambda p: laguerre_function(spec, np.linalg.norm(p, axis=1)).astype(complex),
        rule, name=f"phi{k}")


def test_twist_phase_structure():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    w = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    ph = twist_phase(z, w)
    assert np.allclose(np.abs(ph), 1.0)
    assert np.allclose(twist_phase(w, z), np.conj(ph))   # antisymmetric exponent
    assert np.allclose(twist_phase(z, z), 1.0)


def test_mean_at_radius_zero_is_evaluation(gauss_field):
    z = np.array([0.7 - 0.2j])
    assert twisted_spherical_mean(gauss_field, z, 0.0) == pytest.approx(
        complex(gauss_field.evaluate(z[None, :])[0]))


def test_mean_input_validation(gauss_field):
    with pytest.raises(ValueError, match=">= 0"):
        twisted_spherical_mean(gauss_field, np.array([0j]), -1.0)
    with pytest.raises(ValueError, match="center"):
        twisted_spherical_mean(gauss_field, np.array([0j, 0j]), 1.0)
    with pytest.raises(ValueError, match="radius disagrees"):
        twisted_spherical_mean(gauss_field, np.array([0j]), 1.0,
                               rule=circle_rule(2.0, 64))


def test_mean_small_radius_continuity(gauss_field):
    z = np.array([0.5 + 0.5j])
    f0 = complex(gauss_field.evaluate(z[None, :])[0])
    drift = abs(twisted_spherical_mean(gauss_field, z, 1e-5) - f0)
    assert drift < 1e-9


def test_mean_is_linear(rule_c1_small):
    f = _phi_field(rule_c1_small, 0)
    g = _phi_field(rule_c1_small, 2)
    z = np.array([0.9 + 0.1j])
    lhs = twisted_spherical_mean(f + g.scaled(2.5j), z, 1.4)
    rhs = (twisted_spherical_mean(f, z, 1.4)
           + 2.5j * twisted_spherical_mean(g, z, 1.4))
    assert abs(lhs - rhs) < 1e-14


@pytest.mark.parametrize("n", [1, 2])
def test_product_relation(n, probe_targets):
    """phi_k x mu_r(z) = B(n,k) phi_k(r) phi_k(|z|) with
    B(n,k) = k! (n-1)! / (k+n-1)!."""
    if n == 1:
        rule = plane_rule(1, extent=12.0, radial_points=48, angular_points=160)
        centers = probe_targets
        ks = range(7)
    else:
        rule = plane_rule(2, extent=10.0, radial_points=32,
                          sphere3_orders=(10, 20, 20))
        centers = np.array([[0.5 + 0.2j, -0.4 + 0.6j],
                            [1.2 - 0.3j, 0.8 + 0.9j]])
        ks = range(4)
    radii = [0.6, 1.5, 2.8]
    for k in ks:
        f = _phi_field(rule, k)
        spec = LaguerreSpec(k, n - 1)
        B = 1.0 / radial_eigenfunction_origin(n, k)
        for z in centers:
            for r in radii:
                lhs = twisted_spherical_mean(f, z, r)
                ref = B * laguerre_function(spec, np.array([r]))[0] \
                    * laguerre_function(spec, np.array([np.linalg.norm(z)]))[0]
                assert abs(lhs - ref) <= 1e-10 * (1.0 + abs(ref))


def test_projection_of_radial_field_is_radial(gauss_field):
    z0 = 1.1
    pts = np.array([[z0 * np.exp(1j * t)] for t in np.linspace(0, 2 * np.pi, 7)])
    vals = projection_values(gauss_field, 2, pts)
    assert np.max(np.abs(vals - vals[0])) < 1e-12 * max(1.0, abs(vals[0]))


def test_expansion_constant_phi0(rule_c1_small, probe_targets):
    # phi_0 x phi_0 = 2 pi phi_0: the normalization everything hangs on
    f = _phi_field(rule_c1_small, 0)
    got = convolution_values(f, f, probe_targets)
    ref = 2.0 * np.pi * laguerre_function(
        LaguerreSpec(0, 0), np.abs(probe_targets[:, 0]))
    assert np.max(np.abs(got - ref)) < 1e-12


def test_projection_orthogonality(rule_c1_small, probe_targets):
    """phi_k x phi_m = 2 pi delta_km phi_k on C (k, m <= 2 here; acceptance
    covers <= 4)."""
    for k in range(3):
        fk = _phi_field(rule_c1_small, k)
        for m in range(3):
            fm = _phi_field(rule_c1_small, m)
            got = convolution_values(fk, fm, probe_targets)
            if k == m:
                ref = 2.0 * np.pi * laguerre_function(
                    LaguerreSpec(k, 0), np.abs(probe_targets[:, 0]))
            else:
                ref = np.zeros(probe_targets.shape[0], dtype=complex)
            assert np.max(np.abs(got - ref)) < 1e-10


def test_convolution_requires_compatible_rules(rule_c1_small, gauss_field):
    f = _phi_field(rule_c1_small, 0)
    with pytest.raises(GridMismatchError):
        convolution_values(gauss_field, f, np.array([[0j]]))


def test_twisted_convolution_field_evaluator(rule_c1_small, probe_targets):
    f = _phi_field(rule_c1_small, 0)
    conv = twisted_convolution(f, f)
    direct = convolution_values(f, f, probe_targets)
    assert np.max(np.abs(conv.evaluate(probe_targets) - direct)) < 1e-14


def test_translate_covariance(gauss_field):
    """tau_eta f x mu_r = tau_eta (f x mu_r): vanishing sets transport."""
    eta = np.array([0.6 - 0.4j])
    tf = twisted_translate(gauss_field, eta)
    for z, r in [(np.array([0.3 + 0.8j]), 1.1), (np.array([-1.0 + 0.2j]), 2.0)]:
        lhs = twisted_spherical_mean(tf, z, r)
        phase = np.exp(0.5j * np.imag(eta[0] * np.conj(z[0])))
        rhs = phase * twisted_spherical_mean(gauss_field, z - eta, r)
        assert abs(lhs - rhs) < 1e-13


def test_translate_tail_warning(gauss_field):
    with pytest.warns(TranslateTailWarning):
        twisted_translate(gauss_field, np.array([10.0 + 8.0j]))


def test_translate_input_validation(gauss_field):
    with pytest.raises(ValueError):
        twisted_translate(gauss_field, np.array([1.0 + 0j, 0j]))


def test_spectral_projections_batch_matches_singles(gauss_field, probe_targets):
    batch = spectral_projections(gauss_field, [0, 2, 5], targets=probe_targets)
    for i, k in enumerate([0, 2, 5]):
        single = projection_values(gauss_field, k, probe_targets)
        assert np.max(np.abs(batch[:, i] - single)) < 1e-13


# fields for the on-grid engine: radial, the p = 1 sector, and an
# off-centre anisotropic Gaussian (no rotational structure at all)
ENGINE_FIELDS = {
    "radial": lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / 3.0).astype(complex),
    "sector_p1": lambda p: p[:, 0] * np.exp(-np.abs(p[:, 0]) ** 2 / 3.0),
    "offcentre": lambda p: np.exp(-((p[:, 0].real - 0.4) ** 2 / 2.5
                                    + (p[:, 0].imag + 0.3) ** 2 / 3.5)).astype(complex),
}


@pytest.mark.parametrize("field_name", sorted(ENGINE_FIELDS))
@pytest.mark.parametrize("rule_name, bound", [("rule_c1", 1e-12),
                                              ("rule_c1_small", 1e-8)])
def test_on_grid_engine_matches_direct_oracle(request, rule_name, bound, field_name):
    """Both library paths sum the closed-form kernel against f's samples;
    the oracle integrates f's closed form against phi_k sampled on the grid.
    Checked at 200 nodes (the FFT engine) and at the same nodes turned by
    half a phase step (the direct sum).  Degrees stop at 8: beyond that the
    oracle's phi_k is cut off at the grid edge and the oracle, not the
    library, parts from the exact value."""
    rule = request.getfixturevalue(rule_name)
    f = SampledField.from_function(ENGINE_FIELDS[field_name], rule)
    degrees = list(range(9))
    on_grid = spectral_projections(f, degrees)
    assert on_grid.shape == (rule.nodes.shape[0], len(degrees))
    picked = np.random.default_rng(5).choice(rule.nodes.shape[0], 200, replace=False)
    turned = rule.nodes[picked] * np.exp(1j * np.pi / rule.shape[1])
    off_grid = spectral_projections(f, degrees, turned)
    scale = float(np.max(np.abs(on_grid)))
    for targets, got in ((rule.nodes[picked], on_grid[picked]), (turned, off_grid)):
        for k in degrees:
            ref = direct_projection_values(f, k, targets)
            assert np.max(np.abs(got[:, k] - ref)) <= bound * scale, k
    # the input picks the path: passing the nodes is the same call
    assert np.array_equal(spectral_projections(f, degrees, targets=rule.nodes), on_grid)
    # and the single-degree field takes its grid values from the engine
    assert np.array_equal(spectral_projection(f, 3).values, on_grid[:, 3])


def test_sample_only_field_projects_off_grid(rule_c1, tmp_path):
    """A CSV-imported field has no evaluator; its projections at targets
    off the origin sum its own samples and read nothing off the grid."""
    exact = SampledField.from_function(ENGINE_FIELDS["offcentre"], rule_c1, name="offc")
    exact.to_csv(tmp_path / "f.csv")
    sampled = SampledField.from_csv(tmp_path / "f.csv")
    assert sampled.evaluator is None
    targets = np.array([[2.0 + 0j], [1.3 - 2.1j], [-2.6 + 0.7j], [0.4 + 3.0j]])
    degrees = [0, 1, 2, 3]
    got = spectral_projections(sampled, degrees, targets)
    ref = np.stack([direct_projection_values(exact, k, targets) for k in degrees], axis=1)
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))
    single = projection_values(sampled, 2, targets)
    assert np.array_equal(single, got[:, 2])
    q2 = spectral_projection(sampled, 2)
    assert np.max(np.abs(q2.evaluate(targets) - ref[:, 2])) <= 1e-8 * np.max(np.abs(ref))


def test_off_grid_projection_keeps_the_kernel_past_the_grid_edge(rule_c1_small):
    """At k = 12, phi_k(10) = 0.12: a w-form sum would cut phi_k off at the
    edge of the extent-10 grid, the u form evaluates it wherever z - u
    lands.  The reference is the oracle on a grid twice as wide."""
    held = np.array([0.37 + 0.21j, -0.9 + 0.4j, 1.3 - 0.7j, 0.1 - 1.1j, 2.0 + 0.3j])[:, None]
    wide = plane_rule(1, extent=20.0, radial_points=128, angular_points=384)
    ref = direct_projection_values(
        SampledField.from_function(ENGINE_FIELDS["offcentre"], wide), 12, held)
    f = SampledField.from_function(ENGINE_FIELDS["offcentre"], rule_c1_small)
    got = projection_values(f, 12, held)
    assert np.max(np.abs(got - ref)) <= 3e-6 * np.max(np.abs(ref))


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_projection_memory_budget(gauss_field, probe_targets):
    # the engine builds its kernel in blocks of target radii, and the
    # off-grid path holds a few (targets, nodes) arrays: neither may grow
    # with the square of the grid
    on_grid = _peak_mb(lambda: spectral_projections(gauss_field, range(13)))
    assert on_grid < 48.0
    off_grid = _peak_mb(lambda: spectral_projections(gauss_field, range(13),
                                                     probe_targets[:3]))
    assert off_grid < 8.0


def test_spectral_projections_reject_bad_degrees(gauss_field):
    for bad in ([], [2, -1]):
        with pytest.raises(ValueError, match="degrees"):
            spectral_projections(gauss_field, bad)


def test_special_hermite_coefficients_pick_out_basis(rule_c1):
    idx = SpecialHermiteIndex(1, 0)
    f = SampledField.from_function(
        lambda p: special_hermite_basis(idx, p[:, 0]), rule_c1, name="phi10")
    C = special_hermite_coefficients(f, 3)
    ref = np.zeros((4, 4))
    ref[1, 0] = 1.0
    assert np.max(np.abs(C - ref)) < 1e-10


def test_truncation_reconstructs_gaussian(rule_c1_small):
    f = SampledField.from_function(
        lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / 3.0).astype(complex),
        rule_c1_small)
    trunc = special_hermite_truncation(f, 8)
    errs = trunc.partial_errors(f)
    assert np.all(np.diff(errs) < 1e-12)            # monotone improvement
    assert errs[-1] / f.grid_norm() < 1e-6          # geometric tail
    rec = trunc.reconstruct()
    assert np.linalg.norm(rec.values - f.values) / f.grid_norm() < 1e-6
    # coefficient matrix rides along for n = 1 and is radially diagonal
    assert trunc.coefficients is not None
    off = trunc.coefficients - np.diag(np.diag(trunc.coefficients))
    assert np.max(np.abs(off)) < 1e-10


def test_mean_profile_linearity_and_bridge(rule_c1, gauss_field):
    rad = radial_rule(1, extent=12.0, points=48)
    z = np.array([0.3 + 0.2j])
    prof = mean_profile(gauss_field, z, radial_rule=rad, name="g3")
    assert prof.name == "g3"
    assert np.array_equal(prof.radii, rad.nodes)
    # profile is linear in the field
    prof2 = mean_profile(gauss_field.scaled(2.0), z, radial_rule=rad)
    assert np.max(np.abs(prof2.values - 2.0 * prof.values)) < 1e-14

    for k in range(5):
        bridged = polar_bridge(prof, k, 1)
        direct = direct_projection_values(gauss_field, k, z[None, :])[0]
        assert abs(bridged - direct) <= 1e-8 * (1.0 + abs(direct))


def test_polar_bridge_zero_iff_zero(rule_c1):
    """Vanishing mean profile <=> vanishing projection, both directions,
    shown on an eigenfunction (profile proportional to phi_m(r))."""
    m = 2
    f = _phi_field(rule_c1, m)
    rad = radial_rule(1, extent=12.0, points=48)
    z = np.array([1.2 + 0.4j])
    prof = mean_profile(f, z, radial_rule=rad)
    assert prof.max_abs() > 1e-3                     # the profile itself lives
    for k in (1, m):
        bridged = polar_bridge(prof, k, 1)
        direct = direct_projection_values(f, k, z[None, :])[0]
        if k == m:
            assert abs(direct) > 1e-3                # nonvanishing example
            assert abs(bridged - direct) < 1e-8
        else:
            assert abs(direct) < 1e-10               # vanishing example
            assert abs(bridged) < 1e-8


def test_polar_bridge_requires_rule(gauss_field):
    prof = mean_profile(gauss_field, np.array([0j]), radii=np.linspace(0.5, 3, 7))
    with pytest.raises(ValueError, match="RadialRule"):
        polar_bridge(prof, 0, 1)


def test_polar_bridge_tail_warning(gauss_field):
    rad = radial_rule(1, extent=3.0, points=24)      # truncates the Gaussian
    prof = mean_profile(gauss_field, np.array([0j]), radial_rule=rad)
    with pytest.warns(TruncationTailWarning):
        polar_bridge(prof, 0, 1)


def test_eigenvalue_transport_through_projection(rule_c1_small):
    """Q_k f is an eigenfunction: checked spectrally rather than by finite
    differences -- project twice and compare against (2 pi) Q_k."""
    f = SampledField.from_function(
        lambda p: (p[:, 0] * np.exp(-np.abs(p[:, 0]) ** 2 / 4.0)),
        rule_c1_small)
    pts = np.array([[0.4 + 0.1j], [1.0 - 0.6j]])
    q1 = spectral_projections(f, [1], targets=None)          # on the grid
    qf = SampledField(1, rule_c1_small, q1[:, 0],
                      evaluator=lambda p: projection_values(f, 1, p))
    again = projection_values(qf, 1, pts)
    once = projection_values(f, 1, pts)
    assert np.max(np.abs(again - 2.0 * np.pi * once)) < 1e-8


# ---------------------------------------------------------------------------
# C^2: tensor decomposition


@pytest.fixture(scope="module")
def c2_field():
    rule = plane_rule(2, extent=8.0, radial_points=24, sphere3_orders=(8, 24, 24))
    fn = lambda p: np.exp(-(np.abs(p[:, 0]) ** 2 + 1.3 * np.abs(p[:, 1]) ** 2) / 4.0)
    return SampledField.from_function(lambda p: fn(p).astype(complex), rule)


def test_tensor_pieces_sum_to_projection(c2_field):
    k = 1
    pieces = tensor_decompose_projection(c2_field, k)
    targets = pieces[0].rule.nodes
    total = np.sum([p.values for p in pieces], axis=0)
    direct = direct_projection_values(c2_field, k, targets)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.linalg.norm(total - direct) / np.sqrt(direct.size) < 1e-6 * scale


def test_direct_sum_matches_direct_oracle_on_c2(c2_field):
    """The direct sum with the L_k^1 kernel of C^2, k <= 2, off the grid;
    this coarse grid holds the two quadratures to 1e-6 of the peak."""
    targets = np.array([[0.3 + 0.2j, -0.5 + 0.1j], [1.1 - 0.4j, 0.2 + 0.7j],
                        [-0.7 + 0.9j, 1.3 - 0.2j], [2.0 + 0.1j, -0.4 - 1.0j]])
    got = spectral_projections(c2_field, range(3), targets)
    scale = float(np.max(np.abs(got)))
    for k in range(3):
        ref = direct_projection_values(c2_field, k, targets)
        assert np.max(np.abs(got[:, k] - ref)) <= 1e-6 * scale, k


def _slot_rule():
    # the default slot rule of tensor_decompose_projection
    return plane_rule(1, extent=10.0, radial_points=32, angular_points=48)


@pytest.fixture(scope="module")
def c2_offcentre(c2_field):
    """Off-centre in both slots, so no tensor piece vanishes (c2_field is
    exp(-|z1|^2/4) = phi_0 in slot 1: its b1 >= 1 pieces are zero)."""
    fn = lambda p: np.exp(-(np.abs(p[:, 0] - (0.4 - 0.3j)) ** 2 / 3.0
                            + 1.3 * np.abs(p[:, 1] + 0.2j) ** 2 / 4.0))
    return SampledField.from_function(lambda p: fn(p).astype(complex), c2_field.rule)


@pytest.mark.parametrize("field_name", ["c2_field", "c2_offcentre"])
def test_tensor_pieces_match_nested_oracle(field_name, request):
    """Each piece, not only their sum, against the nested w-form oracle,
    k <= 2, at every 8th node of the evaluation lattice, to 1e-10 of the
    largest piece."""
    f = request.getfixturevalue(field_name)
    for k in range(3):
        pieces = tensor_decompose_projection(f, k)
        ref = nested_piece_values(f, k, pieces[0].rule.nodes[::8], _slot_rule())
        got = np.stack([p.values[::8] for p in pieces], axis=1)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), k


def test_tensor_piece_evaluators(c2_offcentre):
    """On the lattice each piece's evaluator returns its values exactly;
    off the lattice it matches the nested oracle to 1e-10 of the largest
    piece."""
    k = 2
    pieces = tensor_decompose_projection(c2_offcentre, k)
    for p in pieces:
        assert np.array_equal(p.evaluate(p.rule.nodes), p.values)
    pts = np.array([[0.3 + 0.2j, -0.5 + 0.1j], [1.1 - 0.4j, 0.2 + 0.7j],
                    [-0.7 + 0.9j, 1.3 - 0.2j], [2.0 + 0.1j, -0.4 - 1.0j]])
    ref = nested_piece_values(c2_offcentre, k, pts, _slot_rule())
    got = np.stack([p.evaluate(pts) for p in pieces], axis=1)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_tensor_pieces_separable_product_route(c2_field):
    """For f = g(z1) h(z2) each piece factors into 1-d projections; the
    pieces must match the product route to near machine."""
    k = 1
    pieces = tensor_decompose_projection(c2_field, k)
    slot = _slot_rule()
    g = SampledField.from_function(
        lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / 4.0).astype(complex), slot)
    h = SampledField.from_function(
        lambda p: np.exp(-1.3 * np.abs(p[:, 0]) ** 2 / 4.0).astype(complex), slot)
    targets = pieces[0].rule.nodes
    for b1 in range(k + 1):
        b2 = k - b1
        ref = (direct_projection_values(g, b1, targets[:, :1])
               * direct_projection_values(h, b2, targets[:, 1:]))
        assert np.max(np.abs(pieces[b1].values - ref)) < 1e-12


def test_tensor_rejects_c1_fields(gauss_field):
    with pytest.raises(ValueError, match="C\\^2"):
        tensor_decompose_projection(gauss_field, 1)


def test_tensor_rejects_negative_degree(c2_field):
    with pytest.raises(ValueError, match="degree must be an integer >= 0, got -1"):
        tensor_decompose_projection(c2_field, -1)
