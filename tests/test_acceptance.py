"""Acceptance gate: ten numbered end-to-end criteria the package commits to.

Each test measures its worst case against a fixed tolerance and prints a
single PASS/FAIL line (visible under ``pytest -s``); nothing is mocked and
no tolerance is derived from a measured value.  Criteria 8 and 10 carry
the bulk of the runtime (C^2 quadrature and the duplicated CLI suite).
"""

import json

import numpy as np
import pytest

from conftest import direct_projection_table, direct_projection_values
from tsmlab import cli
from tsmlab.constants import REGRESSION
from tsmlab.diagnostics import _D1, _D2
from tsmlab.euclidean_means import (coxeter_odd_counterexample,
                                    euclidean_mean_table,
                                    euclidean_sector_basis)
from tsmlab.fields import SampledField
from tsmlab.injectivity_lab import (TypeFunctionSpec, assemble_operator,
                                    fit_projection_expansion,
                                    hecke_bochner_counterexample, make_set)
from tsmlab.quadrature import plane_rule, radial_rule
from tsmlab.special_functions import (LaguerreSpec, laguerre_function,
                                      radial_eigenfunction_origin,
                                      solid_harmonic_basis)
from tsmlab.twisted_transforms import (convolution_values, mean_profile,
                                       polar_bridge, spectral_projection,
                                       special_hermite_truncation,
                                       tensor_decompose_projection,
                                       twisted_mean_table,
                                       twisted_spherical_mean)


def _le(name, measured, tol):
    return (name, float(measured), float(tol), "<=")


def _ge(name, measured, tol):
    return (name, float(measured), float(tol), ">=")


def _gate(label, *parts):
    ok = all(m <= t if op == "<=" else m >= t for _, m, t, op in parts)
    detail = "; ".join(f"{n} {m:.3e} ({op} {t:.1e})" for n, m, t, op in parts)
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _phi_field(rule, k):
    spec = LaguerreSpec(k, rule.dimension - 1)
    return SampledField.from_function(
        lambda p: laguerre_function(spec, np.linalg.norm(p, axis=1)).astype(complex),
        rule, name=f"phi{k}")


# -- 1: eigenfunction suite -------------------------------------------------


def _radial_l2_residual(k: int, n: int, h: float = 1e-2) -> float:
    """Grid-l2 residual of (-g'' - (2n-1)/rho g' + rho^2/4 g) - (2k+n) g
    against the L^2(rho^(2n-1) drho) norm, interior radii only (the 1/rho
    coefficient makes the stencil meaningless at the origin)."""
    spec = LaguerreSpec(k, n - 1)
    rad = radial_rule(n, extent=9.0, points=160)
    keep = rad.nodes >= 0.4
    rho, w = rad.nodes[keep], rad.weights[keep]
    grid = rho[:, None] + (np.arange(-4, 5) * h)[None, :]
    vals = laguerre_function(spec, grid.ravel()).reshape(grid.shape)
    d1 = vals @ _D1 / h
    d2 = vals @ _D2 / h ** 2
    c = vals[:, 4]
    applied = -d2 - (2 * n - 1) / rho * d1 + 0.25 * rho ** 2 * c
    res = applied - (2 * k + n) * c
    num = np.sqrt(np.sum(w * res ** 2))
    den = np.sqrt(np.sum(rad.weights * laguerre_function(spec, rad.nodes) ** 2))
    return float(num / den)


def test_criterion_01_eigenfunction_suite():
    worst = max(_radial_l2_residual(k, n)
                for n in (1, 2) for k in range(11))
    _gate("01 eigenfunction residuals (n<=2, k<=10)",
          _le("l2 residual", worst, 1e-6))


# -- 2: product relation ----------------------------------------------------


def test_criterion_02_product_relation(rule_c1_small, probe_targets):
    radii = [0.4, 0.8, 1.5, 2.2, 3.0]
    worst = 0.0
    # n = 1: five off-axis centers, default circle rule
    for k in range(9):
        f = _phi_field(rule_c1_small, k)
        spec = LaguerreSpec(k, 0)
        B = 1.0 / radial_eigenfunction_origin(1, k)
        for z in probe_targets:
            for r in radii:
                lhs = twisted_spherical_mean(f, z, r)
                ref = B * laguerre_function(spec, np.array([r]))[0] \
                    * laguerre_function(spec, np.array([np.linalg.norm(z)]))[0]
                worst = max(worst, abs(lhs - ref) / (1.0 + abs(ref)))

    rule2 = plane_rule(2, extent=8.0, radial_points=24,
                       sphere3_orders=(8, 24, 24))
    centers2 = np.array([[0.5 + 0.2j, -0.4 + 0.6j],
                         [1.2 - 0.3j, 0.8 + 0.9j],
                         [-0.9 + 0.1j, 0.2 - 0.7j],
                         [0.3 + 0.3j, -1.1 - 0.4j],
                         [1.6 + 0.0j, 0.5 + 0.5j]])
    # n = 2: one table per degree over the (24, 40, 40) S^3 rule
    for k in range(9):
        f = _phi_field(rule2, k)
        spec = LaguerreSpec(k, 1)
        B = 1.0 / radial_eigenfunction_origin(2, k)
        lhs = twisted_mean_table(f, centers2, radii, orders=(24, 40, 40))
        ref = B * np.outer(laguerre_function(spec, np.linalg.norm(centers2, axis=1)),
                           laguerre_function(spec, np.asarray(radii)))
        worst = max(worst, float(np.max(np.abs(lhs - ref) / (1.0 + np.abs(ref)))))
    _gate("02 product relation (n<=2, k<=8, 5 radii x 5 centers)",
          _le("scaled error", worst, 1e-8))


# -- 3: expansion reconstruction + orthogonality ----------------------------


def test_criterion_03_expansion_and_orthogonality(rule_c1, gauss_field,
                                                  probe_targets):
    trunc = special_hermite_truncation(gauss_field, 40)
    errs = trunc.partial_errors(gauss_field)
    rec = float(errs[-1]) / gauss_field.grid_norm()

    worst = 0.0
    fields = [_phi_field(rule_c1, k) for k in range(5)]
    for k in range(5):
        ref_k = laguerre_function(LaguerreSpec(k, 0), np.abs(probe_targets[:, 0]))
        for m in range(5):
            got = convolution_values(fields[k], fields[m], probe_targets)
            ref = 2.0 * np.pi * ref_k if k == m else np.zeros_like(got)
            worst = max(worst, float(np.max(np.abs(got - ref))))
    _gate("03 expansion reconstruction + orthogonality",
          _le("K=40 rel l2", rec, 1e-6),
          _le("orthogonality (k,m<=4)", worst, 1e-8))


# -- 4: polar equivalence ---------------------------------------------------


def test_criterion_04_polar_equivalence(rule_c1, gauss_field, probe_targets):
    rad = radial_rule(1, extent=12.0, points=48)
    worst = 0.0
    for z in probe_targets:
        prof = mean_profile(gauss_field, z, radial_rule=rad)
        for k in range(7):
            bridged = polar_bridge(prof, k, 1)
            direct = direct_projection_values(gauss_field, k, z[None, :])[0]
            worst = max(worst, abs(bridged - direct) / (1.0 + abs(direct)))

    # zero-profile <=> zero-projection, both directions, on phi_2
    f = _phi_field(rule_c1, 2)
    z = np.array([1.2 + 0.4j])
    prof = mean_profile(f, z, radial_rule=rad)
    vanishing = max(abs(polar_bridge(prof, 1, 1)),
                    abs(direct_projection_values(f, 1, z[None, :])[0]))
    alive_direct = direct_projection_values(f, 2, z[None, :])[0]
    alive = abs(polar_bridge(prof, 2, 1) - alive_direct)
    _gate("04 polar bridge vs projection (5 centers, k<=6)",
          _le("scaled error", worst, 1e-6),
          _le("vanishing example", vanishing, 1e-6),
          _ge("non-vanishing example", abs(alive_direct), 1e-3),
          _le("non-vanishing match", alive, 1e-6))


# -- 5: euclidean non-injectivity certificate -------------------------------


def test_criterion_05_euclidean_certificate():
    radii = np.geomspace(0.2, 3.0, 20)
    ppr = {1: 20, 2: 10, 3: 7, 4: 5}
    worst_mean, worst_op = 0.0, 0.0
    for N in (1, 2, 3, 4):
        f = coxeter_odd_counterexample(N)
        peak = float(np.max(np.abs(f.values)))
        s = np.linspace(0.17, 3.4, 20)
        s = np.concatenate([-s[::-1], s])     # exactly 40 line parameters
        centers = s * np.exp(1j * np.pi * (np.arange(40) % N) / N)
        table = euclidean_mean_table(f, centers, radii)
        worst_mean = max(worst_mean, float(np.max(np.abs(table))) / (1e-10 * peak))

        sset = make_set("coxeter_lines", n_lines=N, points_per_ray=ppr[N],
                        extent=3.4, radii=radii)
        basis = euclidean_sector_basis(N, support_radii=(1.0,),
                                       orders=list(range(1, N + 1)), kinds=("sin",))
        op = assemble_operator(sset, engine="euclidean", basis=basis)
        v = np.zeros(basis.ncols)
        v[basis.index_of("sin", N, 1.0)] = 1.0   # the counterexample itself
        worst_op = max(worst_op, float(np.linalg.norm(op.matrix @ v)))
    _gate("05 odd counterexample on Sigma_N (N<=4, 40 centers x 20 radii)",
          _le("means / (1e-10 max|f|)", worst_mean, 1.0),
          _le("||Mv||/||v||", worst_op, 1e-8))


# -- 6: twisted contrast ----------------------------------------------------


def test_criterion_06_twisted_contrast():
    sset = make_set("coxeter_lines", n_lines=2, points_per_ray=10, extent=6.0)
    op_t = assemble_operator(sset, max_degree=10)
    frozen = REGRESSION["twisted_sigma_min_coxeter2_K10"]
    drift = abs(op_t.sigma_min - frozen) / frozen

    # matched euclidean operator, restricted to the sectors odd for Sigma_2
    basis = euclidean_sector_basis(4, support_radii=(1.0,), orders=[2, 4],
                                   kinds=("sin",))
    op_e = assemble_operator(sset, engine="euclidean", basis=basis)
    contrast = op_t.sigma_min / op_e.sigma_min if op_e.sigma_min > 0 else np.inf
    _gate("06 twisted vs euclidean sigma_min on matched Sigma_2 grids",
          _ge("contrast", contrast, 1e6),
          _le("regression drift", drift, 1e-10))


# -- 7: Hecke-Bochner vanishing ---------------------------------------------


def test_criterion_07_vanishing_set():
    P = solid_harmonic_basis(1, 1, 2)[0]          # z1 * conj(z2)
    rep = hecke_bochner_counterexample(TypeFunctionSpec(P))
    assert int(rep.on_zero_locus.sum()) == 30
    assert int((~rep.on_zero_locus).sum()) == 10
    _gate("07 means vanish on P^(-1)(0), survive off it",
          _le("on-set / (1e-8 max|f|)",
              rep.max_on_set / (1e-8 * rep.field_peak), 1.0),
          _ge("off-set / (1e-3 max|f|)",
              rep.min_off_set / (1e-3 * rep.field_peak), 1.0))


# -- 8: tensor diagonal identity --------------------------------------------


def test_criterion_08_tensor_diagonal():
    rule = plane_rule(2, extent=10.0, radial_points=28,
                      sphere3_orders=(10, 40, 40))
    f = SampledField.from_function(
        lambda p: np.exp(-(np.abs(p[:, 0]) ** 2 / 3.0
                           + 1.3 * np.abs(p[:, 1]) ** 2 / 4.0)).astype(complex),
        rule)
    pieces = [tensor_decompose_projection(f, k) for k in range(5)]
    targets = pieces[0][0].rule.nodes
    # one w-form pass for all degrees: column k is
    # direct_projection_values(f, k, targets), bit for bit
    direct_all = direct_projection_table(f, range(5), targets)
    worst = 0.0
    for k, ps in enumerate(pieces):
        total = np.sum([p.values for p in ps], axis=0)
        direct = direct_all[:, k]
        worst = max(worst, float(np.linalg.norm(total - direct)
                                 / np.linalg.norm(direct)))
    _gate("08 tensor pieces reproduce Q_k on C^2 (k<=4)",
          _le("rel l2", worst, 1e-6))


# -- 9: projection expansion fit --------------------------------------------


def test_criterion_09_expansion_fit():
    rule = plane_rule(1, extent=10.0, radial_points=40, angular_points=128)
    held = np.array([0.45 + 0.3j, 1.3 - 0.8j, 2.2 + 0.4j, -0.7 + 1.1j])
    worst, localized = 0.0, True
    for p, k in ((1, 2), (2, 3)):
        # profile deliberately not exp(-|z|^2/4): z^p exp(-|z|^2/4) is a
        # single basis line and would leave every other Q_k empty
        f = SampledField.from_function(
            lambda pts, _p=p: pts[:, 0] ** _p * np.exp(-np.abs(pts[:, 0]) ** 2 / 3.0),
            rule, name=f"type_p{p}")
        qk = spectral_projection(f, k)
        fit = fit_projection_expansion(qk, k)
        localized = localized and fit.dominant_sector() == ("p", p)
        ref = qk.evaluate(held[:, None])
        pred = fit.predict(held)
        scale = float(np.max(np.abs(ref)))
        worst = max(worst, float(np.max(np.abs(pred - ref))) / scale)
    _gate("09 fitted expansion predicts held-out samples",
          _le("heldout rel", worst, 1e-6),
          _le("sector localization", 0.0 if localized else 1.0, 0.5))


# -- 10: determinism --------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    experiments = ["verify-identities", "tsm-eval", "project", "expand-qk",
                   "counterexample", "probe"]
    for run in ("one", "two"):
        for exp in experiments:
            code = cli.main(["--experiment", exp,
                             "--out", str(tmp_path / run / exp)])
            assert code == 0, f"{exp} failed on run {run}"
    n_payloads, n_diff = 0, 0
    for exp in experiments:
        files = sorted(p.name for p in (tmp_path / "one" / exp).iterdir())
        assert files == sorted(p.name for p in (tmp_path / "two" / exp).iterdir())
        for name in files:
            a = (tmp_path / "one" / exp / name).read_bytes()
            b = (tmp_path / "two" / exp / name).read_bytes()
            if name == "manifest.json":
                ma, mb = json.loads(a), json.loads(b)
                ma.pop("timestamp"), mb.pop("timestamp")
                assert ma == mb, f"{exp}/manifest differs beyond the timestamp"
                continue
            n_payloads += 1
            n_diff += a != b
    assert n_payloads >= 10
    _gate("10 byte-identical payloads across two full runs",
          _le("differing files", float(n_diff), 0.0))
