"""Batch front-end: deterministic experiments driven by a flat config.

Exit codes: 0 all enabled checks passed, 1 at least one check failed,
2 configuration error (no artifacts are written in that case).  Reruns
with the same config produce byte-identical CSV/JSON payloads; the wall
clock appears only in the run manifest.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.resources
import math
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, constants
from .errors import ConfigError, QuadratureError
from .euclidean_means import (CIRCLE_POINTS, coxeter_odd_counterexample,
                              euclidean_mean_table, euclidean_sector_basis,
                              write_mean_table)
from .fields import SampledField
from .injectivity_lab import (CERTIFICATE_CIRCLE_POINTS, TypeFunctionSpec,
                              assemble_operator, fit_projection_expansion,
                              hecke_bochner_counterexample, injectivity_probe,
                              make_set, operator_to_csv, sigma_curve_to_csv)
from .ioutil import fmt, write_csv, write_json
from .quadrature import radial_rule, plane_rule
from .special_functions import (LaguerreSpec, laguerre_function,
                                solid_harmonic_basis)
from .twisted_transforms import (mean_profile, polar_bridge, projection_values,
                                 special_hermite_truncation,
                                 spectral_projections, twisted_mean_table,
                                 twisted_translate)
from .diagnostics import radial_operator_residual

EXPERIMENTS = ("verify-identities", "tsm-eval", "project", "expand-qk",
               "counterexample", "probe")


# ---------------------------------------------------------------------------
# configuration


def _read_defaults() -> dict[str, str]:
    text = (importlib.resources.files("tsmlab") / "defaults.cfg").read_text("utf-8")
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


DEFAULTS = _read_defaults()


def _coerce(key: str, raw: str):
    """Parse a raw string using the default value's shape for that key."""
    template = DEFAULTS[key]
    raw = raw.strip()
    if template in ("true", "false"):
        if raw.lower() not in ("true", "false"):
            raise ConfigError(f"{key} expects true/false, got {raw!r}")
        return raw.lower() == "true"
    if "," in template:
        try:
            return tuple(int(x) for x in raw.split(","))
        except ValueError as e:
            raise ConfigError(f"{key} expects comma-separated integers: {e}")
    for kind in (int, float):
        try:
            kind(template)
        except ValueError:
            continue
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"{key} expects {kind.__name__}, got {raw!r}")
    return raw


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = {k: _coerce(k, v) for k, v in DEFAULTS.items()}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {path} not found")
        for lineno, line in enumerate(p.read_text("utf-8").splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            key, eq, val = body.partition("=")
            key = key.strip()
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            cfg[key] = _coerce(key, val)
    for ov in overrides:
        key, eq, val = ov.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"--override needs key=value, got {ov!r}")
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, val)
    _validate(cfg)
    return cfg


def _validate(cfg: dict) -> None:
    positive = ["grid.extent", "field.width", "profile.r_min", "profile.r_max",
                "counterexample.extent", "counterexample.r_min",
                "counterexample.r_max", "probe.extent", "probe.r_min",
                "probe.r_max", "probe.near_null_threshold"]
    for key in positive:
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]}")
    at_least = {"grid.radial_points": 8, "grid.angular_points": 8,
                "mean.circle_points": 8, "profile.r_count": 2,
                "project.max_degree": 0, "identities.degree_max": 0,
                "expand.degree": 0, "expand.q_max": 0, "expand.sector_p": 0,
                "counterexample.n_lines": 1, "counterexample.centers_per_line": 1,
                "counterexample.r_count": 2, "probe.n_lines": 1,
                "probe.points_per_ray": 1, "probe.max_degree": 0,
                "probe.r_count": 2, "mean.sphere3_t": 1, "mean.sphere3_phi1": 1,
                "mean.sphere3_phi2": 1, "field.degree": 0}
    for key, lo in at_least.items():
        if cfg[key] < lo:
            raise ConfigError(f"{key} must be >= {lo}, got {cfg[key]}")
    # past r = 53.2, e^(-r^2/4) underflows and the grid's special Hermite
    # radial factors vanish from order 0 (special_hermite_order_limit)
    for key, hi in {"grid.extent": 53.2, "project.max_degree": 60,
                    "probe.max_degree": 20, "identities.degree_max": 20,
                    "expand.degree": 20}.items():
        if cfg[key] > hi:
            raise ConfigError(f"{key} must be <= {hi}, got {cfg[key]}")
    steps = cfg["probe.degree_steps"]
    if min(steps) < 0:
        raise ConfigError(f"probe.degree_steps must be >= 0, got {steps}")
    if len(set(steps)) != len(steps):
        raise ConfigError(f"probe.degree_steps must not repeat a step, got {steps}")
    top = cfg["probe.max_degree"] + max(steps)
    if top > 20:
        raise ConfigError(f"probe.max_degree + max(probe.degree_steps) must be <= 20, got {top}")
    # the euclidean certificate is exact because reflections across Sigma_N
    # pair the circle nodes of the means, which needs N | CIRCLE_POINTS
    N = cfg["counterexample.n_lines"]
    if CIRCLE_POINTS % N:
        raise ConfigError(f"counterexample.n_lines must divide {CIRCLE_POINTS}, the circle "
                          f"nodes that reflections across Sigma_N pair, got {N}")
    # the euclidean probe's near-null vectors are the sectors Sigma_N
    # annihilates: its assembly and its certificates must both see them
    # vanish, so N divides both circle node counts
    paired = math.gcd(CIRCLE_POINTS, CERTIFICATE_CIRCLE_POINTS)
    N = cfg["probe.n_lines"]
    if (cfg["probe.engine"] == "euclidean" and cfg["probe.kind"] == "coxeter_lines"
            and paired % N):
        raise ConfigError(f"probe.n_lines must divide {paired} on the euclidean engine, the "
                          f"circle nodes that reflections across Sigma_N pair in both "
                          f"assembly and certificates, got {N}")
    for section in ("profile", "probe"):
        if cfg[f"{section}.r_min"] >= cfg[f"{section}.r_max"]:
            raise ConfigError(f"{section}.r_min must be below {section}.r_max")
    if cfg["field.kind"] not in ("gaussian", "laguerre", "type"):
        raise ConfigError(f"unknown field.kind {cfg['field.kind']!r}")
    if cfg["counterexample.engine"] not in ("euclidean", "twisted"):
        raise ConfigError("counterexample.engine must be euclidean or twisted")
    if cfg["probe.engine"] not in ("twisted", "euclidean"):
        raise ConfigError("probe.engine must be twisted or euclidean")
    if cfg["probe.kind"] not in ("coxeter_lines", "sphere", "curve"):
        raise ConfigError(f"probe.kind {cfg['probe.kind']!r} not runnable here")
    if cfg["expand.sector_p"] > cfg["expand.degree"]:
        raise ConfigError("expand.sector_p cannot exceed expand.degree")


# ---------------------------------------------------------------------------
# shared builders


def _grid(cfg: dict):
    return plane_rule(1, extent=cfg["grid.extent"],
                      radial_points=cfg["grid.radial_points"],
                      angular_points=cfg["grid.angular_points"])


def _field(cfg: dict) -> SampledField:
    kind = cfg["field.kind"]
    rule = _grid(cfg)
    if kind == "gaussian":
        w = cfg["field.width"]
        fn = lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / w).astype(complex)
        name = f"gaussian_w{w:g}"
    elif kind == "laguerre":
        k = cfg["field.degree"]
        fn = lambda p: laguerre_function(LaguerreSpec(k, 0), np.abs(p[:, 0])).astype(complex)
        name = f"phi_{k}"
    else:
        w, d = cfg["field.width"], cfg["field.degree"]
        fn = lambda p: p[:, 0] ** d * np.exp(-np.abs(p[:, 0]) ** 2 / w)
        name = f"type_p{d}_w{w:g}"
    return SampledField.from_function(fn, rule, name=name)


@dataclass
class Check:
    name: str
    value: float
    tolerance: float

    def __post_init__(self) -> None:
        # numpy scalars sneak in from reductions; manifest JSON needs plain floats
        self.value = float(self.value)
        self.tolerance = float(self.tolerance)

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance)

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} {self.name}: measured {self.value:.3e} vs tol {self.tolerance:.1e}"


CHECK_NAMES = {
    "verify-identities": ["product_relation", "orthogonality", "expansion_constant",
                          "polar_vs_projection", "translate_covariance",
                          "radial_eigenrelation", "mean_continuity"],
    "tsm-eval": [],
    "project": ["reconstruction_decay"],
    "expand-qk": ["fit_heldout", "sector_localization"],
    "counterexample": ["certificate"],
    "probe": [],
}


# ---------------------------------------------------------------------------
# experiments


def run_verify_identities(cfg: dict, out: Path) -> list[Check]:
    checks = []
    kmax = cfg["identities.degree_max"]
    m = cfg["mean.circle_points"]
    rule = _grid(cfg)
    centers = np.array([0.4 + 0.1j, -0.7 + 0.55j, 1.1 - 0.3j])
    radii = np.array([0.4, 0.9, 1.7, 2.6])
    probes = centers[:, None]
    rows = []

    # phi_k on the grid, for the product relation (k <= kmax) and orthogonality (k <= 2)
    phis = [SampledField.from_function(
        lambda p, _s=LaguerreSpec(k, 0): laguerre_function(_s, np.abs(p[:, 0])).astype(complex),
        rule, name=f"phi_{k}") for k in range(max(kmax, 2) + 1)]
    worst = 0.0
    for k in range(kmax + 1):
        spec = LaguerreSpec(k, 0)
        got = twisted_mean_table(phis[k], probes, radii, m=m)
        want = (constants.tsm_product_constant(1, k)
                * laguerre_function(spec, radii)[None, :]
                * laguerre_function(spec, np.abs(centers))[:, None])
        err = np.abs(got - want) / (1.0 + np.abs(want))
        worst = max(worst, float(err.max()))
        rows += [["product_relation", str(k), fmt(r), fmt(e)]
                 for row in err for r, e in zip(radii, row)]
    checks.append(Check("product_relation", worst, 1e-8))

    worst_orth = 0.0
    worst_const = 0.0
    for k in range(3):
        proj = spectral_projections(phis[k], list(range(3)), probes)
        for mdeg in range(3):
            ref = (2.0 * np.pi) * laguerre_function(LaguerreSpec(k, 0), np.abs(probes[:, 0])) \
                if mdeg == k else np.zeros(len(probes))
            err = float(np.max(np.abs(proj[:, mdeg] - ref)))
            if mdeg == k:
                worst_const = max(worst_const, err)
            else:
                worst_orth = max(worst_orth, err)
            rows.append(["orthogonality", f"{k},{mdeg}", "", fmt(err)])
    checks.append(Check("orthogonality", worst_orth, 1e-8))
    checks.append(Check("expansion_constant", worst_const, 1e-8))

    w = cfg["field.width"]
    fgauss = SampledField.from_function(
        lambda p: np.exp(-np.abs(p[:, 0]) ** 2 / w).astype(complex), rule,
        name="gaussian")
    rrule = radial_rule(1, extent=cfg["grid.extent"],
                        points=cfg["grid.radial_points"])
    worst = 0.0
    for z in centers[:2]:
        prof = mean_profile(fgauss, [z], radial_rule=rrule, m=m)
        row = spectral_projections(fgauss, list(range(5)), [[z]])[0]
        for k, direct in enumerate(row):
            bridged = polar_bridge(prof, k, 1)
            err = abs(bridged - direct) / (1.0 + abs(direct))
            worst = max(worst, err)
            rows.append(["polar_vs_projection", str(k), fmt(abs(z)), fmt(err)])
    checks.append(Check("polar_vs_projection", worst, 1e-6))

    eta = np.array([0.5 - 0.35j])
    zeta = 0.3 + 0.6j
    tf = twisted_translate(fgauss, eta)
    a = np.abs(twisted_mean_table(tf, [eta + zeta], radii, m=m)[0])
    b = np.abs(twisted_mean_table(fgauss, [[zeta]], radii, m=m)[0])
    err = np.abs(a - b) / (1.0 + b)
    rows += [["translate_covariance", "", fmt(r), fmt(e)] for r, e in zip(radii, err)]
    checks.append(Check("translate_covariance", err.max(), 1e-8))

    worst = 0.0
    for k in range(kmax + 1):
        res = radial_operator_residual(
            lambda rho, _s=LaguerreSpec(k, 0): laguerre_function(_s, rho),
            1, 2 * k + 1)
        worst = max(worst, res)
        rows.append(["radial_eigenrelation", str(k), "", fmt(res)])
    checks.append(Check("radial_eigenrelation", worst, 1e-6))

    z0 = centers[0]
    small = abs(twisted_mean_table(fgauss, [[z0]], [1e-3], m=m)[0, 0]
                - fgauss.evaluate(np.array([[z0]]))[0])
    rows.append(["mean_continuity", "", "1e-3", fmt(small)])
    checks.append(Check("mean_continuity", float(small), 1e-4))

    write_csv(out / "identities.csv", ["check", "degree", "r", "error"], rows)
    return checks


def run_tsm_eval(cfg: dict, out: Path) -> list[Check]:
    f = _field(cfg)
    z = cfg["profile.center_re"] + 1j * cfg["profile.center_im"]
    radii = np.geomspace(cfg["profile.r_min"], cfg["profile.r_max"],
                         cfg["profile.r_count"])
    prof = mean_profile(f, [z], radii=radii, m=cfg["mean.circle_points"])
    prof.to_csv(out / "profile.csv")
    return []


def run_project(cfg: dict, out: Path) -> list[Check]:
    f = _field(cfg)
    K = cfg["project.max_degree"]
    trunc = special_hermite_truncation(f, K)
    coeffs = trunc.coefficients
    rows = [[str(a), str(b), fmt(coeffs[a, b].real), fmt(coeffs[a, b].imag)]
            for a in range(K + 1) for b in range(K + 1)]
    write_csv(out / "coefficients.csv", ["alpha", "beta", "re", "im"], rows)

    errs = trunc.partial_errors(f) / f.grid_norm()
    write_csv(out / "reconstruction.csv", ["K", "relative_error"],
              [[str(k), fmt(e)] for k, e in enumerate(errs)])
    decay = errs[-1] / errs[0] if errs[0] > 0 else 0.0
    return [Check("reconstruction_decay", decay, 1e-3)]


def run_expand_qk(cfg: dict, out: Path) -> list[Check]:
    k = cfg["expand.degree"]
    p = cfg["expand.sector_p"]
    w = cfg["field.width"]
    rule = _grid(cfg)
    fn = lambda pts: pts[:, 0] ** p * np.exp(-np.abs(pts[:, 0]) ** 2 / w)
    f = SampledField.from_function(fn, rule, name=f"sector_p{p}")
    qvals = spectral_projections(f, [k])[:, 0]
    qk = SampledField(rule, qvals, name=f"Q{k}")
    exp_fit = fit_projection_expansion(qk, k, q_max=cfg["expand.q_max"])
    write_json(out / "expansion.json", exp_fit.as_dict())

    held = np.array([0.37 + 0.21j, -0.9 + 0.4j, 1.3 - 0.7j, 0.1 - 1.1j, 2.0 + 0.3j])
    ref = projection_values(f, k, held[:, None])
    pred = exp_fit.predict(held)
    scale = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(pred - ref))) / scale if scale > 0 else 0.0
    sector = exp_fit.dominant_sector()
    mags = np.abs(np.concatenate([exp_fit.coeff_p, exp_fit.coeff_q[1:]]))
    top = float(np.max(mags))
    others = float(np.sort(mags)[-2]) if mags.size > 1 else 0.0
    leak = others / top if top > 0 else 0.0
    write_csv(out / "heldout.csv", ["re_z", "im_z", "re_ref", "im_ref",
                                    "re_pred", "im_pred"],
              [[fmt(z.real), fmt(z.imag), fmt(r.real), fmt(r.imag),
                fmt(q.real), fmt(q.imag)] for z, r, q in zip(held, ref, pred)])
    checks = [Check("fit_heldout", err, 1e-6),
              Check("sector_localization",
                    leak if sector == ("p", p) else 1.0, 1e-6)]
    return checks


def run_counterexample(cfg: dict, out: Path) -> list[Check]:
    if cfg["counterexample.engine"] == "twisted":
        P = solid_harmonic_basis(1, 1, 2)[0]
        spec = TypeFunctionSpec(P)
        report = hecke_bochner_counterexample(
            spec, sphere_orders=(cfg["mean.sphere3_t"], cfg["mean.sphere3_phi1"],
                                 cfg["mean.sphere3_phi2"]))
        write_json(out / "vanishing.json", report.as_dict())
        ratio = report.max_on_set / report.field_peak
        return [Check("certificate", ratio, 1e-8)]
    N = cfg["counterexample.n_lines"]
    f = coxeter_odd_counterexample(N)
    per = cfg["counterexample.centers_per_line"]
    t = np.linspace(-cfg["counterexample.extent"], cfg["counterexample.extent"],
                    per + 1)
    t = t[t != 0.0]
    centers = np.concatenate([t * np.exp(1j * np.pi * l / N) for l in range(N)])
    radii = np.geomspace(cfg["counterexample.r_min"], cfg["counterexample.r_max"],
                         cfg["counterexample.r_count"])
    table = euclidean_mean_table(f, centers, radii)
    write_mean_table(out / "means.csv", centers, radii, table)
    peak = float(np.max(np.abs(f.values)))
    ratio = float(np.max(np.abs(table))) / peak
    write_json(out / "certificate.json",
               {"n_lines": N, "max_mean_ratio": ratio, "field_peak": peak,
                "centers": len(centers), "radii": len(radii)})
    return [Check("certificate", ratio, 1e-10)]


def run_probe(cfg: dict, out: Path) -> list[Check]:
    radii = np.geomspace(cfg["probe.r_min"], cfg["probe.r_max"],
                         cfg["probe.r_count"])
    kind = cfg["probe.kind"]
    if kind == "coxeter_lines":
        sset = make_set("coxeter_lines", radii=radii,
                        n_lines=cfg["probe.n_lines"], extent=cfg["probe.extent"],
                        points_per_ray=cfg["probe.points_per_ray"])
    elif kind == "sphere":
        sset = make_set("sphere", radii=radii, radius=cfg["probe.extent"], n=1)
    else:
        sset = make_set("curve", radii=radii,
                        r_profile=lambda t: np.exp(-t / (4.0 * np.pi)) * cfg["probe.extent"],
                        samples=8 * cfg["probe.points_per_ray"])
    K = cfg["probe.max_degree"]
    if cfg["probe.engine"] == "twisted":
        op = assemble_operator(sset, K, engine="twisted")
    else:
        op = assemble_operator(sset, engine="euclidean",
                               basis=euclidean_sector_basis(K, support_radii=(1.0, 0.6)))
    steps = cfg["probe.degree_steps"]
    report = injectivity_probe(op, cfg["probe.near_null_threshold"],
                               degree_steps=steps)
    write_json(out / "report.json", report.as_dict())
    sigma_curve_to_csv(report, out / "sigma.csv")
    if cfg["probe.export_matrix"]:
        operator_to_csv(op, out / "operator.csv")
    return []


RUNNERS = {
    "verify-identities": run_verify_identities,
    "tsm-eval": run_tsm_eval,
    "project": run_project,
    "expand-qk": run_expand_qk,
    "counterexample": run_counterexample,
    "probe": run_probe,
}


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tsmlab",
        description="Twisted spherical mean experiments on C^n.")
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--experiment", default="verify-identities",
                        choices=EXPERIMENTS)
    parser.add_argument("--out", default=None, help="output directory "
                        "(default: run.out from config)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="config override, repeatable")
    parser.add_argument("--list-checks", action="store_true",
                        help="list the named checks per experiment and exit")
    args = parser.parse_args(argv)

    if args.list_checks:
        for exp in EXPERIMENTS:
            names = CHECK_NAMES[exp]
            print(f"{exp}: {', '.join(names) if names else '(emits artifacts only)'}")
        return 0

    try:
        cfg = load_config(args.config, args.override)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    out = Path(args.out if args.out is not None else cfg["run.out"])
    try:
        checks = RUNNERS[args.experiment](cfg, out)
    except QuadratureError as e:
        # a rule the config asks for fails its self-check; every runner
        # builds its rules before it writes an artifact, so none exists
        print(f"config error: {e}", file=sys.stderr)
        return 2

    manifest = {
        "experiment": args.experiment,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in sorted(cfg.items())},
        "versions": {"tsmlab": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "frozen_constants": {
            "twist_sign": constants.TWIST_SIGN,
            "expansion_constant_n1": constants.expansion_constant(1),
            "sphere_surface_n1": constants.sphere_surface_area(1),
            "sphere_surface_n2": constants.sphere_surface_area(2),
            "regression": constants.REGRESSION,
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "checks": [{"name": c.name, "value": c.value, "tolerance": c.tolerance,
                    "passed": c.passed} for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    write_json(out / "manifest.json", manifest)

    for c in checks:
        print(c.line())
    if checks:
        ok = all(c.passed for c in checks)
        print(f"{'all checks passed' if ok else 'CHECKS FAILED'} "
              f"({sum(c.passed for c in checks)}/{len(checks)})")
        return 0 if ok else 1
    print(f"{args.experiment}: artifacts written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
