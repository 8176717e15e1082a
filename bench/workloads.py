"""The four benchmark workloads, their seeded inputs and their oracles.

A workload is a list of jobs.  Each job is one operation: it fails when it
raises, when a CLI run exits non-zero, or when an oracle check lands outside
its tolerance.  Oracles are independent of the code under test where a
closed form exists (numpy's Laguerre and Bessel routines, Gaussian
integrals) and reuse a tolerance the repository already pins.  The seed
changes input values only -- centres, offsets, rotations, targets -- never a
size.  CLI jobs run the shipped ``defaults.cfg`` (plus the documented
overrides), because that is the traffic users run.

Library functions are reached through module attributes at call time so
that spans installed by ``spans.install`` see every call.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tsmlab import cli, constants
from tsmlab import fields as fl
from tsmlab import injectivity_lab as inj
from tsmlab import quadrature as qd
from tsmlab import twisted_transforms as tt

# tolerances the repository already uses
TOL_REGRESSION = 1e-10     # frozen sigma_min, test_acceptance criterion 6
TOL_COEFF = 1e-10          # special Hermite coefficients, test_twisted_transforms
TOL_OPERATOR = 1e-8        # product relation / orthogonality, criteria 2-3
TOL_TENSOR = 1e-6          # tensor pieces vs direct Q_k, criterion 8
TOL_OFFMASS = 1e-8         # plane_block_offmass, test_injectivity_lab
TOL_SAMPLED = 1e-8         # interpolation budget in the fields docstring


@dataclass
class Check:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[Check]] = lambda out: []


@dataclass
class Workload:
    jobs: list[Job]
    sizes: dict = field(default_factory=dict)
    min_passes: int = 1     # passes a run makes even when they overrun --seconds


def run_jobs(jobs: list[Job], span=None) -> list[dict]:
    """Run each job and its oracle; one outcome record per job.

    status is "ok", "error" (an exception: no output to judge) or "wrong"
    (an oracle check outside tolerance or a non-zero CLI exit).
    """
    span = span or (lambda name: nullcontext())
    outcomes = []
    for job in jobs:
        rec = {"job": job.name, "status": "ok"}
        try:
            with span(f"job.{job.name}"):
                out = job.run()
            with span(f"check.{job.name}"):
                checks = job.check(out)
        except Exception as e:  # a failing operation is counted, the pass goes on
            rec.update(status="error", error=f"{type(e).__name__}: {e}")
        else:
            bad = [c for c in checks if not c.passed]
            if bad:
                rec.update(status="wrong", checks=[
                    {"name": c.name, "value": c.value, "tolerance": c.tolerance}
                    for c in bad])
        outcomes.append(rec)
    return outcomes


def tally(outcomes: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, correct): correct means no output was wrong."""
    failed = sum(o["status"] != "ok" for o in outcomes)
    return len(outcomes), failed, not any(o["status"] == "wrong" for o in outcomes)


# ---------------------------------------------------------------------------
# independent closed forms


def _laguerre(k: int, x):
    """L_k(x) through numpy's Laguerre series, not tsmlab's recurrence."""
    return np.polynomial.laguerre.lagval(x, [0.0] * k + [1.0])


def gaussian_projection_weights(width: float, K: int) -> np.ndarray:
    """a_k with (2 pi)^-1 Q_k f = a_k L_k(|z|^2/2) e^(-|z|^2/4) for the
    radial f = exp(-|z|^2/width): a_k = (s-1)^k / s^(k+1), s = 2/width + 1/2,
    from int_0^inf e^(-s t) L_k(t) dt."""
    s = 2.0 / width + 0.5
    return np.array([(s - 1.0) ** k / s ** (k + 1) for k in range(K + 1)])


def gaussian_twisted_mean(width: float, z: complex, r: np.ndarray) -> np.ndarray:
    """Twisted circle mean of exp(-|z|^2/width) at centre z:
    e^(-(|z|^2 + r^2)/width) I_0(|z| r sqrt(4/width^2 - 1/4)), valid for
    width < 4 where the Bessel argument is real."""
    if width >= 4.0:
        raise ValueError("closed form implemented for width < 4")
    rho = abs(z)
    arg = rho * r * math.sqrt(4.0 / width ** 2 - 0.25)
    return np.exp(-(rho ** 2 + r ** 2) / width) * np.i0(arg)


def _rel_max(got, ref) -> float:
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(np.asarray(got) - ref))) / scale if scale else float("inf")


def _disk(rng, n: int, r_min: float, r_max: float) -> np.ndarray:
    rad = rng.uniform(r_min, r_max, n)
    return rad * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def _read_csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: np.array([float(r[i]) for r in rows[1:]])
            for i, name in enumerate(rows[0])}


# ---------------------------------------------------------------------------
# CLI jobs


def _cli_job(name: str, experiment: str, overrides: list[str], work: Path,
             check=None) -> Job:
    out = work / name
    argv = ["--experiment", experiment, "--out", str(out)]
    for ov in overrides:
        argv += ["--override", ov]

    def checks(code):
        found = [Check("exit_code", float(code), 0.0)]
        return found + (check(out) if check is not None and code == 0 else [])

    return Job(name, lambda: cli.main(argv), checks)


def _probe_checks(rows: int, cols: int, frozen: float | None = None):
    def check(out: Path) -> list[Check]:
        rep = json.loads((out / "report.json").read_text("utf-8"))
        sig = np.asarray(rep["sigma"])
        found = [Check("shape", float(rep["rows"] != rows or rep["cols"] != cols), 0.0),
                 Check("sigma_sorted_finite",
                       float(not (np.all(np.isfinite(sig)) and np.all(np.diff(sig) <= 0))),
                       0.0)]
        if frozen is not None:
            got = rep["sigma_curve"][str(rep["K"])]
            found.append(Check("sigma_min_regression", abs(got - frozen) / frozen,
                               TOL_REGRESSION))
        return found
    return check


def spectral_c1(rng, work: Path) -> Workload:
    """`project` at the shipped defaults: every grid node is a target."""
    cfg = cli.load_config(None, [])
    K, width = cfg["project.max_degree"], cfg["field.width"]
    nr, na, extent = cfg["grid.radial_points"], cfg["grid.angular_points"], cfg["grid.extent"]

    def check(out: Path) -> list[Check]:
        a = gaussian_projection_weights(width, K)
        coef = _read_csv(out / "coefficients.csv")
        C = np.zeros((K + 1, K + 1), dtype=complex)
        C[coef["alpha"].astype(int), coef["beta"].astype(int)] = coef["re"] + 1j * coef["im"]
        ref = np.diag(math.sqrt(2.0 * math.pi) * a)
        # partial sums of (2 pi)^-1 Q_k are radial: the grid norm is the
        # radial sum times the angular count
        x, _ = np.polynomial.legendre.leggauss(nr)
        r = 0.5 * extent * (x + 1.0)
        f = np.exp(-r ** 2 / width)
        partial = np.cumsum([a[k] * _laguerre(k, 0.5 * r * r) * np.exp(-0.25 * r * r)
                             for k in range(K + 1)], axis=0)
        errs = np.linalg.norm(partial - f[None, :], axis=1) / np.linalg.norm(f)
        got = _read_csv(out / "reconstruction.csv")["relative_error"]
        return [Check("coefficients_closed_form", float(np.max(np.abs(C - ref))), TOL_COEFF),
                Check("reconstruction_closed_form", float(np.max(np.abs(got - errs))),
                      TOL_OPERATOR)]

    nodes = nr * na
    return Workload([_cli_job("project", "project", [], work, check)],
                    {"nodes": nodes, "targets": nodes, "pairs": nodes * nodes,
                     "degrees": K + 1, "grid": [nr, na]})


def probe_sweep(rng, work: Path) -> Workload:
    """Operator assembly, SVDs and certificates, plus the light experiments."""
    cfg = cli.load_config(None, [])
    radii = cfg["probe.r_count"]
    K = cfg["probe.max_degree"]
    ppr = cfg["probe.points_per_ray"]

    def lines(n):   # 2 rays per line, points_per_ray each, plus the origin
        return 2 * n * ppr + 1

    twisted_cols = (K + 1) ** 2
    euclid_cols = 2 * (2 * K + 1)     # support radii (1.0, 0.6) x (cos 0..K, sin 1..K)
    sphere_centres = 24               # make_set("sphere") default m
    centre = complex(*rng.uniform(-1.0, 1.0, 2))
    width = cfg["field.width"]

    def profile_check(out: Path) -> list[Check]:
        prof = _read_csv(out / "profile.csv")
        ref = gaussian_twisted_mean(width, centre, prof["r"])
        got = prof["re"] + 1j * prof["im"]
        return [Check("profile_closed_form",
                      float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref)))), TOL_OPERATOR)]

    n1 = cfg["probe.n_lines"]
    shapes = {"probe": (lines(n1) * radii, twisted_cols),
              "probe-n_lines3": (lines(3) * radii, twisted_cols),
              "probe-sphere": (sphere_centres * radii, twisted_cols),
              "probe-euclidean": (lines(n1) * radii, euclid_cols)}
    frozen = constants.REGRESSION["twisted_sigma_min_coxeter2_K10"]
    jobs = [
        _cli_job("probe", "probe", [], work, _probe_checks(*shapes["probe"], frozen)),
        _cli_job("probe-n_lines3", "probe", ["probe.n_lines=3"], work,
                 _probe_checks(*shapes["probe-n_lines3"])),
        _cli_job("probe-sphere", "probe", ["probe.kind=sphere"], work,
                 _probe_checks(*shapes["probe-sphere"])),
        _cli_job("probe-euclidean", "probe", ["probe.engine=euclidean"], work,
                 _probe_checks(*shapes["probe-euclidean"])),
        _cli_job("counterexample-euclidean", "counterexample", [], work),
        _cli_job("counterexample-twisted", "counterexample",
                 ["counterexample.engine=twisted"], work),
        _cli_job("verify-identities", "verify-identities", [], work),
        _cli_job("tsm-eval", "tsm-eval",
                 [f"profile.center_re={centre.real!r}", f"profile.center_im={centre.imag!r}"],
                 work, profile_check),
    ]
    return Workload(jobs,
                    {"operators": {k: list(v) for k, v in shapes.items()},
                     "profile_centre": [centre.real, centre.imag]})


def tensor_c2(rng, work: Path) -> Workload:
    """The n = 2 paths: slot convolutions, S^3 quadrature, product bases."""
    rule = qd.plane_rule(2, extent=10.0, radial_points=28, sphere3_orders=(10, 40, 40))
    c1, c2 = _disk(rng, 2, 0.0, 0.5)
    f = fl.SampledField.from_function(
        lambda p: np.exp(-(np.abs(p[:, 0] - c1) ** 2 / 3.0
                           + 1.3 * np.abs(p[:, 1] - c2) ** 2 / 4.0)).astype(complex),
        rule, name="gauss_offset")
    rotation = float(rng.uniform(0.0, 2.0 * np.pi))
    sset = inj.make_set("plane_cross_coxeter", radii=np.geomspace(0.4, 3.0, 4),
                        rotation=rotation, n_lines=2, extent=2.5, points_per_ray=2)
    basis = inj.ProductHermiteBasis((1, 1))
    k = 2

    def tensor_check(pieces) -> list[Check]:
        total = np.sum([p.values for p in pieces], axis=0)
        direct = tt.projection_values(f, k, pieces[0].rule.nodes)
        return [Check("pieces_vs_direct_q2",
                      float(np.linalg.norm(total - direct) / np.linalg.norm(direct)),
                      TOL_TENSOR)]

    jobs = [
        Job("tensor-q2",
            lambda: tt.tensor_decompose_projection(f, k), tensor_check),
        Job("product-operator",
            lambda: inj.assemble_operator(sset, basis=basis, sphere_orders=(8, 16, 16)),
            lambda op: [Check("plane_block_offmass", inj.plane_block_offmass(op),
                              TOL_OFFMASS)]),
    ]
    return Workload(jobs,
                    {"nodes": int(rule.nodes.shape[0]), "degree": k,
                     "operator": [sset.n_rows, basis.ncols],
                     "field_offsets": [[c1.real, c1.imag], [c2.real, c2.imag]],
                     "set_rotation": rotation})


def sample_only(rng, work: Path) -> Workload:
    """Every field read goes through grid interpolation (no evaluator)."""
    cfg = cli.load_config(None, [])
    rule = qd.plane_rule(1, extent=cfg["grid.extent"],
                         radial_points=cfg["grid.radial_points"],
                         angular_points=cfg["grid.angular_points"])
    cx, cy = rng.uniform(-0.7, 0.7, 2)
    a, b = rng.uniform(2.0, 4.0, 2)
    exact = fl.SampledField.from_function(
        lambda p: np.exp(-((p[:, 0].real - cx) ** 2 / a
                           + (p[:, 0].imag - cy) ** 2 / b)).astype(complex),
        rule, name="gauss_offcentre")
    path = work / "field.csv"
    exact.to_csv(path)
    sampled = fl.SampledField.from_csv(path)

    radii = np.geomspace(0.2, 6.0, 24)
    centres = _disk(rng, 12, 0.0, 3.0)
    shifts = _disk(rng, 2, 0.0, 1.0)
    targets = np.concatenate([[0.0], _disk(rng, 4, 0.5, 3.0)])
    degrees = [0, 1, 2, 3]

    def against(fn):
        return lambda got: [Check("matches_evaluator", _rel_max(got, fn(exact)), TOL_SAMPLED)]

    jobs = [Job("csv-roundtrip", lambda: sampled, lambda g: [
        Check("bit_exact", float(not (np.array_equal(g.values, exact.values)
                                      and g.rule.params == exact.rule.params)), 0.0)])]
    for i, z in enumerate(centres):
        jobs.append(Job(f"profile-{i}",
                        lambda z=z: tt.mean_profile(sampled, [z], radii=radii).values,
                        against(lambda fld, z=z: tt.mean_profile(fld, [z], radii=radii).values)))
    for i, eta in enumerate(shifts):
        jobs.append(Job(f"translate-{i}",
                        lambda eta=eta: tt.twisted_translate(sampled, [eta]).values,
                        against(lambda fld, eta=eta: tt.twisted_translate(fld, [eta]).values)))
    for i, z in enumerate(targets):
        tgt = np.array([[z]])
        name = "project-origin" if z == 0 else f"project-offorigin-{i}"
        jobs.append(Job(name,
                        lambda tgt=tgt: tt.spectral_projections(sampled, degrees, tgt),
                        against(lambda fld, tgt=tgt: tt.spectral_projections(fld, degrees, tgt))))
    # one 12 s pass spread by up to 24 % over ten seeds on a 2-vCPU host;
    # the median of two keeps it inside the wall_s bound
    return Workload(jobs,
                    {"nodes": int(rule.nodes.shape[0]), "profile_centres": len(centres),
                     "radii": len(radii), "translates": len(shifts),
                     "projection_targets": len(targets), "degrees": len(degrees),
                     "field_centre": [cx, cy], "field_widths": [a, b]},
                    min_passes=2)


WORKLOADS = {"spectral-c1": spectral_c1, "probe-sweep": probe_sweep,
             "tensor-c2": tensor_c2, "sample-only": sample_only}


def build(name: str, seed: int, work: Path) -> Workload:
    """The workload's jobs on inputs drawn from ``seed``; job outputs go
    under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](np.random.default_rng(seed), work)
