"""Sampled fields on plane rules, their interpolation, and export formats.

A field is a vector of samples bound to a ``PlaneRule`` grid; its
dimension is the rule's.  Real floating samples stay float64 and every
other kind is stored as complex128; a field's reads come back in its
samples' dtype.  A field may declare ``support_radius`` R: it is 0 at
every |z| > R, and construction rejects samples above 1e-12 of the peak
outside R (1 + 1e-12).  Fields built from closed forms keep their evaluator
(closed-form evaluation is exact and cheap and every operator prefers it);
fields reconstructed from raw samples (CSV import, hand-built arrays) fall
back to interpolation on the polar grid, and read 0 past a declared
support:

* trigonometric interpolation in each phase angle (the grids are uniform
  and the fields periodic, so this is spectrally accurate),
* barycentric polynomial interpolation through the Gauss-Legendre radial
  (and, for n = 2, inclination) nodes.

The angular DFT of the samples is taken once per field and cached, cut on
each phase axis to the band of frequencies [-F, F] whose columns reach
above eps times its largest magnitude, the FFT's own round-off (all m
columns when no narrower band holds them).  A read then runs, per chunk of
points, one real GEMM over the radial nodes, on C^2 one batched matmul over
the inclination nodes, and each phase angle's sum from two small tables of
running products of two exponentials built outward from frequency 0 (see
``interpolate_on_rule``).  On C a point costs about 4 N_r A'B' flop, nearly
all of it in the GEMM, where A'B' >= 2F + 1 is the band's laid-out column
count: about 67 kflop on the default rule (64 x 256) when every column is
kept, 12-20 kflop for an off-centre Gaussian exp(-(x^2/a + y^2/b)) with
widths a, b in [2, 4] (F = 22-38).

The combined interpolation budget for smooth rapidly-decaying fields on the
default rules is ~1e-8 relative and is pinned by tests; it is the accuracy
folded into operators that read fields off-grid.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldDomainError, GridMismatchError
from .ioutil import fmt, read_csv_columns, write_csv, write_json
from .quadrature import PlaneRule, RadialRule, plane_rule_from_params

_CHUNK = {1: 2048, 2: 512}


def _norm(d: np.ndarray) -> float:
    # np.linalg.norm of a complex vector goes through threaded BLAS, which
    # costs milliseconds per call when BLAS runs more than one thread
    return float(np.sqrt(np.sum(d.real ** 2 + d.imag ** 2)))


def _polar_coordinates(rule: PlaneRule, pts: np.ndarray):
    """Per-axis interpolation coordinates for points of shape (Q, n)."""
    if rule.dimension == 1:
        z = pts[:, 0]
        return [np.abs(z), np.mod(np.angle(z), 2.0 * np.pi)]
    a1, a2 = np.abs(pts[:, 0]), np.abs(pts[:, 1])
    return [np.sqrt(a1 * a1 + a2 * a2),
            np.arctan2(a2, a1),
            np.mod(np.angle(pts[:, 0]), 2.0 * np.pi),
            np.mod(np.angle(pts[:, 1]), 2.0 * np.pi)]


def _bary_matrix(x: np.ndarray, nodes: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Second-form barycentric weight rows on ascending nodes; a point
    within 1e-14 (times the largest |node|, at least 1) of its nearest node
    snaps to that node's one-hot row.  The rows are built in place in one
    (Q, N) array."""
    w = np.subtract.outer(x, nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(bw, w, out=w)
    right = np.clip(np.searchsorted(nodes, x), 1, nodes.size - 1)
    near = right - (x - nodes[right - 1] < nodes[right] - x)
    hit = np.flatnonzero(np.abs(x - nodes[near]) < 1e-14 * max(1.0, float(np.abs(nodes).max())))
    w[hit] = 0.0
    w[hit, near[hit]] = 1.0
    w /= w.sum(axis=1)[:, None]
    return w


@functools.lru_cache(maxsize=256)
def _phase_factors(n: int):
    """(K, B) laying the band of n frequencies -(n//2) .. n - 1 - n//2 out
    as f = B a + b with |a| <= K, |b| <= B // 2 and B odd, in column
    (a + K) B + b + B // 2 of (2K + 1) B.  B K <= F = n // 2 <= B K + B // 2,
    so no |B a| or |b| passes F.  Of those layouts, the one with the fewest
    columns (at least 2F + 1) plus table entries 2K + 1 + B, then the fewest
    columns, then the fewest rows 2K + 1."""
    F = n // 2
    fits = [(2 * (F // b) + 1, b) for b in range(1, 2 * F + 2, 2) if F % b <= b // 2]
    A, B = min(fits, key=lambda ab: (ab[0] * ab[1] + ab[0] + ab[1], ab[0] * ab[1], ab[0]))
    return A // 2, B


def _angular_coefficients(tensor: np.ndarray, axes):
    """(coef, bands): the DFT of the samples over the phase-angle ``axes``,
    divided by the number of angles, cut on each of those axes to a band of
    n frequencies -(n//2) .. n - 1 - n//2 and laid out by
    ``_phase_factors(n)``, other columns 0; one band count n per axis.

    An axis's band is the smallest [-F, F], n = 2F + 1, that holds every
    frequency whose column (all other axes) reaches above eps * max|coef|,
    the FFT's own round-off; when n would not be below the m angles, the
    band is all of them, n = m."""
    coef = np.fft.fftn(tensor, axes=axes)
    coef /= math.prod(tensor.shape[a] for a in axes)
    # fftshift order: frequency f in column f + m//2
    coef = np.fft.fftshift(coef, axes=axes)
    mag = np.abs(coef)
    floor = np.finfo(float).eps * mag.max(initial=0.0)
    bands, cut, pad = [], [slice(None)] * coef.ndim, [(0, 0)] * coef.ndim
    for ax in axes:
        m = coef.shape[ax]
        peak = mag.max(axis=tuple(a for a in range(mag.ndim) if a != ax))
        F = int(np.abs(np.flatnonzero(peak > floor) - m // 2).max(initial=0))
        n = min(2 * F + 1, m)
        K, B = _phase_factors(n)
        left = B * K + B // 2 - n // 2
        cut[ax] = slice(m // 2 - n // 2, m // 2 - n // 2 + n)
        pad[ax] = (left, (2 * K + 1) * B - left - n)
        bands.append(n)
    return np.pad(coef[tuple(cut)], pad), tuple(bands)


def _angular_sum(t: np.ndarray, theta: np.ndarray, n: int) -> np.ndarray:
    """Sum the last axis of t (Q, ..., (2K + 1) B), laid out by
    ``_phase_factors(n)``, against exp(i theta_q f): (Q, ...).

    exp(i theta f) factors into exp(i theta B a) exp(i theta b), so each
    point needs the 2K + 1 + B entries of two tables: the powers of
    exp(i theta) and of exp(i B theta), running products outward from
    frequency 0 and their conjugates for the negative powers.  That is 2
    exponentials per point, not n; no phase above F is formed, and those
    next to frequency 0, where a smooth field's coefficients are largest,
    take the fewest products."""
    K, B = _phase_factors(n)
    q = t.shape[0]
    e = np.exp(1j * (theta[None, :] * np.array([[1.0], [B]])))             # (2, Q)
    tables = []
    for w, k in zip(e, (B // 2, K)):
        p = np.empty((2 * k + 1, q), dtype=complex)                          # powers -k .. k
        p[k] = 1.0
        for j in range(k + 1, 2 * k + 1):
            np.multiply(p[j - 1], w, out=p[j])
        np.conjugate(p[:k:-1], out=p[:k])
        tables.append(p.T)
    eb, ea = tables
    u = t.reshape(q, -1, B) @ eb[:, :, None]                                # (Q, ... 2K + 1, 1)
    return (u.reshape(q, -1, 2 * K + 1) @ ea[:, :, None]).reshape(t.shape[:-1])


def _finite(points: np.ndarray, name: str) -> np.ndarray:
    """points (P, n), after checking that they are finite: ValueError
    naming the first non-finite one and its row otherwise."""
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ValueError(f"{name} must be finite, got {points[bad[0]]} at row {bad[0]}")
    return points


def _check_mode(out_of_domain: str):
    if out_of_domain not in ("raise", "zero"):
        raise ValueError(f"unknown out_of_domain mode {out_of_domain!r}")


def interpolate_on_rule(rule: PlaneRule, values: np.ndarray, points: np.ndarray,
                        out_of_domain: str = "raise", cache: dict | None = None):
    """Interpolate grid samples at arbitrary points (shape (Q, n) complex).

    Points with |z| beyond the grid extent raise FieldDomainError
    (``out_of_domain="raise"``) or read 0 without being interpolated
    (``"zero"``); any other mode is a ValueError, and so is a non-finite
    point in either mode, named with its row.  ``cache`` keeps the angular
    coefficients (``_angular_coefficients``) between calls, so ``values``
    is read only when it is empty.

    Per chunk of ``_CHUNK`` points, in order, with A'B' >= n the
    laid-out columns of a phase axis whose band holds n frequencies
    (``_phase_factors``):

    * the radial barycentric rows (Q, N_r) times the coefficients viewed as
      real numbers: one real GEMM, 4 N_r flop per point and coefficient;
    * on C^2, the inclination rows: one batched (1, N_t) x (N_t, 2 P1 P2)
      matmul, 4 N_t P1 P2 flop per point, P_s = A_s'B_s';
    * each phase angle through ``_angular_sum``: 2 exponentials, A' + B'
      table entries and A'B' complex multiply-adds per point and remaining
      column.

    On C a point costs 2 exponentials and about 4 N_r A'B' flop: 4 N_r
    (2F + 1) or a little more when the band is [-F, F], 67 kflop on the
    default 64 x 256 rule when it keeps all 256 columns (A'B' = 261).
    """
    _check_mode(out_of_domain)
    pts = np.asarray(points, dtype=complex)
    coords = _polar_coordinates(rule, pts)
    bad = ~(coords[0] <= rule.extent * (1.0 + 1e-12))
    keep = slice(None)
    if bad.any():
        # a non-finite point has a non-finite |z|, so it is among the bad ones
        _finite(pts, "points")
        if out_of_domain == "raise":
            i = int(np.argmax(bad))
            raise FieldDomainError(
                f"evaluation point {pts[i]} lies outside the sampled domain "
                f"|z| <= {rule.extent}", points=pts[bad])
        keep = np.flatnonzero(~bad)
        coords = [c[keep] for c in coords]
    if cache is None:
        cache = {}
    if "coef" not in cache:
        tensor = np.asarray(values, dtype=complex).reshape(rule.shape)
        # the phase angles are the last ``dimension`` axes of the grid
        phase_axes = tuple(range(tensor.ndim - rule.dimension, tensor.ndim))
        cache["coef"], cache["bands"] = _angular_coefficients(tensor, phase_axes)
    coef, bands = cache["coef"], cache["bands"]
    radial = coef.reshape(coef.shape[0], -1).view(float)
    vals = np.empty(coords[0].shape[0], dtype=complex)
    step = _CHUNK[rule.dimension]
    for s in range(0, vals.shape[0], step):
        sl = slice(s, s + step)
        r = np.clip(coords[0][sl], 0.0, rule.extent)
        q = r.shape[0]
        # the radial rows are a temporary of the GEMM, freed before the phase
        # tables: kept to the chunk's end they raise each read's heap peak,
        # which glibc then trims and page-faults back on the next read
        t = _bary_matrix(r, rule.radial_nodes, rule.barycentric("radial")) @ radial
        t = t.view(complex).reshape((q,) + coef.shape[1:])
        if rule.dimension == 2:
            wt = _bary_matrix(coords[1][sl], rule.theta_nodes, rule.barycentric("theta"))
            t = wt[:, None, :] @ t.reshape(q, coef.shape[1], -1).view(float)
            t = _angular_sum(t.view(complex).reshape((q,) + coef.shape[2:]),
                             coords[3][sl], bands[1])
        # coords[-n] is the first phase angle: arg z on C, arg z1 on C^2
        vals[sl] = _angular_sum(t, coords[-rule.dimension][sl], bands[0])
    out = np.zeros(pts.shape[0], dtype=complex)
    out[keep] = vals
    return out


@dataclass
class SampledField:
    """Samples of a field on C^n bound to a plane rule: real when given as
    real floating samples, complex otherwise.

    ``support_radius`` R declares the field 0 at every |z| > R; the
    default, infinity, declares nothing and costs nothing.  Construction
    rejects samples above 1e-12 of the peak outside R (1 + 1e-12);
    smaller ones are accepted.  The mean tables read no sphere that misses
    the ball, so a mean there is 0 with an evaluator too, even one that
    leaks past R.
    """

    rule: PlaneRule
    values: np.ndarray
    evaluator: object = None     # callable (Q, n) complex -> (Q,), or None
    name: str = ""
    support_radius: float = math.inf
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values)
        real = np.issubdtype(vals.dtype, np.floating)
        self.values = vals.astype(float if real else complex, copy=False).ravel()
        if self.values.shape[0] != self.rule.size:
            raise GridMismatchError(
                f"{self.values.shape[0]} values for {self.rule.size} nodes")
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("field values must be finite")
        if not self.support_radius > 0:
            raise ValueError(f"support radius must be positive, got {self.support_radius}")
        if self.support_radius < math.inf:
            # every node's |z| is its radius: samples are radius-major
            mag = np.abs(self.values).reshape(self.rule.radial_nodes.size, -1)
            outside = self.rule.radial_nodes > self.support_radius * (1 + 1e-12)
            peak, tail = mag.max(initial=0.0), mag[outside].max(initial=0.0)
            if tail > 1e-12 * peak:
                raise ValueError(
                    f"samples reach {tail:.2e} outside the declared support "
                    f"radius {self.support_radius} (peak {peak:.2e})")

    @property
    def dimension(self) -> int:
        return self.rule.dimension

    @classmethod
    def from_function(cls, fn, rule: PlaneRule, name: str = "") -> "SampledField":
        return cls(rule, np.asarray(fn(rule.nodes), dtype=complex), evaluator=fn, name=name)

    def evaluate(self, points, out_of_domain: str = "raise") -> np.ndarray:
        """Field values at points of shape (..., n) complex, in the
        samples' dtype.

        Uses the retained closed form when available; otherwise interpolates
        on the grid (domain-checked: ``out_of_domain`` is "raise" or "zero"),
        reading 0 past a declared support without interpolating.
        """
        _check_mode(out_of_domain)
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 0 or pts.shape[-1] != self.dimension:
            raise ValueError(f"points must have last axis {self.dimension}")
        flat = pts.reshape(-1, self.dimension)
        dtype = self.values.dtype
        if self.evaluator is not None:
            out = np.asarray(self.evaluator(flat), dtype=dtype).reshape(flat.shape[0])
        elif self.support_radius == math.inf:
            out = interpolate_on_rule(self.rule, self.values, flat,
                                      out_of_domain, self._cache)
        else:
            # past a declared support the field is 0 and is not interpolated
            r = np.linalg.norm(_finite(flat, "points"), axis=1)
            inside = np.flatnonzero(r <= self.support_radius * (1 + 1e-12))
            out = np.zeros(flat.shape[0], dtype=complex)
            out[inside] = interpolate_on_rule(self.rule, self.values, flat[inside],
                                              out_of_domain, self._cache)
        if dtype != out.dtype:
            out = out.real
        return out.reshape(pts.shape[:-1])

    # -- diagnostics -------------------------------------------------------

    def grid_norm(self) -> float:
        """Plain l2 norm of the sample vector."""
        return _norm(self.values)

    # -- serialization -----------------------------------------------------

    def to_csv(self, csv_path, header_path=None):
        """Write samples in node order plus a JSON grid header."""
        header_path = header_path or str(csv_path) + ".json"
        cols = []
        names = []
        nodes = self.rule.nodes
        for j in range(self.dimension):
            names += [f"re_z{j + 1}", f"im_z{j + 1}"]
            cols += [nodes[:, j].real, nodes[:, j].imag]
        names += ["re_f", "im_f"]
        cols += [self.values.real, self.values.imag]
        write_csv(csv_path, names, zip(*[[fmt(v) for v in c] for c in cols]))
        write_json(header_path, {
            "schema": "tsmlab.sampled_field.v1",
            "dimension": self.dimension,
            "name": self.name,
            "points": int(self.values.shape[0]),
            "real": bool(self.values.dtype == float),
            "rule": self.rule.params,
            "support_radius": None if self.support_radius == math.inf else self.support_radius,
        })

    @classmethod
    def from_csv(cls, csv_path, header_path=None) -> "SampledField":
        """Read ``to_csv`` output; header keys it does not use (such as the
        decay class of older files) are ignored, and a header without
        ``real`` or ``support_radius`` reads as complex samples with an
        infinite support."""
        header_path = header_path or str(csv_path) + ".json"
        with open(header_path, encoding="utf-8") as fh:
            head = json.load(fh)
        if head.get("schema") != "tsmlab.sampled_field.v1":
            raise ValueError(f"unrecognized field header schema in {header_path}")
        rule = plane_rule_from_params(head["rule"])
        data = read_csv_columns(csv_path)
        vals = np.asarray(data["re_f"])
        if not head.get("real", False):
            vals = vals + 1j * np.asarray(data["im_f"])
        if vals.shape[0] != head["points"]:
            raise ValueError("CSV row count disagrees with header")
        support = head.get("support_radius")
        return cls(rule, vals, name=head.get("name", ""),
                   support_radius=math.inf if support is None else float(support))


@dataclass
class MeanProfile:
    """Twisted spherical means of one field at one center over a radius grid."""

    center: np.ndarray           # (n,) complex
    radii: np.ndarray            # (M,) nonnegative, strictly increasing
    values: np.ndarray           # (M,) complex
    radial_rule: RadialRule | None = None   # set when radii are its nodes

    def __post_init__(self):
        self.center = np.atleast_1d(np.asarray(self.center, dtype=complex))
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.radii.ndim != 1 or self.radii.shape != self.values.shape:
            raise ValueError("radii and values must be matching 1-d arrays")
        if np.any(np.diff(self.radii) <= 0) or np.any(self.radii < 0):
            raise ValueError("radii must be nonnegative and strictly increasing")

    def to_csv(self, path):
        rows = ([fmt(r), fmt(v.real), fmt(v.imag)]
                for r, v in zip(self.radii, self.values))
        write_csv(path, ["r", "re", "im"], rows)


@dataclass
class SpectrumTruncation:
    """Degreewise pieces Q_k = f x phi_k of a field, k = 0..max_degree.

    For n = 1 the matrix of special Hermite coefficients <f, phi_(a,b)>,
    a, b <= max_degree, may ride along.
    """

    dimension: int
    max_degree: int
    projections: list          # SampledField per degree
    coefficients: np.ndarray | None = None

    def partial_errors(self, f: SampledField) -> np.ndarray:
        """Grid-l2 errors of the partial sums against f, one per degree."""
        c = (2.0 * np.pi) ** (-self.dimension)
        acc = np.zeros_like(f.values)
        errs = []
        for qk in self.projections:
            acc = acc + c * qk.values
            errs.append(_norm(acc - f.values))
        return np.array(errs)
