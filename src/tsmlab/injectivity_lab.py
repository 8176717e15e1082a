"""Candidate sampling sets, sampling operators, and injectivity probes.

The central object is the sampling operator M: rows are (center, radius)
pairs drawn from a candidate set S and a radius grid, columns are truncated
basis elements b, and

    M[(j, i), b] = (b x mu_(r_i))(z_j)

(twisted engine) or the plain circular mean, the same mean with the twist
set to 1 (euclidean engine).  Twisted
columns come from one basis, ``ProductHermiteBasis``: tensor products of
special Hermite functions, one factor per slot, so C is its one-slot case
and C^2 its two-slot case; it holds each column's slot indices as integer
arrays (a_s, b_s), and every per-column quantity (label, degree, block,
rotation class) comes from them.  Twisted rows are exact: every column is an
eigenfunction, so the product (Hecke-Bochner) relation factors its mean
into a Laguerre factor in r_i times the column at z_j, and the column is
a product over the slots: a twisted operator is one special Hermite table
per slot at the centers plus the Laguerre table, the design matrix and M
are formed only when read, and its singular values come from triangular
factors of the tables' blocks (see ``SamplingOperator``).  The
paper's sets are symmetric -- Sigma_N under rotation by pi/N, circles and
spheres under their rules' phase steps, the C^2 sets slot by slot -- and
a rotation of slot s multiplies phi_(a,b) by e^(i (a - b) t) there, so on
a set whose centers map onto themselves under z_s -> e^(2 pi i / q_s) z_s
(``SamplingSet.rotation_orders``, found on the centers whatever the kind,
so custom and translated sets split too) columns whose frequencies differ mod q_s
are orthogonal and M splits into independent blocks, one per rotation
class -- a residue class per slot -- each decomposed on its own.
Euclidean rows are circle averages, one untwisted ``twisted_mean_table``
of the basis on ``EUCLID_POINTS`` circle nodes, decomposed as they are:
``euclidean_means.EuclideanSectorBasis`` is itself a field of the table,
whose values are its matrix; every sector column is 0 outside the basis's
``support_radius``, so a row whose circle misses that disk is 0 and its
circle is not read.  A function with vanishing means on S corresponds to a
(near-)null vector of M, so sigma_min probes whether S can distinguish
fields at the truncation: small sigma_min plus an exhibited near-null
field certifies NON-injectivity at desk scale, while large sigma_min is
evidence only (see the caveat string).  The certificates remeasure the
candidates' means over the whole set by quadrature, independently of what
found them: twisted vectors by sphere quadrature against the closed form,
euclidean ones on ``CERTIFICATE_CIRCLE_POINTS`` circle nodes against
assembly's ``EUCLID_POINTS``, so a fault in assembly's quadrature shows.
One ``twisted_mean_table`` call takes all of a probe's vectors, on C^2
summed slot by slot (``SlotProduct``).

Also here: the Hecke-Bochner type-function scans (fields a(|z|) P(z) whose
twisted means vanish exactly on P^(-1)(0) plus possible spheres) and the
least-squares fit of the degree-k projection's sector expansion

    Q_k(z) = sum_p C[p] z^p phi_(k-p)^p(z) + sum_q D[q] conj(z)^q phi_k^q(z).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .constants import tsm_product_constant
from .errors import IllConditionedFitError
from .euclidean_means import CIRCLE_POINTS as EUCLID_POINTS
from .fields import SampledField, _integer
from .ioutil import fmt, write_csv, write_json
from .quadrature import gauss_legendre, plane_rule, sphere_rule
from .special_functions import (LaguerreSpec, SolidHarmonic, laguerre_function,
                                laguerre_sequence, special_hermite_indices,
                                special_hermite_matrix)
from .twisted_transforms import SlotProduct, twisted_mean_table

INJECTIVITY_CAVEAT = (
    "sigma_min > 0 at a finite truncation over a finite point sample is "
    "evidence, not proof: no finite computation certifies a set of "
    "injectivity. Only the negative direction is certified here, by "
    "exhibiting a concrete near-null field with vanishing means on the set.")

DEFAULT_RADII = tuple(np.geomspace(0.2, 6.0, 24))
# circle nodes of the euclidean certificates: not assembly's EUCLID_POINTS,
# so a certificate does not re-read the quadrature it certifies; a
# reflection across Sigma_N pairs the nodes of both when N | gcd(240, 300) = 60
CERTIFICATE_CIRCLE_POINTS = 300
# type functions carry the Gaussian exp(-|z|^2 / _TYPE_GAUSSIAN)
_TYPE_GAUSSIAN = 4.0

__all__ = [
    "INJECTIVITY_CAVEAT", "DEFAULT_RADII", "SamplingSet", "make_set",
    "ProductHermiteBasis", "SamplingOperator", "assemble_operator",
    "near_null_roundtrip", "InjectivityReport", "injectivity_probe",
    "TypeFunctionSpec", "VanishingSetReport", "hecke_bochner_counterexample",
    "ProjectionExpansion", "fit_projection_expansion", "plane_block_offmass",
    "operator_to_csv", "sigma_curve_to_csv",
]


# ---------------------------------------------------------------------------
# sampling sets


def _dedupe_sort(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic sort over (re, im) per component, then merge points
    closer than 1e-12; returns (centers, keep_indices)."""
    snapped = np.round(centers.real, 12) + 1j * np.round(centers.imag, 12)
    keys = np.concatenate([np.stack([snapped[:, j].real, snapped[:, j].imag],
                                    axis=1) for j in range(centers.shape[1])],
                          axis=1)
    order = np.lexsort(keys.T[::-1])
    sorted_c = centers[order]
    keep = [0] if len(order) else []
    for i in range(1, sorted_c.shape[0]):
        if np.max(np.abs(sorted_c[i] - sorted_c[keep[-1]])) > 1e-12:
            keep.append(i)
    keep = np.asarray(keep, dtype=int)
    return sorted_c[keep], order[keep]


def _coxeter_points(n_lines: int, extent: float, points_per_ray: int) -> np.ndarray:
    """Equispaced samples of Sigma_N: on each line t e^(i pi l / N), the
    points t in linspace(-extent, extent, 2 ppr + 1); one shared origin."""
    pts = []
    t = np.linspace(-extent, extent, 2 * points_per_ray + 1)
    for l in range(n_lines):
        pts.append(t * np.exp(1j * np.pi * l / n_lines))
    return np.concatenate(pts)


def _coxeter_distance(z: np.ndarray, n_lines: int) -> np.ndarray:
    """Distance indicator to Sigma_N for points of C: min over lines of the
    transverse component."""
    d = np.full(z.shape, np.inf)
    for l in range(n_lines):
        d = np.minimum(d, np.abs((z * np.exp(-1j * np.pi * l / n_lines)).imag))
    return d


@dataclass(frozen=True)
class SamplingSet:
    """A finite center set on a declared geometric locus plus a radius grid.

    ``center_weights`` (optional) carry quadrature weights when the centers
    come from an integration rule, one finite positive weight per center;
    operator-level Gram computations use them.  Rows of an operator built
    on this set are (center-major) pairs (center j, radius i).
    """
    kind: str
    dimension: int
    centers: np.ndarray
    radii: np.ndarray
    params: dict
    center_weights: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=complex)
        if c.ndim == 1:
            c = c[:, None]
        object.__setattr__(self, "centers", c)
        r = np.asarray(self.radii, dtype=float)
        object.__setattr__(self, "radii", r)
        if c.shape[1] != self.dimension:
            raise ValueError(f"centers must live in C^{self.dimension}")
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("centers must be finite")
        if r.size and (not np.all((r > 0) & (r < np.inf)) or np.any(np.diff(r) <= 0)):
            raise ValueError("radii must be finite, positive and strictly increasing")
        if self.center_weights is not None:
            w = np.asarray(self.center_weights, dtype=float)
            if w.shape != c.shape[:1] or not np.all((w > 0) & (w < np.inf)):
                raise ValueError("center_weights must hold one finite, positive "
                                 "weight per center")
            object.__setattr__(self, "center_weights", w)

    @property
    def n_rows(self) -> int:
        return self.centers.shape[0] * self.radii.shape[0]

    def row_meta(self) -> tuple[np.ndarray, np.ndarray]:
        """(center_index, radius_index) per operator row, center-major."""
        nc, nr = self.centers.shape[0], self.radii.shape[0]
        return np.repeat(np.arange(nc), nr), np.tile(np.arange(nr), nc)

    @functools.cached_property
    def rotation_orders(self) -> tuple[int, ...]:
        """q_s per slot: the largest q for which the centers map onto
        themselves under the rotation z_s -> e^(2 pi i / q) z_s of slot s
        alone, found on the centers.

        Take a center with the largest |z_s|: the n centers that share its
        |z_s| and its other slots lie on one circle that every such rotation
        maps onto itself, so q_s divides n, and q_s is the largest divisor
        of n whose rotation ``_maps_onto_itself`` accepts, to 1e-12 * max(1,
        max |center|) (max over the slots).  A slot whose centers all sit at
        its origin, and every slot of a set without centers, reports 1.  A
        twisted operator on the set splits its columns by these orders (see
        ``SamplingOperator``)."""
        c = self.centers
        tol = 1e-12 * max(1.0, float(np.max(np.abs(c), initial=0.0)))
        orders = []
        for s in range(self.dimension):
            mod, n = np.abs(c[:, s]), 0
            if mod.size and mod.max() > tol:
                others = np.delete(c - c[np.argmax(mod)], s, axis=1)
                n = int(np.sum((mod >= mod.max() - tol)
                               & (np.max(np.abs(others), axis=1, initial=0.0) <= tol)))
            orders.append(next((q for q in range(n, 1, -1)
                                if n % q == 0 and _maps_onto_itself(c, s, q, tol)), 1))
        return tuple(orders)

    def validate(self) -> None:
        """Check the membership invariant: centers lie on the declared set,
        to 1e-12 relative."""
        tol = 1e-12
        rot = self.params.get("rotation", 0.0)
        tr = np.asarray(self.params.get("translation", np.zeros(self.dimension)),
                        dtype=complex).reshape(self.dimension)
        base = (self.centers - tr[None, :]) * np.exp(-1j * rot)
        scale = np.maximum(1.0, np.abs(base))
        kind = self.kind
        if kind == "coxeter_lines":
            d = _coxeter_distance(base[:, 0], self.params["n_lines"])
            bad = d > tol * scale[:, 0]
        elif kind == "plane_cross_coxeter":
            d = _coxeter_distance(base[:, 1], 2 * self.params["n_lines"])
            bad = d > tol * scale[:, 1]
        elif kind == "sphere":
            rad = np.linalg.norm(base, axis=1)
            bad = np.abs(rad - self.params["radius"]) > tol * np.maximum(1.0, rad)
        elif kind == "sphere_cross_plane":
            rad = np.abs(base[:, 0])
            bad = np.abs(rad - self.params["radius"]) > tol * np.maximum(1.0, rad)
        elif kind == "curve":
            ts = np.asarray(self.params["ts"], dtype=float)
            rv = np.asarray(self.params["r_values"], dtype=float)
            ref = rv * np.exp(1j * ts)
            bad = np.abs(base[:, 0] - ref) > tol * np.maximum(1.0, np.abs(ref))
        elif kind == "custom":
            bad = np.zeros(self.centers.shape[0], dtype=bool)
        else:
            raise ValueError(f"unknown set kind {kind!r}")
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(f"center {self.centers[j]} is off the declared "
                             f"{kind} locus")


def _maps_onto_itself(centers: np.ndarray, slot: int, q: int, tol: float) -> bool:
    """Whether every center, slot ``slot`` rotated by 2 pi / q, lies within
    ``tol`` (max over the slots) of a center.  Candidates come from a
    sort on one generic real projection of the centers, which moves by at
    most tol * sum|w| between matching points; each candidate is then
    checked exactly."""
    moved = centers.copy()
    moved[:, slot] *= np.exp(2j * np.pi / q)
    w = np.sqrt([2.0, 3.0, 5.0, 7.0])[:2 * centers.shape[1]]
    key, target = (np.concatenate([c.real, c.imag], axis=1) @ w for c in (centers, moved))
    order = np.argsort(key)
    lo = np.searchsorted(key[order], target - tol * w.sum(), side="left")
    counts = np.searchsorted(key[order], target + tol * w.sum(), side="right") - lo
    owner = np.repeat(np.arange(centers.shape[0]), counts)
    cand = order[lo[owner] + np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)]
    close = np.max(np.abs(moved[owner] - centers[cand]), axis=1, initial=0.0) <= tol
    return bool(np.all(np.bincount(owner[close], minlength=centers.shape[0]) > 0))


def _apply_motion(centers: np.ndarray, rotation: float, translation) -> np.ndarray:
    tr = np.asarray(translation, dtype=complex).reshape(-1)
    return centers * np.exp(1j * rotation) + tr[None, :]


def make_set(kind: str, radii=None, rotation: float = 0.0, translation=None,
             **params) -> SamplingSet:
    """Deterministic center sampling for the candidate set families.

    kinds and their parameters:
      coxeter_lines        n_lines, extent=6.0, points_per_ray=10      (C)
      plane_cross_coxeter  n_lines, extent=3.0, points_per_ray=4,
                           plane_extent=6.0, plane_radial=12,
                           plane_angular=8                             (C^2,
                           Sigma_(2 n_lines) in the second slot, first slot
                           on an integration rule whose weights ride along)
      sphere               radius, n=1, m=24 (C) or orders=(4, 8, 8) (C^2)
      sphere_cross_plane   radius, m=12, plane_extent=4.0, plane_radial=6,
                           plane_angular=8                             (C^2)
      curve                r_profile, samples=64 (t in [0, 4 pi])      (C)
      custom               centers, n

    A parameter that the kind does not read raises ValueError naming it,
    and so does a count that is not an integer (a Python or numpy integer,
    not a bool) of at least 1 (2 curve samples).
    Optional rigid motion: centers -> e^(i rotation) c + translation.
    Radii default to a geometric grid on [0.2, 6] with 24 points.
    """
    radii = np.asarray(DEFAULT_RADII if radii is None else radii, dtype=float)
    weights = None
    stored = dict(params)
    take = params.pop       # what the kind leaves in params it does not read
    if kind == "coxeter_lines":
        n_lines = _integer(take("n_lines"), "n_lines", 1)
        extent = float(take("extent", 6.0))
        ppr = _integer(take("points_per_ray", 10), "points_per_ray", 1)
        if extent <= 0:
            raise ValueError("coxeter_lines needs extent > 0")
        centers = _coxeter_points(n_lines, extent, ppr)[:, None]
        stored.update(n_lines=n_lines, extent=extent, points_per_ray=ppr)
        n = 1
    elif kind == "plane_cross_coxeter":
        n_lines = _integer(take("n_lines"), "n_lines", 1)
        extent = float(take("extent", 3.0))
        ppr = _integer(take("points_per_ray", 4), "points_per_ray", 1)
        if extent <= 0:
            raise ValueError("plane_cross_coxeter needs extent > 0")
        # center carrier, not an integrator: its weights only feed the
        # weighted Gram diagnostics, so the moment self-check is waived.
        # the defaults keep the slot-1 Gram of a (1,1) product basis block
        # diagonal to ~1e-11 (extent 4 would leak its Gaussian tail)
        angular = _integer(take("plane_angular", 8), "plane_angular", 1)
        pr = plane_rule(1, extent=float(take("plane_extent", 6.0)),
                        radial_points=_integer(take("plane_radial", 12), "plane_radial", 1),
                        angular_points=angular, tolerance=float("inf"))
        z2 = _coxeter_points(2 * n_lines, extent, ppr)
        z1 = pr.nodes[:, 0]
        centers = np.stack([np.repeat(z1, z2.size), np.tile(z2, z1.size)], axis=1)
        weights = np.repeat(pr.weights, z2.size)
        stored.update(n_lines=n_lines, extent=extent, points_per_ray=ppr,
                      plane_angular=angular)
        n = 2
    elif kind == "sphere":
        n = _integer(take("n", 1), "n", 1)
        radius = float(take("radius"))
        if radius <= 0:
            raise ValueError("sphere radius must be positive")
        if n == 1:
            m = _integer(take("m", 24), "m", 1)
            centers = sphere_rule(1, radius, m=m).nodes
            stored.update(radius=radius, n=n, m=m)
        else:
            orders = tuple(_integer(o, f"orders[{i}]", 1)
                           for i, o in enumerate(take("orders", (4, 8, 8))))
            centers = sphere_rule(n, radius, orders=orders).nodes
            stored.update(radius=radius, n=n, orders=orders)
    elif kind == "sphere_cross_plane":
        radius = float(take("radius"))
        if radius <= 0:
            raise ValueError("sphere radius must be positive")
        m = _integer(take("m", 12), "m", 1)
        angular = _integer(take("plane_angular", 8), "plane_angular", 1)
        z1 = sphere_rule(1, radius, m=m).nodes[:, 0]
        # same carrier carve-out as plane_cross_coxeter
        pr = plane_rule(1, extent=float(take("plane_extent", 4.0)),
                        radial_points=_integer(take("plane_radial", 6), "plane_radial", 1),
                        angular_points=angular, tolerance=float("inf"))
        z2 = pr.nodes[:, 0]
        centers = np.stack([np.repeat(z1, z2.size), np.tile(z2, z1.size)], axis=1)
        weights = np.tile(pr.weights, z1.size)
        stored.update(radius=radius, m=m, plane_angular=angular)
        n = 2
    elif kind == "curve":
        r_profile = take("r_profile")
        samples = _integer(take("samples", 64), "samples", 2)
        ts = np.linspace(0.0, 4.0 * np.pi, samples)
        rv = np.asarray(r_profile(ts), dtype=float)
        if np.any(rv <= 0):
            raise ValueError("curve radius profile must stay positive")
        centers = (rv * np.exp(1j * ts))[:, None]
        stored.update(ts=ts.tolist(), r_values=rv.tolist(), samples=samples)
        stored.pop("r_profile", None)
        n = 1
    elif kind == "custom":
        centers = np.asarray(take("centers"), dtype=complex)
        if centers.ndim == 1:
            centers = centers[:, None]
        n = _integer(take("n", centers.shape[1]), "n", 1)
        stored = {"n": n}
    else:
        raise ValueError(f"unknown set kind {kind!r}")
    if params:
        raise ValueError(f"{kind} sets do not read {', '.join(sorted(params))}")

    centers = _apply_motion(np.asarray(centers, dtype=complex), rotation,
                            np.zeros(n) if translation is None else translation)
    if kind != "curve":   # curves may self-intersect; keep the t-order
        centers, keep = _dedupe_sort(centers)
        if weights is not None:
            weights = weights[keep]
    stored["rotation"] = rotation
    stored["translation"] = (np.zeros(n) if translation is None
                             else np.asarray(translation, dtype=complex).reshape(n))
    out = SamplingSet(kind, n, centers, radii, stored, weights)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# column bases


class ProductHermiteBasis:
    """Tensor products phi_(a_1,b_1)(z_1) .. phi_(a_n,b_n)(z_n) on C^n, one
    special Hermite factor per slot, each slot's indices in
    ``special_hermite_indices`` order up to its degree, slot-1 major:
    columns with equal slot-1 index (a_1, b_1) are contiguous.  C is the
    one-slot case, ``ProductHermiteBasis((K,))``: the family phi_(a,b),
    a, b <= K.

    The basis is integer index arrays: ``slot_indices``, each slot's
    (alpha, beta) arrays; ``alpha`` and ``beta``, (n, ncols), each column's
    indices in every slot; and ``block_keys``, each column's row of the
    slot-1 table.  Labels, degrees, truncations and rotation classes are
    taken from them."""

    engine = "twisted"

    def __init__(self, slot_degrees=(1, 1)):
        if len(slot_degrees) not in (1, 2):
            raise ValueError(f"need one or two slot degrees, got {tuple(slot_degrees)}")
        self.slot_degrees = tuple(_integer(d, f"slot degrees[{s}]")
                                  for s, d in enumerate(slot_degrees))
        self.dimension = len(self.slot_degrees)
        self.slot_indices = tuple(special_hermite_indices(d) for d in self.slot_degrees)
        # each column's row in each slot's table, slot 1 major
        rows = np.indices([a.size for a, _ in self.slot_indices]).reshape(self.dimension, -1)
        self.alpha = np.stack([a[r] for (a, _), r in zip(self.slot_indices, rows)])
        self.beta = np.stack([b[r] for (_, b), r in zip(self.slot_indices, rows)])
        self.block_keys = rows[0]

    @property
    def ncols(self) -> int:
        return self.block_keys.size

    @property
    def labels(self) -> list[str]:
        return ["*".join(f"phi[{a},{b}]" for a, b in zip(ac, bc))
                for ac, bc in zip(self.alpha.T, self.beta.T)]

    @functools.cached_property
    def spectral_degrees(self) -> np.ndarray:
        """Eigenspace degree per column: the sum of the slots' first indices."""
        return self.alpha.sum(axis=0)

    def columns_up_to(self, degree: int) -> np.ndarray:
        """Column indices of the sub-basis with every index <= degree."""
        return np.flatnonzero(np.all(np.maximum(self.alpha, self.beta) <= degree, axis=0))

    def slot_tables(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each slot's ``special_hermite_matrix`` at the points' values in
        that slot: (P, (d_s + 1)^2) per slot."""
        pts = np.asarray(points, dtype=complex).reshape(-1, self.dimension)
        return tuple(special_hermite_matrix(pts[:, s], d) for s, d in enumerate(self.slot_degrees))

    def matrix(self, points: np.ndarray) -> np.ndarray:
        """The ``_face_split`` product of the ``slot_tables``."""
        return _face_split(self.slot_tables(points))


# ---------------------------------------------------------------------------
# operator assembly


def _face_split(tables: Sequence[np.ndarray]) -> np.ndarray:
    """The face-splitting (row-wise Kronecker) product of per-slot tables
    (P, c_s), slot 1 major: out[p, (i_1, .., i_n)] = prod_s tables[s][p, i_s].
    One table is returned as is."""
    out = tables[0]
    for t in tables[1:]:
        out = (out[:, :, None] * t[:, None, :]).reshape(out.shape[0], out.shape[1] * t.shape[1])
    return out


def _twisted_factors(sampling_set: SamplingSet, basis) -> tuple[tuple, np.ndarray]:
    """The factors of the product relation: the basis's ``slot_tables`` at
    the centers, T_s (C, (d_s + 1)^2) per slot, and the radial table
    F[i, k] = tsm_product_constant(n, k) L_k^(n-1)(r_i^2/2) e^(-r_i^2/4),
    k = 0 .. max k_b (R, k_max + 1), every degree from one
    ``laguerre_sequence`` run, so that M[(j, i), b] = B[j, b] F[i, k_b]
    with B the ``_face_split`` of the T_s (B itself is not formed)."""
    n = sampling_set.dimension
    t = 0.5 * sampling_set.radii * sampling_set.radii
    lags = laguerre_sequence(n - 1, t, int(basis.spectral_degrees.max()))
    F = np.stack([tsm_product_constant(n, d) * (lag * np.exp(-0.5 * t))
                  for d, lag in enumerate(lags)], axis=1)
    return basis.slot_tables(sampling_set.centers), F


def _khatri_rao(r_b: np.ndarray, r_f: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """N[(l, m), b] = r_b[l, b] r_f[m, k_b] for the triangular factors of
    ``_reduced``; rows m > max k_b are zero (r_f is upper triangular) and
    left out."""
    r_f = r_f[:degrees.max() + 1, degrees]
    return (r_b[:, None, :] * r_f[None]).reshape(-1, degrees.size)


def _rotation_classes(basis: ProductHermiteBasis, orders: Sequence[int]) -> list[tuple]:
    """(columns, (I_1, .., I_n)) per rotation class: the slot-s indices I_s
    of one residue class of the slot frequency a_s - b_s mod q_s
    (phi_(a,b)(e^(i t) z) = e^(i (a - b) t) phi_(a,b)(z)), and the
    columns (i_1, .., i_n), i_s in I_s, slot 1 major, so B[:, columns] is
    the ``_face_split`` of the T_s[:, I_s].  Classes run over the slots'
    residues in ascending order, slot 1 outer.  On a set invariant under
    z_s -> e^(2 pi i / q_s) z_s the center sum of conj(phi_b) phi_b' only
    picks up that rotation's phase, so columns of different classes are
    orthogonal over the centers, exactly.  All orders 1 give one class of
    every column."""
    residues = [(a - b) % q for (a, b), q in zip(basis.slot_indices, orders)]
    per_slot = [[np.flatnonzero(res == r) for r in np.unique(res)] for res in residues]
    return [(np.ravel_multi_index(np.ix_(*slots), [r.size for r in residues]).ravel(), slots)
            for slots in itertools.product(*per_slot)]


def _reduced(factors, basis: ProductHermiteBasis,
             orders: Sequence[int]) -> tuple[list, np.ndarray]:
    """The triangular factors per rotation class: [(columns, R_B, k_b)]
    with R_B from a QR of the class's block B[:, columns], built from the
    slot tables (see ``_rotation_classes``), one per class, and R_F from a
    QR of F, which every class shares."""
    tables, F = factors
    return ([(cols, np.linalg.qr(_face_split([t[:, i] for t, i in zip(tables, slots)]), mode="r"),
              basis.spectral_degrees[cols]) for cols, slots in _rotation_classes(basis, orders)],
            np.linalg.qr(F, mode="r"))


def _class_svds(reduction, rows: int, keep: np.ndarray, compute_uv: bool = True) -> list:
    """[(columns, sigma, V^H or None)] of M cut to the columns ``keep``,
    one per class of the ``_reduced`` reduction that keeps any, from the
    SVD of that class's ``_khatri_rao`` N on those columns.  A
    rank-deficient N (fewer rows than columns) gives M's exact zeros:
    sigma is padded with them to min(rows, columns) and V^H is full."""
    classes, r_f = reduction
    parts = []
    for cols, r_b, degrees in classes:
        sub = np.isin(cols, keep)
        if not sub.any():
            continue
        N = _khatri_rao(r_b[:, sub], r_f, degrees[sub])
        if compute_uv:
            _, s, vh = np.linalg.svd(N, full_matrices=N.shape[0] < N.shape[1])
        else:
            s, vh = np.linalg.svd(N, compute_uv=False), None
        parts.append((cols[sub], np.pad(s, (0, min(rows, N.shape[1]) - s.size)), vh))
    return parts


def _merge_classes(parts: list, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, order) of M from the (columns, sigma, V^H) of its classes,
    whose column spaces are orthogonal: sigma is the union of the classes'
    sigma, each padded with exact zeros to its column count, in descending
    order (stable: class order breaks ties) and cut to min(rows, ncols);
    order[j] is the row of the classes' stacked V^H at position j."""
    sig = np.concatenate([np.pad(s, (0, cols.size - s.size)) for cols, s, _ in parts])
    order = np.argsort(-sig, kind="stable")
    return sig[order][:min(rows, sig.size)], order


def _degenerate(rows: int, cols: int) -> bool:
    """No rows, no columns, or fewer rows than columns."""
    return rows == 0 or cols == 0 or rows < cols


@dataclass
class SamplingOperator:
    """Mean-sampling operator; its SVD is computed on first use.

    Rows are the set's ``row_meta`` pairs, columns the basis's, so
    ``shape`` is (set rows, basis columns); the engine is the basis's.
    sigma_min is defined as 0 for degenerate shapes (no rows, no columns,
    or fewer rows than columns -- a genuine null space exists then).

    It holds one of two representations; giving both or neither raises
    ValueError.  ``dense``, a matrix of that shape, is decomposed as
    given: euclidean rows, or any operator built from a bare matrix.
    ``factors`` ((T_1, .., T_n), F) are those of ``_twisted_factors``,
    which ``assemble_operator`` gives twisted rows: the per-slot tables at
    the centers and the radial table, M[(j, i), b] = B[j, b] F[i, k_b]
    with B = ``_face_split``(T_s).  Neither B nor M is held: both are
    formed only when ``matrix`` is read.  The SVD is that of
    N[(l, m), b] = R_B[l, b] R_F[m, k_b], R_B and R_F the triangular
    factors of QRs of B and F: M = (Q_B x Q_F) N with orthonormal columns,
    so N has M's singular values and right singular vectors, with
    min(C, ncols) (k_max + 1) rows however many centers and radii the set
    has.  N is taken per rotation class of the set's
    ``rotation_orders`` (``_rotation_classes``): the classes' columns are
    orthogonal in M, so M's singular values are the union of the classes'
    and V is block diagonal; each class takes its own QR of its block
    B[:, class], the face split of the slot tables' class columns, and
    shares R_F, and keeps its own V.  The union is sorted descending
    (class order breaks ties) and cut or padded to min(rows, cols), and
    each right singular vector, near-null ones included, lies in one
    class.  A set without rotation symmetry is the one-class case.
    """
    dense: np.ndarray | None
    sampling_set: SamplingSet
    basis: object
    factors: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.dense is None) == (self.factors is None):
            raise ValueError("an operator holds its matrix or its factors, exactly one")
        if self.dense is not None and self.dense.shape != self.shape:
            raise ValueError(f"matrix shape {self.dense.shape} is not (set rows, "
                             f"basis columns) = {self.shape}")

    @property
    def engine(self) -> str:
        return self.basis.engine

    @property
    def center_index(self) -> np.ndarray:
        return self.sampling_set.row_meta()[0]

    @property
    def radius_index(self) -> np.ndarray:
        return self.sampling_set.row_meta()[1]

    @property
    def matrix(self) -> np.ndarray:
        """M: the matrix as given, or formed from the factors on each read."""
        if self.factors is None:
            return self.dense
        tables, F = self.factors
        B = _face_split(tables)
        return (B[:, None, :] * F[None, :, self.basis.spectral_degrees]).reshape(self.shape)

    @functools.cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, list]:
        """(singular values, order) of ``_merge_classes`` and the classes'
        [(columns, sigma, V^H)]; no rows: no sigma and V = I per class."""
        rows, cols = self.shape
        if self.factors is None:
            _, s, vh = np.linalg.svd(self.dense, full_matrices=rows < cols)
            parts = [(np.arange(cols), s, vh)]
        else:
            reduction = _reduced(self.factors, self.basis, self.sampling_set.rotation_orders)
            parts = _class_svds(reduction, rows, np.arange(cols))
        return (*_merge_classes(parts, rows), parts)

    @property
    def singular_values(self) -> np.ndarray:
        return self._svd[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.sampling_set.n_rows, self.basis.ncols

    @property
    def degenerate(self) -> bool:
        return _degenerate(*self.shape)

    @property
    def sigma_min(self) -> float:
        if self.degenerate:
            return 0.0
        return float(self.singular_values[-1])

    def near_null(self, threshold: float) -> list[tuple[float, np.ndarray]]:
        """(sigma, right singular vector) pairs with sigma <= threshold, in
        descending sigma, each vector read from its class's V and embedded
        in the columns; exact null directions (degenerate shapes) count
        with sigma 0."""
        sig, order, parts = self._svd
        sig = np.concatenate([sig, np.zeros(order.size - sig.size)])
        stacked = [(cols, row) for cols, _, vh in parts for row in vh]
        out = []
        for j in np.flatnonzero(sig <= threshold):
            cols, row = stacked[order[j]]
            v = np.zeros(order.size, dtype=row.dtype)
            v[cols] = row
            out.append((float(sig[j]), np.conj(v)))
        return out


def assemble_operator(sampling_set: SamplingSet, max_degree: int | None = None,
                      engine: str = "twisted", basis=None,
                      circle_points: int = 256, sphere_orders=(16, 32, 32),
                      euclid_points: int = EUCLID_POINTS) -> SamplingOperator:
    """Build M[(j,i), b] = (basis_b x mu_(r_i))(z_j).

    Twisted rows use the product relation: column b is an eigenfunction of
    degree k_b = ``basis.spectral_degrees[b]``, so

        M[(j,i), b] = B(n, k_b) L_(k_b)^(n-1)(r_i^2/2) e^(-r_i^2/4) basis_b(z_j)

    with B = ``tsm_product_constant``; no quadrature is involved.  The
    operator holds the factors, one special Hermite table per slot at the
    centers and the radial table per degree, takes its singular values
    from them and forms M only when its ``matrix`` is read (see
    ``SamplingOperator``).
    Euclidean rows are plain averages over ``euclid_points`` circle
    nodes, one untwisted ``twisted_mean_table`` of the basis matrix that
    reads only the circles meeting the basis's ``support_radius``, and
    are decomposed as a dense matrix.  Row order is center-major; column
    order is the basis's documented order.

    Without ``basis`` the twisted engine takes the special Hermite product
    basis of ``max_degree`` in every slot, ``ProductHermiteBasis((K,) * n)``:
    on C the family phi_(a,b), a, b <= K.  ``circle_points`` and
    ``sphere_orders`` are accepted and ignored: twisted rows need no
    quadrature, and the parameters stay so that callers passing them by
    name or position keep working.
    """
    if engine not in ("twisted", "euclidean"):
        raise ValueError(f"unknown engine {engine!r}")
    if basis is None:
        if engine == "euclidean":
            raise ValueError("euclidean engine needs an explicit basis")
        if max_degree is None:
            raise ValueError("twisted engine needs max_degree or an explicit basis")
        basis = ProductHermiteBasis((max_degree,) * sampling_set.dimension)
    if getattr(basis, "engine", engine) != engine:
        raise ValueError(f"{type(basis).__name__} is a {basis.engine} basis; "
                         f"it cannot build {engine} rows")
    if getattr(basis, "dimension", sampling_set.dimension) != sampling_set.dimension:
        raise ValueError("basis dimension does not match the set")

    if engine == "euclidean":
        M = twisted_mean_table(basis, sampling_set.centers, sampling_set.radii,
                               m=euclid_points, twist=False)
        return SamplingOperator(M.reshape(sampling_set.n_rows, basis.ncols), sampling_set, basis)
    return SamplingOperator(None, sampling_set, basis, _twisted_factors(sampling_set, basis))


def near_null_roundtrip(operator: SamplingOperator, coefficients: np.ndarray):
    """Reconstruct the field of each coefficient vector, (ncols,) or the V
    columns of (ncols, V), and remeasure its means over the whole set by
    quadrature, never by what built the operator: one ``twisted_mean_table``
    for all V, twisted on the default sphere rules, or untwisted on
    ``CERTIFICATE_CIRCLE_POINTS`` circle nodes, a rule euclidean assembly
    does not read.  On a two-slot ``ProductHermiteBasis`` the
    field is a ``SlotProduct``: one special Hermite matrix per slot,
    coupled by the coefficients as (J_1, J_2, V) (columns run slot 1
    outer).  Returns the max |mean| of each vector normalized by its norm:
    a float, or (V,) for V columns."""
    v = np.asarray(coefficients)
    nv = np.linalg.norm(v, axis=0)
    if np.any(nv == 0):
        raise ValueError("zero coefficient vector")
    c = v / nv
    sset, basis = operator.sampling_set, operator.basis
    if isinstance(basis, ProductHermiteBasis) and basis.dimension == 2:
        field = SlotProduct(tuple(functools.partial(special_hermite_matrix, max_degree=d)
                                  for d in basis.slot_degrees),
                            c.reshape(tuple(a.size for a, _ in basis.slot_indices) + c.shape[1:]))
    else:
        field = SimpleNamespace(dimension=sset.dimension,
                                support_radius=getattr(basis, "support_radius", np.inf),
                                evaluate=lambda pts: basis.matrix(pts) @ c)
    twisted = operator.engine == "twisted"
    means = twisted_mean_table(field, sset.centers, sset.radii,
                               m=None if twisted else CERTIFICATE_CIRCLE_POINTS, twist=twisted)
    return np.max(np.abs(means), axis=(0, 1), initial=0.0)


# ---------------------------------------------------------------------------
# probes


@dataclass(frozen=True)
class InjectivityReport:
    engine: str
    set_kind: str
    base_degree: int | None
    rows: int
    cols: int
    degenerate: bool
    sigma_curve: dict
    singular_values: np.ndarray
    near_null: list
    caveat = INJECTIVITY_CAVEAT

    @property
    def sigma_min(self) -> float:
        return min(self.sigma_curve.values()) if self.sigma_curve else 0.0

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "set": self.set_kind,
            "K": self.base_degree,
            "rows": self.rows,
            "cols": self.cols,
            "degenerate": self.degenerate,
            "sigma_curve": {str(k): v for k, v in self.sigma_curve.items()},
            "sigma": [float(s) for s in self.singular_values],
            "near_null": [
                {"sigma": s,
                 "coefficients": [[float(np.real(c)), float(np.imag(c))] for c in v],
                 "roundtrip_max_mean": rt}
                for (s, v, rt) in self.near_null],
            "caveat": self.caveat,
        }


def injectivity_probe(operator: SamplingOperator, near_null_threshold: float = 1e-8,
                      degree_steps=(0, 2, 4)) -> InjectivityReport:
    """sigma_min across growing truncations plus certified near-null fields.

    The sigma-curve runs over the one-slot Hermite basis on C,
    ``ProductHermiteBasis((K,))``, whose degree K is the report's base
    degree.  The factors of the product relation are built once, at the
    largest requested truncation K + max(steps), and reduced to their
    triangular factors per rotation class (see ``SamplingOperator``); each
    wider truncation is a column subset (the rows do not depend on the
    basis), so its sigma_min is the smallest of its classes' sigma, each
    class decomposed without vectors on its columns up to K + s, as the
    operator's own classes are on all of theirs (0 when M's truncation
    has fewer rows than columns).  Each distinct step is decomposed once;
    the base step is the operator's own sigma_min.  A step taking K below
    0 raises ValueError.  Other bases, the C^2 product basis included,
    report their own sigma_min only, with no base degree.  Every
    near-null vector, each within one rotation class, is certified by
    ``near_null_roundtrip``.
    """
    basis = operator.basis
    one_slot = isinstance(basis, ProductHermiteBasis) and basis.dimension == 1
    base_degree = basis.slot_degrees[0] if one_slot else None
    steps = sorted(set(degree_steps))
    if one_slot and base_degree + min(steps, default=0) < 0:
        raise ValueError(f"degree steps {tuple(degree_steps)} take the base "
                         f"degree {base_degree} below 0")
    curve = {}
    if one_slot and max(steps, default=0) > 0:
        sset = operator.sampling_set
        big = ProductHermiteBasis((base_degree + steps[-1],))
        reduction = _reduced(_twisted_factors(sset, big), big, sset.rotation_orders)
        for s in steps:
            keep = big.columns_up_to(base_degree + s)
            if s == 0:
                curve[base_degree] = operator.sigma_min
            elif _degenerate(sset.n_rows, keep.size):
                curve[base_degree + s] = 0.0
            else:
                parts = _class_svds(reduction, sset.n_rows, keep, compute_uv=False)
                curve[base_degree + s] = float(_merge_classes(parts, sset.n_rows)[0][-1])
    else:
        curve[base_degree if base_degree is not None else 0] = operator.sigma_min

    null = operator.near_null(near_null_threshold)
    rts = near_null_roundtrip(operator, np.stack([v for _, v in null], axis=1)) if null else []
    entries = [(sigma, v, float(rt)) for (sigma, v), rt in zip(null, rts)]
    return InjectivityReport(
        engine=operator.engine, set_kind=operator.sampling_set.kind,
        base_degree=base_degree, rows=operator.shape[0], cols=operator.shape[1],
        degenerate=operator.degenerate, sigma_curve=curve,
        singular_values=operator.singular_values, near_null=entries)


def plane_block_offmass(operator: SamplingOperator) -> float:
    """Off-block mass ratio of the weighted Gram matrix, blocks = slot-1
    basis index of a two-slot ProductHermiteBasis.

    For a plane_cross_coxeter set whose first slot rides an integration
    rule, the z1-sum in the Gram approximates the L^2(C) pairing of slot-1
    factors, so the Gram should be block diagonal over the slot-1 index up
    to quadrature error.  The Gram comes from the factors of the product
    relation: sum_(j,i) w_j conj(M[(j,i),b]) M[(j,i),b'] =
    (B^H diag(w) B)[b, b'] (F^H F)[k_b, k_b'], B formed from the slot
    tables for the call.
    """
    basis = operator.basis
    if not (isinstance(basis, ProductHermiteBasis) and basis.dimension == 2):
        raise ValueError("block structure is defined for two-slot product bases")
    if operator.sampling_set.center_weights is None:
        raise ValueError("set carries no center weights; off-block mass "
                         "is only meaningful against rule weights")
    if operator.factors is None:
        raise ValueError("off-block mass is taken from a twisted operator's factors")
    tables, F = operator.factors
    B = _face_split(tables)
    k = basis.spectral_degrees
    w = operator.sampling_set.center_weights
    G = ((B.conj().T * w[None, :]) @ B) * (F.conj().T @ F)[np.ix_(k, k)]
    off = basis.block_keys[:, None] != basis.block_keys[None, :]
    total = float(np.sum(np.abs(G) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(G[off]) ** 2) / total)


# ---------------------------------------------------------------------------
# Hecke-Bochner type functions


@dataclass(frozen=True)
class TypeFunctionSpec:
    """f(z) = exp(-|z|^2 / 4) P(z) with P a bigraded solid harmonic; a
    field as the mean tables read one (``dimension``, ``evaluate``)."""
    harmonic: SolidHarmonic

    @property
    def dimension(self) -> int:
        return self.harmonic.dimension

    def evaluate(self, points) -> np.ndarray:
        """f at points (P, n) complex: (P,) complex."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 0 or pts.shape[-1] != self.dimension:
            raise ValueError(f"points must have last axis {self.dimension}, the spec's dimension")
        pts = pts.reshape(-1, self.dimension)
        # |z|^2 slot by slot: the sum norm(pts, axis=1) takes, without
        # its strided reduction over the two-wide last axis
        sq = (pts.conj() * pts).real
        rho = np.sqrt(sum(sq.T[1:], sq.T[0]))
        return np.exp(-rho ** 2 / _TYPE_GAUSSIAN) * self.harmonic.evaluate(pts)

    def slot_product(self) -> SlotProduct:
        """f as a ``SlotProduct`` on C^2: the Gaussian is a product over
        the slots and each monomial z^alpha conj(z)^beta of P is one, so
        slot s has one column exp(-|z_s|^2 / 4) z_s^alpha_s conj(z_s)^beta_s
        per monomial, coupled by diag(c)."""
        h = self.harmonic
        if h.dimension != 2:
            raise ValueError("a slot product lives on C^2")
        monomials = list(h.coefficients)

        def factor(s: int) -> Callable:
            def columns(z):
                z = np.asarray(z, dtype=complex)
                g = np.exp(-(z.real ** 2 + z.imag ** 2) / _TYPE_GAUSSIAN)
                return np.stack([g * z ** al[s] * np.conj(z) ** be[s]
                                 for al, be in monomials], axis=1)
            return columns

        coupling = np.diag([complex(h.coefficients[mono]) for mono in monomials])
        return SlotProduct((factor(0), factor(1)), coupling)


@dataclass(frozen=True)
class VanishingSetReport:
    """Scan of max_r |f x mu_r| against the harmonic factor's zero set."""
    centers: np.ndarray
    max_means: np.ndarray
    harmonic_magnitude: np.ndarray
    on_zero_locus: np.ndarray        # |P(center)| ~ 0
    detected_zero: np.ndarray        # measured means below tolerance * field_peak
    field_peak: float
    radii: np.ndarray
    tolerance = 1e-8

    @property
    def max_on_set(self) -> float:
        vals = self.max_means[self.on_zero_locus]
        return float(vals.max()) if vals.size else 0.0

    @property
    def min_off_set(self) -> float:
        vals = self.max_means[~self.on_zero_locus]
        return float(vals.min()) if vals.size else float("inf")

    @property
    def sphere_candidates(self) -> np.ndarray:
        """Centers off P^(-1)(0) that nevertheless measured ~zero: would-be
        members of the finite sphere family."""
        return self.centers[self.detected_zero & ~self.on_zero_locus]

    def as_dict(self) -> dict:
        return {
            "field_peak": self.field_peak,
            "tolerance": self.tolerance,
            "radii": [float(r) for r in self.radii],
            "centers": [[[c.real, c.imag] for c in row] for row in self.centers],
            "max_means": [float(v) for v in self.max_means],
            "harmonic_magnitude": [float(v) for v in self.harmonic_magnitude],
            "on_zero_locus": [bool(b) for b in self.on_zero_locus],
            "detected_zero": [bool(b) for b in self.detected_zero],
        }


def _scan_pool(dimension: int) -> np.ndarray:
    """Deterministic candidate centers: per-coordinate values 0 and four
    magnitudes along four directions, tensored."""
    vals = [0.0 + 0.0j]
    for a in (0.6, 1.1, 1.6, 2.1):
        for d in (1.0, 1j, -1.0, -1j):
            vals.append(a * d)
    axes = [np.asarray(vals) for _ in range(dimension)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def hecke_bochner_counterexample(spec: TypeFunctionSpec, n_onset: int = 30,
                                 n_offset: int = 10, radii=None,
                                 sphere_orders=None) -> VanishingSetReport:
    """Scan the type function's twisted means: one ``twisted_mean_table``
    over all scan centers and radii, on C^2 of the type function's
    ``slot_product`` (slot by slot, on the S^3 rules' own nodes), on C of
    the spec itself, read at the circle nodes.

    Returns the report.  The field's peak is max |f| over the nodes of the
    polar rule of extent 12 (on C with 64 radial nodes and 256 phases, on
    C^2 with 40 and S^3 orders (10, 20, 20)), read one radial ring at a
    time: ring i is r_i times the unit ``sphere_rule``, as ``plane_rule``
    forms it, so the peak is the same bit for bit and that rule is never
    built.
    The scan centers come from a fixed pool: the ``n_onset``
    lexicographically first pool points with |P| ~ 0 and the ``n_offset``
    pool points with the largest |P|.  The headline contract: every
    scanned center on P^(-1)(0) measures max_r |f x mu_r| below 1e-8 times
    the field's peak.  A negative count raises ValueError.
    """
    if n_onset < 0 or n_offset < 0:
        raise ValueError(f"scan counts must be >= 0, got n_onset={n_onset}, "
                         f"n_offset={n_offset}")
    n = spec.dimension
    unit = sphere_rule(n, 1.0, m=256, orders=(10, 20, 20)).nodes
    rings = (r * unit for r in gauss_legendre(64 if n == 1 else 40, 0.0, 12.0)[0])
    peak = float(np.max([np.max(np.abs(spec.evaluate(ring))) for ring in rings]))
    if radii is None:
        radii = np.geomspace(0.3, 3.0, 10)
    radii = np.asarray(radii, dtype=float)

    pool = _scan_pool(n)
    hv = np.abs(spec.harmonic.evaluate(pool))
    scale = float(hv.max()) or 1.0
    order = np.argsort(-hv, kind="stable")
    centers = np.concatenate([pool[hv <= 1e-12 * scale][:n_onset], pool[order[:n_offset]]])

    source = spec.slot_product() if n == 2 else spec
    max_means = np.max(np.abs(twisted_mean_table(source, centers, radii,
                                                 orders=sphere_orders)), axis=1)
    hmag = np.abs(spec.harmonic.evaluate(centers))
    hscale = float(hmag.max()) or 1.0
    return VanishingSetReport(
        centers=centers, max_means=max_means, harmonic_magnitude=hmag,
        on_zero_locus=hmag <= 1e-10 * hscale,
        detected_zero=max_means <= VanishingSetReport.tolerance * peak,
        field_peak=peak, radii=radii)


# ---------------------------------------------------------------------------
# Q_k sector expansion fit


def _sector_design(z: np.ndarray, k: int, q_max: int) -> np.ndarray:
    """Sector columns z^p phi_(k-p)^p (p = 0..k), then conj(z)^q phi_k^q
    (q = 1..q_max), at the points z: shape (len(z), k + 1 + q_max)."""
    rho = np.abs(z)
    cols = [z ** p * laguerre_function(LaguerreSpec(k - p, p), rho)
            for p in range(0, k + 1)]
    cols += [np.conj(z) ** q * laguerre_function(LaguerreSpec(k, q), rho)
             for q in range(1, q_max + 1)]
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class ProjectionExpansion:
    """Fitted sector coefficients of a degree-k projection on C.

    coeff_p[p] multiplies z^p phi_(k-p)^p(|z|); coeff_q[q] multiplies
    conj(z)^q phi_k^q(|z|).  The p = 0 and q = 0 columns are the same
    purely radial function, so the fit merges them and reports the shared
    coefficient in both slots.
    """
    degree: int
    q_max: int
    coeff_p: np.ndarray
    coeff_q: np.ndarray
    residual: float
    condition_number: float

    def predict(self, points) -> np.ndarray:
        z = np.asarray(points, dtype=complex).reshape(-1)
        coeffs = np.concatenate([self.coeff_p, self.coeff_q[1:]])
        return _sector_design(z, self.degree, self.q_max) @ coeffs

    def dominant_sector(self) -> tuple[str, int]:
        """('p', p) or ('q', q) of the largest |coefficient|."""
        mags = [abs(c) for c in self.coeff_p] + [abs(c) for c in self.coeff_q[1:]]
        j = int(np.argmax(mags))
        if j <= self.degree:
            return ("p", j)
        return ("q", j - self.degree)

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "q_max": self.q_max,
            "coeff_p": [[c.real, c.imag] for c in self.coeff_p],
            "coeff_q": [[c.real, c.imag] for c in self.coeff_q],
            "residual": self.residual,
            "condition_number": self.condition_number,
        }


def fit_projection_expansion(qk: SampledField, k: int, q_max: int | None = None,
                             condition_limit: float = 1e10) -> ProjectionExpansion:
    """Weighted least squares for the sector expansion of Q_k on C.

    Columns are normalized to unit weighted norm before solving; a design
    condition number above ``condition_limit`` aborts with
    IllConditionedFitError rather than returning silently garbage.
    """
    if qk.dimension != 1:
        raise ValueError("the sector expansion fit runs on C")
    if q_max is None:
        q_max = k
    sqw = np.sqrt(qk.rule.weights)
    A = _sector_design(qk.rule.nodes[:, 0], k, q_max) * sqw[:, None]
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
        raise IllConditionedFitError("degenerate (all-zero) design column",
                                     condition_number=float("inf"))
    An = A / norms[None, :]
    svals = np.linalg.svd(An, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else float("inf")
    if cond > condition_limit:
        raise IllConditionedFitError(
            f"sector design matrix condition {cond:.3e} exceeds "
            f"{condition_limit:.1e}; refine the grid or lower q_max",
            condition_number=cond)
    b = qk.values * sqw
    chat, *_ = np.linalg.lstsq(An, b, rcond=None)
    c = chat / norms
    bnorm = float(np.linalg.norm(b))
    resid = float(np.linalg.norm(An @ chat - b)) / bnorm if bnorm > 0 else 0.0
    coeff_p = c[:k + 1]
    coeff_q = np.concatenate([[c[0]], c[k + 1:]])
    return ProjectionExpansion(k, q_max, coeff_p, coeff_q, resid, cond)


# ---------------------------------------------------------------------------
# exports


def operator_to_csv(operator: SamplingOperator, csv_path, meta_path=None) -> None:
    """Matrix rows with (center, radius) indices; sidecar JSON carries the
    set geometry and column labels."""
    header = ["center_index", "radius_index"]
    twisted = operator.engine == "twisted"
    for lab in operator.basis.labels:
        header += ([f"re({lab})", f"im({lab})"] if twisted else [lab])
    ci, ri = operator.sampling_set.row_meta()
    cell = (np.real, np.imag) if twisted else (np.real,)
    rows = [[str(int(j)), str(int(i))] + [fmt(part(v)) for v in row for part in cell]
            for j, i, row in zip(ci, ri, operator.matrix)]
    write_csv(csv_path, header, rows)
    meta = {
        "engine": operator.engine,
        "kind": operator.sampling_set.kind,
        "dimension": operator.sampling_set.dimension,
        "centers": [[[c.real, c.imag] for c in row]
                    for row in operator.sampling_set.centers],
        "radii": [float(r) for r in operator.sampling_set.radii],
        "labels": list(operator.basis.labels),
        "sigma": [float(s) for s in operator.singular_values],
    }
    write_json(meta_path if meta_path is not None else str(csv_path) + ".json", meta)


def sigma_curve_to_csv(report: InjectivityReport, path) -> None:
    rows = [[str(int(k)), fmt(v)] for k, v in sorted(report.sigma_curve.items())]
    write_csv(path, ["K", "sigma_min"], rows)
