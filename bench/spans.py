"""In-memory spans around tsmlab's public functions, installed from outside.

``install(tracer)`` rebinds module attributes: every target function is
replaced by a wrapper in its own module and under every alias that another
tsmlab module imported (``from .twisted_transforms import
spectral_projections`` in ``cli.py`` binds a second name to the same
object).  Methods are wrapped on their class.  Nothing under ``src/``
changes; ``restore`` puts the original objects back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  Self time is a span's duration minus the part of its
interval that its children cover.  Counters are work figures derived from
argument and result shapes after each call; the ones named
``bytes_computed`` are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# complex128 pair-sized arrays each kernel materialises per (target, node)
# pair: displaced points, field values and twist phases in the projection
# loop, plus the weighted product in convolution_values; the C^2 tensor
# kernel builds a (targets, S, S, 2) point array and one value array.
PAIR_ARRAYS = {"spectral_projections": 3, "convolution_values": 4,
               "tensor_decompose_projection": 3}
COMPLEX_BYTES = 16


class Tracer:
    """Span recorder: a flat list of spans plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        self.spans.append([name, self.clock(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = self.clock()

    def wrap(self, name: str, fn, counter=None):
        """``fn`` inside a span; ``counter(args, kwargs, result)`` returns
        {counter_name: increment} recorded under ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += inc
            return result

        return traced


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for s, e in sorted(intervals):
        if reach is None or s > reach:
            total += e - s
            reach = e
        elif e > reach:
            total += e - reach
            reach = e
    return total


def children(spans) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for i, sp in enumerate(spans):
        out[sp[3]].append(i)
    return out


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    kids = children(spans)
    return [(e - s) - _covered([spans[c][1:3] for c in kids.get(i, ())])
            for i, (_, s, e, _) in enumerate(spans)]


def aggregate(spans) -> dict[str, dict[str, float]]:
    """{name: {"self_s", "total_s", "calls"}} summed over spans of a name."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    for sp, st in zip(spans, self_times(spans)):
        row = out[sp[0]]
        row["self_s"] += st
        row["total_s"] += sp[2] - sp[1]
        row["calls"] += 1
    return dict(out)


def coverage(spans, roots: set[int]) -> float:
    """Time covered by the outermost library spans under the given root
    spans (the benchmark's job and check spans)."""
    kids = children(spans)
    return _covered([spans[c][1:3] for r in roots for c in kids.get(r, ())])


# ---------------------------------------------------------------------------
# what gets wrapped

def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _npoints(points, dim=1) -> int:
    return int(np.size(points)) // dim


def _pairs_spectral(a, kw, res):
    pairs = res.shape[0] * a[0].rule.nodes.shape[0]
    return {"pairs": pairs, "degrees": res.shape[1],
            "bytes_computed": pairs * PAIR_ARRAYS["spectral_projections"] * COMPLEX_BYTES}


def _pairs_convolution(a, kw, res):
    g = _arg(a, kw, 1, "g")
    pairs = res.shape[0] * g.rule.nodes.shape[0]
    return {"pairs": pairs,
            "bytes_computed": pairs * PAIR_ARRAYS["convolution_values"] * COMPLEX_BYTES}


def _assembly(a, kw, res, defaults):
    sset = a[0]
    engine = _arg(a, kw, 2, "engine", "twisted")
    if engine == "euclidean":
        per_row = _arg(a, kw, 6, "euclid_points", defaults["euclid_points"])
    elif sset.dimension == 1:
        per_row = _arg(a, kw, 4, "circle_points", defaults["circle_points"])
    else:
        per_row = int(np.prod(_arg(a, kw, 5, "sphere_orders", defaults["sphere_orders"])))
    rows, cols = res.matrix.shape
    return {"rows": rows, "cols": cols, "quad_points": rows * per_row,
            "basis_evals": rows * per_row * cols}


def _probe(a, kw, res):
    threshold = _arg(a, kw, 1, "near_null_threshold", 1e-8)
    rts = [rt for (_, _, rt) in res.near_null]
    return {"candidates": len(rts),
            "certified": sum(1 for rt in rts if rt <= threshold)}


def _csv_bytes(a, kw, res):
    return {"bytes": os.path.getsize(_arg(a, kw, 0, "path"))}


def targets(tsmlab_modules) -> list[tuple]:
    """(module, attribute path, counter[, span name]) per wrapped name; the
    span name defaults to ``module.path``.

    Per-element helpers such as ``ioutil.fmt`` stay unwrapped: they run
    once per CSV cell and a span each would cost more than their work.
    """
    m = tsmlab_modules
    inj_defaults = {k: v.default for k, v in inspect.signature(
        m["injectivity_lab"].assemble_operator).parameters.items()}
    slot_nodes = m["twisted_transforms"]._default_slot_rule().nodes.shape[0]

    def tensor(a, kw, res):
        slot = _arg(a, kw, 3, "slot_rule")
        s = slot.nodes.shape[0] if slot is not None else slot_nodes
        pairs = res[0].rule.nodes.shape[0] * s * s
        return {"pairs": pairs, "bytes_computed":
                pairs * PAIR_ARRAYS["tensor_decompose_projection"] * COMPLEX_BYTES}

    return [
        ("special_functions", "special_hermite_matrix",
         lambda a, kw, r: {"points": _npoints(a[0])}),
        ("special_functions", "laguerre_function",
         lambda a, kw, r: {"points": _npoints(_arg(a, kw, 1, "rho"))}),
        ("special_functions", "solid_harmonic_basis", None),
        ("quadrature", "plane_rule",
         lambda a, kw, r: {"nodes": r.nodes.shape[0]}),
        ("quadrature", "sphere_rule", None),
        ("quadrature", "radial_rule", None),
        ("quadrature", "compensated_sum",
         lambda a, kw, r: {"elements": int(np.size(a[0]))}),
        ("fields", "interpolate_on_rule",
         lambda a, kw, r: {"points": _npoints(a[2], a[0].dimension)}),
        ("fields", "SampledField.evaluate",
         lambda a, kw, r: {"points": _npoints(a[1], a[0].dimension)}),
        ("fields", "SampledField.from_function", None),
        ("fields", "SampledField.from_csv", None),
        ("fields", "SampledField.to_csv", None),
        ("twisted_transforms", "twist_phase",
         lambda a, kw, r: {"pairs": int(np.size(r))}),
        ("twisted_transforms", "twisted_translate", None),
        ("twisted_transforms", "twisted_spherical_mean", None),
        ("twisted_transforms", "mean_profile", None),
        ("twisted_transforms", "convolution_values", _pairs_convolution),
        ("twisted_transforms", "projection_values", None),
        ("twisted_transforms", "spectral_projections", _pairs_spectral),
        ("twisted_transforms", "special_hermite_coefficients", None),
        ("twisted_transforms", "polar_bridge", None),
        ("twisted_transforms", "tensor_decompose_projection", tensor),
        ("euclidean_means", "circular_mean", None),
        ("euclidean_means", "euclidean_mean_table", None),
        ("euclidean_means", "coxeter_odd_counterexample", None),
        ("euclidean_means", "euclidean_sector_basis", None),
        ("injectivity_lab", "make_set", None),
        ("injectivity_lab", "assemble_operator",
         lambda a, kw, r: _assembly(a, kw, r, inj_defaults)),
        ("injectivity_lab", "SamplingOperator.__post_init__", None, "injectivity_lab.svd"),
        ("injectivity_lab", "injectivity_probe", _probe),
        ("injectivity_lab", "near_null_roundtrip", None),
        ("injectivity_lab", "hecke_bochner_counterexample", None),
        ("injectivity_lab", "plane_block_offmass", None),
        ("cli", "main", None),
        ("ioutil", "write_csv", _csv_bytes),
    ]


# layer -> the tsmlab modules it reports for
LAYERS = {"special_functions": ("special_functions",), "quadrature": ("quadrature",),
          "fields": ("fields",), "twisted_transforms": ("twisted_transforms",),
          "euclidean_means": ("euclidean_means",),
          "injectivity_lab": ("injectivity_lab",), "cli": ("cli", "ioutil")}


def install(tracer: Tracer):
    """Wrap every target; returns a callable that undoes the rebinding."""
    mods = {n: importlib.import_module(f"tsmlab.{n}")
            for layer in LAYERS.values() for n in layer}
    namespaces = [m for n, m in sys.modules.items()
                  if n == "tsmlab" or n.startswith("tsmlab.")]
    undo: list[tuple] = []
    for entry in targets(mods):
        modname, path, counter = entry[:3]
        name = entry[3] if len(entry) > 3 else f"{modname}.{path}"
        mod = mods[modname]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__, counter))
            else:
                new = tracer.wrap(name, raw, counter)
            undo.append((cls, attr, raw))
            setattr(cls, attr, new)
            continue
        orig = getattr(mod, path)
        new = tracer.wrap(name, orig, counter)
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is orig:
                    undo.append((ns, key, orig))
                    setattr(ns, key, new)

    def restore():
        for owner, key, val in reversed(undo):
            setattr(owner, key, val)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics of a traced pass

FUNCTION_METRICS = {
    "special_functions.special_hermite_matrix": ("self_s", "calls", "points"),
    "special_functions.laguerre_function": ("self_s", "calls", "points"),
    "quadrature.plane_rule": ("self_s", "calls", "nodes"),
    "quadrature.sphere_rule": ("self_s", "calls"),
    "quadrature.compensated_sum": ("self_s", "calls", "elements"),
    "fields.interpolate_on_rule": ("self_s", "calls", "points"),
    "fields.SampledField.evaluate": ("self_s", "calls", "points"),
    "fields.SampledField.from_csv": ("self_s",),
    "fields.SampledField.to_csv": ("self_s",),
    "twisted_transforms.spectral_projections":
        ("self_s", "calls", "pairs", "degrees", "bytes_computed", "pairs_per_s"),
    "twisted_transforms.twist_phase": ("self_s", "calls", "pairs"),
    "twisted_transforms.convolution_values":
        ("self_s", "calls", "pairs", "bytes_computed", "pairs_per_s"),
    "twisted_transforms.special_hermite_coefficients": ("self_s", "calls"),
    "twisted_transforms.twisted_spherical_mean": ("self_s", "calls"),
    "twisted_transforms.twisted_translate": ("self_s", "calls"),
    "twisted_transforms.tensor_decompose_projection":
        ("self_s", "calls", "pairs", "bytes_computed", "pairs_per_s"),
    "euclidean_means.circular_mean": ("self_s", "calls"),
    "euclidean_means.euclidean_mean_table": ("self_s", "calls"),
    "injectivity_lab.assemble_operator":
        ("self_s", "calls", "rows", "cols", "quad_points", "basis_evals"),
    "injectivity_lab.svd": ("self_s", "calls"),
    "injectivity_lab.injectivity_probe": ("self_s",),
    "injectivity_lab.near_null_roundtrip": ("self_s", "calls", "certified_ratio"),
    "injectivity_lab.hecke_bochner_counterexample": ("self_s",),
    "cli.main": ("self_s",),
    "ioutil.write_csv": ("self_s", "bytes"),
}

# CLI jobs of the workloads; each reports cli.<job>.wall_s
CLI_JOBS = ("project", "probe", "probe-n_lines3", "probe-sphere", "probe-euclidean",
            "counterexample-euclidean", "counterexample-twisted",
            "verify-identities", "tsm-eval")

RUN_METRICS = {"trace.overhead_s": "s", "trace.span_coverage": "ratio",
               "trace.spans": "count", "run.wall_s": "s", "run.cpu_s": "s"}

UNITS = {"self_s": "s", "wall_s": "s", "pairs_per_s": "1/s", "bytes": "B",
         "bytes_computed": "B", "certified_ratio": "ratio"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{fn}.{stat}": UNITS.get(stat, "count")
           for fn, stats in FUNCTION_METRICS.items() for stat in stats}
    out.update({f"cli.{job}.wall_s": "s" for job in CLI_JOBS})
    out.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    out.update(RUN_METRICS)
    return out


def _is_job(name: str) -> bool:
    return name.startswith(("job.", "check."))


def span_cost(n: int = 20000) -> float:
    """Seconds one wrapped call with a counter adds over a plain call."""
    tracer = Tracer()
    plain = lambda: None  # noqa: E731
    wrapped = tracer.wrap("calibration", plain, lambda a, kw, r: {"calls": 1})
    t0 = time.perf_counter()
    for _ in range(n):
        plain()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def layer_metrics(tracer: Tracer, first: int, wall: float, cpu: float) -> dict:
    """Per-layer figures of a pass whose job spans start at index ``first``.

    ``trace.overhead_s`` is the span count times the calibrated cost of one
    span: the traced-minus-untraced wall time without the run-to-run noise
    of two separate passes."""
    agg = aggregate(tracer.spans)
    counts = tracer.counts
    out: dict[str, float] = {}
    for fn, stats in FUNCTION_METRICS.items():
        row = agg.get(fn, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for stat in stats:
            if stat in ("self_s", "calls"):
                val = row[stat]
            elif stat == "pairs_per_s":
                val = counts[f"{fn}.pairs"] / row["total_s"] if row["total_s"] else 0.0
            elif stat == "certified_ratio":
                cand = counts["injectivity_lab.injectivity_probe.candidates"]
                val = counts["injectivity_lab.injectivity_probe.certified"] / cand if cand else 0.0
            else:
                val = counts[f"{fn}.{stat}"]
            out[f"{fn}.{stat}"] = val
    for job in CLI_JOBS:
        out[f"cli.{job}.wall_s"] = agg.get(f"job.{job}", {"total_s": 0.0})["total_s"]
    for layer, mods in LAYERS.items():
        out[f"layer.{layer}.self_s"] = sum(
            row["self_s"] for name, row in agg.items()
            if not _is_job(name) and name.split(".")[0] in mods)
    roots = {i for i in range(first, len(tracer.spans))
             if tracer.spans[i][3] == -1 and _is_job(tracer.spans[i][0])}
    out["trace.span_coverage"] = coverage(tracer.spans, roots) / wall if wall else 0.0
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_s"] = len(tracer.spans) * span_cost()
    out["run.wall_s"] = wall
    out["run.cpu_s"] = cpu
    return out


def dump(tracer: Tracer, path) -> None:
    """Write the spans as JSON lines: [name, start, end, parent]."""
    with open(path, "w", encoding="utf-8") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps(sp) + "\n")
