"""The benchmark's hold on library names: ``bench/spans.py`` wraps tsmlab
functions by module and attribute name, so a rename or a dropped default
breaks only a traced benchmark pass.  These tests install its tracer, run
two tiny assemblies through the wrapped names, and check that ``restore``
puts every original object back.  ``bench/`` is imported, never changed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from tsmlab import injectivity_lab
from tsmlab.euclidean_means import CIRCLE_POINTS, euclidean_sector_basis

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings() -> dict:
    """Every tsmlab module attribute and every class attribute, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "tsmlab" or name.startswith("tsmlab."):
            for key, val in vars(mod).items():
                out[(name, key)] = val
                if isinstance(val, type) and val.__module__ == name:
                    for attr, raw in vars(val).items():
                        out[(name, key, attr)] = raw
    return out


def test_tracer_wraps_assembly_and_restores_every_name():
    spans = _spans_module()
    for layer in spans.LAYERS.values():      # the modules install imports
        for name in layer:
            importlib.import_module(f"tsmlab.{name}")
    before = _bindings()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        wrapped = _bindings()
        assert wrapped.keys() == before.keys()
        changed = {k for k in before if wrapped[k] is not before[k]}
        assert ("tsmlab.injectivity_lab", "assemble_operator") in changed
        assert ("tsmlab.injectivity_lab", "SamplingOperator", "__post_init__") in changed
        sset = injectivity_lab.make_set("coxeter_lines", n_lines=1, points_per_ray=1,
                                        extent=1.0, radii=[0.5, 1.0])
        twisted = injectivity_lab.assemble_operator(sset, 1)
        basis = euclidean_sector_basis(1, support_radii=(1.0,))
        euclid = injectivity_lab.assemble_operator(sset, engine="euclidean", basis=basis)
    finally:
        restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    names = [s[0] for s in tracer.spans]
    assert names.count("injectivity_lab.assemble_operator") == 2
    assert names.count("injectivity_lab.svd") == 2          # SamplingOperator.__post_init__
    assert all(s[2] is not None for s in tracer.spans)
    counts = tracer.counts
    rows = twisted.shape[0] + euclid.shape[0]
    assert counts["injectivity_lab.assemble_operator.rows"] == rows
    assert counts["injectivity_lab.assemble_operator.cols"] == twisted.shape[1] + euclid.shape[1]
    # the counter reads assemble_operator's own defaults: 256 circle points
    # per twisted row on C, the euclidean circle's node count per euclidean row
    assert counts["injectivity_lab.assemble_operator.quad_points"] == \
        twisted.shape[0] * 256 + euclid.shape[0] * CIRCLE_POINTS
    assert np.isfinite(twisted.sigma_min) and np.isfinite(euclid.sigma_min)
