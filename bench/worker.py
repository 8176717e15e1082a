"""One benchmark pass (or one set-up sample) in a fresh process.

Started by ``run.py`` with the thread variables already in its environment,
so BLAS reads them before numpy loads.  Writes one JSON result file:

* ``ready``: CLOCK_MONOTONIC reading when the first job is ready; the
  parent subtracts its spawn time to get ``setup_s``.
* with ``--mode pass``: the job outcomes and their tally, ``wall_s``,
  ``cpu_s``, ``peak_rss_mb``, the workload's sizes, numpy and BLAS versions
  and, with ``--trace 1``, the per-layer metrics; the raw spans go to
  ``--spans`` as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import tsmlab
    if not Path(tsmlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"tsmlab imported from {tsmlab.__file__}, not from {SRC}")


def _numpy_env() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for job outputs")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    _import_program()
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = Path(args.work)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.install(tracer)
    try:
        wl = workloads.build(args.workload, args.seed, work)
        ready = time.monotonic()
        result = {"ready": ready}
        if args.mode == "pass":
            cpu0 = time.process_time()
            first = len(tracer.spans) if tracer else 0
            outcomes = workloads.run_jobs(wl.jobs, tracer.span if tracer else None)
            wall = time.monotonic() - ready
            cpu = time.process_time() - cpu0
            attempted, failed, correct = workloads.tally(outcomes)
            result.update(
                outcomes=outcomes, attempted=attempted, failed=failed, correct=correct,
                wall_s=wall, cpu_s=cpu,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                sizes=wl.sizes, min_passes=wl.min_passes, env=_numpy_env())
            if tracer is not None:
                result["layers"] = spans.layer_metrics(tracer, first, wall, cpu)
                result["layer_units"] = spans.metric_units()
                if args.spans:
                    spans.dump(tracer, args.spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
