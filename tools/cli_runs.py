"""Run the standard set of CLI runs, one subdirectory of OUT per run.

    PYTHONPATH=src python3 tools/cli_runs.py OUT

The runs, by subdirectory (``--experiment`` and ``--override`` values of
``python3 -m tsmlab``):

  the six experiments at their defaults, each under its own name;
  counterexample-twisted, counterexample-n3   the twisted and Sigma_3
                                              counterexamples;
  probe-n3, probe-sphere, probe-curve         the twisted probe on Sigma_3,
                                              a sphere and a curve;
  probe-euclid, probe-euclid-n3,              the euclidean probe on
  probe-euclid-sphere, probe-euclid-curve     Sigma_2, Sigma_3, a sphere
                                              and a curve;
  probe-export                                probe.export_matrix=true at
                                              probe.max_degree=4.

Runs in this process with the ``tsmlab`` on the import path, so the same
tool runs any checkout (``PYTHONPATH=<checkout>/src``).  Prints one line
per run, its exit code and its tracemalloc peak (MB, above what was
allocated when it started; caches it fills count towards the first run
that fills them), with the run's own output when it fails, and exits 1
if any run exits non-zero.  Two trees are compared with
``tools/payload_diff.py``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tracemalloc
from pathlib import Path

RUNS = {
    "verify-identities": ("verify-identities", []),
    "tsm-eval": ("tsm-eval", []),
    "project": ("project", []),
    "expand-qk": ("expand-qk", []),
    "counterexample": ("counterexample", []),
    "probe": ("probe", []),
    "counterexample-twisted": ("counterexample", ["counterexample.engine=twisted"]),
    "counterexample-n3": ("counterexample", ["counterexample.n_lines=3"]),
    "probe-n3": ("probe", ["probe.n_lines=3"]),
    "probe-sphere": ("probe", ["probe.kind=sphere"]),
    "probe-curve": ("probe", ["probe.kind=curve"]),
    "probe-euclid": ("probe", ["probe.engine=euclidean"]),
    "probe-euclid-n3": ("probe", ["probe.engine=euclidean", "probe.n_lines=3"]),
    "probe-euclid-sphere": ("probe", ["probe.engine=euclidean", "probe.kind=sphere"]),
    "probe-euclid-curve": ("probe", ["probe.engine=euclidean", "probe.kind=curve"]),
    "probe-export": ("probe", ["probe.export_matrix=true", "probe.max_degree=4"]),
}


def run_all(out: Path) -> dict[str, int]:
    """Every run into out/<name>; the exit code of each."""
    from tsmlab.cli import main

    codes = {}
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for name, (experiment, overrides) in RUNS.items():
            argv = ["--experiment", experiment, "--out", str(out / name)]
            for ov in overrides:
                argv += ["--override", ov]
            log = io.StringIO()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                codes[name] = main(argv)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
            print(f"{name}: exit {codes[name]}, peak {peak:.1f} MB")
            if codes[name]:
                print(log.getvalue(), end="")
    finally:
        if not tracing:
            tracemalloc.stop()
    return codes


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    return 1 if any(run_all(Path(args[0])).values()) else 0


if __name__ == "__main__":
    sys.exit(main())
