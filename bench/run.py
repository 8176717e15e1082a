"""tsmlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass and every set-up sample runs in
a fresh worker process (``worker.py``) with TSMLAB_THREADS and the BLAS
thread variables pinned.  Jobs run back to back with one client: each starts
when the previous one returns.

--trace 0 runs passes while another is expected to end within ``--seconds``
(at least the workload's ``min_passes``), with a set-up-only process before
each pass and after the last, and reports the end-to-end metrics: medians over passes and set-up
samples, except peak memory, which is the largest.  --trace 1 runs
one traced pass and reports its per-layer metrics.  Either way the output
ends with the environment block, one line per metric with its unit, the
failed operations, and a final JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status is non-zero, with no result line,
when the program under test is missing or a worker crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "tsmlab"
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
THREAD_VARS = ("TSMLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text("utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text("utf-8").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(PACKAGE.rglob("*")):
        if p.is_file() and p.suffix in (".py", ".cfg"):
            h.update(p.relative_to(PACKAGE).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, workload: str, seed: int, threads: int):
        self.workload, self.seed = workload, seed
        self.env = dict(os.environ, **{v: str(threads) for v in THREAD_VARS})
        self.dir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
        self.count = 0

    def spawn(self, mode: str, trace: int = 0) -> dict:
        """One worker process; returns its result with ``setup_s`` added."""
        self.count += 1
        result = self.dir / f"{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--trace", str(trace),
               "--work", str(self.dir / f"work{self.count}"), "--result", str(result)]
        if trace:
            cmd += ["--spans", str(OUT / f"spans-{self.workload}-seed{self.seed}.jsonl")]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise WorkerError(f"worker timed out after {e.timeout} s") from e
        if proc.returncode != 0 or not result.is_file():
            raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        out = json.loads(result.read_text("utf-8"))
        out["setup_s"] = out["ready"] - start
        return out


def _env_block(args, threads: int, first: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        **first["env"],
        "thread_vars": {v: str(threads) for v in THREAD_VARS},
        "git_commit": _git_commit(), "source_sha256_16": _source_digest(),
        "sizes": first["sizes"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=None,
                    help="thread cap (default: min(2, available CPUs))")
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"program under test not found: {PACKAGE} is missing", file=sys.stderr)
        return 2
    threads = args.threads or min(2, len(os.sched_getaffinity(0)))
    runner = Runner(args.workload, args.seed, threads)
    try:
        setups, passes = [], []
        if args.trace:
            passes = [runner.spawn("pass", trace=1)]
        else:
            # set-up-only samples alternate with the passes, so that their
            # median spans the run and not one moment of a noisy host
            setups = [runner.spawn("setup")["setup_s"]]
            rounds = []
            while True:
                start = time.monotonic()
                passes.append(runner.spawn("pass"))
                setups.append(runner.spawn("setup")["setup_s"])
                rounds.append(time.monotonic() - start)
                if (len(passes) >= passes[0]["min_passes"]
                        and sum(rounds) + statistics.median(rounds) > args.seconds):
                    break
    except WorkerError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)

    setups += [p["setup_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = all(p["correct"] for p in passes)

    if args.trace:
        values, units = passes[0]["layers"], passes[0]["layer_units"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(p["wall_s"] for p in passes),
                  "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
                  "ok_ratio": (attempted - failed) / attempted}
        units = END_TO_END

    print("env " + json.dumps(_env_block(args, threads, passes[0]), sort_keys=True))
    print(f"passes {len(passes)}  setup samples {len(setups)}  "
          f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for o in (o for p in passes for o in p["outcomes"]):
        if o["status"] != "ok":
            print(f"failed {o['job']} [{o['status']}] "
                  f"{o.get('error') or json.dumps(o.get('checks'))}")
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
