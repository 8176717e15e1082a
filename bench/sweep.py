"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/sweep.py --workloads spectral-c1,probe-sweep --seeds 1-10 \\
        [--trace 0|1] [--threads N] [--label NAME] [--out FILE]

For every workload and seed it runs ``run.py`` with the ``run_seconds`` of
``BENCHMARK.json`` and keeps the result line.
Per metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
which is how the benchmark's bounds are checked.  With ``--out`` the
summary is merged into that JSON file under ``--label``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--label", default="sweep")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]
    summary = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            if args.threads:
                cmd += ["--threads", str(args.threads)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            env = json.loads(lines[0][len("env "):])
            runs.append((seed, env, json.loads(lines[-1])))
        names = list(runs[0][2]["metrics"])
        summary[wl] = {
            "seeds": [s for s, _, _ in runs],
            "correct": all(r["correct"] for _, _, r in runs),
            "attempted": [r["attempted"] for _, _, r in runs],
            "failed": [r["failed"] for _, _, r in runs],
            "env": runs[0][1],
            "metrics": {n: {"unit": runs[0][2]["metrics"][n]["unit"],
                            **summarise([r["metrics"][n]["value"] for _, _, r in runs])}
                        for n in names},
        }
        for n, m in summary[wl]["metrics"].items():
            spread = f"{m['spread']:.4f}" if "spread" in m else "-"
            print(f"{wl:12s} {n:60s} median {m['median']:.6g} {m['unit']:6s} spread {spread}",
                  flush=True)
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text("utf-8")) if path.exists() else {}
        data.setdefault(args.label, {}).update(summary)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
