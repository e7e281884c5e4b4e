"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/report.py [--workload W ...] [--seeds 1-10] [--seconds 20]
                            [--trace 0|1] [--json FILE]

Each (workload, seed) is one ``bench/run.py`` process.  For every metric
the summary gives the median over seeds, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  ``--json``
also writes the raw per-seed results, for before/after comparisons.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarise(results: list[dict]) -> list[tuple]:
    rows = []
    for name, info in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        rows.append((name, info["unit"], med, q1, q3, spread))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        results = [run_once(workload, s, args.seconds, args.trace) for s in seed_range(args.seeds)]
        record["workloads"][workload] = results
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed}/{attempted} checks failed")
        print(f"  {'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
        for name, unit, med, q1, q3, spread in summarise(results):
            print(f"  {name:<28} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
