"""Benchmark for reedylab: per-command verdict latency on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it uses the checkout's ``src``.  The
workloads, their checks and the metrics are described in bench/README.md.

With ``--trace 0`` the run sets up its inputs several times (each time a
fresh interpreter imports reedylab and generates the files from the seed),
then runs passes over the workload's checks for about S seconds and
reports the end-to-end metrics.  With ``--trace 1`` it generates the
inputs once in-process, runs two untraced passes and one traced pass, and
reports the per-layer metrics.  Every check's exit code and report are
compared with the pinned ones in bench/pinned/; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REF_SECONDS, SpeedMeter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("corpus", "simplex-q", "simplex-gfp", "theorem41-scaled")
SETUP_REPS = 3
LATENCY_KINDS = ("load", "validate", "verify", "layer", "theorem53", "qh", "theorem41")
END_TO_END = (
    [("setup_s", "s"), ("pass_s", "s")]
    + [(f"{kind}_s", "s") for kind in LATENCY_KINDS]
    + [("peak_rss_mb", "MB")]
)


class Runner:
    """Runs passes over a workload's checks and gates every report."""

    def __init__(self, workload: str, inputs: Path, meter: SpeedMeter):
        import checks

        self.checks_mod = checks
        self.manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
        self.pinned = checks.load_pinned(workload)
        self.inputs = inputs
        self.meter = meter
        self.attempted = 0
        self.failed = 0

    def run_pass(self) -> list[tuple[str, float, float]]:
        """One pass over the checks; returns (kind, start, end) per check."""
        spans = []
        for check in self.manifest["checks"]:
            # Each check starts, like a separate command, with no garbage
            # left by the last one; collections inside a check still count.
            gc.collect()
            # The corpus pool's threads would wait on the samples, and
            # inflate them: that check is scaled by the samples either side.
            with self.meter.paused() if check["kind"] == "corpus" else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    code, text = self.checks_mod.run_check(check, self.inputs)
                except Exception:  # a raising check is a failed check; keep measuring
                    traceback.print_exc()
                    code, text = None, None
                end = time.perf_counter()
            spans.append((check["kind"], start, end))
            self.attempted += 1
            expected = self.pinned.get(check["id"])
            if expected is None or code != expected["exit"] or text != expected["report"]:
                self.failed += 1
                print(f"check {check['id']}: exit {code}, report differs from pinned"
                      if expected else f"check {check['id']}: nothing pinned", file=sys.stderr)
        return spans


def timed_setup(workload: str, seed: int, out: Path) -> float:
    """Set up once in a fresh interpreter; return the scaled set-up time."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_once.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        check=True, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["seconds"] * REF_SECONDS / statistics.mean(result["refs"])


def measure(workload: str, seed: int, seconds: float, work: Path) -> tuple[Runner, dict]:
    meter = SpeedMeter()
    setup = [timed_setup(workload, seed, work / f"setup{k}") for k in range(SETUP_REPS)]
    runner = Runner(workload, work / "setup0", meter)
    start = time.perf_counter()
    meter.start()
    try:
        passes, walls = [], []
        while True:
            t0 = time.perf_counter()
            passes.append(runner.run_pass())
            walls.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    finally:
        meter.stop()
    scaled = [[meter.scaled(a, b) for _, a, b in spans] for spans in passes]
    metrics = {"setup_s": statistics.median(setup),
               "pass_s": statistics.median(sum(times) for times in scaled)}
    # A kind's latency is the geometric mean, over its checks, of each
    # check's median over passes: typical for checks of very different
    # sizes, and steadier than picking the middle one.
    per_check = [statistics.median(times) for times in zip(*scaled)]
    for kind in LATENCY_KINDS:
        values = [t for (k, _, _), t in zip(passes[0], per_check) if k == kind]
        if not values:
            raise RuntimeError(f"workload {workload} ran no {kind} check")
        metrics[f"{kind}_s"] = statistics.geometric_mean(values)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    refs = sorted(meter.refs)
    print(f"{len(passes)} passes; raw pass times "
          + " ".join(f"{w:.3f}" for w in walls) + " s; reference computation "
          f"{refs[0] * 1e3:.3f} to {refs[-1] * 1e3:.3f} ms over {len(refs)} samples "
          f"(REF_SECONDS {REF_SECONDS * 1e3:g} ms)")
    return runner, metrics


def measure_traced(workload: str, seed: int, work: Path) -> tuple[Runner, dict]:
    import gen
    import tracing

    meter = SpeedMeter()
    meter.start()
    try:
        start = time.perf_counter()
        gen.generate(workload, seed, work / "inputs")
        setup_s = meter.scaled(start, time.perf_counter())
        runner = Runner(workload, work / "inputs", meter)
        runner.run_pass()
        start = time.perf_counter()
        runner.run_pass()
        end = time.perf_counter()
    finally:
        meter.stop()
    baseline = meter.scaled(start, end)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        tracer.profile(runner.run_pass)
        end = time.perf_counter()
    finally:
        tracer.uninstall()
    meter.sample()
    traced = meter.scaled(start, end)
    scale = traced / (end - start)
    print(f"untraced pass {baseline:.3f} s, traced pass {traced:.3f} s at reference speed")
    return runner, tracer.metrics(scale, setup_s, traced / baseline)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reedylab" / "__init__.py").is_file():
        print(f"error: no reedylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    print(f"reedylab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; Python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{platform.machine()}")
    try:
        if args.trace:
            import tracing

            runner, metrics = measure_traced(args.workload, args.seed, work)
            units = dict(tracing.PER_LAYER_METRICS)
        else:
            runner, metrics = measure(args.workload, args.seed, args.seconds, work)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>14.6g} {unit}")
    print(f"checks attempted {runner.attempted}, failed {runner.failed}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
