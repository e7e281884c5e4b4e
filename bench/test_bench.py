"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest bench/test_bench.py

The traced-run tests start two benchmark processes per workload and take
a few minutes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import pin  # noqa: E402
import tracing  # noqa: E402
from reedylab import constructors  # noqa: E402
from reedylab.fields import field_of  # noqa: E402
from run import END_TO_END, WORK_DIR, WORKLOADS  # noqa: E402

# Per-layer metrics that are counts or ratios of counts: these must repeat
# exactly for a seed.  trace.overhead_ratio is a ratio of times.
EXACT = [name for name, unit in tracing.PER_LAYER_METRICS
         if unit in ("count", "ratio") and name != "trace.overhead_ratio"]


@pytest.fixture
def work():
    path = WORK_DIR / f"test-{random.randrange(1 << 30)}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
        WORK_DIR.rmdir()


def bench_run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pinned_reports_are_the_unpermuted_reports(workload):
    assert pin.pin(workload) == checks.load_pinned(workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeded_inputs_reproduce_the_pinned_reports(workload, work):
    pinned = checks.load_pinned(workload)
    inputs = {}
    for seed in (1, 2):
        out = work / str(seed)
        for check in gen.generate(workload, seed, out):
            expected = pinned[check["id"]]
            assert checks.run_check(check, out) == (expected["exit"], expected["report"]), \
                (seed, check["id"])
        inputs[seed] = sorted(p.read_bytes() for p in out.rglob("*.json"))
    assert inputs[1] != inputs[2], "the seed does not change the inputs"


def test_a_wrong_change_of_basis_is_caught():
    r = constructors.build_simplex_algebra(1, field_of("Q"))
    rng = random.Random(0)
    perm = list(range(r.algebra.dim))
    rng.shuffle(perm)
    scales = gen.random_scales(rng, r.algebra.dim)
    t = gen.transform(r, perm, scales)
    gen.check_isomorphism(r, t, perm, scales)
    wrong = list(scales)
    wrong[0] *= 2
    with pytest.raises(ValueError):
        gen.check_isomorphism(r, t, perm, wrong)


def test_self_time_follows_callers_for_builtins_and_stdlib():
    fields_fn = (str(tracing.PACKAGE_DIR / "fields.py"), 1, "add")
    algebra_fn = (str(tracing.PACKAGE_DIR / "algebra.py"), 1, "mul_sparse")
    serialize_fn = (str(tracing.PACKAGE_DIR / "serialize.py"), 1, "read_json")
    decode = ("/usr/lib/python3/json/decoder.py", 1, "decode")
    builtin = ("~", 0, "<built-in method builtins.isinstance>")
    wait = ("~", 0, "<method 'acquire' of '_thread.lock' objects>")
    raw = {
        fields_fn: (1, 1, 1.0, 1.5, {}),
        algebra_fn: (1, 1, 2.0, 2.5, {}),
        serialize_fn: (1, 1, 0.5, 1.0, {}),
        builtin: (2, 2, 0.8, 0.8, {fields_fn: (1, 1, 0.6, 0.6), algebra_fn: (1, 1, 0.2, 0.2)}),
        decode: (1, 1, 0.4, 0.5, {serialize_fn: (1, 1, 0.4, 0.5)}),
        wait: (1, 1, 9.0, 9.0, {serialize_fn: (1, 1, 9.0, 9.0)}),
    }
    got = tracing.layer_self_times(raw)
    assert got == pytest.approx({"fields": 1.6, "algebra": 2.2, "serialize": 0.9})


def test_untraced_run_prints_every_end_to_end_metric():
    proc = bench_run(["--workload", "corpus", "--seed", "5", "--seconds", "1", "--trace", "0"],
                     BENCH_DIR.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_ratios_repeat_for_a_seed(workload):
    results = []
    for _ in range(2):
        proc = bench_run(["--workload", workload, "--seed", "7", "--trace", "1"],
                         BENCH_DIR.parent)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    assert all(r["correct"] for r in results)
    first, second = ({n: r["metrics"][n]["value"] for n in EXACT} for r in results)
    assert first == second
    assert set(results[0]["metrics"]) == {n for n, _ in tracing.PER_LAYER_METRICS}


def test_run_without_sources_fails(work):
    shutil.copytree(BENCH_DIR, work / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", work / "BENCHMARK.json")
    proc = bench_run(["--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     work)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
