#!/usr/bin/env python3
"""Time ``verify_reedy`` on simplex algebras and on a block-mixing basis,
in process:

    python scripts/verify_scale.py

It builds simplex4 and simplex5 over GF(2147483629) and simplex4 over Q
with ``build_simplex_algebra``, and simplex2 over Q carried to a seeded
unitriangular basis of density 0.2 (``tests/peirce_oracle.py``), whose
basis vectors lie across the Peirce blocks, so that no idempotent fixes
the rows it splits off.  Each timing runs ``verify_reedy`` on a copy of
the structure with fresh caches (algebra, frame, A+ and A-), so that
every Peirce table is built inside it, and asserts the verdict; the best
of three is kept.

It prints one JSON line: the Python version, the CPU count, and per input
its dimension, the build time and the ``verify_reedy`` time.  simplex5
(dim 1709) dominates: about 5 s to build on a 2-core x86_64 machine.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import reedylab as rl
from peirce_oracle import unitriangular

P = 2147483629
REPEATS = 3


def mixed_simplex2():
    return unitriangular(rl.build_simplex_algebra(2, rl.rationals()), random.Random(7), 0.2)


INPUTS = [("simplex4-GFp", lambda: rl.build_simplex_algebra(4, rl.prime_field(P))),
          ("simplex5-GFp", lambda: rl.build_simplex_algebra(5, rl.prime_field(P))),
          ("simplex4-Q", lambda: rl.build_simplex_algebra(4, rl.rationals())),
          ("simplex2-Q-mixed", mixed_simplex2)]


def fresh(r):
    """``r`` rebuilt from its parts, with no cached value anywhere."""
    a = r.algebra
    b = rl.Algebra(a.field, a.labels, a.mult, a.unit)
    frame = rl.IdempotentFrame(b, r.frame.idempotents, r.frame.labels, r.frame.degrees,
                               check=False)
    return rl.ReedyStructure(b, frame, rl.AlgSubspace(b, r.aplus.space, r.aplus.closure_kind),
                             rl.AlgSubspace(b, r.aminus.space, r.aminus.closure_kind))


def timed_verify(r) -> float:
    best = None
    for _ in range(REPEATS):
        copy = fresh(r)
        start = time.perf_counter()
        verdict = rl.verify_reedy(copy)
        seconds = time.perf_counter() - start
        assert verdict["overall"]
        best = seconds if best is None else min(best, seconds)
    return round(best, 4)


def main() -> None:
    report = {"python": platform.python_version(), "cpus": os.cpu_count()}
    for name, build in INPUTS:
        start = time.perf_counter()
        structure = build()
        built = time.perf_counter() - start
        report[name] = {"dim": structure.algebra.dim, "build_s": round(built, 3),
                        "verify_reedy_s": timed_verify(structure)}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
