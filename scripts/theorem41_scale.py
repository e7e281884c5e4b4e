#!/usr/bin/env python3
"""Time Theorem 4.1's three-route crosscheck on simplex algebras, in process:

    python scripts/theorem41_scale.py

It builds simplex3 over GF(2147483629) and over Q, and simplex4 over Q,
with ``build_simplex_algebra``.  For each it runs ``verify_reedy`` first,
so that the timed part is what the crosscheck adds to a verified
structure: route (ii) and route (iii) (the heredity chain, the exact-Borel
and the Delta test).  It times ``characterization_crosscheck`` and asserts
that the three routes agree.

It prints one JSON line: the Python version, the CPU count, and per
algebra its dimension, the build time, the ``verify_reedy`` time and the
crosscheck time.  simplex4 over Q (dim 456) dominates: about 1 s in all on
a 2-core x86_64 machine.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reedylab as rl

P = 2147483629
ALGEBRAS = [("simplex3-GFp", 3, rl.prime_field(P)),
            ("simplex3-Q", 3, rl.rationals()),
            ("simplex4-Q", 4, rl.rationals())]


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, round(time.perf_counter() - start, 4)


def main() -> None:
    report = {"python": platform.python_version(), "cpus": os.cpu_count()}
    for name, n, field in ALGEBRAS:
        structure, build = timed(rl.build_simplex_algebra, n, field)
        verdict, verify = timed(rl.verify_reedy, structure)
        assert verdict["overall"], name
        crosscheck, seconds = timed(rl.characterization_crosscheck, structure)
        assert crosscheck["agree"], name
        report[name] = {"dim": structure.algebra.dim, "build_s": round(build, 3),
                        "verify_reedy_s": verify, "crosscheck_s": seconds}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
