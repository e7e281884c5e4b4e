#!/usr/bin/env python3
"""Time Theorem 5.3's multiplication leg on large simplex algebras, in process:

    python scripts/theorem53_scale.py

It builds simplex4 over GF(2147483629) and over Q, and simplex5 over
GF(2147483629), with ``build_simplex_algebra``.  At each cut c of the
normalized degrees, with e the sum of the idempotents at level <= c, it
times ``tensor_dim_over_corner(frame, inside)`` alone, and asserts that the
result is dim AeA (``peirce_two_sided``): each simplex is Reedy, so the
map Ae (x)_eAe eA -> AeA is bijective at every cut.

It prints one JSON line: the Python version, the CPU count, and per
algebra its dimension, the build time and a list of
{"cut", "tensor_dim", "seconds"}.  simplex5 (dim 1709) dominates: about
5 s to build and 2 s for the cuts on a 2-core x86_64 machine.
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
from reedylab.algebra import peirce_two_sided

P = 2147483629
ALGEBRAS = [("simplex4-GFp", 4, rl.prime_field(P)),
            ("simplex4-Q", 4, rl.rationals()),
            ("simplex5-GFp", 5, rl.prime_field(P))]


def cut_times(structure) -> list[dict]:
    frame = structure.frame
    levels = frame.normalized().degrees
    out = []
    for cut in sorted(set(levels)):
        inside = [i for i, level in enumerate(levels) if level <= cut]
        start = time.perf_counter()
        tensor = rl.tensor_dim_over_corner(frame, inside)
        seconds = time.perf_counter() - start
        ideal = peirce_two_sided(frame, inside).dim
        assert tensor == ideal, (cut, tensor, ideal)
        out.append({"cut": cut, "tensor_dim": tensor, "seconds": round(seconds, 4)})
    return out


def main() -> None:
    report = {"python": platform.python_version(), "cpus": os.cpu_count()}
    for name, n, field in ALGEBRAS:
        start = time.perf_counter()
        structure = rl.build_simplex_algebra(n, field)
        build = time.perf_counter() - start
        report[name] = {"dim": structure.algebra.dim, "build_s": round(build, 3),
                        "cuts": cut_times(structure)}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
