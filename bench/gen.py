"""Seeded input generator for the reedylab benchmark.

Each workload's inputs are a constructor's output (or the bundled corpus)
put through a seeded change of basis: a permutation of the basis and, for
some inputs, a diagonal rescaling by small non-integer rationals.  The
change of basis is an algebra isomorphism, so every check report is the
same for every seed; only the work the checks do to reach it moves.

Run as a script it writes one workload's files plus ``manifest.json``
(the check list) into a directory:

    python3 bench/gen.py --workload simplex-gfp --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from reedylab import constructors, qh, serialize  # noqa: E402
from reedylab.algebra import Algebra, AlgSubspace, IdempotentFrame  # noqa: E402
from reedylab.fields import field_of  # noqa: E402
from reedylab.linalg import densify, span, sparse  # noqa: E402
from reedylab.reedy import ReedyStructure  # noqa: E402

LARGE_PRIME = 2147483629
CORPUS_DIR = ROOT / "src" / "reedylab" / "corpus"
CORPUS_EXTRA_MAX_DIM = 31
# corpus entry check -> the benchmark's check kind for the same command
CORPUS_ENTRY_KINDS = {"reedy": "verify", "theorem41": "theorem41", "qh": "qh"}

def random_scales(rng: random.Random, n: int) -> list[Fraction]:
    """n nonzero, non-integral rationals with small numerator and denominator."""
    out = []
    while len(out) < n:
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(2, 5))
        if s.denominator != 1:
            out.append(s)
    return out


def transform(r: ReedyStructure, perm, scales) -> ReedyStructure:
    """The structure in the basis b'_{perm[i]} = scales[i] * b_i."""
    a = r.algebra
    f = a.field
    n = a.dim
    s = [f.parse(str(x)) for x in scales]

    def vec(v) -> tuple:
        out = [f.zero] * n
        for i, x in enumerate(v):
            if x != f.zero:
                out[perm[i]] = f.div(x, s[i])
        return tuple(out)

    mult = [[()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sij = f.mul(s[i], s[j])
            mult[perm[i]][perm[j]] = tuple(
                sorted((perm[k], f.div(f.mul(sij, c), s[k])) for k, c in a.mult[i][j])
            )
    labels = [""] * n
    for i, lab in enumerate(a.labels):
        labels[perm[i]] = lab
    b = Algebra(f, labels, mult, vec(a.unit))
    frame = IdempotentFrame(
        b, [vec(e) for e in r.frame.idempotents], r.frame.labels, r.frame.degrees
    )

    def sub(x: AlgSubspace) -> AlgSubspace:
        return AlgSubspace(b, span(f, n, [vec(v) for v in x.space.basis]), x.closure_kind)

    return ReedyStructure(b, frame, sub(r.aplus), sub(r.aminus))


def check_isomorphism(r: ReedyStructure, t: ReedyStructure, perm, scales) -> None:
    """Raise unless phi(b_i) = b'_{perm[i]} / scales[i] maps r onto t."""
    a, b = r.algebra, t.algebra
    f = a.field
    s = [f.parse(str(x)) for x in scales]
    if sorted(perm) != list(range(a.dim)) or any(x == f.zero for x in s):
        raise ValueError("change of basis is not invertible")

    def phi(v: dict) -> dict:
        return {perm[i]: f.div(x, s[i]) for i, x in v.items()}

    for i in range(a.dim):
        bi = phi({i: f.one})
        for j in range(a.dim):
            if phi(a.mul_sparse({i: f.one}, {j: f.one})) != b.mul_sparse(bi, phi({j: f.one})):
                raise ValueError(f"change of basis does not preserve b_{i} * b_{j}")
    if phi(sparse(f, a.unit)) != sparse(f, b.unit):
        raise ValueError("change of basis does not preserve the unit")
    for e, e2 in zip(r.frame.idempotents, t.frame.idempotents):
        if phi(sparse(f, e)) != sparse(f, e2):
            raise ValueError("change of basis does not preserve the frame")
    for x, y in ((r.aplus, t.aplus), (r.aminus, t.aminus)):
        image = span(f, b.dim, [densify(f, phi(sparse(f, v)), b.dim) for v in x.space.basis])
        if image != y.space:
            raise ValueError("change of basis does not preserve A+ / A-")


def write_structure(out: Path, stem: str, r: ReedyStructure) -> None:
    serialize.save_algebra(out / f"{stem}.alg.json", r.algebra, r.frame)
    serialize.save_reedy(out / f"{stem}.reedy.json", r, f"{stem}.alg.json")
    order = qh.order_from_degrees(r.frame)
    serialize.write_json(out / f"{stem}.order.json", order.to_json())


def seeded_copy(out: Path, stem: str, r: ReedyStructure, rng, rescale: bool) -> None:
    """Write r in a seeded basis; with ``rng`` None, in the constructor's basis."""
    perm = list(range(r.algebra.dim))
    scales = [1] * r.algebra.dim
    if rng is not None:
        rng.shuffle(perm)
        if rescale:
            scales = random_scales(rng, r.algebra.dim)
    t = transform(r, perm, scales)
    check_isomorphism(r, t, perm, scales)
    write_structure(out, stem, t)


# Workload inputs ---------------------------------------------------------

def _tensor49(field):
    s1 = constructors.build_simplex_algebra(1, field)
    return constructors.build_tensor_reedy(s1, s1)


def structure_checks(stem: str, kinds, cuts=()) -> list[dict]:
    checks = []
    for kind in kinds:
        check = {"id": f"{stem}.{kind}", "kind": kind, "stem": stem}
        if kind == "theorem53":
            check["cuts"] = list(cuts)
        checks.append(check)
    return checks


def _gen_corpus(out: Path, rng: random.Random) -> list[dict]:
    corpus = out / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    index = serialize.read_json(corpus / "entries.json")
    if rng is not None:
        rng.shuffle(index["entries"])
    serialize.write_json(corpus / "entries.json", index)
    checks = [{"id": "corpus.run", "kind": "corpus", "dir": "corpus"}]
    # The corpus entries again, one command each, in the main thread and in
    # a fixed order: the pool's interleaving makes per-entry times inside
    # corpus run unsteady.
    for entry in sorted(index["entries"], key=lambda e: e["name"]):
        kind = CORPUS_ENTRY_KINDS.get(entry["check"])
        if kind == "qh":
            stem = "corpus/" + entry["algebra"][: -len(".alg.json")]
            checks.append({"id": f"corpus.{entry['name']}", "kind": kind, "stem": stem,
                           "order": "corpus/" + entry["order"]})
        elif kind is not None:
            stem = "corpus/" + entry["reedy"][: -len(".reedy.json")]
            checks.append({"id": f"corpus.{entry['name']}", "kind": kind, "stem": stem})
    # The commands the corpus does not run, on each structure it verifies
    # that is small enough to keep per-call costs in front.
    for name in sorted({e["reedy"] for e in index["entries"] if e["check"] == "reedy"}):
        stem = "corpus/" + name[: -len(".reedy.json")]
        alg_file = "corpus/" + serialize.read_json(corpus / name)["algebra"]
        alg_doc = serialize.read_json(out / alg_file)
        if alg_doc["dim"] > CORPUS_EXTRA_MAX_DIM:
            continue
        checks.append({"id": f"{stem}.load", "kind": "load", "stem": stem})
        checks.append({"id": f"{stem}.validate", "kind": "validate", "stem": stem,
                       "algebra": alg_file})
        checks.append({"id": f"{stem}.layer", "kind": "layer", "stem": stem})
        degrees = serialize.read_json(corpus / name).get("degrees") or alg_doc["degrees"]
        levels = len(set(degrees.values()))
        if levels > 1:
            checks.append({"id": f"{stem}.theorem53", "kind": "theorem53", "stem": stem,
                           "cuts": list(range(levels - 1))})
    return checks


def generate(workload: str, seed: int | None, out: Path) -> list[dict]:
    """Write the workload's input files under ``out``; return its check list.

    ``seed`` None writes the unpermuted constructor output (and the corpus
    in its bundled order), from which the pinned reports are made.
    """
    rng = None if seed is None else random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    if workload == "corpus":
        checks = _gen_corpus(out, rng)
    elif workload == "simplex-q":
        # simplex3 over Q only where a pass stays short; the rest on simplex2.
        field = field_of("Q")
        seeded_copy(out, "simplex3", constructors.build_simplex_algebra(3, field), rng, rescale=False)
        seeded_copy(out, "simplex2", constructors.build_simplex_algebra(2, field), rng, rescale=False)
        checks = (
            structure_checks("simplex3", ("load", "verify", "layer"))
            + structure_checks("simplex2", ("validate", "theorem53", "qh", "theorem41"), cuts=(0, 1))
        )
    elif workload == "simplex-gfp":
        field = field_of("GF", LARGE_PRIME)
        seeded_copy(out, "simplex3", constructors.build_simplex_algebra(3, field), rng, rescale=False)
        seeded_copy(out, "simplex2", constructors.build_simplex_algebra(2, field), rng, rescale=False)
        checks = (
            structure_checks("simplex3", ("load", "validate", "verify", "layer", "theorem53"),
                             cuts=(0, 1, 2))
            + structure_checks("simplex2", ("qh", "theorem41"))
        )
    elif workload == "theorem41-scaled":
        field = field_of("Q")
        seeded_copy(out, "tensor49", _tensor49(field), rng, rescale=True)
        seeded_copy(out, "simplex2", constructors.build_simplex_algebra(2, field), rng, rescale=True)
        checks = (
            structure_checks("tensor49", ("load", "validate", "verify", "layer", "theorem53", "qh", "theorem41"), cuts=(0, 1))
            + structure_checks("simplex2", ("theorem53", "theorem41"), cuts=(0, 1))
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    serialize.write_json(out / "manifest.json", {"workload": workload, "seed": seed, "checks": checks})
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
