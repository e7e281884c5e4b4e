#!/usr/bin/env python3
"""Regenerate the bundled corpus under src/reedylab/corpus/, or under the
directory given as the one optional argument:

    python scripts/make_corpus.py [OUTPUT_DIR]

Every expected verdict written here is recomputed by the library at
generation time; values with PAPER provenance are additionally asserted
against the hard-coded statements they mirror, so a regression in the
library fails generation rather than silently re-pinning fixtures.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reedylab as rl
from reedylab.reedy import verify_reedy, recursive_check, search_reedy
from reedylab.qh import heredity_chain_verify, order_from_degrees
from reedylab.serialize import (
    quiver_to_json,
    save_algebra,
    save_reedy,
    write_json,
)

OUT = (Path(sys.argv[1]) if len(sys.argv) > 1
       else Path(__file__).resolve().parents[1] / "src" / "reedylab" / "corpus")
OUT.mkdir(parents=True, exist_ok=True)

Q = rl.rationals()
GF2 = rl.prime_field(2)
GF3 = rl.prime_field(3)

entries = []


def full(a):
    return rl.full_subalgebra(a)


def ssub(a, frame):
    return rl.subalgebra_closure(a, list(frame.idempotents))


def add_reedy_entry(name, reedy_file, expected_overall, provenance):
    entries.append(
        {
            "name": name,
            "check": "reedy",
            "reedy": reedy_file,
            "expected": {"overall": expected_overall},
            "provenance": provenance,
        }
    )


def add_t41_entry(name, reedy_file, value, provenance):
    entries.append(
        {
            "name": name,
            "check": "theorem41",
            "reedy": reedy_file,
            "expected": {
                "agree": True,
                "route_reedy": value,
                "route_bimodule": value,
                "route_borel_delta": value,
            },
            "provenance": provenance,
        }
    )


# --- trivial algebra k -----------------------------------------------------
k_alg, k_frame = rl.build_quiver_algebra(
    rl.QuiverPresentation(["pt"], [], [], 1), Q
)
k_frame = k_frame.with_degrees([0])
k_struct = rl.ReedyStructure(k_alg, k_frame, full(k_alg), full(k_alg))
assert verify_reedy(k_struct)["overall"]
save_algebra(OUT / "k.alg.json", k_alg, k_frame)
save_reedy(OUT / "k.reedy.json", k_struct, "k.alg.json")
add_reedy_entry("k-trivial", "k.reedy.json", True, "PAPER")
add_t41_entry("k-trivial-t41", "k.reedy.json", True, "TRIVIAL")

# --- diamond over Q --------------------------------------------------------
pres = rl.diamond_presentation()
write_json(OUT / "diamond.quiver.json", quiver_to_json(pres))
diamond, dframe = rl.build_quiver_algebra(pres, Q)
assert diamond.dim == 9 and rl.radical(diamond).dim == 5
save_algebra(OUT / "diamond.alg.json", diamond, dframe)

cases = [
    ("diamond.deg1234", [1, 2, 3, 4], "full", "S", True, "PAPER"),
    ("diamond.deg1223", [1, 2, 2, 3], "full", "S", True, "PAPER"),
    ("diamond.deg4231", [4, 2, 3, 1], "S", "full", True, "PAPER"),
    ("diamond.deg4312", [4, 3, 1, 2], "S", "S", False, "DERIVED"),
]
for base, degs, plus_kind, minus_kind, expected, prov in cases:
    frame = dframe.with_degrees(degs)
    aplus = full(diamond) if plus_kind == "full" else ssub(diamond, frame)
    aminus = full(diamond) if minus_kind == "full" else ssub(diamond, frame)
    structure = rl.ReedyStructure(diamond, frame, aplus, aminus)
    assert verify_reedy(structure)["overall"] == expected, base
    save_reedy(OUT / f"{base}.reedy.json", structure, "diamond.alg.json")
    add_reedy_entry(base, f"{base}.reedy.json", expected, prov)
add_t41_entry("diamond.deg1234-t41", "diamond.deg1234.reedy.json", True, "DERIVED")
add_t41_entry("diamond.deg4312-t41", "diamond.deg4312.reedy.json", False, "DERIVED")

# quasi-hereditary orders on the diamond (the no-Borel order is still QH)
for levels, expected, prov in [
    ((3, 2, 0, 1), True, "PAPER"),
    ((0, 1, 2, 3), True, "PAPER"),
    ((0, 0, 0, 0), False, "TRIVIAL"),
]:
    work = dframe.with_degrees(levels)
    got = heredity_chain_verify(work)["overall"]
    assert got == expected, (levels, got)
    fn = "diamond.order" + "".join(str(l) for l in levels) + ".order.json"
    write_json(OUT / fn, order_from_degrees(work).to_json())
    entries.append(
        {
            "name": f"diamond-qh-{''.join(str(l) for l in levels)}",
            "check": "qh",
            "algebra": "diamond.alg.json",
            "order": fn,
            "expected": {"overall": expected},
            "provenance": prov,
        }
    )

# --- upper triangular 2x2 (final remark) -----------------------------------
ut, ut_frame0 = rl.build_quiver_algebra(rl.a2_presentation(), Q)
save_algebra(OUT / "uppertri.alg.json", ut, ut_frame0)
frame_ss = ut_frame0.with_degrees([1, 0])
s_ut = ssub(ut, frame_ss)
ut_ss = rl.ReedyStructure(ut, frame_ss, s_ut, s_ut)
assert not verify_reedy(ut_ss)["overall"]
save_reedy(OUT / "uppertri.ss.reedy.json", ut_ss, "uppertri.alg.json")
add_reedy_entry("uppertri-ss", "uppertri.ss.reedy.json", False, "PAPER")
add_t41_entry("uppertri-ss-t41", "uppertri.ss.reedy.json", False, "PAPER")

rec = recursive_check(ut_ss, 0)
assert rec["triple"] == (True, True, True) and not rec["hypothesis_product_spans"]
entries.append(
    {
        "name": "uppertri-ss-theorem53-cut0",
        "check": "theorem53",
        "reedy": "uppertri.ss.reedy.json",
        "cut": 0,
        "expected": {
            "triple": [True, True, True],
            "hypothesis_product_spans": False,
            "reedy_overall": False,
        },
        "provenance": "PAPER",
    }
)

frame_as = ut_frame0.with_degrees([0, 1])
ut_as = rl.ReedyStructure(ut, frame_as, full(ut), ssub(ut, frame_as))
assert verify_reedy(ut_as)["overall"]
save_reedy(OUT / "uppertri.as.reedy.json", ut_as, "uppertri.alg.json")
add_reedy_entry("uppertri-as", "uppertri.as.reedy.json", True, "DERIVED")

for levels, prov in [((0, 1), "DERIVED"), ((1, 0), "DERIVED")]:
    work = ut_frame0.with_degrees(levels)
    assert heredity_chain_verify(work)["overall"]
    fn = "uppertri.order" + "".join(str(l) for l in levels) + ".order.json"
    write_json(OUT / fn, order_from_degrees(work).to_json())
    entries.append(
        {
            "name": f"uppertri-qh-{''.join(str(l) for l in levels)}",
            "check": "qh",
            "algebra": "uppertri.alg.json",
            "order": fn,
            "expected": {"overall": True},
            "provenance": prov,
        }
    )

# --- M2 over GF(2) and GF(3) ------------------------------------------------
for field, tag in ((GF2, "gf2"), (GF3, "gf3")):
    m2 = rl.build_matrix_algebra(2, field)
    diag = rl.matrix_diag_frame(m2, 2)
    save_algebra(OUT / f"m2.{tag}.alg.json", m2, diag)
    unit_frame = rl.IdempotentFrame(m2, [m2.unit], ["one"])
    save_algebra(OUT / f"m2unit.{tag}.alg.json", m2, unit_frame)
    for alg_file, frame, label in (
        (f"m2.{tag}.alg.json", diag, f"m2-{tag}-diag"),
        (f"m2unit.{tag}.alg.json", unit_frame, f"m2-{tag}-unit"),
    ):
        found = search_reedy(frame.without_degrees(), mode="exhaustive")
        assert not found, label
        entries.append(
            {
                "name": f"{label}-search",
                "check": "search",
                "algebra": alg_file,
                "mode": "exhaustive",
                "expected": {"count": 0},
                "provenance": "PAPER",
            }
        )

# negative three-dimensional pair inside M2 over GF(2)
m2 = rl.build_matrix_algebra(2, GF2)
diag = rl.matrix_diag_frame(m2, 2).with_degrees([0, 1])
upper = rl.subalgebra_closure(m2, list(diag.idempotents) + [m2.basis_vector(1)])  # E12
lower = rl.subalgebra_closure(m2, list(diag.idempotents) + [m2.basis_vector(2)])  # E21
m2_pair = rl.ReedyStructure(m2, diag, lower, upper)
assert m2_pair.aplus.dim == 3 and m2_pair.aminus.dim == 3
assert not verify_reedy(m2_pair)["overall"]
save_reedy(OUT / "m2.pair.reedy.json", m2_pair, "m2.gf2.alg.json")
add_reedy_entry("m2-three-dim-pair", "m2.pair.reedy.json", False, "PAPER")
add_t41_entry("m2-three-dim-pair-t41", "m2.pair.reedy.json", False, "PAPER")

# --- diamond over GF(2): exhaustive search ----------------------------------
diamond2, dframe2 = rl.build_quiver_algebra(pres, GF2)
save_algebra(OUT / "diamond.gf2.alg.json", diamond2, dframe2)
found = search_reedy(dframe2, mode="exhaustive")
pairs = sorted([list(s.frame.degrees), s.aplus.dim, s.aminus.dim] for s in found)
assert [[0, 1, 2, 3], 9, 4] in pairs
assert [[3, 1, 2, 0], 4, 9] in pairs
assert all(s.frame.degrees != (3, 2, 0, 1) for s in found)
entries.append(
    {
        "name": "diamond-gf2-search",
        "check": "search",
        "algebra": "diamond.gf2.alg.json",
        "mode": "exhaustive",
        "contains_pairs": [[[0, 1, 2, 3], 9, 4], [[3, 1, 2, 0], 4, 9]],
        "excludes_degrees": [[3, 2, 0, 1]],
        "expected": {
            "count": len(found),
            "contains_ok": True,
            "excluded_ok": True,
        },
        "provenance": "PAPER",
    }
)

# --- simplex truncations -----------------------------------------------------
for n in (1, 2):
    structure = rl.build_simplex_algebra(n, Q)
    save_algebra(OUT / f"simplex{n}.alg.json", structure.algebra, structure.frame)
    save_reedy(OUT / f"simplex{n}.reedy.json", structure, f"simplex{n}.alg.json")
    assert verify_reedy(structure)["overall"]
    add_reedy_entry(f"simplex{n}", f"simplex{n}.reedy.json", True, "PAPER")
add_t41_entry("simplex1-t41", "simplex1.reedy.json", True, "DERIVED")
entries.append(
    {
        "name": "simplex1-search-heuristic",
        "check": "search",
        "algebra": "simplex1.alg.json",
        "mode": "heuristic",
        "expected": {"count": 1},
        "provenance": "DERIVED",
    }
)

# --- dual extension of A2 with its opposite ---------------------------------
up = rl.QuiverPresentation(["a", "b"], [["a", "b", "u"]], [], 1)
down = rl.QuiverPresentation(["a", "b"], [["b", "a", "v"]], [], 1)
ap, apf = rl.build_quiver_algebra(up, Q)
am, amf = rl.build_quiver_algebra(down, Q)
dual_alg, dual_struct = rl.build_dual_extension(
    apf.with_degrees([0, 1]), amf.with_degrees([0, 1])
)
assert dual_alg.dim == 5
save_algebra(OUT / "dualext.a2.alg.json", dual_alg, dual_struct.frame)
save_reedy(OUT / "dualext.a2.reedy.json", dual_struct, "dualext.a2.alg.json")
add_reedy_entry("dualext-a2", "dualext.a2.reedy.json", True, "DERIVED")
add_t41_entry("dualext-a2-t41", "dualext.a2.reedy.json", True, "DERIVED")

# --- tensor products ----------------------------------------------------------
frame1234 = dframe.with_degrees([1, 2, 3, 4])
diamond_struct = rl.ReedyStructure(
    diamond, frame1234, full(diamond), ssub(diamond, frame1234)
)
simplex1 = rl.build_simplex_algebra(1, Q)
t63 = rl.build_tensor_reedy(diamond_struct, simplex1)
assert t63.algebra.dim == 63
save_algebra(OUT / "tensor63.alg.json", t63.algebra, t63.frame)
save_reedy(OUT / "tensor63.reedy.json", t63, "tensor63.alg.json")
add_reedy_entry("tensor63", "tensor63.reedy.json", True, "DERIVED")

t49 = rl.build_tensor_reedy(simplex1, simplex1)
assert t49.algebra.dim == 49
save_algebra(OUT / "tensor49.alg.json", t49.algebra, t49.frame)
save_reedy(OUT / "tensor49.reedy.json", t49, "tensor49.alg.json")
add_reedy_entry("tensor49", "tensor49.reedy.json", True, "DERIVED")

write_json(OUT / "entries.json", {"entries": entries})
print(f"wrote {len(entries)} corpus entries to {OUT}")
