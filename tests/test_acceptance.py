"""Acceptance criteria: exact reproduction of the example verdicts plus the
theorem property suites, each within its stated runtime budget.

Every test prints one `ACCEPTANCE-xx PASS/FAIL (elapsed)` line; run with
`pytest tests/test_acceptance.py -v -s` to see them inline.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement
from math import comb

import reedylab as rl
from dense_modules import subalgebra_with_frame
from reedylab.algebra import _radical_charp
from reedylab.linalg import Matrix, span, subspace_intersect
from reedylab.qh import directedness, peirce_blocks


@contextmanager
def criterion(number, budget_s, title):
    start = time.monotonic()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.monotonic() - start
        status = "FAIL" if failed or elapsed >= budget_s else "PASS"
        print(f"ACCEPTANCE-{number:02d} {status} ({elapsed:.2f}s / budget {budget_s}s) {title}")
    assert elapsed < budget_s, f"criterion {number} exceeded budget: {elapsed:.2f}s"


def build_corpus():
    """All corpus structures, positive and negative, built fresh."""
    Q = rl.rationals()
    diamond, dframe = rl.build_quiver_algebra(rl.diamond_presentation(), Q)
    uppertri, uframe = rl.build_quiver_algebra(rl.a2_presentation(), Q)
    k_alg, k_frame = rl.build_quiver_algebra(rl.QuiverPresentation(["pt"], [], [], 1), Q)
    s_diamond = rl.subalgebra_closure(diamond, list(dframe.idempotents))
    s_upper = rl.subalgebra_closure(uppertri, list(uframe.idempotents))
    full_d = rl.full_subalgebra(diamond)
    simplex1 = rl.build_simplex_algebra(1, Q)
    simplex2 = rl.build_simplex_algebra(2, Q)
    up = rl.QuiverPresentation(["a", "b"], [["a", "b", "u"]], [], 1)
    down = rl.QuiverPresentation(["a", "b"], [["b", "a", "v"]], [], 1)
    ap, apf = rl.build_quiver_algebra(up, Q)
    am, amf = rl.build_quiver_algebra(down, Q)
    _, dual = rl.build_dual_extension(apf.with_degrees([0, 1]), amf.with_degrees([0, 1]))
    d1234 = rl.ReedyStructure(diamond, dframe.with_degrees([1, 2, 3, 4]), full_d, s_diamond)
    GF2 = rl.prime_field(2)
    m2 = rl.build_matrix_algebra(2, GF2)
    m2_frame = rl.matrix_diag_frame(m2, 2).with_degrees([0, 1])
    m2_upper = rl.subalgebra_closure(m2, list(m2_frame.idempotents) + [m2.basis_vector(1)])
    m2_lower = rl.subalgebra_closure(m2, list(m2_frame.idempotents) + [m2.basis_vector(2)])
    return {
        "k": rl.ReedyStructure(
            k_alg, k_frame.with_degrees([0]), rl.full_subalgebra(k_alg), rl.full_subalgebra(k_alg)
        ),
        "diamond-1234-AS": d1234,
        "diamond-1223-AS": rl.ReedyStructure(
            diamond, dframe.with_degrees([1, 2, 2, 3]), full_d, s_diamond
        ),
        "diamond-4231-SA": rl.ReedyStructure(
            diamond, dframe.with_degrees([4, 2, 3, 1]), s_diamond, full_d
        ),
        "diamond-4312-SS": rl.ReedyStructure(
            diamond, dframe.with_degrees([4, 3, 1, 2]), s_diamond, s_diamond
        ),
        "uppertri-SS": rl.ReedyStructure(uppertri, uframe.with_degrees([1, 0]), s_upper, s_upper),
        "uppertri-AS": rl.ReedyStructure(
            uppertri, uframe.with_degrees([0, 1]), rl.full_subalgebra(uppertri), s_upper
        ),
        "m2-pair": rl.ReedyStructure(m2, m2_frame, m2_lower, m2_upper),
        "simplex1": simplex1,
        "simplex2": simplex2,
        "dualext-a2": dual,
        "tensor63": rl.build_tensor_reedy(d1234, simplex1),
        "tensor49": rl.build_tensor_reedy(simplex1, simplex1),
    }


_CACHE = {}


def corpus():
    if "structures" not in _CACHE:
        _CACHE["structures"] = build_corpus()
    return _CACHE["structures"]


def verified_corpus():
    return {n: s for n, s in corpus().items() if rl.verify_reedy(s)["overall"]}


def test_criterion_01_example_3_3_verdict_matrix():
    with criterion(1, 5.0, "diamond verdict matrix and absent fourth order"):
        Q = rl.rationals()
        diamond, dframe = rl.build_quiver_algebra(rl.diamond_presentation(), Q)
        s_sub = rl.subalgebra_closure(diamond, list(dframe.idempotents))
        full = rl.full_subalgebra(diamond)
        cases = [
            ([1, 2, 3, 4], full, s_sub, True),
            ([1, 2, 2, 3], full, s_sub, True),
            ([4, 2, 3, 1], s_sub, full, True),
        ]
        for degs, aplus, aminus, expected in cases:
            s = rl.ReedyStructure(diamond, dframe.with_degrees(degs), aplus, aminus)
            assert rl.verify_reedy(s)["overall"] == expected
        # the (4,3,1,2) order: nothing over GF(2) exhaustively, nothing
        # heuristically over the rationals
        GF2 = rl.prime_field(2)
        diamond2, dframe2 = rl.build_quiver_algebra(rl.diamond_presentation(), GF2)
        found2 = rl.search_reedy(dframe2, mode="exhaustive")
        assert found2, "positive orders must be found"
        assert all(s.frame.degrees != (3, 2, 0, 1) for s in found2)
        found_q = rl.search_reedy(dframe, mode="heuristic")
        assert all(s.frame.degrees != (3, 2, 0, 1) for s in found_q)


def test_criterion_02_example_3_2_matrix_algebra():
    with criterion(2, 10.0, "M2 admits no structure over GF(2), GF(3), both frames"):
        for p in (2, 3):
            field = rl.prime_field(p)
            m2 = rl.build_matrix_algebra(2, field)
            for frame in (
                rl.matrix_diag_frame(m2, 2),
                rl.IdempotentFrame(m2, [m2.unit], ["one"]),
            ):
                found = rl.search_reedy(frame.without_degrees(), mode="exhaustive")
                assert found == []


def test_criterion_03_final_remark_counterexample():
    with criterion(3, 1.0, "recursion triple true while the hypothesis fails"):
        Q = rl.rationals()
        uppertri, uframe = rl.build_quiver_algebra(rl.a2_presentation(), Q)
        s_sub = rl.subalgebra_closure(uppertri, list(uframe.idempotents))
        structure = rl.ReedyStructure(uppertri, uframe.with_degrees([1, 0]), s_sub, s_sub)
        report = rl.recursive_check(structure, 0)
        assert report["triple"] == (True, True, True)
        assert report["hypothesis_product_spans"] is False
        assert rl.verify_reedy(structure)["overall"] is False


def test_criterion_04_simplex_truncations():
    with criterion(4, 30.0, "simplex truncations n=0..3 verify with exact block data"):
        Q = rl.rationals()
        for n in range(4):
            structure = rl.build_simplex_algebra(n, Q)
            assert rl.verify_reedy(structure)["overall"]
            blocks = peirce_blocks(structure.frame)
            for i in range(n + 1):
                for j in range(n + 1):
                    closed_form = comb(i + j + 1, i + 1)
                    brute = len(list(combinations_with_replacement(range(j + 1), i + 1)))
                    assert blocks[(j, i)].dim == closed_form == brute
            maps = [m for i in range(n + 1) for j in range(n + 1) for m in rl.monotone_maps(i, j)]
            inj = [m for m in maps if m.is_injective()]
            surj = [m for m in maps if m.is_surjective()]
            assert structure.aplus.dim == len(inj)
            assert structure.aminus.dim == len(surj)


def test_criterion_05_theorem_41_equivalence():
    with criterion(5, 60.0, "three characterization routes coincide on the corpus"):
        structures = corpus()
        assert len(structures) >= 10
        verdicts = []
        for name, s in structures.items():
            report = rl.characterization_crosscheck(s)
            assert report["agree"], (name, report)
            verdicts.append(report["route_reedy"])
        assert any(verdicts) and not all(verdicts)  # positives and negatives


def test_criterion_06_layer_forms_agree():
    with criterion(6, 30.0, "both layer forms agree with the decomposition verdict"):
        for name, s in corpus().items():
            plus = directedness(s.frame, True, s.aplus)
            minus = directedness(s.frame, False, s.aminus)
            if not (plus["ok"] and minus["ok"]):
                continue
            report = rl.layer_check(s)
            for level in report["levels"]:
                assert level["agree"], (name, level)
            assert report["matches_reedy"], name


def test_criterion_07_tensor_and_induced_closure():
    with criterion(7, 60.0, "tensor constructions and all induced cuts re-verify"):
        Q = rl.rationals()
        structures = corpus()
        d1234 = structures["diamond-1234-AS"]
        s1 = structures["simplex1"]
        for t in (rl.build_tensor_reedy(d1234, s1), rl.build_tensor_reedy(s1, s1)):
            assert rl.verify_reedy(t)["overall"]
        for name, s in verified_corpus().items():
            for cut in s.frame.normalized().levels():
                corner = rl.induced_corner(s, cut)
                quot = rl.induced_quotient(s, cut)
                assert rl.verify_reedy(corner)["overall"], (name, cut)
                assert rl.verify_reedy(quot)["overall"], (name, cut)


def test_criterion_08_chains_and_bottom_layer():
    with criterion(8, 30.0, "heredity chains and bottom-layer identity on verified corpus"):
        for name, s in verified_corpus().items():
            assert rl.heredity_chain_verify(s.frame)["overall"], name
            assert rl.reedy_heredity_bottom(s)["overall"], name


def test_criterion_09_directed_factor_properties():
    with criterion(9, 10.0, "elementary factors, primitive frames, base identities"):
        for name, s in verified_corpus().items():
            frame = s.frame
            n = len(frame)
            for sub in (s.aplus, s.aminus):
                assert rl.is_elementary(frame, sub), name
                sub_alg, sub_frame = subalgebra_with_frame(sub, frame)
                assert rl.is_elementary(sub_frame), name
                for e in sub_frame.idempotents:
                    assert rl.is_primitive_idempotent(sub_alg, e), name
            inter = subspace_intersect(s.aplus.space, s.aminus.space)
            assert inter == frame.semisimple_span() and inter.dim == n, name
            blocks_plus = peirce_blocks(frame, s.aplus)
            blocks_minus = peirce_blocks(frame, s.aminus)
            blocks_full = peirce_blocks(frame)
            total = 0
            for i in range(n):
                col = sum(
                    blocks_plus[(j, l)].dim * blocks_minus[(l, i)].dim
                    for j in range(n)
                    for l in range(n)
                )
                assert col == sum(blocks_full[(j, i)].dim for j in range(n)), name
                total += col
            assert total == s.algebra.dim, name


def test_criterion_10_kernel_and_radical_postconditions():
    with criterion(10, 30.0, "randomized linear algebra suite and radical postconditions"):
        rng = random.Random(2024)
        fields = (rl.rationals(), rl.prime_field(5))
        for field in fields:
            for _ in range(1000):
                nrows = rng.randint(1, 5)
                ncols = rng.randint(1, 5)
                m = Matrix(
                    field,
                    [[field.random(rng) for _ in range(ncols)] for _ in range(nrows)],
                )
                red, rank = rl.rref(m)
                red2, rank2 = rl.rref(red)
                assert red2.rows == red.rows and rank2 == rank
                assert rank + rl.kernel(m).dim == ncols
                u = span(field, ncols, m.rows[: max(1, nrows // 2)])
                v = span(field, ncols, m.rows[max(1, nrows // 2):] or [m.rows[0]])
                assert (
                    rl.subspace_sum(u, v).dim + subspace_intersect(u, v).dim
                    == u.dim + v.dim
                )
        algebras = {}
        for s in corpus().values():
            algebras.setdefault(s.algebra, s.frame)
        for algebra, frame in algebras.items():
            rad = rl.radical(algebra)
            assert rad.is_ideal()
            power = [list(v) for v in rad.space.basis]
            for _ in range(algebra.dim + 1):
                if not power:
                    break
                nxt = []
                for upow in power:
                    for v in rad.space.basis:
                        w = algebra.mul(upow, v)
                        if any(x != algebra.field.zero for x in w):
                            nxt.append(w)
                power = nxt and list(span(algebra.field, algebra.dim, nxt).basis)
            assert not power
            q, _ = rl.quotient(algebra, rad)
            assert rl.radical_generic(q).dim == 0
            # Over GF(p) the oracle is the full p-power chain from the whole
            # space; over Q the nilpotent ideal with semisimple quotient above
            # already certifies the radical.
            if algebra.field.characteristic:
                assert _radical_charp(algebra) == rad.space
            assert rl.tensor_dim_over_corner(frame, range(len(frame))) == algebra.dim
