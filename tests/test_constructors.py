"""Builders: quivers with relations, monotone-map algebras, matrix algebras,
dual extensions and tensor structures, against combinatorial oracles."""

from itertools import combinations_with_replacement
from math import comb

import pytest

import reedylab as rl
from reedylab import serialize
from reedylab.algebra import AlgebraError
from reedylab.qh import peirce_blocks
from reedylab.reedy import verify_reedy


# --- quiver builder -----------------------------------------------------------


def test_single_vertex_gives_field(Q):
    algebra, frame = rl.build_quiver_algebra(rl.QuiverPresentation(["v"], [], [], 1), Q)
    assert algebra.dim == 1
    assert algebra.mul(algebra.unit, algebra.unit) == algebra.unit
    assert len(frame) == 1


def test_a2_is_upper_triangular(Q):
    algebra, frame = rl.build_quiver_algebra(rl.a2_presentation(), Q)
    assert algebra.dim == 3
    # structure-constant match with the matrix picture under label matching:
    # v1 ~ E11 (arrow target), v0 ~ E22, x ~ E12
    v0, v1, x = (algebra.labels.index(l) for l in ("v0", "v1", "x"))
    f = algebra.field

    def prod(i, j):
        return dict(algebra.mult[i][j])

    assert prod(v1, x) == {x: f.one}     # E11 * E12 = E12
    assert prod(x, v0) == {x: f.one}     # E12 * E22 = E12
    assert prod(x, v1) == {}             # E12 * E11 = 0
    assert prod(v0, x) == {}             # E22 * E12 = 0
    assert prod(x, x) == {}


def test_diamond_dimension_and_relation(diamond):
    algebra, frame = diamond
    assert algebra.dim == 9
    ab, ac, bd, cd = (
        algebra.basis_vector(algebra.labels.index(l)) for l in ("ab", "ac", "bd", "cd")
    )
    # the two length-two paths agree in the quotient
    assert algebra.mul(bd, ab) == algebra.mul(cd, ac)
    assert any(x != 0 for x in algebra.mul(bd, ab))


def test_quiver_rejects_growing_presentation(Q):
    loop = rl.QuiverPresentation(["v"], [["v", "v", "t"]], [], 3)
    with pytest.raises(AlgebraError, match="growing"):
        rl.build_quiver_algebra(loop, Q)


def test_quiver_loop_with_nilpotency_relation(Q):
    # t^2 = 0 makes the loop algebra finite at bound 1
    pres = rl.QuiverPresentation(["v"], [["v", "v", "t"]], [[("1", ("t", "t"))]], 2)
    algebra, _ = rl.build_quiver_algebra(pres, Q)
    assert algebra.dim == 2
    t = algebra.basis_vector(algebra.labels.index("t"))
    assert all(x == 0 for x in algebra.mul(t, t))


def test_quiver_products_beyond_the_window_vanish(GF2, Q):
    # x^3 = 0 at bound 2: the basis is v, x, x*x, and x*x times x*x is a path
    # of length 4, past the window of length 3, hence 0
    pres = rl.QuiverPresentation(["v"], [["v", "v", "x"]], [[("1", ("x", "x", "x"))]], 2)
    for field in (GF2, Q):
        algebra, _ = rl.build_quiver_algebra(pres, field)
        assert algebra.labels == ("x*x", "x", "v")
        xx = algebra.basis_vector(algebra.labels.index("x*x"))
        assert not any(algebra.mul(xx, xx))
        assert rl.validate(algebra)["valid"]


LOOP = (["v"], [["v", "v", "x"]])
A3_ARROWS = [["v0", "v1", "x"], ["v1", "v2", "y"]]


@pytest.mark.parametrize("pres", [
    rl.QuiverPresentation(*LOOP, [[("1", ("x", "x", "x"))]], 2),
    rl.QuiverPresentation(*LOOP, [[("1", ("x", "x", "x", "x"))]], 3),
    rl.diamond_presentation(),
    rl.QuiverPresentation(["v0", "v1", "v2"], A3_ARROWS, [[("1", ("x", "y"))]], 1),
    rl.QuiverPresentation(["a", "b", "c"], [["a", "b", "x"], ["b", "c", "y"], ["a", "c", "z"]],
                          [[("1", ("x", "y")), ("-1", ("z",))]], 1),
], ids=["x3", "x4", "diamond", "a3-xy", "xy-z"])
def test_quiver_algebra_is_the_same_at_twice_the_bound(Q, GF2, GF3, pres):
    # Basis paths have length at most the bound b, so at bound 2b every
    # product of two lies in the window and is reduced there; equal tables
    # show that the products the build at b sends past its window are 0.
    for field in (Q, GF2, GF3):
        tables = []
        for b in (pres.nilpotency_bound, 2 * pres.nilpotency_bound):
            algebra, frame = rl.build_quiver_algebra(
                rl.QuiverPresentation(pres.vertices, pres.arrows, pres.relations, b), field)
            tables.append(serialize.dumps(serialize.algebra_to_json(algebra, frame)))
        assert tables[0] == tables[1]


def test_quiver_relation_mixing_endpoints_rejected(Q):
    with pytest.raises(AlgebraError, match="relation 0"):
        rl.QuiverPresentation(
            ["a", "b", "c"],
            [["a", "b", "x"], ["a", "c", "y"]],
            [[("1", ("x",)), ("-1", ("y",))]],
            2,
        )


def test_quiver_rejects_partially_truncated_translates(Q):
    # t*t = t admits no faithful truncation: every window cuts a translate
    pres = rl.QuiverPresentation(["v"], [["v", "v", "t"]], [[("1", ("t", "t")), ("-1", ("t",))]], 3)
    with pytest.raises(AlgebraError, match="growing"):
        rl.build_quiver_algebra(pres, Q)


# --- monotone maps ------------------------------------------------------------


def brute_force_maps(i, j):
    """Independent enumeration of weakly monotone maps [i] -> [j]."""
    return [
        vals
        for vals in combinations_with_replacement(range(j + 1), i + 1)
    ]


def test_monotone_map_counts_match_closed_form():
    for i in range(5):
        for j in range(5):
            maps = rl.monotone_maps(i, j)
            assert len(maps) == comb(i + j + 1, i + 1) == len(brute_force_maps(i, j))


def test_epi_mono_factorization_unique():
    for i in range(4):
        for j in range(4):
            for m in rl.monotone_maps(i, j):
                surj, inj = m.epi_mono_factor()
                assert surj.is_surjective() and inj.is_injective()
                assert inj.compose(surj) == m
                # uniqueness: no other (surjection, injection) pair composes to m
                count = 0
                for l in range(min(i, j) + 1):
                    for s in rl.monotone_maps(i, l):
                        if not s.is_surjective():
                            continue
                        for n in rl.monotone_maps(l, j):
                            if n.is_injective() and n.compose(s) == m:
                                count += 1
                assert count == 1


def test_simplex_block_dims_against_enumeration(simplex1, simplex2, simplex3):
    for structure, n in ((simplex1, 1), (simplex2, 2), (simplex3, 3)):
        blocks = peirce_blocks(structure.frame)
        for i in range(n + 1):
            for j in range(n + 1):
                expected = comb(i + j + 1, i + 1)
                assert blocks[(j, i)].dim == expected == len(brute_force_maps(i, j))
                assert rl.simplex_block_dim(i, j) == expected


def test_simplex4_block_dims(Q):
    structure = rl.build_simplex_algebra(4, Q)
    assert structure.algebra.dim == sum(
        rl.simplex_block_dim(i, j) for i in range(5) for j in range(5)
    )
    blocks = peirce_blocks(structure.frame)
    for i in range(5):
        for j in range(5):
            assert blocks[(j, i)].dim == rl.simplex_block_dim(i, j) == comb(i + j + 1, i + 1)
    # epi-mono factorization is a basis-level bijection for all blocks
    for i in range(5):
        for j in range(5):
            total = 0
            for l in range(5):
                inj = sum(1 for m in rl.monotone_maps(l, j) if m.is_injective())
                surj = sum(1 for m in rl.monotone_maps(i, l) if m.is_surjective())
                total += inj * surj
            assert total == comb(i + j + 1, i + 1)


def test_simplex_dimensions(Q, simplex1, simplex2, simplex3):
    s0 = rl.build_simplex_algebra(0, Q)
    assert s0.algebra.dim == 1
    assert verify_reedy(s0)["overall"]
    assert simplex1.algebra.dim == 7
    assert simplex2.algebra.dim == 31
    assert simplex3.algebra.dim == 121
    assert simplex1.aplus.dim == 4 and simplex1.aminus.dim == 3


# --- matrix algebras ----------------------------------------------------------


def test_matrix_algebra_sizes(Q, GF2):
    assert rl.build_matrix_algebra(1, Q).dim == 1
    m2 = rl.build_matrix_algebra(2, Q)
    assert m2.dim == 4 and rl.radical(m2).dim == 0
    m3 = rl.build_matrix_algebra(3, GF2)
    assert m3.dim == 9 and rl.radical(m3).dim == 0


def test_matrix_units_multiply(Q):
    m2 = rl.build_matrix_algebra(2, Q)
    E11, E12, E21, E22 = (m2.basis_vector(i) for i in range(4))
    assert m2.mul(E12, E21) == E11
    assert m2.mul(E21, E12) == E22
    assert all(x == 0 for x in m2.mul(E12, E12))


# --- dual extension -----------------------------------------------------------


def test_dual_extension_of_semisimple_is_semisimple(Q):
    s, sf = rl.build_quiver_algebra(rl.QuiverPresentation(["a", "b"], [], [], 1), Q)
    algebra, structure = rl.build_dual_extension(
        sf.with_degrees([0, 1]), sf.with_degrees([0, 1])
    )
    assert algebra.dim == 2
    assert rl.radical(algebra).dim == 0


def test_dual_extension_of_a2_fivedim(dualext_a2):
    algebra, structure = dualext_a2
    # multiplication-table oracle for the glued product rule:
    # rad(A-) times rad(A+) vanishes, the opposite composite survives
    assert algebra.dim == 5
    blocks = peirce_blocks(structure.frame)
    a_idx, b_idx = 0, 1
    assert blocks[(a_idx, a_idx)].dim == 1
    assert blocks[(b_idx, b_idx)].dim == 2
    assert blocks[(b_idx, a_idx)].dim == 1  # the raising arrow
    assert blocks[(a_idx, b_idx)].dim == 1  # the lowering arrow
    up = blocks[(b_idx, a_idx)].basis[0]
    down = blocks[(a_idx, b_idx)].basis[0]
    f = algebra.field
    # first up then down: a -> b -> a, forbidden by the radical rule
    assert all(x == f.zero for x in algebra.mul(down, up))
    # first down then up: b -> a -> b, survives
    assert any(x != f.zero for x in algebra.mul(up, down))
    assert verify_reedy(structure)["overall"]


def test_dual_extension_with_semisimple_lowering_is_identity(Q):
    # A+ directed, A- = S: the glued algebra is A+ again
    up = rl.QuiverPresentation(["a", "b"], [["a", "b", "u"]], [], 1)
    ap, apf = rl.build_quiver_algebra(up, Q)
    s, sf = rl.build_quiver_algebra(rl.QuiverPresentation(["a", "b"], [], [], 1), Q)
    algebra, structure = rl.build_dual_extension(
        apf.with_degrees([0, 1]), sf.with_degrees([0, 1])
    )
    assert algebra.dim == ap.dim == 3
    assert verify_reedy(structure)["overall"]
    assert rl.radical(algebra).dim == rl.radical(ap).dim == 1


def test_dual_extension_rejects_wrong_direction(Q):
    up = rl.QuiverPresentation(["a", "b"], [["a", "b", "u"]], [], 1)
    ap, apf = rl.build_quiver_algebra(up, Q)
    with pytest.raises(AlgebraError, match="directedness"):
        rl.build_dual_extension(apf.with_degrees([0, 1]), apf.with_degrees([0, 1]))


def test_dual_extension_rejects_degree_mismatch(Q):
    up = rl.QuiverPresentation(["a", "b"], [["a", "b", "u"]], [], 1)
    down = rl.QuiverPresentation(["a", "b"], [["b", "a", "v"]], [], 1)
    ap, apf = rl.build_quiver_algebra(up, Q)
    am, amf = rl.build_quiver_algebra(down, Q)
    with pytest.raises(AlgebraError, match="degree"):
        rl.build_dual_extension(apf.with_degrees([0, 1]), amf.with_degrees([0, 2]))


# --- tensor structures ---------------------------------------------------------


def test_tensor_with_trivial_structure(Q, simplex1):
    k_alg, k_frame = rl.build_quiver_algebra(rl.QuiverPresentation(["pt"], [], [], 1), Q)
    k_struct = rl.ReedyStructure(
        k_alg, k_frame.with_degrees([0]), rl.full_subalgebra(k_alg), rl.full_subalgebra(k_alg)
    )
    t = rl.build_tensor_reedy(k_struct, simplex1)
    assert t.algebra.dim == simplex1.algebra.dim
    assert t.frame.degrees == simplex1.frame.degrees
    assert verify_reedy(t)["overall"]


def test_tensor_diamond_simplex(tensor63):
    assert tensor63.algebra.dim == 63
    assert len(tensor63.frame) == 8
    assert sorted(set(tensor63.frame.degrees)) == [1, 2, 3, 4, 5]
    assert verify_reedy(tensor63)["overall"]


def test_tensor_simplex_squared(tensor49):
    assert tensor49.algebra.dim == 49
    assert verify_reedy(tensor49)["overall"]


def test_tensor_requires_verified_inputs(uppertri_ss, simplex1):
    with pytest.raises(AlgebraError):
        rl.build_tensor_reedy(uppertri_ss, simplex1)
