"""Reedy verification, layers, recursion, induced structures, search, crosscheck."""

import random
import shutil
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import reedylab as rl
from dense_modules import subalgebra_with_frame
from peirce_oracle import peirce_blocks_by_spans, permuted, unitriangular
from search_oracle import all_subalgebras_over_s
from reedylab.algebra import (AlgebraError, column_span, corner_span, peirce_two_sided,
                              product_rank, product_span, row_span)
from reedylab.corpus import default_corpus_dir
from reedylab.linalg import densify, modulo, span, sparse, sparse_span, subspace_intersect
from reedylab.qh import level_chain, peirce_blocks
from reedylab.reedy import _center_dim
from reedylab.serialize import dumps, load_algebra, load_reedy, read_json, write_json
from test_golden import corrupted_diamond_table, two_cycle_structure
from test_serialize import rescaled

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = default_corpus_dir()


def verified(structures):
    return {
        name: s for name, s in structures.items() if rl.verify_reedy(s)["overall"]
    }


def _tensor_pairs(r, indices):
    """The column A+e_i and the row e_iA- for each frame index, by products."""
    lines = r.frame.lines()
    return [(column_span(r.algebra, r.aplus.space, lines[i]),
             row_span(r.algebra, lines[i], r.aminus.space)) for i in indices]


def setup_holds(structure):
    from reedylab.qh import directedness

    frame = structure.frame
    plus = directedness(frame, True, structure.aplus)
    minus = directedness(frame, False, structure.aminus)
    return plus["ok"] and minus["ok"]


# --- verify_reedy -----------------------------------------------------------


def test_trivial_field_structure(Q):
    k_alg, k_frame = rl.build_quiver_algebra(rl.QuiverPresentation(["pt"], [], [], 1), Q)
    s = rl.ReedyStructure(
        k_alg, k_frame.with_degrees([0]), rl.full_subalgebra(k_alg), rl.full_subalgebra(k_alg)
    )
    assert rl.verify_reedy(s)["overall"]


def test_structure_refuses_a_frame_of_another_algebra(diamond, diamond_gf2):
    """Diamond over GF(2) with the frame of diamond over Q: the idempotents
    have the same coordinates, but the frame's algebra is not the one the
    subalgebras live in."""
    algebra, _ = diamond_gf2
    _, q_frame = diamond
    full = rl.full_subalgebra(algebra)
    with pytest.raises(AlgebraError, match="frame belongs to another algebra"):
        rl.ReedyStructure(algebra, q_frame.with_degrees([1, 2, 3, 4]), full, full)


def test_diamond_degree_cases(corpus_structures):
    assert rl.verify_reedy(corpus_structures["diamond-1234-AS"])["overall"]
    assert rl.verify_reedy(corpus_structures["diamond-1223-AS"])["overall"]
    assert rl.verify_reedy(corpus_structures["diamond-4231-SA"])["overall"]
    assert not rl.verify_reedy(corpus_structures["diamond-4312-SS"])["overall"]


def test_uppertri_counterexample_block_detail(uppertri_ss):
    report = rl.verify_reedy(uppertri_ss)
    assert not report["overall"]
    assert report["cond_plus"]["ok"] and report["cond_minus"]["ok"]
    bad = [p for p in report["cond_decomp"]["pairs"] if not p["ok"]]
    assert len(bad) == 1
    assert bad[0]["domain_dim"] == 0 and bad[0]["block_dim"] == 1
    total_domain = sum(p["domain_dim"] for p in report["cond_decomp"]["pairs"])
    total_block = sum(p["block_dim"] for p in report["cond_decomp"]["pairs"])
    assert (total_domain, total_block) == (2, 3)


def test_m2_pair_fails_decomposition(m2_gf2_pair):
    report = rl.verify_reedy(m2_gf2_pair)
    assert report["cond_plus"]["ok"] and report["cond_minus"]["ok"]
    assert not report["overall"]


def test_simplex_structures_verify(simplex1, simplex2, simplex3):
    for s in (simplex1, simplex2, simplex3):
        assert rl.verify_reedy(s)["overall"]


# --- directed-factor and base-identity property suite -------------------------


def test_directed_factors_elementary_with_primitive_frame(corpus_structures):
    for name, s in verified(corpus_structures).items():
        for sub in (s.aplus, s.aminus):
            assert rl.is_elementary(s.frame, sub), name
            sub_alg, sub_frame = subalgebra_with_frame(sub, s.frame)
            assert rl.is_elementary(sub_frame), name
            for e in sub_frame.idempotents:
                assert rl.is_primitive_idempotent(sub_alg, e), name


def test_intersection_is_semisimple_base(corpus_structures):
    for name, s in verified(corpus_structures).items():
        inter = subspace_intersect(s.aplus.space, s.aminus.space)
        assert inter == s.frame.semisimple_span(), name
        assert inter.dim == len(s.frame), name


def test_onesided_dimension_identities(corpus_structures):
    for name, s in verified(corpus_structures).items():
        a = s.algebra
        f = a.field
        blocks_plus = peirce_blocks(s.frame, s.aplus)
        blocks_minus = peirce_blocks(s.frame, s.aminus)
        blocks_full = peirce_blocks(s.frame)
        n = len(s.frame)
        total = 0
        for i in range(n):
            col = sum(
                blocks_plus[(j, l)].dim * blocks_minus[(l, i)].dim
                for j in range(n)
                for l in range(n)
            )
            col_dim = sum(blocks_full[(j, i)].dim for j in range(n))
            assert col == col_dim, name
            total += col
        assert total == a.dim, name


# --- layerwise checks in both forms ----------------------------------------------


def test_layer_dims_simplex1(simplex1):
    report = rl.layer_check(simplex1)
    dims = [(l["level"], l["layer_dim"]) for l in report["levels"]]
    assert dims == [(0, 6), (1, 1)]
    assert report["matches_reedy"] and report["all_levels_ok"]


def test_layer_dims_diamond(corpus_structures):
    report = rl.layer_check(corpus_structures["diamond-1234-AS"])
    assert [l["layer_dim"] for l in report["levels"]] == [4, 2, 2, 1]
    assert report["matches_reedy"]


def test_layer_uppertri_counterexample(uppertri_ss):
    report = rl.layer_check(uppertri_ss)
    assert [l["direct_ok"] for l in report["levels"]] == [False, True]
    assert [l["quotient_ok"] for l in report["levels"]] == [False, True]
    assert not report["all_levels_ok"]
    assert report["matches_reedy"]


def test_layer_threeway_agreement_on_corpus(corpus_structures):
    for name, s in corpus_structures.items():
        if not setup_holds(s):
            continue
        report = rl.layer_check(s)
        for level in report["levels"]:
            assert level["agree"], (name, level)
        assert report["matches_reedy"], name


def _layer_lemma_cases():
    """Every corpus Reedy file, and simplex1-3 over Q, GF(2) and GF(3)."""
    for path in sorted(CORPUS.glob("*.reedy.json")):
        yield path.name, load_reedy(path)
    for field in (rl.rationals(), rl.prime_field(2), rl.prime_field(3)):
        for n in (1, 2, 3):
            yield f"simplex{n}-{field!r}", rl.build_simplex_algebra(n, field)


def test_layer_correction_spans_vanish_under_directedness():
    """The lemma layer_check rests on: when A+ raises and A- lowers the
    level, K+e_i = 0 and e_iK- = 0 for K = X*eps*X in X = A+ or A-, eps the
    sum of the idempotents below the level of e_i.  So the quotient form's
    domain, which subtracts these spans, is the direct form's."""
    checked = 0
    for name, r in _layer_lemma_cases():
        if not setup_holds(r):
            continue
        a, levels, lines = r.algebra, r.frame.normalized().degrees, r.frame.lines()
        for lev in sorted(set(levels)):
            below = [g for g, level in enumerate(levels) if level < lev]
            k_plus = peirce_two_sided(r.frame, below, r.aplus)
            k_minus = peirce_two_sided(r.frame, below, r.aminus)
            for i in (i for i, level in enumerate(levels) if level == lev):
                assert column_span(a, k_plus, lines[i]).dim == 0, (name, lev, i)
                assert row_span(a, lines[i], k_minus).dim == 0, (name, lev, i)
                checked += 1
    assert checked == 69  # (structure, level, e_i) triples, every case passing the setup


# mul_sparse calls per layer_check, after verify_reedy, against those made when
# each level also built K+ and K- and subtracted their spans at e_i
LAYER_CHECK_PRODUCTS = {"simplex2-GFp": (315, 340), "simplex3-GFp": (2471, 2554),
                        "tensor49": (632, 681)}


def _product_count_structures():
    """Fresh structures, with no cached table, for the pinned product counts."""
    field = rl.prime_field(2147483629)
    return {"simplex2-GFp": rl.build_simplex_algebra(2, field),
            "simplex3-GFp": rl.build_simplex_algebra(3, field),
            "tensor49": load_reedy(CORPUS / "tensor49.reedy.json")}


def test_layer_check_product_counts(monkeypatch):
    """One product rank per level: the guard that layer_check forms no
    product its report does not read."""
    structures = _product_count_structures()
    real, calls = rl.Algebra.mul_sparse, []
    monkeypatch.setattr(rl.Algebra, "mul_sparse", lambda a, u, w: calls.append(1) or real(a, u, w))
    for name, r in structures.items():
        rl.verify_reedy(r)
        calls.clear()
        rl.layer_check(r)
        now, before = LAYER_CHECK_PRODUCTS[name]
        assert len(calls) == now, name
        assert now < before, name


# mul_sparse calls per verify_reedy from fresh structures, against those made
# when each Peirce table multiplied every row by every idempotent line
VERIFY_REEDY_PRODUCTS = {"simplex2-GFp": (129, 325), "simplex3-GFp": (445, 1417),
                         "tensor49": (197, 641)}


def test_verify_reedy_product_counts(monkeypatch):
    """The Peirce tables multiply a row only by the idempotents the table
    lets act on it: the guard that verify_reedy forms no product the table
    alone shows to be zero."""
    structures = _product_count_structures()
    real, calls = rl.Algebra.mul_sparse, []
    monkeypatch.setattr(rl.Algebra, "mul_sparse", lambda a, u, w: calls.append(1) or real(a, u, w))
    for name, r in structures.items():
        calls.clear()
        rl.verify_reedy(r)
        now, before = VERIFY_REEDY_PRODUCTS[name]
        assert len(calls) == now, name
        assert now < before, name


def _assert_tables_match_the_span_oracle(frame, subs=(None,)):
    """Each Peirce table of ``frame`` over A (None) or a subspace in
    ``subs`` has the oracle's blocks: the same rows in the same pivot order."""
    for sub in subs:
        table, expected = peirce_blocks(frame, sub), peirce_blocks_by_spans(frame, sub)
        assert table.keys() == expected.keys()
        for key, block in expected.items():
            assert list(table[key].rows.items()) == list(block.rows.items()), key


def _assert_structure_matches_the_span_oracle(r):
    _assert_tables_match_the_span_oracle(r.frame, (None, r.aplus, r.aminus))


def test_peirce_tables_match_the_span_oracle_on_the_corpus():
    for path in sorted(CORPUS.glob("*.reedy.json")):
        _assert_structure_matches_the_span_oracle(load_reedy(path))
    for path in sorted(CORPUS.glob("*.alg.json")):
        _, frame = load_algebra(path)
        if frame is not None:
            _assert_tables_match_the_span_oracle(frame)


def test_peirce_tables_match_the_span_oracle_on_permuted_rescaled_bases(simplex2, tensor49):
    rng = random.Random(33)
    for r in (simplex2, tensor49):
        _assert_structure_matches_the_span_oracle(_rescaled_by_cycle(permuted(r, rng)))


def test_peirce_tables_match_the_span_oracle_on_the_corrupted_diamond(tmp_path):
    write_json(tmp_path / "diamond.alg.json", corrupted_diamond_table())
    for path in sorted(CORPUS.glob("diamond.deg*.reedy.json")):
        shutil.copy(path, tmp_path)
        _assert_structure_matches_the_span_oracle(load_reedy(tmp_path / path.name))


@pytest.mark.parametrize("field", [rl.prime_field(2147483629), rl.rationals()], ids=repr)
def test_peirce_tables_match_the_span_oracle_on_a_block_mixing_basis(field):
    """simplex2 on a seeded unitriangular basis, whose vectors lie across
    the Peirce blocks, so that no idempotent fixes the rows it splits off."""
    r = unitriangular(rl.build_simplex_algebra(2, field), random.Random(7), 0.2)
    assert rl.verify_reedy(r)["overall"]
    _assert_structure_matches_the_span_oracle(r)
    table = peirce_blocks(r.frame)
    assert any(len(row) > 1 for block in table.values() for row in block.rows.values())


def two_sided_span(a, e, space):
    """Span of X*e*X for X a subspace (the ideal AeA when None), by products."""
    return product_span(a, column_span(a, space, e), space)


def _rescaled_structure(r, scales):
    """``r`` on the basis scales[i] * b_i, A+ and A- included."""
    algebra, frame = rescaled(r, scales)
    f = algebra.field

    def sub(x):
        rows = ({i: f.div(v, scales[i]) for i, v in row.items()} for row in x.space.rows.values())
        return rl.AlgSubspace(algebra, sparse_span(f, algebra.dim, rows), rl.AlgSubspace.SUBALGEBRA)
    return rl.ReedyStructure(algebra, frame, sub(r.aplus), sub(r.aminus))


NON_INTEGRAL_SCALES = [Fraction(1, 2), Fraction(2, 3), 3, Fraction(5, 4)]


def _rescaled_by_cycle(r):
    return _rescaled_structure(r, [NON_INTEGRAL_SCALES[i % 4] for i in range(r.algebra.dim)])


def _report_bytes(r):
    """Every check's report on ``r`` as serialized bytes, each cut included."""
    a = r.algebra
    reports = [rl.validate(a), rl.verify_reedy(r), rl.layer_check(r),
               rl.characterization_crosscheck(r)]
    reports += [rl.recursive_check(r, cut) for cut in r.frame.normalized().levels()]
    reports.append(rl.heredity_chain_verify(r.frame.normalized()))
    return [dumps(report) for report in reports]


@pytest.mark.parametrize("name", ["simplex2", "tensor49"])
def test_rescaled_structures_give_the_same_report_bytes(request, name):
    """On a basis rescaled by non-integral constants every structure
    constant and subspace row is a general rational, so the fractional
    scalar path carries each check; the reports do not depend on the basis."""
    r = request.getfixturevalue(name)
    scaled = _rescaled_by_cycle(r)
    assert any(type(c) is Fraction for row in scaled.algebra.mult for cell in row for _, c in cell)
    assert _report_bytes(scaled) == _report_bytes(r)


def _two_sided_cases():
    """Every corpus Reedy file; simplex2 over GF(2) and GF(3); and simplex2
    over Q on a basis rescaled by non-integral constants."""
    for path in sorted(CORPUS.glob("*.reedy.json")):
        yield path.name, load_reedy(path)
    for p in (2, 3):
        yield f"simplex2-GF{p}", rl.build_simplex_algebra(2, rl.prime_field(p))
    yield "simplex2-rescaled", _rescaled_by_cycle(rl.build_simplex_algebra(2, rl.rationals()))


def test_peirce_two_sided_matches_products_at_every_cut():
    """XeX from the Peirce table of X equals its product span, for X = A,
    A+ and A-, e the idempotents up to each level.  Its dimension is that
    of the blocks e_hXe_g with h or g inside, taken whole, plus the rank
    of (e_hXe_i)(e_iXe_g) over i inside for each pair h, g outside."""
    for name, r in _two_sided_cases():
        a, levels, n = r.algebra, r.frame.normalized().degrees, range(len(r.frame))
        for cut in [-1, *sorted(set(levels))]:
            inside = [i for i, level in enumerate(levels) if level <= cut]
            outside = [h for h in n if h not in inside]
            e = r.frame.sum_of(inside)
            for sub in (None, r.aplus, r.aminus):
                space = None if sub is None else sub.space
                two_sided = peirce_two_sided(r.frame, inside, sub)
                assert two_sided == two_sided_span(a, e, space), (name, cut)
                blocks = peirce_blocks(r.frame, sub)
                touching = sum(b.dim for (h, g), b in blocks.items() if h in inside or g in inside)
                ranks = sum(product_rank(a, [(blocks[(h, i)], blocks[(i, g)]) for i in inside])[1]
                            for h in outside for g in outside)
                assert two_sided.dim == touching + ranks, (name, cut)


def _quotient_form_reference(r):
    """(domain, rank) per level of the quotient layer form, computed as
    written: the residue pairs of A+e_i modulo K+e_i and e_iA- modulo e_iK-,
    for K = X*eps_(<l)*X, ranked modulo J_(l-1)."""
    a, frame = r.algebra, r.frame.normalized()
    chain = level_chain(frame)
    lines = frame.lines()
    prev, eps_prev, out = span(a.field, a.dim, []), a.zero_vector(), []
    for rank, lev in enumerate(chain.levels):
        k_plus = two_sided_span(a, eps_prev, r.aplus.space)
        k_minus = two_sided_span(a, eps_prev, r.aminus.space)
        pairs = [(modulo(column_span(a, r.aplus.space, lines[i]), column_span(a, k_plus, lines[i])),
                  modulo(row_span(a, lines[i], r.aminus.space), row_span(a, lines[i], k_minus)))
                 for i in range(len(frame)) if frame.degrees[i] == lev]
        out.append(product_rank(a, pairs, prev))
        prev = chain.ideals[rank].space
        eps_prev = frame.sum_of(i for i, d in enumerate(frame.degrees) if d <= lev)
    return out


def test_quotient_layer_form_matches_its_definition():
    """On every corpus Reedy file, under every degree permutation that passes
    the directedness setup, with A+ and A- as given and swapped."""
    runs = 0
    for path in sorted(default_corpus_dir().glob("*.reedy.json")):
        given = load_reedy(path)
        for aplus, aminus in ((given.aplus, given.aminus), (given.aminus, given.aplus)):
            # the nonzero off-diagonal blocks (j, i) of each side, which the
            # degrees must raise in A+ and lower in A-
            raised, lowered = (
                [key for key, blk in peirce_blocks(given.frame, sub).items()
                 if key[0] != key[1] and blk.dim]
                for sub in (aplus, aminus))
            for degrees in sorted(set(permutations(given.frame.degrees))):
                if not (all(degrees[j] > degrees[i] for j, i in raised)
                        and all(degrees[j] < degrees[i] for j, i in lowered)):
                    continue
                r = rl.ReedyStructure(given.algebra, given.frame.with_degrees(degrees),
                                      aplus, aminus, check=False)
                if not setup_holds(r):
                    continue
                report = rl.layer_check(r)
                got = [(l["quotient_domain"], l["quotient_rank"]) for l in report["levels"]]
                assert got == _quotient_form_reference(r), (path.name, degrees)
                runs += 1
    assert runs > 20


# --- bottom-layer identity and heredity chains ----------------------------------


def test_bottom_layer_identities(corpus_structures, simplex1):
    report = rl.reedy_heredity_bottom(simplex1)
    assert report["tensor_dim"] == 6 == report["ideal_dim"]
    report = rl.reedy_heredity_bottom(corpus_structures["diamond-1234-AS"])
    assert report["tensor_dim"] == 4 == report["ideal_dim"]
    for name, s in verified(corpus_structures).items():
        assert rl.reedy_heredity_bottom(s)["overall"], name


def test_chains_on_verified_structures(corpus_structures):
    for name, s in verified(corpus_structures).items():
        report = rl.heredity_chain_verify(s.frame)
        assert report["overall"], name


def test_bottom_requires_verified(uppertri_ss):
    with pytest.raises(AlgebraError):
        rl.reedy_heredity_bottom(uppertri_ss)


# --- induced corner and quotient structures -------------------------------------


def test_corner_at_top_level_is_whole(corpus_structures):
    s = corpus_structures["diamond-1234-AS"]
    top = max(s.frame.normalized().degrees)
    c = rl.induced_corner(s, top)
    assert c.algebra.dim == s.algebra.dim
    assert rl.verify_reedy(c)["overall"]


def test_quotient_below_bottom_is_whole(corpus_structures, simplex2):
    # cutting strictly below the lowest level removes nothing
    s = corpus_structures["diamond-1234-AS"]
    q = rl.induced_quotient(s, -1)
    assert q.algebra.dim == s.algebra.dim


def test_simplex2_corner_is_simplex1(simplex2, simplex1):
    c = rl.induced_corner(simplex2, 1)
    assert c.algebra.dim == 7
    assert c.aplus.dim == simplex1.aplus.dim == 4
    assert c.aminus.dim == simplex1.aminus.dim == 3
    blocks = peirce_blocks(c.frame)
    expected = {(0, 0): 1, (1, 0): 2, (0, 1): 1, (1, 1): 3}
    assert {k: v.dim for k, v in blocks.items()} == expected


def test_diamond_corner_cut2(corpus_structures):
    c = rl.induced_corner(corpus_structures["diamond-1234-AS"], 1)
    assert c.algebra.dim == 3 and len(c.frame) == 2
    assert rl.verify_reedy(c)["overall"]


def test_diamond_quotient_cut1(corpus_structures):
    q = rl.induced_quotient(corpus_structures["diamond-1234-AS"], 0)
    assert q.algebra.dim == 5 and len(q.frame) == 3
    assert rl.verify_reedy(q)["overall"]


def test_simplex2_quotient_cut0(simplex2):
    # constant-map ideal has dim 18 = 6*3, leaving a 13-dimensional quotient
    q = rl.induced_quotient(simplex2, 0)
    assert q.algebra.dim == 31 - 18 == 13
    assert rl.verify_reedy(q)["overall"]


def test_all_cuts_reverify(corpus_structures):
    for name, s in verified(corpus_structures).items():
        for cut in s.frame.normalized().levels():
            c = rl.induced_corner(s, cut)
            q = rl.induced_quotient(s, cut)
            assert rl.verify_reedy(c)["overall"], (name, cut)
            assert rl.verify_reedy(q)["overall"], (name, cut)


def test_induced_requires_verified(uppertri_ss):
    with pytest.raises(AlgebraError):
        rl.induced_corner(uppertri_ss, 0)
    with pytest.raises(AlgebraError):
        rl.induced_quotient(uppertri_ss, 0)


# --- corner/quotient recursion ----------------------------------------------------


def test_recursive_uppertri_counterexample(uppertri_ss):
    report = rl.recursive_check(uppertri_ss, 0)
    assert report["triple"] == (True, True, True)
    assert not report["hypothesis_product_spans"]
    assert not report["reedy_overall"]
    assert not report["equivalence_asserted"]


def test_recursive_trivial(Q):
    k_alg, k_frame = rl.build_quiver_algebra(rl.QuiverPresentation(["pt"], [], [], 1), Q)
    s = rl.ReedyStructure(
        k_alg, k_frame.with_degrees([0]), rl.full_subalgebra(k_alg), rl.full_subalgebra(k_alg)
    )
    report = rl.recursive_check(s, 0)
    assert report["triple"] == (True, True, True)
    assert report["hypothesis_product_spans"] and report["equivalence_holds"]


def test_recursive_equivalence_per_cut_on_corpus(corpus_structures):
    for name, s in corpus_structures.items():
        if not setup_holds(s):
            continue
        levels = s.frame.normalized().levels()
        overall = rl.verify_reedy(s)["overall"]
        for cut in levels:
            report = rl.recursive_check(s, cut)
            if report["hypothesis_product_spans"]:
                assert all(report["triple"]) == overall, (name, cut)
            if overall:
                # (i) => (iii): every cut must produce a true triple
                assert all(report["triple"]), (name, cut)


# mul_sparse calls per recursive_check at each cut, after verify_reedy, against those
# made when XeX took every block product and the corner products were formed up front
RECURSIVE_CHECK_PRODUCTS = {
    "simplex2-GFp": ([24, 73, 0], [109, 409, 710]),
    "simplex3-GFp": ([109, 376, 947, 0], [388, 1338, 3804, 6956]),
    "tensor49": ([38, 107, 0], [170, 960, 1316]),
}


def test_recursive_check_product_counts(monkeypatch):
    """A count, unlike a time, repeats exactly: the guard that each cut
    forms only the products XeX and the relation rank need."""
    structures = _product_count_structures()
    real, calls = rl.Algebra.mul_sparse, []
    monkeypatch.setattr(rl.Algebra, "mul_sparse", lambda a, u, w: calls.append(1) or real(a, u, w))
    for name, r in structures.items():
        rl.verify_reedy(r)
        counts = []
        for cut in r.frame.normalized().levels():
            calls.clear()
            rl.recursive_check(r, cut)
            counts.append(len(calls))
        now, before = RECURSIVE_CHECK_PRODUCTS[name]
        assert counts == now, name
        assert all(c < b for c, b in zip(now, before)), name


def test_multiplication_leg_fails_alone_on_the_two_cycle():
    """The smallest structure where Theorem 5.3 rests on the multiplication
    map alone: the corner and the quotient are Reedy, Ae (x)_eAe eA has
    dimension 4 but AeA only 3, and A is not Reedy.  Its report is pinned
    in tests/golden/theorem53.two-cycle.gf2.json."""
    r = two_cycle_structure()
    report = rl.recursive_check(r, 0)
    assert report["corner_reedy"] and report["quotient_reedy"]
    assert not report["multiplication_bijective"] and not report["reedy_overall"]
    assert report["hypothesis_product_spans"] and report["equivalence_holds"]
    assert rl.tensor_dim_over_corner(r.frame, [0]) == 4
    assert peirce_two_sided(r.frame, [0]).dim == 3


def _standalone(r, cut):
    """The corner and the quotient structure at ``cut`` as algebras of their
    own, built with the public ``corner`` and ``quotient``.  The quotient
    frame keeps every idempotent above the cut, a dead one as zero."""
    a, f = r.algebra, r.algebra.field
    levels = r.frame.normalized().degrees
    e = r.frame.sum_of(i for i, level in enumerate(levels) if level <= cut)

    def structure(alg, keep, image, to_new):
        frame = rl.IdempotentFrame(
            alg, [densify(f, to_new(sparse(f, r.frame.idempotents[i])), alg.dim) for i in keep],
            [r.frame.labels[i] for i in keep], [levels[i] for i in keep], check=False)
        subs = (rl.AlgSubspace(alg, sparse_span(f, alg.dim, map(to_new, image(x).rows.values())),
                               rl.AlgSubspace.SUBALGEBRA) for x in (r.aplus, r.aminus))
        return rl.ReedyStructure(alg, frame, *subs, check=False)

    c_alg, carrier = rl.corner(a, e)
    q_alg, qmap = rl.quotient(a, rl.ideal_closure(a, [e]))
    return (structure(c_alg, [i for i, l in enumerate(levels) if l <= cut],
                      lambda x: corner_span(a, e, x.space), carrier.coords),
            structure(q_alg, [i for i, l in enumerate(levels) if l > cut],
                      lambda x: x.space, qmap.project_sparse))


def _theorem53_inputs():
    """Every bundled Reedy file, and simplex1, simplex2 and simplex1 (x)
    simplex1 over Q, GF(2) and GF(3) under every permutation of their
    degrees, with A+ and A- as given and swapped."""
    for path in sorted(default_corpus_dir().glob("*.reedy.json")):
        yield path.name, load_reedy(path)
    # The diamond with a diagonal arrow ad: modulo A e_c A the path ab*bd
    # (= ac*cd) dies, so the quotient at cut 0 fails only if its ranks are
    # taken modulo that ideal.
    pres = rl.QuiverPresentation(
        ["a", "b", "c", "d"],
        [["a", "b", "ab"], ["a", "c", "ac"], ["b", "d", "bd"], ["c", "d", "cd"], ["a", "d", "ad"]],
        [[("1", ("ab", "bd")), ("-1", ("ac", "cd"))]], 2)
    alg, frame = rl.build_quiver_algebra(pres, rl.rationals())
    closure = lambda *arrows: rl.subalgebra_closure(
        alg, [*frame.idempotents, *(alg.basis_vector(alg.labels.index(x)) for x in arrows)])
    yield "diamond+ad", rl.ReedyStructure(alg, frame.with_degrees([2, 1, 0, 3]),
                                          closure("bd", "cd"), closure("ab", "ac"))
    for field in (rl.rationals(), rl.prime_field(2), rl.prime_field(3)):
        s1, s2 = rl.build_simplex_algebra(1, field), rl.build_simplex_algebra(2, field)
        t = rl.build_tensor_reedy(s1, s1)
        for name, s in (("simplex1", s1), ("simplex2", s2), ("tensor49", t)):
            for plus, minus in ((s.aplus, s.aminus), (s.aminus, s.aplus)):
                for degrees in sorted(set(permutations(s.frame.degrees))):
                    yield (f"{name}/{field!r}/{degrees}",
                           rl.ReedyStructure(s.algebra, s.frame.with_degrees(degrees), plus, minus))


def test_theorem53_and_route_ii_in_a_match_standalone_oracles():
    """Theorem 5.3's corner and quotient verdicts, decided in A, equal the
    verdicts on the standalone corner and quotient at every cut from -1 to
    top + 1; its spanning hypothesis is rank(A+ (x) A- -> A) == dim A; and
    route (ii)'s counts are those of the blockwise product over the frame."""
    cuts = failing_corner = failing_quotient = dead = 0
    for name, r in _theorem53_inputs():
        a = r.algebra
        route_ii = rl.characterization_crosscheck(r)["detail_bimodule"]
        assert (route_ii["tensor_dim"], route_ii["image_rank"]) == \
            product_rank(a, _tensor_pairs(r, range(len(r.frame)))), name
        if not setup_holds(r):
            continue
        hypothesis = product_rank(a, [(r.aplus.space, r.aminus.space)])[1] == a.dim
        for cut in range(-1, max(r.frame.normalized().degrees) + 2):
            report = rl.recursive_check(r, cut)
            corner_s, quotient_s = _standalone(r, cut)
            assert report["hypothesis_product_spans"] == hypothesis, (name, cut)
            assert report["corner_reedy"] == rl.verify_reedy(corner_s)["overall"], (name, cut)
            assert report["quotient_reedy"] == rl.verify_reedy(quotient_s)["overall"], (name, cut)
            assert report["quotient_diagnostics"]["quotient_dim"] == quotient_s.algebra.dim
            cuts += 1
            failing_corner += not report["corner_reedy"]
            failing_quotient += not report["quotient_reedy"]
            dead += not all(any(e) for e in quotient_s.frame.idempotents)
    assert cuts > 100 and failing_corner > 10 and failing_quotient > 10 and dead > 0


# --- search -----------------------------------------------------------------


def test_search_m2_empty(GF2, GF3):
    for field in (GF2, GF3):
        m2 = rl.build_matrix_algebra(2, field)
        for frame in (
            rl.matrix_diag_frame(m2, 2),
            rl.IdempotentFrame(m2, [m2.unit], ["one"]),
        ):
            assert rl.search_reedy(frame.without_degrees(), mode="exhaustive") == []


def test_search_diamond_gf2(diamond_gf2):
    algebra, frame = diamond_gf2
    found = rl.search_reedy(frame, mode="exhaustive")
    assert found
    keyed = {(s.frame.degrees, s.aplus.dim, s.aminus.dim) for s in found}
    assert ((0, 1, 2, 3), 9, 4) in keyed
    assert ((3, 1, 2, 0), 4, 9) in keyed
    assert all(s.frame.degrees != (3, 2, 0, 1) for s in found)
    for s in found:
        assert rl.verify_reedy(s)["overall"]


def test_search_max_levels_keeps_the_structures_with_that_many_levels(diamond_gf2):
    algebra, frame = diamond_gf2
    key = lambda s: (s.frame.degrees, s.aplus.space, s.aminus.space)
    every = rl.search_reedy(frame, mode="exhaustive")
    capped = rl.search_reedy(frame, mode="exhaustive", max_levels=3)
    assert len(every) == 22 and len(capped) == 6
    assert list(map(key, capped)) == [key(s) for s in every if max(s.frame.degrees) < 3]


def test_exhaustive_search_computes_the_peirce_blocks_of_a_once(monkeypatch, GF2):
    algebra, frame = rl.build_quiver_algebra(rl.diamond_presentation(), GF2)
    real, tables_of_a = rl.algebra._peirce_table, []

    def counting(work, space):
        if space is None:
            tables_of_a.append(work)
        return real(work, space)

    monkeypatch.setattr(rl.algebra, "_peirce_table", counting)
    assert rl.search_reedy(frame, mode="exhaustive")
    assert len(tables_of_a) == 1


def _block_dims(frame, sub):
    """D_X[j][i] = dim e_jXe_i (X = A when ``sub`` is None)."""
    blocks, n = peirce_blocks(frame, sub), range(len(frame))
    return [[blocks[(j, i)].dim for i in n] for j in n]


def _multiplies_to_a(frame, aplus, aminus):
    """D_+ . D_- = D_A: on every Peirce pair (j, i), the domain dimension
    sum_l dim e_jA+e_l * dim e_lA-e_i is dim e_jAe_i."""
    plus, minus, full = (_block_dims(frame, sub) for sub in (aplus, aminus, None))
    n = range(len(frame))
    return all(sum(plus[j][l] * minus[l][i] for l in n) == full[j][i] for j in n for i in n)


def test_exhaustive_search_decides_each_pair_once(monkeypatch, GF2):
    """Diamond over GF(2): the decomposition condition reads no degrees, so
    the search decides it once per distinct pair (A+, A-) that directedness
    admits under some degree function, verify_reedy included, and only for
    the pairs whose block dimensions multiply to A's, D_+ . D_- = D_A.  The
    screen is sound: every admitted pair it drops fails the decomposition.
    Directedness is read off each candidate's block dimensions, with no
    directedness test per degree function and candidate: only verify_reedy
    runs one, and it sees only pairs that decompose.  The result is the
    pinned one."""
    algebra, frame = rl.build_quiver_algebra(rl.diamond_presentation(), GF2)
    n = range(len(frame))
    admitted = {}
    candidates = all_subalgebras_over_s(algebra, frame)
    for levels in rl.qh.normalized_level_functions(len(frame)):
        work = frame.with_degrees(levels)
        plus = [c for c in candidates if rl.qh.directedness(work, True, c)["ok"]]
        minus = [c for c in candidates if rl.qh.directedness(work, False, c)["ok"]]
        admitted.update(((p.space, m.space), (p, m)) for p in plus for m in minus)
    screened = [pair for pair in admitted.values() if _multiplies_to_a(frame, *pair)]

    decompositions, verified, directed = [], [], []
    real_decomposition = rl.reedy._decomposition
    monkeypatch.setattr(rl.reedy, "_decomposition",
                        lambda *args: decompositions.append(1) or real_decomposition(*args))
    real_verify = rl.reedy.verify_reedy
    monkeypatch.setattr(rl.reedy, "verify_reedy",
                        lambda r: verified.append(r) or real_verify(r))
    real_directed = rl.qh._directed
    for module in (rl.qh, rl.reedy):
        monkeypatch.setattr(module, "_directed",
                            lambda *args: directed.append(1) or real_directed(*args))
    found = rl.search_reedy(frame, mode="exhaustive")

    # one decomposition per distinct screened pair, which verify_reedy reuses
    assert len(decompositions) == len(screened) == 10 < 177 <= len(admitted)
    assert len(directed) == 2 * len(verified)  # cond_plus and cond_minus of each report
    assert verified and all(real_verify(r)["cond_decomp"]["ok"] for r in verified)
    for aplus, aminus in admitted.values():
        if not _multiplies_to_a(frame, aplus, aminus):
            counts = real_decomposition(algebra, n, peirce_blocks(frame),
                                        peirce_blocks(frame, aplus), peirce_blocks(frame, aminus))
            assert not all(domain == block == rank for domain, block, rank in counts)
    show = lambda rows: [[GF2.show(x) for x in row] for row in rows]
    got = [{"degrees": dict(zip(s.frame.labels, s.frame.degrees)),
            "aplus_basis": show(s.aplus.space.basis), "aminus_basis": show(s.aminus.space.basis)}
           for s in found]
    pinned = read_json(GOLDEN / "corpus.diamond-gf2-search.json")["found"]
    assert got == [{k: e[k] for k in ("degrees", "aplus_basis", "aminus_basis")} for e in pinned]


# the bundled algebras over GF(q), and diamond, simplex1 and uppertri over GF(2) and GF(3)
GF_ALGEBRAS = [path.name for path in sorted(CORPUS.glob("*.gf*.alg.json"))] + [
    f"{stem}.gf{p}" for stem in ("diamond", "simplex1", "uppertri") for p in (2, 3)]


def _gf_algebra(name):
    """(A, frame without degrees) of a bundled file or of a constructor over GF(p)."""
    if name.endswith(".alg.json"):
        algebra, frame = load_algebra(CORPUS / name)
    else:
        stem, p = name.split(".gf")
        f = rl.prime_field(int(p))
        if stem == "simplex1":
            simplex1 = rl.build_simplex_algebra(1, f)
            algebra, frame = simplex1.algebra, simplex1.frame
        else:
            presentation = rl.diamond_presentation() if stem == "diamond" else rl.a2_presentation()
            algebra, frame = rl.build_quiver_algebra(presentation, f)
    return algebra, frame.without_degrees()


@pytest.mark.parametrize("name", GF_ALGEBRAS)
def test_graded_candidates_are_the_directable_subalgebras(name):
    """The candidates built block by block from the Peirce decomposition are,
    as spaces, the subalgebras between S and A (all of them, enumerated on
    the coordinates off S) whose diagonal blocks are the lines k e_i, each
    once, with its block dimensions."""
    algebra, frame = _gf_algebra(name)
    n = range(len(frame))
    graded = rl.reedy._candidate_subalgebras(frame)
    spaces = [c.space for c, _ in graded]
    assert len(set(spaces)) == len(spaces)
    assert set(spaces) == {c.space for c in all_subalgebras_over_s(algebra, frame)
                           if all(_block_dims(frame, c)[i][i] == 1 for i in n)}
    for c, dims in graded:
        assert c.closure_kind == rl.AlgSubspace.SUBALGEBRA
        assert [list(row) for row in dims] == _block_dims(frame, c)


@pytest.mark.parametrize("name", GF_ALGEBRAS)
def test_forced_dims_decide_the_product_screen(name):
    """Under every degree function, a candidate pair whose supports raise
    and lower the level has block dimensions D_+ . D_- = D_A exactly when
    they are the forced factors: the block LU factorisation is unique."""
    algebra, frame = _gf_algebra(name)
    n = range(len(frame))
    candidates = rl.reedy._candidate_subalgebras(frame)
    d_a = tuple(map(tuple, _block_dims(frame, None)))
    pairs = screened = 0
    for levels in rl.qh.normalized_level_functions(len(frame)):
        forced = rl.reedy._forced_dims(d_a, levels)
        directed = {raising: [dims for _, dims in candidates
                              if all(not dims[j][i] or i == j or
                                     (levels[j] > levels[i] if raising else levels[j] < levels[i])
                                     for j in n for i in n)]
                    for raising in (True, False)}
        for plus in directed[True]:
            for minus in directed[False]:
                product = all(sum(plus[j][l] * minus[l][i] for l in n) == d_a[j][i]
                              for j in n for i in n)
                assert product == ((plus, minus) == forced), (levels, plus, minus)
                pairs += 1
                screened += product
    assert pairs > screened


def test_forced_dims_of_the_verified_structures(corpus_structures, diamond, tensor49, simplex2):
    """The forced factors of every verified structure are the block
    dimensions of its A+ and A-; diamond, tensor49 and simplex2 have them
    under 26 of 75, 3 of 75 and 1 of 13 normalized degree functions."""
    structures = verified(corpus_structures)
    assert len(structures) == 10
    dims = lambda frame, sub: tuple(map(tuple, _block_dims(frame, sub)))
    for name, s in structures.items():
        forced = rl.reedy._forced_dims(dims(s.frame, None), s.frame.degrees)
        assert forced == (dims(s.frame, s.aplus), dims(s.frame, s.aminus)), name
    for frame, count, total in ((diamond[1], 26, 75), (tensor49.frame, 3, 75),
                                (simplex2.frame, 1, 13)):
        levels = rl.qh.normalized_level_functions(len(frame))
        d_a = dims(frame, None)
        assert (sum(rl.reedy._forced_dims(d_a, lv) is not None for lv in levels),
                len(levels)) == (count, total)


def test_exhaustive_search_builds_candidate_tables_by_products(monkeypatch, diamond_gf2):
    """Diamond over GF(2): every Peirce table comes from ``peirce_blocks``;
    from a fresh frame the search builds the table of A and those of the 16
    candidates in pairs with the forced block dimensions, with the same
    structures found, and each table has the span oracle's blocks."""
    algebra, frame = diamond_gf2
    expected = [(s.frame.degrees, s.aplus.space, s.aminus.space)
                for s in rl.search_reedy(frame, mode="exhaustive")]
    fresh = rl.IdempotentFrame(algebra, frame.idempotents, frame.labels)
    built = []
    real = rl.algebra._peirce_table
    monkeypatch.setattr(rl.algebra, "_peirce_table",
                        lambda work, space: built.append(space) or real(work, space))
    found = rl.search_reedy(fresh, mode="exhaustive")
    assert [(s.frame.degrees, s.aplus.space, s.aminus.space) for s in found] == expected
    assert built.count(None) == 1
    tables = [space for space in built if space is not None]
    assert len(tables) == 16 and len(set(tables)) == 16
    _assert_tables_match_the_span_oracle(fresh, [None] + [rl.AlgSubspace(algebra, t) for t in tables])


def test_all_subspaces_counts_every_subspace_once():
    """F_q^m has sum over d of the Gaussian binomials [m, d]_q subspaces."""
    def gaussian(m, d, q):
        num = den = 1
        for k in range(d):
            num *= q ** (m - k) - 1
            den *= q ** (k + 1) - 1
        return num // den

    for q in (2, 3):
        f = rl.prime_field(q)
        for m in range(5):
            spaces = [span(f, m, basis) for basis in rl.reedy._all_subspaces(f, m)]
            assert len(spaces) == len(set(spaces)) == sum(gaussian(m, d, q) for d in range(m + 1))
            assert all(s.basis == tuple(b) for s, b in zip(spaces, rl.reedy._all_subspaces(f, m)))


def test_heuristic_search_decides_each_pair_once(monkeypatch, GF2):
    """Diamond over GF(2), heuristic mode: closures with equal spaces are
    one object, so each distinct pair (A+, A-) is decomposed once over all
    degree functions, verify_reedy included; the result is the pinned one."""
    algebra, frame = rl.build_quiver_algebra(rl.diamond_presentation(), GF2)
    pairs, decompositions = [], []
    real_full, real_decomposition = rl.reedy._full_decomposition, rl.reedy._decomposition
    monkeypatch.setattr(rl.reedy, "_full_decomposition",
                        lambda fr, p, m: pairs.append((p.space, m.space)) or real_full(fr, p, m))
    monkeypatch.setattr(rl.reedy, "_decomposition",
                        lambda *args: decompositions.append(1) or real_decomposition(*args))
    found = rl.search_reedy(frame, mode="heuristic")
    assert len(decompositions) == len(set(pairs)) < len(pairs)
    show = lambda rows: [[GF2.show(x) for x in row] for row in rows]
    got = [{"degrees": dict(zip(s.frame.labels, s.frame.degrees)),
            "aplus_basis": show(s.aplus.space.basis), "aminus_basis": show(s.aminus.space.basis)}
           for s in found]
    pinned = read_json(GOLDEN / "search.diamond.gf2.json")["found"]
    assert got == [{k: e[k] for k in ("degrees", "aplus_basis", "aminus_basis")} for e in pinned]


@pytest.mark.parametrize("name", ["k", "uppertri", "diamond"])
def test_heuristic_search_builds_each_structure_once(monkeypatch, name):
    """A raising or lowering closure equal to S is offered once, not beside
    S again, so every ReedyStructure built is a structure found."""
    algebra, frame = load_algebra(CORPUS / f"{name}.alg.json")
    built = []
    real = rl.reedy.ReedyStructure
    monkeypatch.setattr(rl.reedy, "ReedyStructure",
                        lambda *args, **kwargs: built.append(1) or real(*args, **kwargs))
    found = rl.search_reedy(frame, mode="heuristic")
    assert len(built) == len(found) == {"k": 1, "uppertri": 2, "diamond": 16}[name]


def test_search_heuristic_simplex1(simplex1):
    found = rl.search_reedy(simplex1.frame.without_degrees(), mode="heuristic")
    assert len(found) == 1
    s = found[0]
    assert s.aplus.space == simplex1.aplus.space
    assert s.aminus.space == simplex1.aminus.space


def test_search_heuristic_diamond(diamond):
    algebra, frame = diamond
    found = rl.search_reedy(frame, mode="heuristic")
    keyed = {(s.frame.degrees, s.aplus.dim, s.aminus.dim) for s in found}
    assert ((0, 1, 2, 3), 9, 4) in keyed
    assert all(s.frame.degrees != (3, 2, 0, 1) for s in found)


def test_search_mode_bounds(diamond, simplex2):
    algebra, frame = diamond
    with pytest.raises(AlgebraError):
        rl.search_reedy(frame, mode="exhaustive")  # infinite field
    s2 = simplex2
    m4 = rl.build_matrix_algebra(4, rl.prime_field(2))
    with pytest.raises(AlgebraError):
        rl.search_reedy(rl.IdempotentFrame(m4, [m4.unit], ["one"]), mode="exhaustive")


def test_exhaustive_search_bounds_the_enumerated_space(monkeypatch):
    """Exhaustive mode enumerates the subspaces of F_q^m, m = dim A - |E|,
    so it needs q^m <= 2^8: over GF(2) that is m <= 8 as before, and over a
    large field it refuses at once instead of enumerating."""
    for p, allowed in ((13, True), (17, False)):  # M2 with its diagonal frame: m = 2
        m2 = rl.build_matrix_algebra(2, rl.prime_field(p))
        frame = rl.matrix_diag_frame(m2, 2).without_degrees()
        if allowed:
            assert rl.search_reedy(frame, mode="exhaustive") == []
        else:
            with pytest.raises(AlgebraError, match=rf"{p}\^2 exceeds exhaustive bound 2\^8"):
                rl.search_reedy(frame, mode="exhaustive")
    big = rl.build_simplex_algebra(1, rl.prime_field(2147483629))
    with pytest.raises(AlgebraError, match=r"2147483629\^5 exceeds exhaustive bound 2\^8"):
        rl.search_reedy(big.frame.without_degrees(), mode="exhaustive")
    # M3 over GF(2) with the unit as frame: m = 8 is admitted (not enumerated here)
    monkeypatch.setattr(rl.reedy, "_candidate_subalgebras", lambda frame: [])
    m3 = rl.build_matrix_algebra(3, rl.prime_field(2))
    assert rl.search_reedy(rl.IdempotentFrame(m3, [m3.unit], ["one"]), mode="exhaustive") == []


def test_search_on_a_zero_idempotent_finds_nothing_at_once(monkeypatch):
    """A zero frame idempotent e_z leaves e_zXe_z = 0 for every X, so no
    subspace is directed and both modes return [] without building a
    candidate (for M3 over GF(2) with the unit and a zero idempotent,
    enumerating F_2^8 would take seconds); the exhaustive bound still
    refuses first."""
    def refuse(*args):
        raise AssertionError("no candidate should be built")
    monkeypatch.setattr(rl.reedy, "_candidate_subalgebras", refuse)
    monkeypatch.setattr(rl.reedy, "subalgebra_closure", refuse)
    for p, allowed in ((2, True), (3, False)):
        m3 = rl.build_matrix_algebra(3, rl.prime_field(p))
        frame = rl.IdempotentFrame(m3, [m3.unit, [m3.field.zero] * m3.dim], ["one", "zero"])
        assert rl.search_reedy(frame, mode="heuristic") == []
        if allowed:
            assert rl.search_reedy(frame, mode="exhaustive") == []
        else:
            with pytest.raises(AlgebraError, match=r"3\^7 exceeds exhaustive bound 2\^8"):
                rl.search_reedy(frame, mode="exhaustive")


@pytest.mark.parametrize("name", GF_ALGEBRAS)
def test_graded_enumeration_stays_within_the_bound(monkeypatch, name):
    """With nonzero frame idempotents, the off-diagonal blocks the candidates
    are enumerated in span dim A - sum dim e_iAe_i <= dim A - |E|, the
    dimension EXHAUSTIVE_BOUND is checked against."""
    algebra, frame = _gf_algebra(name)
    enumerated = []
    real = rl.reedy._all_subspaces
    monkeypatch.setattr(rl.reedy, "_all_subspaces",
                        lambda f, m: enumerated.append(m) or real(f, m))
    rl.reedy._candidate_subalgebras(frame)
    assert sum(enumerated) <= algebra.dim - len(frame)


def test_search_results_deterministic(diamond_gf2):
    algebra, frame = diamond_gf2
    first = rl.search_reedy(frame, mode="exhaustive")
    second = rl.search_reedy(frame, mode="exhaustive")
    assert [(s.frame.degrees, s.aplus.space.basis, s.aminus.space.basis) for s in first] == [
        (s.frame.degrees, s.aplus.space.basis, s.aminus.space.basis) for s in second
    ]


# --- three-route characterization crosscheck ---------------------------------------


def test_crosscheck_agreement_on_corpus(corpus_structures):
    for name, s in corpus_structures.items():
        report = rl.characterization_crosscheck(s)
        assert report["agree"], (name, report)
        assert report["route_reedy"] == rl.verify_reedy(s)["overall"], name


def test_crosscheck_reuses_elementarity(monkeypatch, Q):
    """is_elementary decides elementarity by one dimension count, with no
    corner span, and keeps its verdict on A, A+ and A- per frame, so one
    crosscheck on diamond deg1234 computes 4 corner spans: the radical
    corner of each heredity layer."""
    calls = []
    for module in (rl.algebra, rl.qh, rl.reedy):
        real = module.corner_span
        monkeypatch.setattr(module, "corner_span",
                            lambda *args, real=real: calls.append(1) or real(*args))
    algebra, frame = rl.build_quiver_algebra(rl.diamond_presentation(), Q)
    s = rl.subalgebra_closure(algebra, list(frame.idempotents))
    r = rl.ReedyStructure(algebra, frame.with_degrees([1, 2, 3, 4]), rl.full_subalgebra(algebra), s)
    assert rl.characterization_crosscheck(r)["agree"]
    assert len(calls) <= 4


def test_crosscheck_negative_instances(corpus_structures, uppertri_ss, m2_gf2_pair):
    for s in (uppertri_ss, m2_gf2_pair, corpus_structures["diamond-4312-SS"]):
        report = rl.characterization_crosscheck(s)
        assert report["agree"]
        assert not report["route_reedy"]
        assert not report["route_bimodule"]
        assert not report["route_borel_delta"]


def test_crosscheck_on_search_results(diamond_gf2):
    algebra, frame = diamond_gf2
    found = rl.search_reedy(frame, mode="exhaustive")
    # every structure found by the search passes all three routes
    for s in found[:6]:
        report = rl.characterization_crosscheck(s)
        assert report["agree"] and report["route_reedy"]


def test_crosscheck_all_candidate_pairs_fail_for_impossible_order(diamond_gf2):
    """For the order where no decomposition exists, every directedness-
    compatible candidate pair yields an all-false crosscheck row."""
    from reedylab.qh import directedness

    algebra, frame = diamond_gf2
    levels = (3, 2, 0, 1)
    work = frame.with_degrees(levels)
    candidates = all_subalgebras_over_s(algebra, frame)
    plus_list = [c for c in candidates if directedness(work, True, c)["ok"]]
    minus_list = [c for c in candidates if directedness(work, False, c)["ok"]]
    assert plus_list and minus_list
    rows = 0
    for aplus in plus_list:
        for aminus in minus_list:
            s = rl.ReedyStructure(algebra, work, aplus, aminus, check=False)
            report = rl.characterization_crosscheck(s)
            assert report["agree"]
            assert not (
                report["route_reedy"] or report["route_bimodule"] or report["route_borel_delta"]
            )
            rows += 1
    assert rows > 0


def test_center_dim_counts_blocks(Q, m2q, simplex1):
    m2, _ = m2q
    assert _center_dim(m2, rl.radical(m2).space) == 1
    kk, _ = rl.build_quiver_algebra(rl.QuiverPresentation(["p", "q"], [], [], 1), Q)
    assert _center_dim(kk, rl.radical(kk).space) == 2
    a = simplex1.algebra
    assert _center_dim(a, rl.radical(a).space) == 2  # A/rad = M2(k) x k
