"""Reedy verification, layers, recursion, induced structures, search, crosscheck."""

import pytest

import reedylab as rl
from dense_modules import subalgebra_with_frame
from reedylab.algebra import AlgebraError
from reedylab.linalg import subspace_intersect
from reedylab.qh import order_from_degrees, peirce_blocks
from reedylab.reedy import _center_dim


def verified(structures):
    return {
        name: s for name, s in structures.items() if rl.verify_reedy(s)["overall"]
    }


def setup_holds(structure):
    from reedylab.qh import directedness

    frame = structure.frame
    plus = directedness(frame, frame.degrees, True, structure.aplus)
    minus = directedness(frame, frame.degrees, False, structure.aminus)
    return plus["ok"] and minus["ok"]


# --- verify_reedy -----------------------------------------------------------


def test_trivial_field_structure(Q):
    k_alg, k_frame = rl.build_quiver_algebra(rl.QuiverPresentation(["pt"], [], [], 1), Q)
    s = rl.ReedyStructure(
        k_alg, k_frame.with_degrees([0]), rl.full_subalgebra(k_alg), rl.full_subalgebra(k_alg)
    )
    assert rl.verify_reedy(s)["overall"]


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
            assert rl.is_elementary(s.algebra, s.frame, sub), name
            sub_alg, sub_frame = subalgebra_with_frame(sub, s.frame)
            assert rl.is_elementary(sub_alg, sub_frame), name
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
        report = rl.heredity_chain_verify(s.algebra, s.frame)
        assert report["overall"], name


def test_bottom_requires_verified(uppertri_ss):
    with pytest.raises(AlgebraError):
        rl.reedy_heredity_bottom(uppertri_ss)


# --- induced corner and quotient structures -------------------------------------


def test_corner_at_top_level_is_whole(corpus_structures):
    s = corpus_structures["diamond-1234-AS"]
    top = max(order_from_degrees(s.frame).levels)
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
        for cut in sorted(set(order_from_degrees(s.frame).levels)):
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
        levels = sorted(set(order_from_degrees(s.frame).levels))
        overall = rl.verify_reedy(s)["overall"]
        for cut in levels:
            report = rl.recursive_check(s, cut)
            if report["hypothesis_product_spans"]:
                assert all(report["triple"]) == overall, (name, cut)
            if overall:
                # (i) => (iii): every cut must produce a true triple
                assert all(report["triple"]), (name, cut)


# --- search -----------------------------------------------------------------


def test_search_m2_empty(GF2, GF3):
    for field in (GF2, GF3):
        m2 = rl.build_matrix_algebra(2, field)
        for frame in (
            rl.matrix_diag_frame(m2, 2),
            rl.IdempotentFrame(m2, [m2.unit], ["one"]),
        ):
            assert rl.search_reedy(m2, frame.without_degrees(), mode="exhaustive") == []


def test_search_diamond_gf2(diamond_gf2):
    algebra, frame = diamond_gf2
    found = rl.search_reedy(algebra, frame, mode="exhaustive")
    assert found
    keyed = {(s.frame.degrees, s.aplus.dim, s.aminus.dim) for s in found}
    assert ((0, 1, 2, 3), 9, 4) in keyed
    assert ((3, 1, 2, 0), 4, 9) in keyed
    assert all(s.frame.degrees != (3, 2, 0, 1) for s in found)
    for s in found:
        assert rl.verify_reedy(s)["overall"]


def test_search_heuristic_simplex1(simplex1):
    found = rl.search_reedy(simplex1.algebra, simplex1.frame.without_degrees(), mode="heuristic")
    assert len(found) == 1
    s = found[0]
    assert s.aplus.space == simplex1.aplus.space
    assert s.aminus.space == simplex1.aminus.space


def test_search_heuristic_diamond(diamond):
    algebra, frame = diamond
    found = rl.search_reedy(algebra, frame, mode="heuristic")
    keyed = {(s.frame.degrees, s.aplus.dim, s.aminus.dim) for s in found}
    assert ((0, 1, 2, 3), 9, 4) in keyed
    assert all(s.frame.degrees != (3, 2, 0, 1) for s in found)


def test_search_mode_bounds(diamond, simplex2):
    algebra, frame = diamond
    with pytest.raises(AlgebraError):
        rl.search_reedy(algebra, frame, mode="exhaustive")  # infinite field
    s2 = simplex2
    with pytest.raises(AlgebraError):
        rl.search_reedy(
            rl.build_matrix_algebra(4, rl.prime_field(2)),
            rl.IdempotentFrame(
                rl.build_matrix_algebra(4, rl.prime_field(2)),
                [rl.build_matrix_algebra(4, rl.prime_field(2)).unit],
                ["one"],
            ),
            mode="exhaustive",
        )


def test_search_results_deterministic(diamond_gf2):
    algebra, frame = diamond_gf2
    first = rl.search_reedy(algebra, frame, mode="exhaustive")
    second = rl.search_reedy(algebra, frame, mode="exhaustive")
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
    """is_elementary keeps its verdict on A, A+ and A- per frame, so one
    crosscheck on diamond deg1234 computes 40 corner spans, not the 176 it
    took when every caller retested elementarity."""
    calls = []
    for module in (rl.algebra, rl.qh, rl.reedy):
        real = module.corner_span
        monkeypatch.setattr(module, "corner_span",
                            lambda *args, real=real: calls.append(1) or real(*args))
    algebra, frame = rl.build_quiver_algebra(rl.diamond_presentation(), Q)
    s = rl.subalgebra_closure(algebra, list(frame.idempotents))
    r = rl.ReedyStructure(algebra, frame.with_degrees([1, 2, 3, 4]), rl.full_subalgebra(algebra), s)
    assert rl.characterization_crosscheck(r)["agree"]
    assert len(calls) <= 40


def test_crosscheck_negative_instances(corpus_structures, uppertri_ss, m2_gf2_pair):
    for s in (uppertri_ss, m2_gf2_pair, corpus_structures["diamond-4312-SS"]):
        report = rl.characterization_crosscheck(s)
        assert report["agree"]
        assert not report["route_reedy"]
        assert not report["route_bimodule"]
        assert not report["route_borel_delta"]


def test_crosscheck_on_search_results(diamond_gf2):
    algebra, frame = diamond_gf2
    found = rl.search_reedy(algebra, frame, mode="exhaustive")
    # every structure found by the search passes all three routes
    for s in found[:6]:
        report = rl.characterization_crosscheck(s)
        assert report["agree"] and report["route_reedy"]


def test_crosscheck_all_candidate_pairs_fail_for_impossible_order(diamond_gf2):
    """For the order where no decomposition exists, every directedness-
    compatible candidate pair yields an all-false crosscheck row."""
    from reedylab.qh import directedness
    from reedylab.reedy import _candidate_subalgebras

    algebra, frame = diamond_gf2
    levels = (3, 2, 0, 1)
    work = frame.with_degrees(levels)
    candidates = _candidate_subalgebras(algebra, frame)
    plus_list = [c for c in candidates if directedness(work, levels, True, c)["ok"]]
    minus_list = [c for c in candidates if directedness(work, levels, False, c)["ok"]]
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
