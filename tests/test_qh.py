"""Heredity ideals and chains, standard modules, Borel and Delta tests."""

import pytest

import reedylab as rl
from dense_modules import subalgebra_with_frame
from search_oracle import all_subalgebras_over_s
from reedylab.algebra import AlgebraError, peirce_blocks
from reedylab.cli import main
from reedylab.corpus import default_corpus_dir
from reedylab.qh import (
    _same_invariants,
    _standards,
    directedness,
    layer_quotient_module,
    level_chain,
    normalized_level_functions,
    order_from_degrees,
    trace_subspace,
)
from reedylab.serialize import dumps, load_algebra, load_order, load_reedy, read_json, write_json


def vertex_span(algebra, frame):
    return rl.subalgebra_closure(algebra, list(frame.idempotents))


def below_or_equal(frame, j, i):
    """Weight j below-or-equal weight i in the order of the frame's degrees."""
    return j == i or frame.degrees[j] > frame.degrees[i]


# --- weight orders -----------------------------------------------------------


def test_order_strictness(Q):
    """The order the degrees (0, 1, 1) give x, y, z, read off the traces.
    Every ordered pair of vertices has an arrow and rad^2 = 0, so the trace
    at i holds the block e_jAe_i exactly for the j not below-or-equal i."""
    labels = ["x", "y", "z"]
    arrows = [[i, j, i + j] for i in labels for j in labels if i != j]
    zero_paths = [[("1", [p, q])] for _, t, p in arrows for s, _, q in arrows if t == s]
    _, frame = rl.build_quiver_algebra(rl.QuiverPresentation(labels, arrows, zero_paths, 1), Q)
    frame = frame.with_degrees([0, 1, 1])
    blocks = peirce_blocks(frame)
    outside, reflexive = [], True
    for i in range(3):
        tr = trace_subspace(frame, i)
        outside.append({labels[j] for j in range(3) if j != i and blocks[(j, i)].dim
                        and all(map(tr.contains, blocks[(j, i)].rows.values()))})
        reflexive = reflexive and not any(map(tr.contains, blocks[(i, i)].rows.values()))
    # y lies strictly below x, and x does not lie below y
    assert "x" in outside[1] and "y" not in outside[0]
    # every weight is below-or-equal itself
    assert reflexive
    # same-level distinct weights are incomparable
    assert "z" in outside[1] and "y" in outside[2]
    assert outside == [set(), {"x", "z"}, {"x", "y"}]


@pytest.mark.parametrize("path", sorted(default_corpus_dir().glob("*.reedy.json")),
                         ids=lambda path: path.name)
def test_order_file_of_the_degrees_gives_the_chain_report(tmp_path, path):
    """``verify qh`` on the algebra file and the order file written from a
    structure's degrees prints ``heredity_chain_verify`` of the structure's
    normalized frame."""
    r = load_reedy(path)
    order_file, out = tmp_path / "degrees.order.json", tmp_path / "report.json"
    write_json(order_file, order_from_degrees(r.frame).to_json())
    code = main(["verify", "qh", str(path.parent / read_json(path)["algebra"]), str(order_file),
                 "--out", str(out)])
    report = rl.heredity_chain_verify(r.frame.normalized())
    assert out.read_text(encoding="utf-8") == dumps(report)
    assert code == (0 if report["overall"] else 1)


def test_normalized_level_functions_counts():
    assert len(normalized_level_functions(1)) == 1
    assert len(normalized_level_functions(2)) == 3
    assert len(normalized_level_functions(3)) == 13
    assert len(normalized_level_functions(4)) == 75


@pytest.mark.parametrize("check", [
    rl.heredity_chain_verify,
    order_from_degrees,
    rl.standard_modules,
    lambda frame: trace_subspace(frame, 0),
    lambda frame: directedness(frame, True),
], ids=["chain", "order", "standard_modules", "trace_subspace", "directedness"])
def test_checks_refuse_a_frame_without_degrees(diamond, check):
    _, frame = diamond
    with pytest.raises(AlgebraError, match="frame has no degree function"):
        check(frame.without_degrees())


# --- heredity ideals -----------------------------------------------------------


def test_heredity_ideal_diamond_source(diamond):
    algebra, frame = diamond
    verdict = rl.heredity_ideal_check(frame, frame.idempotents[frame.index_of("a")])
    assert verdict["overall"]
    assert verdict["ideal_dim"] == 4
    assert verdict["cross_checks"]["agree"]


def test_heredity_ideal_uppertri(uppertri):
    algebra, frame = uppertri
    # the vertex whose column is one-dimensional (the matrix unit E11 picture)
    verdict = rl.heredity_ideal_check(frame, frame.idempotents[frame.index_of("v1")])
    assert verdict["overall"] and verdict["ideal_dim"] == 2


def test_heredity_ideal_semisimple_unit(m2q):
    m2, _ = m2q
    frame = rl.IdempotentFrame(m2, [m2.unit], ["one"])
    verdict = rl.heredity_ideal_check(frame, m2.unit)
    assert verdict["overall"]


def test_heredity_ideal_fails_on_radical_corner(uppertri):
    algebra, frame = uppertri
    verdict = rl.heredity_ideal_check(frame, algebra.unit)
    assert not verdict["overall"]
    assert not verdict["corner_semisimple"]


def test_heredity_cross_checks_agree_on_corpus(diamond, uppertri):
    for algebra, frame in (diamond, uppertri):
        for e in frame.idempotents:
            verdict = rl.heredity_ideal_check(frame, e)
            if "cross_checks" in verdict:
                assert verdict["cross_checks"]["agree"] == verdict["overall"]


# --- heredity chains -----------------------------------------------------------


def test_chain_diamond_orders(diamond):
    algebra, frame = diamond
    for degs, expected in [
        ([1, 2, 3, 4], True),
        ([4, 3, 1, 2], True),   # the no-Borel order is still quasi-hereditary
        ([0, 0, 0, 0], False),  # radical obstructs a single-layer chain
    ]:
        report = rl.heredity_chain_verify(frame.with_degrees(degs))
        assert report["overall"] == expected


def test_chain_dims_sum_to_algebra(diamond):
    algebra, frame = diamond
    report = rl.heredity_chain_verify(frame.with_degrees([1, 2, 3, 4]))
    assert report["overall"]
    assert sum(l["layer_dim"] for l in report["layers"]) == algebra.dim


def test_chain_ideals_are_the_ideals_of_the_levels_below(corpus_structures):
    """J_l, built in A's coordinates as J_(l-1) plus the residue rows of
    (C*eps_l)*C modulo J_(l-1), C the residue rows of A, is A*eps_(<=l)*A;
    the layer rows vanish at the pivots of J_(l-1)."""
    for name, structure in corpus_structures.items():
        a, frame = structure.algebra, structure.frame.normalized()
        chain = level_chain(frame)
        below = rl.Subspace(a.field, a.dim)
        for lev, ideal, layer in zip(chain.levels, chain.ideals, chain.layers):
            assert ideal.closure_kind == rl.AlgSubspace.IDEAL, name
            eps = frame.sum_of(i for i, d in enumerate(frame.degrees) if d <= lev)
            assert ideal.space == rl.ideal_closure(a, [eps]).space, name
            assert layer.dim == ideal.dim - below.dim, name
            assert all(p not in row for row in layer.rows.values() for p in below.rows), name
            below = ideal.space
        assert chain.ideals[-1].dim == a.dim, name


def _chain_through_quotients(frame):
    """``heredity_chain_verify`` computed on a tower of quotient algebras:
    ``heredity_ideal_check`` on A/J_(l-1) with the frame pushed through
    ``quotient_frame``, one radical per quotient."""
    a = current = frame.algebra
    cur_frame = frame
    layers, ok, total = [], True, 0
    for lev in frame.levels():
        eps = cur_frame.eps(lev)
        detail = rl.heredity_ideal_check(cur_frame, eps)
        ideal = rl.ideal_closure(current, [eps])
        total += ideal.dim
        layers.append({"level": lev, "ideal_dim": total, "layer_dim": ideal.dim,
                       "verdict": bool(detail["overall"]), "strictly_increasing": ideal.dim > 0,
                       "detail": detail})
        ok = ok and detail["overall"] and ideal.dim > 0
        current, qmap = rl.quotient(current, ideal)
        cur_frame = rl.quotient_frame(cur_frame, qmap)
    complete = total == a.dim
    return {"overall": ok and complete, "complete": complete, "layers": layers}


def _chain_inputs(field):
    """(name, algebra, frame) for the small test algebras over ``field``."""
    cases = []
    for name, pres in (("diamond", rl.diamond_presentation()), ("uppertri", rl.a2_presentation())):
        cases.append((name, *rl.build_quiver_algebra(pres, field)))
    for n in (2, 3):
        m = rl.build_matrix_algebra(n, field)
        cases.append((f"M{n}", m, rl.matrix_diag_frame(m, n)))
    m2 = rl.build_matrix_algebra(2, field)
    cases.append(("M2-unit", m2, rl.IdempotentFrame(m2, [m2.unit], ["one"])))
    s1, s2 = rl.build_simplex_algebra(1, field), rl.build_simplex_algebra(2, field)
    t49 = rl.build_tensor_reedy(s1, s1)
    cases += [(name, s.algebra, s.frame) for name, s in (("simplex1", s1), ("simplex2", s2),
                                                         ("tensor49", t49))]
    return cases


@pytest.mark.parametrize("field", [rl.rationals(), rl.prime_field(2), rl.prime_field(3)],
                         ids=["Q", "GF2", "GF3"])
def test_chain_in_a_matches_the_quotient_tower(field):
    """Layer checks run modulo J_(l-1) inside A give the report of the
    quotient-algebra route, for every normalized level function."""
    cases = _chain_inputs(field)
    if field.characteristic == 0:  # the corpus algebras not built above, over their own fields
        for path in sorted(default_corpus_dir().glob("*.alg.json")):
            if not path.name.startswith(("diamond", "uppertri", "simplex", "tensor")):
                cases.append((path.name, *load_algebra(path)))
    for name, a, frame in cases:
        for levels in normalized_level_functions(len(frame)):
            work = frame.with_degrees(levels)
            assert rl.heredity_chain_verify(work) == _chain_through_quotients(work), (name, levels)


def _refuse(*args, **kwargs):
    raise AssertionError("a quotient or corner algebra was built")


@pytest.mark.parametrize("case", ["simplex2-Q", "simplex2-GFp", "tensor49", "M2-unit"])
def test_chain_and_crosscheck_build_no_quotient_algebra(monkeypatch, case):
    field = rl.prime_field(2147483629) if case == "simplex2-GFp" else rl.rationals()
    if case.startswith("simplex2"):
        r = rl.build_simplex_algebra(2, field)
    elif case == "tensor49":
        s1 = rl.build_simplex_algebra(1, field)
        r = rl.build_tensor_reedy(s1, s1)
    else:
        m2 = rl.build_matrix_algebra(2, field)
        frame = rl.IdempotentFrame(m2, [m2.unit], ["one"], [0])
        r = rl.ReedyStructure(m2, frame, rl.full_subalgebra(m2), rl.full_subalgebra(m2))
    for module in (rl.qh, rl.reedy):
        monkeypatch.setattr(module, "quotient", _refuse, raising=False)
        monkeypatch.setattr(module, "quotient_frame", _refuse, raising=False)
    monkeypatch.setattr(rl.reedy, "corner", _refuse)
    if case == "M2-unit":  # route (iii) then reads the centre of A/rad A
        assert not rl.is_elementary(r.frame)
    assert rl.heredity_chain_verify(r.frame)["overall"]
    assert rl.characterization_crosscheck(r)["agree"]
    # Theorem 5.3 is decided in A at every occupied cut.
    for cut in r.frame.normalized().levels():
        if case == "M2-unit":  # its diagonal block M2 fails the directedness setup
            with pytest.raises(rl.AlgebraError, match="directedness"):
                rl.recursive_check(r, cut)
        else:
            report = rl.recursive_check(r, cut)
            assert all(report["triple"]) and report["equivalence_holds"], cut


def test_chain_computes_the_radical_once(monkeypatch, Q):
    """rad(A/J) = (rad A + J)/J, so the chain needs A's radical only."""
    dims = []
    generic = rl.algebra.radical_generic
    monkeypatch.setattr(rl.algebra, "radical_generic", lambda a: dims.append(a.dim) or generic(a))
    s2 = rl.build_simplex_algebra(2, Q)
    assert rl.heredity_chain_verify(s2.frame)["overall"]
    assert dims == [s2.algebra.dim]


def test_chain_product_counts(monkeypatch):
    """mul_sparse calls per heredity chain, which repeat exactly.  The chain
    forms no XeX of its own, and Theorem 5.3's multiplication test must not
    reach for the frame's whole Peirce table on its behalf."""
    corpus = default_corpus_dir()
    tensor49 = load_reedy(corpus / "tensor49.reedy.json")
    cases = [(tensor49.frame.normalized(), 1494)]
    for stem, order_stem, count in (("diamond", "diamond.order0123", 309),
                                    ("uppertri", "uppertri.order01", 45)):
        _, frame = load_algebra(corpus / f"{stem}.alg.json")
        order = load_order(corpus / f"{order_stem}.order.json", frame)
        cases.append((frame.with_degrees(order.levels), count))
    real, calls = rl.Algebra.mul_sparse, []
    monkeypatch.setattr(rl.Algebra, "mul_sparse", lambda a, u, w: calls.append(1) or real(a, u, w))
    for frame, count in cases:
        calls.clear()
        assert rl.heredity_chain_verify(frame)["overall"]
        assert len(calls) == count, frame.algebra


def test_chain_trivial_frame(Q):
    k_alg, k_frame = rl.build_quiver_algebra(rl.QuiverPresentation(["pt"], [], [], 1), Q)
    report = rl.heredity_chain_verify(k_frame.with_degrees([0]))
    assert report["overall"] and len(report["layers"]) == 1


def test_chain_simplex_levels(simplex1, simplex2):
    for structure in (simplex1, simplex2):
        report = rl.heredity_chain_verify(structure.frame)
        assert report["overall"]


# --- standard modules -----------------------------------------------------------


def test_standard_modules_diamond(diamond):
    algebra, frame = diamond
    work = frame.with_degrees([1, 2, 3, 4])
    standards = rl.standard_modules(work)
    dims = tuple(m.dim for m in standards)
    assert dims == (4, 2, 2, 1)
    for i, delta in enumerate(standards):
        # no composition factor of Delta(i) above i
        comp = delta.comp_dim_vector(work)
        assert all(comp[j] == 0 for j in range(4) if not below_or_equal(work, j, i))
        assert delta.top_multiplicities(work) == tuple(1 if j == i else 0 for j in range(4))
    # trace-subspace oracle: only weights strictly below contribute
    for i, e in enumerate(work.idempotents):
        tr = trace_subspace(work, i)
        assert standards[i].dim == rl.projective_module(algebra, e, "left").dim - tr.dim


@pytest.mark.parametrize("name", ["diamond", "simplex2"])
def test_trace_subspace_matches_explicit_sum(name, diamond, simplex2):
    """trace_subspace against the span of b_t e_j b_k e_i over every j not <= i."""
    if name == "diamond":
        algebra, frame = diamond
        frame = frame.with_degrees((2, 1, 1, 0))
    else:
        algebra, frame = simplex2.algebra, simplex2.frame
    f, n = algebra.field, algebra.dim
    units = [algebra.basis_vector(k) for k in range(n)]
    dims = []
    for i, ei in enumerate(frame.idempotents):
        rows = [
            algebra.mul(bt, algebra.mul(ej, mid))
            for j, ej in enumerate(frame.idempotents)
            if not below_or_equal(frame, j, i)
            for mid in (algebra.mul(bk, ei) for bk in units)
            for bt in units
        ]
        expected = rl.rref(rl.Matrix(f, rows, n))[0].rows if rows else ()
        tr = trace_subspace(frame, i)
        assert tr.basis == tuple(r for r in expected if any(r))
        dims.append(tr.dim)
    assert 0 in dims and any(dims)


def test_standard_modules_semisimple(Q):
    s, frame = rl.build_quiver_algebra(rl.QuiverPresentation(["p", "q"], [], [], 1), Q)
    work = frame.with_degrees([0, 0])
    standards = rl.standard_modules(work)
    for i, e in enumerate(work.idempotents):
        simple = rl.simple_module(work, i, "left")
        assert standards[i].dim == simple.dim == rl.projective_module(s, e, "left").dim == 1


def test_standard_modules_reject_non_elementary(simplex1):
    with pytest.raises(AlgebraError):
        rl.standard_modules(simplex1.frame)


def test_layer_quotient_matches_standard_on_elementary(diamond):
    algebra, frame = diamond
    work = frame.with_degrees([1, 2, 3, 4])
    standards = rl.standard_modules(work)
    for i in range(4):
        q = layer_quotient_module(work, i)
        assert q.dim == standards[i].dim
        assert q.comp_dim_vector(work) == standards[i].comp_dim_vector(work)


def test_standard_factor_bound_vanishing(diamond):
    algebra, frame = diamond
    work = frame.with_degrees([1, 2, 3, 4])
    standards = rl.standard_modules(work)
    for i in range(4):
        comp = standards[i].comp_dim_vector(work)
        for j in range(4):
            if not below_or_equal(work, j, i):
                assert comp[j] == 0


# --- directedness -----------------------------------------------------------


def test_directed_qh_on_simplex_factors(simplex1):
    # A- lowers the level (simple standards), A+ raises it (projective ones)
    frame = simplex1.frame.normalized()
    assert directedness(frame, False, simplex1.aminus)["ok"]
    assert not directedness(frame, True, simplex1.aminus)["ok"]
    assert directedness(frame, True, simplex1.aplus)["ok"]
    assert not directedness(frame, False, simplex1.aplus)["ok"]


def test_directed_qh_matrix_unit_frame(m2q):
    m2, _ = m2q
    frame = rl.IdempotentFrame(m2, [m2.unit], ["one"], [0])
    for raising in (False, True):
        verdict = directedness(frame, raising)
        assert not verdict["ok"]
        assert verdict["diagonal_dims"] == {"one": 4}


def test_simple_standards_imply_valid_chain(corpus_structures):
    # directedness with simple standards forces quasi-heredity for the order
    for name, structure in corpus_structures.items():
        frame = structure.frame.normalized()
        for sub in (structure.aminus, structure.aplus):
            if directedness(frame, False, sub)["ok"]:
                _, sub_frame = subalgebra_with_frame(sub, frame)
                report = rl.heredity_chain_verify(sub_frame.with_degrees(frame.degrees))
                assert report["overall"], name


# --- Borel and Delta subalgebras ------------------------------------------------


def test_exact_borel_simplex1(simplex1):
    verdict = rl.exact_borel_check(simplex1.frame.normalized(), simplex1.aminus)
    assert verdict["overall"]


def test_delta_subalgebra_simplex1(simplex1):
    verdict = rl.delta_subalgebra_check(simplex1.frame.normalized(), simplex1.aplus)
    assert verdict["overall"]


def test_exact_borel_diamond_semisimple(diamond):
    algebra, frame = diamond
    work = frame.with_degrees([1, 2, 3, 4])
    s = vertex_span(algebra, frame)
    verdict = rl.exact_borel_check(work, s)
    assert verdict["overall"]  # standards are projective for this order
    verdict = rl.delta_subalgebra_check(work, rl.full_subalgebra(algebra))
    assert verdict["overall"]


def test_delta_fails_for_wrong_candidate(diamond):
    algebra, frame = diamond
    work = frame.with_degrees([1, 2, 3, 4])
    verdict = rl.delta_subalgebra_check(work, vertex_span(algebra, frame))
    assert not verdict["overall"]


def test_delta_fails_in_matrix_algebra(m2q):
    m2, diag = m2q
    work = diag.with_degrees([0, 1])
    s = rl.subalgebra_closure(m2, list(diag.idempotents))
    verdict = rl.delta_subalgebra_check(work, s)
    assert not verdict["overall"]


def test_no_exact_borel_for_4312_order(diamond_gf2):
    """The (4,3,1,2) order admits no exact Borel among all GF(2) candidates."""
    algebra, frame = diamond_gf2
    work = frame.with_degrees([4, 3, 1, 2]).normalized()
    assert rl.heredity_chain_verify(work)["overall"]
    for cand in all_subalgebras_over_s(algebra, frame):
        verdict = rl.exact_borel_check(work, cand)
        assert not verdict["overall"]


BOREL_INVARIANT_FALLBACKS = {
    # structure: weights whose killed subspaces differ, with A- and with A+ as candidate
    "diamond.deg1223": (0, 3), "diamond.deg1234": (0, 3), "diamond.deg4231": (0, 3),
    "diamond.deg4312": (2, 2), "dualext.a2": (0, 2), "k": (0, 0), "m2.pair": (0, 2),
    "simplex1": (0, 2), "simplex2": (0, 3), "tensor49": (0, 4), "tensor63": (0, 8),
    "uppertri.as": (0, 1), "uppertri.ss": (1, 1),
}


@pytest.mark.parametrize("path", sorted(default_corpus_dir().glob("*.reedy.json")),
                         ids=lambda path: path.name)
def test_borel_match_is_the_invariant_verdict(path):
    """Each weight's ``match`` is what ``_same_invariants`` says of the
    induced module and the standard module, whether the natural map decided
    it (equal killed subspaces) or the invariants did.  The carriers are one
    subspace by construction; the fallbacks are pinned by count so that both
    paths stay exercised."""
    r = load_reedy(path)
    frame = r.frame.normalized()
    fallbacks = []
    for sub in (r.aminus, r.aplus):
        report = rl.exact_borel_check(frame, sub)
        count = 0
        for i, (standard, row) in enumerate(zip(_standards(frame), report["weights"])):
            induced = rl.induce_module(r.algebra, sub, rl.simple_module(frame, i, "left", sub))
            assert induced.carrier == standard.carrier
            assert row["match"] == _same_invariants(induced, standard, frame), (sub, i)
            count += induced.killed != standard.killed
        fallbacks.append(count)
    assert tuple(fallbacks) == BOREL_INVARIANT_FALLBACKS[path.name.removesuffix(".reedy.json")]


def test_borel_rejects_unflagged_candidate(diamond):
    algebra, frame = diamond
    work = frame.with_degrees([1, 2, 3, 4])
    bad = rl.plain_subspace(algebra, list(frame.idempotents))
    verdict = rl.exact_borel_check(work, bad)
    assert not verdict["overall"] and "reason" in verdict


def test_borel_and_delta_reject_a_candidate_without_the_frame(uppertri):
    """The span of the unit is a subalgebra, but without the idempotents."""
    algebra, frame = uppertri
    work = frame.with_degrees([0, 1])
    unit_only = rl.subalgebra_closure(algebra, [algebra.unit])
    assert unit_only.dim == 1
    for check in (rl.exact_borel_check, rl.delta_subalgebra_check):
        verdict = check(work, unit_only)
        assert not verdict["overall"]
        assert verdict["reason"] == "candidate does not contain the frame idempotents"


# --- order search -----------------------------------------------------------


def test_order_search_two_points(Q):
    s, frame = rl.build_quiver_algebra(rl.QuiverPresentation(["p", "q"], [], [], 1), Q)
    orders = rl.qh_order_search(frame)
    assert [o.degrees for o in orders] == [(0, 0), (0, 1), (1, 0)]


def test_order_search_uppertri(uppertri):
    algebra, frame = uppertri
    orders = rl.qh_order_search(frame)
    assert (0, 1) in [o.degrees for o in orders]
    assert (1, 0) in [o.degrees for o in orders]
    assert (0, 0) not in [o.degrees for o in orders]


def test_order_search_diamond_contains_examples(diamond):
    algebra, frame = diamond
    orders = [o.degrees for o in rl.qh_order_search(frame)]
    for example in [(0, 1, 2, 3), (0, 1, 1, 2), (3, 1, 2, 0), (3, 2, 0, 1)]:
        assert example in orders
    assert orders == sorted(orders)


def test_order_search_bound(monkeypatch, diamond):
    algebra, frame = diamond
    monkeypatch.setattr(rl.qh, "MAX_WEIGHTS", 3)
    with pytest.raises(AlgebraError):
        rl.qh_order_search(frame)
