"""Algebra core: validation, closures, quotients, corners, radicals, tensors."""

import ast
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import reedylab as rl
import reedylab.algebra as algebra_module
import reedylab.qh as qh_module
from dense_modules import subalgebra_with_frame
from reedylab.algebra import (
    AlgebraError,
    _associativity_violations,
    _check_nilpotent,
    _radical_charp,
    _word_generators,
    corner_span,
    peirce_two_sided,
    product_rank,
    product_span,
)
from reedylab.corpus import default_corpus_dir
from reedylab.linalg import Echelon, Matrix, add_scaled, rref, span, sparse
from reedylab.qh import level_chain, normalized_level_functions, peirce_blocks
from reedylab.serialize import algebra_from_json, load_algebra, read_json
from tensor_oracle import balanced_tensor_dim
from test_golden import corrupted_diamond_table
from test_serialize import rescaled


def label_index(algebra, label):
    return algebra.labels.index(label)


def basis_by_label(algebra, label):
    return algebra.basis_vector(label_index(algebra, label))


# --- validate ----------------------------------------------------------------


def test_validate_matrix_algebra(Q):
    m2 = rl.build_matrix_algebra(2, Q)
    assert rl.validate(m2)["valid"]


def test_validate_detects_perturbed_constant(Q):
    m2 = rl.build_matrix_algebra(2, Q)
    mult = [list(map(list, row)) for row in m2.mult]
    mult[0][0] = [(0, Q.of(2))]  # E11*E11 = 2E11 breaks both laws
    bad = rl.Algebra(Q, m2.labels, [[tuple(map(tuple, r)) for r in row] for row in mult], m2.unit)
    diag = rl.validate(bad)
    assert not diag["valid"]
    kinds = {v["kind"] for v in diag["violations"]}
    assert "associativity" in kinds
    triples = [v["triple"] for v in diag["violations"] if v["kind"] == "associativity"]
    assert any(t[0] == 0 and t[1] == 0 for t in triples)


def test_validate_diamond(diamond):
    algebra, _ = diamond
    assert algebra.dim == 9
    assert rl.validate(algebra)["valid"]


def test_validate_reports_the_corrupted_diamond_in_full():
    """d*bd = bd + cd breaks the unit law at bd and associativity at d,bd,*:
    the certificate fails, and the report is the full scan's."""
    data = corrupted_diamond_table()
    d, bd = (data["labels"].index(x) for x in ("d", "bd"))
    bad, _ = algebra_from_json(data)
    report = rl.validate(bad)
    assert not report["valid"]
    assert {"kind": "unit-left", "index": bd} in report["violations"]
    assert [v for v in report["violations"] if v["kind"] == "associativity"] == (
        _associativity_violations(bad, range(bad.dim), [range(bad.dim)] * bad.dim)
    )
    triples = [v["triple"] for v in report["violations"] if v["kind"] == "associativity"]
    assert (d, bd, 2) in triples and (d, bd, 6) in triples


def grading(a):
    """G and ``chained`` from ``validate``'s one pass over the table."""
    return _word_generators(a, sparse(a.field, a.unit))


def test_certificate_visits_only_chained_triples(simplex2, monkeypatch):
    """Pinned counts of the triples (g, j, k) the certificate scans: j in
    the class C(g) and k in the class C(j), against |G| * dim^2.  Every
    cell of these tables has one term, so each triple is decided by lookup
    and the certificate adds no scalars."""
    cases = (
        (simplex2.algebra, 1335, 8649),
        (rl.build_simplex_algebra(3, rl.prime_field(2147483629)).algebra, 23255, 219615),
        (load_algebra(default_corpus_dir() / "tensor49.alg.json")[0], 2063, 26411),
    )
    for a, pinned, every in cases:
        gens, chained = grading(a)
        assert len(gens) * a.dim ** 2 == every
        visited = sum(len(chained[j]) for g in gens for j in chained[g])
        assert visited <= pinned < every
        sums = []

        def add(x, y, add=a.field.add):
            sums.append((x, y))
            return add(x, y)

        monkeypatch.setattr(a.field, "add", add)
        assert _associativity_violations(a, gens, chained) == []
        monkeypatch.undo()
        assert sums == []
        assert rl.validate(a)["valid"]


def test_explicit_zero_terms_do_not_coarsen_the_grading():
    """A copy of tensor49 with a kept (0, 0) term in every empty cell has
    the same classes and the same report as the original.  The loader drops
    zero terms, so the copy is built with ``Algebra``, which keeps them."""
    original, _ = algebra_from_json(read_json(default_corpus_dir() / "tensor49.alg.json"))
    n = original.dim
    mult = [[cell or ((0, 0),) for cell in row] for row in original.mult]
    padded = rl.Algebra(original.field, original.labels, mult, original.unit)
    assert all(padded.mult[i][j] for i in range(n) for j in range(n))
    assert grading(padded)[1] == grading(original)[1]
    assert rl.validate(padded) == rl.validate(original) == {"valid": True, "violations": []}


@pytest.mark.parametrize("cell, terms", [
    (("ab", "bd"), [["ab", "1"]]),
    (("cd", "ac"), [["ac*cd", "1"], ["ac", "1"]]),
])
def test_validate_reads_the_grading_from_the_table_as_given(cell, terms):
    """A term added to diamond's product of two arrows keeps the unit laws
    and breaks associativity only where a certificate graded by the
    unperturbed table does not look: ab * bd = ab fills an empty cell, and
    every failing triple is unchained in the old grading; cd * ac gains ac,
    whose row class the old grading keeps apart from cd's."""
    data = read_json(default_corpus_dir() / "diamond.alg.json")
    good, _ = algebra_from_json(data)
    i, j = (data["labels"].index(x) for x in cell)
    data["mult"] = [row for row in data["mult"] if row[:2] != [i, j]]
    data["mult"].append([i, j, [[data["labels"].index(k), c] for k, c in terms]])
    bad, _ = algebra_from_json(data)
    full = _associativity_violations(bad, range(bad.dim), [range(bad.dim)] * bad.dim)
    gens, stale = grading(good)
    assert full and not _associativity_violations(bad, gens, stale)
    if not good.mult[i][j]:
        assert all(y not in stale[x] or z not in stale[y] for x, y, z in (
            v["triple"] for v in full))
    assert rl.validate(bad) == {"valid": False, "violations": full}


def test_every_builder_passes_tuple_cells(Q, diamond, simplex1):
    """``Algebra`` stores the cells it is given, so every table in the
    package holds tuples of (k, c) tuples: the loader's, each
    constructor's, and those of corners, quotients and tensor products."""
    algebra, frame = diamond
    e = frame.sum_of([0])
    tables = [load_algebra(path)[0] for path in sorted(default_corpus_dir().glob("*.alg.json"))]
    tables += [algebra, simplex1.algebra, rl.build_matrix_algebra(2, Q),
               rl.build_tensor_reedy(simplex1, simplex1).algebra,
               rl.tensor_algebras(algebra, simplex1.algebra), rl.corner(algebra, e)[0],
               rl.quotient(algebra, rl.ideal_closure(algebra, [e]))[0]]
    for a in tables:
        assert type(a.mult) is tuple and all(type(row) is tuple for row in a.mult), a
        assert all(type(cell) is tuple and all(type(t) is tuple and len(t) == 2 for t in cell)
                   for row in a.mult for cell in row), a


# --- closures ----------------------------------------------------------------


def test_subalgebra_closure_empty_generators(m2q):
    m2, _ = m2q
    sub = rl.subalgebra_closure(m2, [])
    assert sub.dim == 1 and sub.contains(m2.unit)


def test_subalgebra_closure_involution(m2q, Q):
    m2, _ = m2q
    # E12 + E21 squares to the identity, so closure has dimension 2
    x = tuple(Q.of(v) for v in (0, 1, 1, 0))
    sub = rl.subalgebra_closure(m2, [x])
    assert sub.dim == 2
    assert sub.contains(x) and sub.contains(m2.unit)
    square = m2.mul(x, x)
    assert square == m2.unit


def test_subalgebra_closure_diamond_path_pair(diamond):
    algebra, frame = diamond
    # oracle: paths inside the sub-quiver {a->b, b->d}: vertices, ab, bd, ab then bd
    gens = list(frame.idempotents) + [basis_by_label(algebra, "ab"), basis_by_label(algebra, "bd")]
    sub = rl.subalgebra_closure(algebra, gens)
    assert sub.dim == 7
    long_path = algebra.mul(basis_by_label(algebra, "bd"), basis_by_label(algebra, "ab"))
    assert any(x != 0 for x in long_path)
    assert sub.contains(long_path)


def test_ideal_closure_uppertri_corner(uppertri):
    algebra, frame = uppertri
    # A e A for e the source vertex of the arrow: spans {e, arrow}
    e_v0 = frame.idempotents[frame.index_of("v0")]
    ideal = rl.ideal_closure(algebra, [e_v0])
    assert ideal.dim == 2
    assert ideal.is_ideal()
    arrow = basis_by_label(algebra, "x")
    assert ideal.contains(arrow)


def test_ideal_closure_zero(diamond):
    algebra, _ = diamond
    ideal = rl.ideal_closure(algebra, [algebra.zero_vector()])
    assert ideal.dim == 0


def test_ideal_closure_empty_level_eps(diamond):
    algebra, frame = diamond
    work = frame.with_degrees([1, 2, 3, 4])
    assert all(x == 0 for x in work.eps(0))
    ideal = rl.ideal_closure(algebra, [work.eps(0)])
    assert ideal.dim == 0


def test_frame_with_other_degrees_shares_the_cache(diamond):
    _, frame = diamond
    work = frame.with_degrees([1, 2, 3, 4])
    assert work._cache is frame._cache
    assert work.without_degrees()._cache is frame._cache
    assert work.lines() is frame.lines()


def test_frame_data_is_shared_by_degree_variants(Q):
    """Peirce tables, level chains and elementarity are functions of the
    frame and are kept on it, so a degree variant reads the same objects."""
    s = rl.build_simplex_algebra(1, Q)
    frame, levels = s.frame.without_degrees(), s.frame.normalized().degrees
    work = frame.with_degrees([0] * len(frame))
    for sub in (None, s.aplus, s.aminus):
        assert peirce_blocks(work, sub) is peirce_blocks(frame, sub)
    assert level_chain(work.with_degrees(levels)) is level_chain(frame.with_degrees(levels))
    assert level_chain(s.frame.normalized()) is level_chain(frame.with_degrees(levels))


def test_is_elementary_extracts_a_subalgebra_once(monkeypatch, Q):
    """The elementarity of B is kept on the frame and rad(B) on B: deciding
    it for every degree variant of the frame extracts B once."""
    s = rl.build_simplex_algebra(1, Q)
    calls = []
    real_radical_space, real_extracted = algebra_module.radical_space, rl.AlgSubspace.extracted
    monkeypatch.setattr(algebra_module, "radical_space",
                        lambda a, sub=None: calls.append("radical_space") or real_radical_space(a, sub))
    monkeypatch.setattr(rl.AlgSubspace, "extracted",
                        lambda self: calls.append("extracted") or real_extracted(self))
    for frame in (s.frame, s.frame.without_degrees(), s.frame.with_degrees([1] * len(s.frame))):
        assert rl.is_elementary(frame, s.aplus)
    assert calls == ["radical_space", "extracted"]


def _qualified_cache_uses(tree):
    """(qualified name of the enclosing function or class, line) of every
    ``_cache`` attribute in a module's syntax tree."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == "_cache":
            uses.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(tree, "")
    return uses


def test_only_memo_reads_or_writes_a_cache():
    """Derived data is kept by ``algebra.memo``: apart from it, only the
    constructors that create a cache and ``with_degrees``, which shares the
    frame's, touch a ``_cache``."""
    allowed = {("algebra.py", "memo"), ("algebra.py", "IdempotentFrame.with_degrees")}
    offenders = []
    for path in sorted(Path(algebra_module.__file__).parent.glob("*.py")):
        for scope, line in _qualified_cache_uses(ast.parse(path.read_text())):
            if (path.name, scope) not in allowed and not scope.endswith(".__init__"):
                offenders.append(f"{path.name}:{line} in {scope or 'module'}")
    assert offenders == []
    assert not hasattr(rl.AlgSubspace, "memo")


def _rank_contains(space, vec):
    return span(space.field, space.ambient_dim, list(space.basis) + [vec]).dim == space.dim


def dense_closed(algebra, space):
    return all(_rank_contains(space, algebra.mul(u, v)) for u in space.basis for v in space.basis)


def dense_ideal(algebra, space):
    units = [algebra.basis_vector(k) for k in range(algebra.dim)]
    return all(
        _rank_contains(space, algebra.mul(b, v)) and _rank_contains(space, algebra.mul(v, b))
        for v in space.basis
        for b in units
    )


def random_vector(algebra, rng):
    """A dense element with one to three seeded random coordinates."""
    f = algebra.field
    vec = [f.zero] * algebra.dim
    for c in rng.sample(range(algebra.dim), rng.randint(1, 3)):
        vec[c] = f.random(rng)
    return vec


def random_subspaces(algebra, frame, rng, count=24):
    """Seeded sparse random spans, plus closures and the span of the frame."""
    f = algebra.field
    n = algebra.dim
    spaces = [frame.semisimple_span()]
    for _ in range(count):
        gens = [random_vector(algebra, rng) for _ in range(rng.randint(1, 3))]
        spaces.append(span(f, n, gens))
        spaces.append(rl.ideal_closure(algebra, gens[:1]).space)
        spaces.append(rl.subalgebra_closure(algebra, gens[:1]).space)
    return spaces


def small_algebra(name, field):
    """diamond or simplex1 over ``field``, with its frame."""
    if name == "diamond":
        return rl.build_quiver_algebra(rl.diamond_presentation(), field)
    structure = rl.build_simplex_algebra(1, field)
    return structure.algebra, structure.frame


@pytest.mark.parametrize("name", ["diamond", "simplex1"])
@pytest.mark.parametrize("field", [rl.rationals(), rl.prime_field(3)], ids=["Q", "GF3"])
def test_sparse_membership_tests_match_dense_brute_force(name, field):
    algebra, frame = small_algebra(name, field)
    rng = random.Random(f"{name}-{field.characteristic}")
    outcomes = {"ideal": set(), "closed": set()}
    for space in random_subspaces(algebra, frame, rng):
        sub = rl.AlgSubspace(algebra, space)
        ideal, closed = sub.is_ideal(), sub.is_multiplicatively_closed()
        assert ideal == dense_ideal(algebra, space)
        assert closed == dense_closed(algebra, space)
        outcomes["ideal"].add(ideal)
        outcomes["closed"].add(closed)
    assert outcomes == {"ideal": {True, False}, "closed": {True, False}}


# --- quotient and corner ---------------------------------------------------


def test_quotient_by_full_ideal(diamond):
    algebra, _ = diamond
    full = rl.ideal_closure(algebra, [algebra.unit])
    q, _ = rl.quotient(algebra, full)
    assert q.dim == 0


def test_quotient_uppertri_is_field(uppertri):
    algebra, frame = uppertri
    e_v0 = frame.idempotents[frame.index_of("v0")]
    ideal = rl.ideal_closure(algebra, [e_v0])
    q, qmap = rl.quotient(algebra, ideal)
    assert q.dim == 1
    assert rl.validate(q)["valid"]
    assert q.mul(q.unit, q.unit) == q.unit
    # projection is an algebra map
    x = basis_by_label(algebra, "x")
    assert qmap.project(algebra.mul(x, x)) == q.mul(qmap.project(x), qmap.project(x))


def test_quotient_diamond_by_source_vertex(diamond):
    algebra, frame = diamond
    ideal = rl.ideal_closure(algebra, [frame.idempotents[frame.index_of("a")]])
    assert ideal.dim == 4
    q, _ = rl.quotient(algebra, ideal)
    assert q.dim == 5
    assert rl.validate(q)["valid"]
    assert sorted(q.labels) == ["b", "bd", "c", "cd", "d"]


def test_quotient_requires_ideal_flag(diamond):
    algebra, frame = diamond
    not_ideal = rl.plain_subspace(algebra, [frame.idempotents[0]])
    with pytest.raises(AlgebraError):
        rl.quotient(algebra, not_ideal)


def test_quotient_dim_additivity(diamond, uppertri, simplex2):
    for algebra, frame in (diamond, uppertri):
        for e in frame.idempotents:
            ideal = rl.ideal_closure(algebra, [e])
            q, _ = rl.quotient(algebra, ideal)
            assert rl.validate(q)["valid"]
            assert algebra.dim == ideal.dim + q.dim
    s2 = simplex2
    ideal = rl.ideal_closure(s2.algebra, [s2.frame.idempotents[0]])
    q, _ = rl.quotient(s2.algebra, ideal)
    assert s2.algebra.dim == ideal.dim + q.dim
    assert rl.validate(q)["valid"]


def test_corner_at_unit_is_identity(diamond):
    algebra, _ = diamond
    c, _ = rl.corner(algebra, algebra.unit)
    assert c.dim == algebra.dim
    assert rl.validate(c)["valid"]


def test_corner_uppertri_vertex(uppertri):
    algebra, frame = uppertri
    c, _ = rl.corner(algebra, frame.idempotents[frame.index_of("v0")])
    assert c.dim == 1 and c.mul(c.unit, c.unit) == c.unit


def test_corner_diamond_two_vertices(diamond, Q):
    algebra, frame = diamond
    e = algebra.mul(frame.idempotents[frame.index_of("a")], frame.idempotents[frame.index_of("a")])
    e = tuple(
        Q.add(x, y)
        for x, y in zip(
            frame.idempotents[frame.index_of("a")], frame.idempotents[frame.index_of("b")]
        )
    )
    c, space = rl.corner(algebra, e)
    assert c.dim == 3
    assert rl.validate(c)["valid"]
    # embedding rows land back in the big algebra, one per corner basis element
    assert space.ambient_dim == algebra.dim and space.dim == c.dim
    for row in space.rows.values():
        assert max(row) < algebra.dim


def test_corner_requires_idempotent(diamond):
    algebra, _ = diamond
    with pytest.raises(AlgebraError):
        rl.corner(algebra, basis_by_label(algebra, "ab"))


# --- radical ------------------------------------------------------------------


def test_radical_semisimple_matrix(Q, GF2):
    for field in (Q, GF2):
        m2 = rl.build_matrix_algebra(2, field)
        assert rl.radical(m2).dim == 0


def test_radical_uppertri(uppertri):
    algebra, _ = uppertri
    rad = rl.radical(algebra)
    assert rad.dim == 1
    assert rad.contains(basis_by_label(algebra, "x"))


def test_radical_simplex1_has_dim_two(simplex1):
    # the non-identity span contains the idempotent d0*s, so the radical is
    # strictly smaller than the 5-dimensional span of non-identity maps
    algebra = simplex1.algebra
    rad = rl.radical(algebra)
    assert rad.dim == 2
    q, _ = rl.quotient(algebra, rad)
    assert rl.radical_generic(q).dim == 0


def test_radical_postconditions_on_corpus(diamond, uppertri, simplex1, simplex2, m2q):
    algebras = [diamond[0], uppertri[0], simplex1.algebra, simplex2.algebra, m2q[0]]
    for algebra in algebras:
        rad = rl.radical(algebra)
        assert rad.is_ideal()
        # nilpotency: some power of the span vanishes
        power = list(rad.space.basis)
        for _ in range(algebra.dim + 1):
            if not power:
                break
            nxt = []
            for u in power:
                for v in rad.space.basis:
                    w = algebra.mul(u, v)
                    if any(x != algebra.field.zero for x in w):
                        nxt.append(w)
            power = nxt and list(span(algebra.field, algebra.dim, nxt).basis)
        assert not power
        q, _ = rl.quotient(algebra, rad)
        assert rl.radical_generic(q).dim == 0


def test_radical_arrow_ideal_crosscheck(diamond, uppertri, diamond_gf2):
    # a quiver algebra with admissible relations has the arrow ideal as radical:
    # the span of every basis path that is not a vertex idempotent
    for algebra, frame in (diamond, uppertri, diamond_gf2):
        f = algebra.field
        vertices = {e.index(f.one) for e in frame.idempotents}
        paths = [algebra.basis_vector(t) for t in range(algebra.dim) if t not in vertices]
        assert paths
        assert rl.radical(algebra).space == span(f, algebra.dim, paths)


ORACLE_PRIMES = (2, 3, 5, 2147483629)
ORACLE_ALGEBRAS = ("diamond", "dualext.a2", "k", "m2.gf2", "m2unit.gf2", "uppertri",
                   "simplex1", "simplex2", "tensor49", "tensor63")


def corpus_algebra(name, field_json):
    """A bundled corpus algebra with its 0/1 structure constants read in another field."""
    data = read_json(default_corpus_dir() / f"{name}.alg.json")
    data["field"] = field_json
    return algebra_from_json(data)[0]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_radical_generic_matches_full_p_power_chain(p):
    for name in ORACLE_ALGEBRAS:
        algebra = corpus_algebra(name, {"kind": "GF", "p": p})
        rad = rl.radical_generic(algebra)
        assert rad == _radical_charp(algebra), (p, name)
        assert _check_nilpotent(algebra, rad), (p, name)
        assert not _check_nilpotent(algebra, span(algebra.field, algebra.dim, [algebra.unit]))


def test_radical_over_q_is_nilpotent_ideal_with_semisimple_quotient():
    for name in ORACLE_ALGEBRAS:
        algebra = corpus_algebra(name, {"kind": "Q"})
        rad = rl.radical(algebra)
        assert rad.is_ideal() and _check_nilpotent(algebra, rad.space), name
        assert not _check_nilpotent(algebra, span(algebra.field, algebra.dim, [algebra.unit]))
        q, _ = rl.quotient(algebra, rad)
        assert rl.radical_generic(q).dim == 0, name


def inverse_rows(field, rows):
    """Rows of the inverse of an invertible square matrix, via RREF of [T | I]."""
    n = len(rows)
    aug = [list(r) + [field.one if c == i else field.zero for c in range(n)]
           for i, r in enumerate(rows)]
    red, rank = rref(Matrix(field, aug, 2 * n))
    assert rank == n and all(red.rows[i][i] == field.one for i in range(n))
    return [row[n:] for row in red.rows]


def times(field, vec, rows):
    out = [field.zero] * len(rows[0])
    for c, row in zip(vec, rows):
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, row)]
    return tuple(out)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_radical_follows_a_random_change_of_basis(p):
    # the new structure constants are general field elements, not 0/1, so the
    # integer lifts of the p-power chain are exercised beyond the corpus data
    rng = random.Random(p)
    field = rl.prime_field(p)
    for name in ("m2.gf2", "simplex1", "diamond"):
        algebra = corpus_algebra(name, {"kind": "GF", "p": p})
        n = algebra.dim
        while True:
            new_basis = [[field.random(rng) for _ in range(n)] for _ in range(n)]
            if span(field, n, new_basis).dim == n:
                break
        inv = inverse_rows(field, new_basis)
        mult = [[tuple(sparse(field, times(field, algebra.mul(u, v), inv)).items()) for v in new_basis]
                for u in new_basis]
        changed = rl.Algebra(field, algebra.labels, mult, times(field, algebra.unit, inv))
        assert rl.validate(changed)["valid"]
        expected = span(field, n, [times(field, v, inv) for v in rl.radical(algebra).space.basis])
        assert rl.radical_generic(changed) == expected == _radical_charp(changed), (p, name)


def test_check_nilpotent_on_non_closed_spans(diamond, Q):
    algebra, _ = diamond

    def element(*labels):
        vecs = [basis_by_label(algebra, lab) for lab in labels]
        return [sum(col) for col in zip(*vecs)]

    def one_dim(vec):
        return span(Q, algebra.dim, [vec])

    # ac + cd squares to the length-2 path, so dim J^2 = dim J = 1, yet J^3 = 0
    walk = element("ac", "cd")
    assert not rl.contains(one_dim(walk), algebra.mul(walk, walk))
    assert _check_nilpotent(algebra, one_dim(walk))
    # a + b + ab has powers a + b + k*ab: a new line at every step, never zero
    assert not _check_nilpotent(algebra, one_dim(element("a", "b", "ab")))
    assert _check_nilpotent(algebra, span(Q, algebra.dim, []))


def test_one_pass_radical_decides_qh_and_crosscheck(monkeypatch):
    # over Q and over a prime above the dimension the trace-form kernel is the
    # radical, so the p-power chain must never be reached
    def forbidden(*args, **kwargs):
        raise AssertionError("the p-power chain ran")

    monkeypatch.setattr(algebra_module, "_radical_charp", forbidden)
    for field in (rl.rationals(), rl.prime_field(2147483629)):
        r = rl.build_simplex_algebra(2, field)
        assert rl.heredity_chain_verify(r.frame)["overall"]
        report = rl.characterization_crosscheck(r)
        assert report["overall"] and report["route_reedy"], field
        assert "error" not in report["detail_bimodule"]
        assert "error" not in report["detail_borel_delta"]


def test_radical_charp_agrees_with_char0_on_diamond(diamond, diamond_gf2):
    assert rl.radical(diamond[0]).dim == rl.radical(diamond_gf2[0]).dim == 5


def test_radical_certifies_nilpotency_once(monkeypatch):
    calls = []
    check = algebra_module._check_nilpotent
    monkeypatch.setattr(algebra_module, "_check_nilpotent",
                        lambda a, sub, square=None: calls.append(sub) or check(a, sub, square))
    for algebra in certificate_algebras():
        calls.clear()
        rl.radical(algebra)
        assert len(calls) == 1, algebra


def certificate_algebras():
    algebras = [load_algebra(default_corpus_dir() / f"{name}.alg.json")[0]
                for name in ("diamond.gf2", "m2.gf2", "m2unit.gf3")]
    return algebras + [rl.build_simplex_algebra(2, rl.rationals()).algebra]


def test_radical_forms_k_times_k_once(monkeypatch):
    """Both certificates read one span K*K: the nilpotency chain starts from
    it and the ideal test asks it to lie in K, so each product of two rows
    of K is taken once per radical."""
    real = rl.Algebra.mul_sparse
    products = []
    monkeypatch.setattr(rl.Algebra, "mul_sparse",
                        lambda a, u, w: products.append((id(u), id(w))) or real(a, u, w))
    for algebra in certificate_algebras():
        products.clear()
        rad = rl.radical(algebra).space
        rows = {id(row) for row in rad.rows.values()}
        pairs = [p for p in products if p[0] in rows and p[1] in rows]
        assert len(pairs) == len(set(pairs)) == rad.dim ** 2, algebra


def diamond_with_kernel(monkeypatch, labels):
    """Diamond over Q with the trace-form kernel replaced by the span of
    the basis vectors at ``labels``."""
    algebra, _ = rl.build_quiver_algebra(rl.diamond_presentation(), rl.rationals())
    vectors = [algebra.basis_vector(algebra.labels.index(lab)) for lab in labels]
    monkeypatch.setattr(algebra_module, "_trace_form_kernel",
                        lambda a: span(a.field, a.dim, vectors))
    return algebra


def test_radical_refuses_a_nilpotent_candidate_that_is_no_ideal(monkeypatch):
    # the arrow ab squares to zero, but ab*bd leaves its line
    algebra = diamond_with_kernel(monkeypatch, ["ab"])
    with pytest.raises(rl.AlgebraError, match=r"^radical candidate not an ideal \(unsupported input\)$"):
        rl.radical(algebra)


def test_radical_checks_nilpotency_before_the_ideal(monkeypatch):
    # the vertex a is idempotent, so its line is not nilpotent, nor an ideal
    algebra = diamond_with_kernel(monkeypatch, ["a"])
    assert not rl.AlgSubspace(algebra, algebra_module._trace_form_kernel(algebra)).is_ideal()
    with pytest.raises(rl.AlgebraError, match=r"^radical candidate not nilpotent \(unsupported input\)$"):
        rl.radical(algebra)


# --- elementary and primitivity ----------------------------------------------


def test_is_elementary(diamond, m2q, simplex1, Q):
    algebra, frame = diamond
    assert rl.is_elementary(frame)
    m2, diag = m2q
    unit_frame = rl.IdempotentFrame(m2, [m2.unit], ["one"])
    assert not rl.is_elementary(unit_frame)
    assert not rl.is_elementary(diag)  # M2 is not elementary for any frame
    kk, kk_frame = rl.build_quiver_algebra(rl.QuiverPresentation(["p", "q"], [], [], 1), Q)
    assert rl.is_elementary(kk_frame)
    # k x k has two simple modules, but a zero idempotent indexes none
    assert not rl.is_elementary(rl.IdempotentFrame(kk, [kk.unit, kk.zero_vector()]))
    assert not rl.is_elementary(simplex1.frame)


def _elementary_by_quotient(a, frame):
    """The definition through A/rad(A): |E| dimensions, and a one-dimensional
    corner at the image of every frame idempotent."""
    rad = rl.radical(a)
    if a.dim - rad.dim != len(frame):
        return False
    q, qmap = rl.quotient(a, rad)
    return all(corner_span(q, qmap.project(e), None).dim == 1 for e in frame.idempotents)


def test_is_elementary_matches_quotient_definition(corpus_structures, m2q, simplex1):
    """On A and its subalgebras, with A's frame, against the definition on
    the subalgebra extracted as an algebra (False when E does not lie in it);
    and with below = J, for every ideal J_(l-1) of the level chain of every
    corpus structure and of simplex2 and tensor49 over Q, GF(2) and GF(3),
    against the definition on A/J with the surviving frame."""
    m2, diag = m2q
    cases = [(r.algebra, r.frame) for r in corpus_structures.values()]
    cases += [(m2, diag), (simplex1.algebra, simplex1.frame)]
    seen = set()
    for a, frame in cases:
        subs = [None, rl.full_subalgebra(a), rl.subalgebra_closure(a, [a.unit])]
        subs.append(rl.subalgebra_closure(a, list(frame.idempotents)))
        for r in corpus_structures.values():
            if r.algebra is a:
                subs += [r.aplus, r.aminus]
        for sub in subs:
            if sub is None:
                expected = _elementary_by_quotient(a, frame)
            else:
                extracted = subalgebra_with_frame(sub, frame)
                expected = extracted is not None and _elementary_by_quotient(*extracted)
            assert rl.is_elementary(frame, sub) == expected, (a, sub)
            seen.add(expected)
    assert seen == {True, False}

    structures = list(corpus_structures.values())
    for field in (rl.rationals(), rl.prime_field(2), rl.prime_field(3)):
        s1, s2 = rl.build_simplex_algebra(1, field), rl.build_simplex_algebra(2, field)
        structures += [s2, rl.build_tensor_reedy(s1, s1)]
    seen = set()
    for r in structures:
        for j in level_chain(r.frame.normalized()).ideals[:-1]:
            q, qmap = rl.quotient(r.algebra, j)
            expected = _elementary_by_quotient(q, rl.quotient_frame(r.frame, qmap))
            assert rl.is_elementary(r.frame, below=j.space) == expected, (r, j.dim)
            seen.add(expected)
    assert seen == {True, False}


def test_primitive_idempotents(diamond, m2q):
    algebra, frame = diamond
    for e in frame.idempotents:
        assert rl.is_primitive_idempotent(algebra, e)
    m2, _ = m2q
    assert not rl.is_primitive_idempotent(m2, m2.unit)


# --- tensor products ---------------------------------------------------------


def test_tensor_with_field_is_identity(diamond, Q):
    algebra, _ = diamond
    k_alg, _ = rl.build_quiver_algebra(rl.QuiverPresentation(["pt"], [], [], 1), Q)
    t = rl.tensor_algebras(k_alg, algebra)
    assert t.dim == algebra.dim
    assert rl.validate(t)["valid"]
    assert [row for row in t.mult] == [row for row in algebra.mult]


def test_tensor_of_split_pairs(Q):
    kk, _ = rl.build_quiver_algebra(rl.QuiverPresentation(["p", "q"], [], [], 1), Q)
    t = rl.tensor_algebras(kk, kk)
    assert t.dim == 4
    assert rl.radical(t).dim == 0


def test_tensor_diamond_simplex_dim(diamond, simplex1):
    t = rl.tensor_algebras(diamond[0], simplex1.algebra)
    assert t.dim == 63
    assert rl.validate(t)["valid"]


def test_tensor_field_mismatch(diamond, diamond_gf2):
    with pytest.raises(AlgebraError):
        rl.tensor_algebras(diamond[0], diamond_gf2[0])


def test_tensor_associative_up_to_reindexing(Q, uppertri):
    a, _ = uppertri
    kk, _ = rl.build_quiver_algebra(rl.QuiverPresentation(["p", "q"], [], [], 1), Q)
    left = rl.tensor_algebras(rl.tensor_algebras(a, kk), a)
    right = rl.tensor_algebras(a, rl.tensor_algebras(kk, a))
    assert left.dim == right.dim
    # canonical index bijection ((i,j),k) -> (i,(j,k)) is the identity on
    # flattened indices, so the tables must agree entrywise
    assert left.mult == right.mult
    assert left.unit == right.unit


# --- tensor dimension over a corner ------------------------------------------


def test_tensor_dim_over_unit(diamond, uppertri, simplex1, simplex2, m2q, tensor49):
    """The trivial cuts: e = 1 gives A, e = 0 gives 0."""
    for algebra, frame in (diamond, uppertri, (simplex1.algebra, simplex1.frame),
                           (simplex2.algebra, simplex2.frame), m2q,
                           (tensor49.algebra, tensor49.frame)):
        assert rl.tensor_dim_over_corner(frame, range(len(frame))) == algebra.dim
        assert rl.tensor_dim_over_corner(frame, []) == 0


def test_tensor_dim_uppertri_heredity(uppertri):
    algebra, frame = uppertri
    v1 = frame.index_of("v1")  # target vertex = matrix unit E11
    dim = rl.tensor_dim_over_corner(frame, [v1])
    ideal = rl.ideal_closure(algebra, [frame.idempotents[v1]])
    assert dim == 2 == ideal.dim


def test_tensor_dim_diamond_sink(diamond, Q):
    algebra, frame = diamond
    e_d = frame.idempotents[frame.index_of("d")]
    # path-count oracle: maps into the sink d: e_d, bd, cd, and the long path;
    # out of d only e_d, so dim Ae_d (x)_k e_dA = 4*1 and dim Ae_dA = 4
    into_d = [lab for lab in algebra.labels if lab in ("d", "bd", "cd", "ac*cd")]
    assert len(into_d) == 4
    assert rl.tensor_dim_over_corner(frame, [frame.index_of("d")]) == 4
    assert rl.ideal_closure(algebra, [e_d]).dim == 4


def test_tensor_dim_not_bijective_pins(diamond, diamond_gf2, dualext_a2):
    """Cuts where Ae (x)_eAe eA -> AeA is onto but not injective, so the
    relations never reach the image bound: diamond at e = e_b + e_c, over Q
    and GF(2), and the dual extension of A2 at e = e_b."""
    cases = [(*diamond, ("b", "c"), 8, 7), (*diamond_gf2, ("b", "c"), 8, 7),
             (dualext_a2[1].algebra, dualext_a2[1].frame, ("b",), 5, 4)]
    for algebra, frame, labels, tensor, ideal in cases:
        inside = [frame.index_of(lab) for lab in labels]
        assert rl.tensor_dim_over_corner(frame, inside) == tensor
        assert peirce_two_sided(frame, inside).dim == ideal
        assert rl.ideal_closure(algebra, [frame.sum_of(inside)]).dim == ideal
        assert _tensor_dim_brute_force(algebra, frame.sum_of(inside)) == tensor


def _tensor_dim_brute_force(a, e, below=None):
    """Reference for ``tensor_dim_over_corner``: dim M (x)_C N for M = Ae,
    N = eA and C = eAe (residue rows modulo ``below``), by the rank of the
    balancing relations x r (x) y - x (x) r y over all of M (x) N."""
    f = a.field
    below = below if below is not None else span(f, a.dim, [])
    line = span(f, a.dim, [e])
    m_space = product_span(a, None, line, below)
    n_space = product_span(a, line, None, below)
    dim_m, dim_n = m_space.dim, n_space.dim
    relations = Echelon(f, dim_m * dim_n)
    for r in product_span(a, line, m_space, below).rows.values():
        xr = [m_space.coords(below.reduce(a.mul_sparse(x, r))) for x in m_space.rows.values()]
        ry = [n_space.coords(below.reduce(a.mul_sparse(r, y))) for y in n_space.rows.values()]
        for xi, left in enumerate(xr):
            for yj, right in enumerate(ry):
                vec = {c * dim_n + yj: v for c, v in left.items()}
                add_scaled(f, vec, f.neg(f.one), {xi * dim_n + c: v for c, v in right.items()})
                relations.insert(vec)
    return dim_m * dim_n - relations.dim


def _tensor_cases():
    """Corpus algebras of dim <= 31 with their frames, and simplex2 over GF(2) and GF(3)."""
    for path in sorted(default_corpus_dir().glob("*.alg.json")):
        algebra, frame = load_algebra(path)
        if algebra.dim <= 31:
            yield path.name, algebra, frame
    for p in (2, 3):
        data = read_json(default_corpus_dir() / "simplex2.alg.json")
        data["field"] = {"kind": "GF", "p": p}
        yield f"simplex2-GF{p}", *algebra_from_json(data)


def test_tensor_dim_matches_brute_force_at_every_idempotent_sum():
    """The blockwise form at every frame subset and every ``below``, and
    the coarse split 1 = e + (1 - e) as a two-idempotent frame."""
    for name, algebra, frame in _tensor_cases():
        f, n = algebra.field, len(frame)
        ideals = [rl.ideal_closure(algebra, [e]).space for e in frame.idempotents]
        for size in range(1, n + 1):
            for chosen in combinations(range(n), size):
                e = frame.sum_of(chosen)
                split = rl.IdempotentFrame(
                    algebra, [e, tuple(f.sub(u, x) for u, x in zip(algebra.unit, e))], check=False)
                for below in [None] + [ideals[j] for j in range(n) if j not in chosen]:
                    expected = _tensor_dim_brute_force(algebra, e, below)
                    assert rl.tensor_dim_over_corner(frame, chosen, below) == expected, (name, chosen)
                    assert rl.tensor_dim_over_corner(split, [0], below) == expected, (name, chosen)


def test_tensor_dim_at_unit_inserts_no_relation(monkeypatch, simplex2):
    algebra = simplex2.algebra
    relations = []

    class Counting(Echelon):
        def insert(self, vec):
            if self.ambient_dim != algebra.dim:
                relations.append(vec)
            return super().insert(vec)

    monkeypatch.setattr(algebra_module, "Echelon", Counting)
    assert rl.tensor_dim_over_corner(simplex2.frame, range(len(simplex2.frame))) == algebra.dim
    assert relations == []


def test_tensor_dim_stops_at_the_image_rank(monkeypatch):
    """simplex3 over GF(2147483629) at cut 2: one outside pair, whose
    relations stop at the rank of its image (14,580 relation inserts when
    the whole tensor was one system)."""
    structure = rl.build_simplex_algebra(3, rl.prime_field(2147483629))
    algebra = structure.algebra
    relations = []

    class Counting(Echelon):
        def insert(self, vec):
            if self.ambient_dim != algebra.dim:
                relations.append(vec)
            return super().insert(vec)

    monkeypatch.setattr(algebra_module, "Echelon", Counting)
    report = rl.recursive_check(structure, 2)
    assert report["multiplication_bijective"] and report["equivalence_holds"]
    assert 0 < len(relations) <= 1500


def test_tensor_dim_requires_idempotent(diamond):
    """Only heredity_ideal_check takes an arbitrary element, and it refuses
    one that is not idempotent before any tensor is built."""
    algebra, frame = diamond
    with pytest.raises(AlgebraError):
        rl.heredity_ideal_check(frame, basis_by_label(algebra, "ab"))


# --- tensor over the corner against the balancing oracle ----------------------


CORPUS_ALGEBRAS = [path.name for path in sorted(default_corpus_dir().glob("*.alg.json"))]


def _oracle_frame(name):
    """(A, frame) of a bundled algebra, of simplex3 over GF(3), or of
    simplex3 over Q on a rescaled basis (non-integral constants)."""
    if name == "simplex3-GF3":
        simplex3 = rl.build_simplex_algebra(3, rl.prime_field(3))
        return simplex3.algebra, simplex3.frame
    if name == "simplex3-Q-rescaled":
        simplex3 = rl.build_simplex_algebra(3, rl.rationals())
        cycle = [Fraction(1, 2), Fraction(2, 3), 3, Fraction(5, 4)]
        return rescaled(simplex3, [cycle[i % 4] for i in range(simplex3.algebra.dim)])
    return load_algebra(default_corpus_dir() / name)


@pytest.mark.parametrize("name", CORPUS_ALGEBRAS + ["simplex3-GF3", "simplex3-Q-rescaled"])
def test_tensor_dim_matches_the_balancing_oracle(name):
    """``tensor_dim_over_corner`` against the blockwise balancing system of
    ``tensor_oracle``, at every subset of the frame, with the blocks formed
    and read off A's Peirce table."""
    _, frame = _oracle_frame(name)
    n, table = len(frame), peirce_blocks(frame)
    for size in range(n + 1):
        for inside in combinations(range(n), size):
            expected = balanced_tensor_dim(frame, inside)
            assert rl.tensor_dim_over_corner(frame, inside) == expected, inside
            assert rl.tensor_dim_over_corner(frame, inside, table=table) == expected, inside


def _random_quiver(rng):
    """A quiver on 2 or 3 vertices without loops (up to 2 arrows per ordered
    pair on 2 vertices, 1 on 3), about half its paths of length 2 set to
    zero, and nilpotency bound 2 or 3."""
    n = rng.choice((2, 3))
    vertices = [f"v{i}" for i in range(n)]
    arrows = [(vertices[i], vertices[j], f"a{i}{j}{k}") for i in range(n) for j in range(n)
              if i != j for k in range(rng.randrange(3 if n == 2 else 2))]
    relations = [[("1", (x[2], y[2]))] for x in arrows for y in arrows
                 if x[1] == y[0] and rng.random() < 0.5]
    return rl.QuiverPresentation(vertices, arrows, relations, rng.choice((2, 3)))


def test_tensor_dim_matches_the_balancing_oracle_on_small_quivers():
    """A seeded slice of bound quiver algebras over GF(2) and GF(3), where
    the multiplication Ae (x)_eAe eA -> AeA often fails to be injective:
    every subset of the frame, with every ideal A e_j A (j outside) as
    ``below`` too, and without ``below`` also read off A's Peirce table."""
    rng = random.Random(7)
    refused, cases, failing = 0, 0, 0
    for _ in range(100):
        presentation, field = _random_quiver(rng), rl.prime_field(rng.choice((2, 3)))
        try:
            algebra, frame = rl.build_quiver_algebra(presentation, field)
        except AlgebraError:
            refused += 1
            continue
        n = len(frame)
        ideals = [rl.ideal_closure(algebra, [e]).space for e in frame.idempotents]
        for size in range(n + 1):
            for inside in combinations(range(n), size):
                for below in [None] + [ideals[j] for j in range(n) if j not in inside]:
                    tensor = rl.tensor_dim_over_corner(frame, inside, below)
                    assert tensor == balanced_tensor_dim(frame, inside, below), inside
                    if below is None:
                        table = peirce_blocks(frame)
                        assert rl.tensor_dim_over_corner(frame, inside, table=table) == tensor
                    cases += 1
                    failing += below is None and tensor != peirce_two_sided(frame, inside).dim
    assert (refused, cases, failing) == (19, 1164, 101)


def test_heredity_tensor_dims_match_the_balancing_oracle(monkeypatch):
    """Every tensor a heredity layer asks for, modulo the layer below it,
    under every normalized degree function of each bundled frame with at
    most 4 weights."""
    real, calls = qh_module.tensor_dim_over_corner, []

    def both(frame, inside, below=None):
        tensor = real(frame, inside, below)
        assert tensor == balanced_tensor_dim(frame, inside, below), (frame.degrees, inside)
        calls.append(below is not None)
        return tensor
    monkeypatch.setattr(qh_module, "tensor_dim_over_corner", both)
    for name in CORPUS_ALGEBRAS:
        _, frame = _oracle_frame(name)
        if len(frame) <= 4:
            for degrees in normalized_level_functions(len(frame)):
                rl.heredity_chain_verify(frame.with_degrees(degrees))
    assert (len(calls), sum(calls)) == (458, 319)


# --- product_rank ---------------------------------------------------------------


def _oracle_rank(field, rows, ncols) -> int:
    """Rank by an independent route: sympy over Q, dense rref over GF(p)."""
    if not rows:
        return 0
    if field.characteristic == 0:
        sympy = pytest.importorskip("sympy")
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                             for r in rows]).rank()
    return rl.rref(rl.Matrix(field, rows, ncols))[1]


def _product_rank_cases(a, frame):
    """Peirce-block pairs for every (j, i) and the level ideals A e_0 A, A(e_0+e_1)A."""
    blocks = peirce_blocks(frame)
    n = len(frame)
    bases = [None]
    for k in (1, 2):
        eps = [sum(col) for col in zip(*frame.idempotents[:k])]
        bases.append(rl.ideal_closure(a, [tuple(a.field.of(x) for x in eps)]).space)
    for j in range(n):
        for i in range(n):
            pairs = [(blocks[(j, l)], blocks[(l, i)]) for l in range(n)]
            for base in bases:
                yield pairs, base


@pytest.mark.parametrize("name", ["simplex2", "diamond-Q", "diamond-GF3"])
def test_product_rank_matches_oracle(name, simplex2, diamond, GF3):
    if name == "simplex2":
        a, frame = simplex2.algebra, simplex2.frame
    elif name == "diamond-Q":
        a, frame = diamond
    else:
        a, frame = rl.build_quiver_algebra(rl.diamond_presentation(), GF3)
    f = a.field
    for pairs, base in _product_rank_cases(a, frame):
        products = [a.mul(x, y) for xs, ys in pairs for x in xs.basis for y in ys.basis]
        base_rows = list(base.basis) if base is not None else []
        expected_rank = (_oracle_rank(f, base_rows + products, a.dim)
                         - _oracle_rank(f, base_rows, a.dim))
        expected_domain = sum(xs.dim * ys.dim for xs, ys in pairs)
        assert product_rank(a, pairs, base) == (expected_domain, expected_rank)


# --- product_span and the closures built on it ----------------------------------

SMALL_FIELDS = [rl.rationals(), rl.prime_field(2), rl.prime_field(3)]


def _dense_span(field, rows, n):
    """Canonical rows of a span by the dense reference elimination."""
    if not rows:
        return ()
    reduced, rank = rl.rref(rl.Matrix(field, rows, n))
    return reduced.rows[:rank]


def _random_generators(algebra, rng):
    """Two to four seeded random elements, not all idempotent."""
    while True:
        gens = [random_vector(algebra, rng) for _ in range(rng.randint(2, 4))]
        if not all(algebra.is_idempotent(g) for g in gens):
            return gens


@pytest.mark.parametrize("name", ["diamond", "simplex1"])
@pytest.mark.parametrize("field", SMALL_FIELDS, ids=["Q", "GF2", "GF3"])
def test_product_span_and_ideal_closure_match_dense_brute_force(name, field):
    algebra, _ = small_algebra(name, field)
    f, n = field, algebra.dim
    units = [algebra.basis_vector(k) for k in range(n)]
    rng = random.Random(f"product-span-{name}-{field.characteristic}")
    ideal_dims = set()
    for _ in range(8):
        xs = _random_generators(algebra, rng)
        ys = _random_generators(algebra, rng)
        x, y = span(f, n, xs), span(f, n, ys)
        assert product_span(algebra, x, y).basis == _dense_span(
            f, [algebra.mul(u, v) for u in xs for v in ys], n)
        assert product_span(algebra, None, x).basis == _dense_span(
            f, [algebra.mul(b, u) for b in units for u in xs], n)
        assert product_span(algebra, x, None).basis == _dense_span(
            f, [algebra.mul(u, b) for u in xs for b in units], n)
        ideal = rl.ideal_closure(algebra, xs)
        assert ideal.closure_kind == rl.AlgSubspace.IDEAL
        assert ideal.space.basis == _dense_span(
            f, [algebra.mul(algebra.mul(b, u), c) for b in units for u in xs for c in units], n)
        ideal_dims.add(ideal.dim)
    assert any(0 < d < n for d in ideal_dims)


def _dense_subalgebra_closure(algebra, gens):
    """Fixed point of S <- S + S*S from the unit and the generators, densely."""
    f, n = algebra.field, algebra.dim
    rows = _dense_span(f, [algebra.unit, *gens], n)
    while True:
        grown = _dense_span(f, [*rows, *(algebra.mul(u, v) for u in rows for v in rows)], n)
        if grown == rows:
            return rows
        rows = grown


@pytest.mark.parametrize("name", ["diamond", "simplex1"])
@pytest.mark.parametrize("field", SMALL_FIELDS, ids=["Q", "GF2", "GF3"])
def test_subalgebra_closure_matches_dense_fixed_point(name, field):
    algebra, _ = small_algebra(name, field)
    rng = random.Random(f"subalgebra-{name}-{field.characteristic}")
    dims = set()
    for _ in range(8):
        gens = _random_generators(algebra, rng)[:rng.randint(1, 2)]
        closure = rl.subalgebra_closure(algebra, gens)
        assert closure.closure_kind == rl.AlgSubspace.SUBALGEBRA
        assert closure.space.basis == _dense_subalgebra_closure(algebra, gens)
        dims.add(closure.dim)
    assert any(1 < d < algebra.dim for d in dims)
