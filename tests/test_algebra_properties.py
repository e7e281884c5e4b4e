"""Property tests: ``validate``'s generating-set certificate against the
full scan of every triple, and the triple check against a reference loop.

The corpus algebras of dimension at most 40, over Q, GF(2) and GF(3), with
one or two structure constants changed at random.  Most perturbations break
the algebra, many of them the unit laws, some leave it valid; either way
``validate`` must return the report of the full scan, and ``_associativity_violations``, which decides
most triples by table lookup, must list what ``reference_violations``
lists from the exact sums of both sides.
"""

from itertools import product

import pytest

import reedylab as rl
from reedylab.algebra import _associativity_violations, _word_generators
from reedylab.corpus import default_corpus_dir
from reedylab.linalg import sparse
from reedylab.serialize import load_algebra

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)

ALGEBRAS = [
    a for a in (load_algebra(p)[0] for p in sorted(default_corpus_dir().glob("*.alg.json")))
    if a.dim <= 40
]


def reference_violations(a, firsts, chained=None):
    """The triples (i, j, k) with i in ``firsts`` where (b_i b_j) b_k and
    b_i (b_j b_k) differ, in scan order, each side summed term by term into
    a dict; j runs over ``chained[i]`` and k over ``chained[j]``, by
    default both over every basis index."""
    f = a.field
    if chained is None:
        chained = (range(a.dim),) * a.dim
    violations = []
    for i in firsts:
        row_i = a.mult[i]
        for j in chained[i]:
            ij = row_i[j]
            row_j = a.mult[j]
            for k in chained[j]:
                jk = row_j[k]
                if not ij and not jk:
                    continue
                lhs: dict = {}
                for m, c in ij:
                    for t, d in a.mult[m][k]:
                        val = f.add(lhs.get(t, f.zero), f.mul(c, d))
                        if not val:
                            lhs.pop(t, None)
                        else:
                            lhs[t] = val
                rhs: dict = {}
                for m, c in jk:
                    for t, d in row_i[m]:
                        val = f.add(rhs.get(t, f.zero), f.mul(c, d))
                        if not val:
                            rhs.pop(t, None)
                        else:
                            rhs[t] = val
                if lhs != rhs:
                    violations.append({"kind": "associativity", "triple": (i, j, k)})
    return violations


def full_scan(a):
    """The validate report from every triple: the unit checks, then
    associativity with every basis index first, by the reference loop."""
    f = a.field
    unit = sparse(f, a.unit)
    violations = []
    for i in range(a.dim):
        bi = {i: f.one}
        if a.mul_sparse(unit, bi) != bi:
            violations.append({"kind": "unit-left", "index": i})
        if a.mul_sparse(bi, unit) != bi:
            violations.append({"kind": "unit-right", "index": i})
    violations += reference_violations(a, range(a.dim))
    return {"valid": not violations, "violations": violations}


def test_sample_covers_q_gf2_gf3():
    assert {a.field.characteristic for a in ALGEBRAS} == {0, 2, 3}


@st.composite
def perturbed(draw):
    """A corpus algebra with one or two structure constants c in
    b_i b_j = ... + c b_k replaced by a random scalar (zero included)."""
    a = draw(st.sampled_from(ALGEBRAS))
    f = a.field
    mult = [[dict(pairs) for pairs in row] for row in a.mult]
    for _ in range(draw(st.integers(1, 2))):
        i, j, k = (draw(st.integers(0, a.dim - 1)) for _ in range(3))
        if f.characteristic:
            mult[i][j][k] = draw(st.integers(0, f.characteristic - 1))
        else:
            mult[i][j][k] = f.div(f.of(draw(st.integers(-2, 2))), f.of(draw(st.integers(1, 2))))
    rows = [[tuple(sorted((k, c) for k, c in d.items() if c != f.zero)) for d in row] for row in mult]
    return rl.Algebra(f, a.labels, rows, a.unit)


@st.composite
def one_term_changed(draw):
    """A corpus algebra, every cell of which has at most one term, with one
    or two cells changed in one way each: a term c b_k gets another scalar
    (zero included, kept as a term) or another index, or an empty cell gets
    a term 0 b_k.  ``Algebra`` keeps the zero terms as given."""
    a = draw(st.sampled_from(ALGEBRAS))
    f = a.field
    mult = [list(row) for row in a.mult]
    index = st.integers(0, a.dim - 1)
    for _ in range(draw(st.integers(1, 2))):
        i, j = draw(index), draw(index)
        change = draw(st.sampled_from(("scalar", "index") if mult[i][j] else ("zero",)))
        if change == "zero":
            mult[i][j] = ((draw(index), f.zero),)
            continue
        (k, c), = mult[i][j]
        if change == "index":
            mult[i][j] = ((draw(index), c),)
        elif f.characteristic:
            mult[i][j] = ((k, draw(st.integers(0, f.characteristic - 1))),)
        else:
            mult[i][j] = ((k, f.div(f.of(draw(st.integers(-2, 2))), f.of(draw(st.integers(1, 2))))),)
    return rl.Algebra(f, a.labels, mult, a.unit)


def assert_matches_the_reference(a):
    """``validate`` gives the full scan's report, unit-law violations
    included, and the triple check lists the reference's triples: on the
    certificate's scan when the words span A, and, scanning only the
    chained j and k, on every triple."""
    gens, chained = _word_generators(a, sparse(a.field, a.unit))
    if gens is not None:
        assert (_associativity_violations(a, gens, chained)
                == reference_violations(a, gens, chained))
    assert (_associativity_violations(a, range(a.dim), chained)
            == reference_violations(a, range(a.dim)))
    assert rl.validate(a) == full_scan(a)


@SETTINGS
@hypothesis.given(perturbed())
def test_validate_matches_the_full_scan(a):
    assert_matches_the_reference(a)


@SETTINGS
@hypothesis.given(one_term_changed())
def test_one_term_changes_match_the_reference(a):
    assert_matches_the_reference(a)


@hypothesis.settings(SETTINGS, max_examples=30)
@hypothesis.given(perturbed())
def test_unchained_triples_vanish(a):
    """The lemma behind the graded certificate holds on any table, unit laws
    or not: (b_i b_j) b_k and b_i (b_j b_k) are both 0 unless j is chained
    after i and k after j."""
    f = a.field
    _, chained = _word_generators(a, sparse(f, a.unit))
    basis = [{t: f.one} for t in range(a.dim)]
    prod = [[a.mul_sparse(x, y) for y in basis] for x in basis]
    for i, j, k in product(range(a.dim), repeat=3):
        if ((prod[i][j] and a.mul_sparse(prod[i][j], basis[k]))
                or (prod[j][k] and a.mul_sparse(basis[i], prod[j][k]))):
            assert j in chained[i] and k in chained[j], (i, j, k)


@pytest.mark.parametrize("field", [rl.rationals(), rl.prime_field(3)], ids=["Q", "GF3"])
def test_one_scalar_changed_breaks_only_associativity(field):
    """simplex2 with b_i b_j = 2 b_m in place of b_m, for the maps
    i = [0]->[1]:0 and j = [1]->[0]:00, neither idempotent, and their
    composite m = [1]->[1]:00.  Every cell keeps one term, the unit laws
    hold, the certificate's scan finds a failing triple, and validate gives
    the reference's report."""
    a = rl.build_simplex_algebra(2, field).algebra
    i, j, m = (a.labels.index(x) for x in ("[0]->[1]:0", "[1]->[0]:00", "[1]->[1]:00"))
    assert a.mult[i][j] == ((m, field.one),)
    mult = [list(row) for row in a.mult]
    mult[i][j] = ((m, field.of(2)),)
    bad = rl.Algebra(field, a.labels, mult, a.unit)
    gens, chained = _word_generators(bad, sparse(field, bad.unit))
    assert _associativity_violations(bad, gens, chained)
    report = rl.validate(bad)
    assert report == full_scan(bad)
    assert len(report["violations"]) == 27
    assert all(v["kind"] == "associativity" for v in report["violations"])


def truncated_polynomials(field):
    """k[x]/(x^3) on one vertex with a loop x; dim 3, basis x*x, x, v."""
    pres = rl.QuiverPresentation(["v"], [["v", "v", "x"]], [[("1", ["x", "x", "x"])]],
                                 nilpotency_bound=4)
    return rl.build_quiver_algebra(pres, field)[0]


def test_one_class_grading_scans_every_triple(Q):
    a = truncated_polynomials(Q)
    assert a.dim == 3
    _, chained = _word_generators(a, sparse(Q, a.unit))
    assert all(list(row) == [0, 1, 2] for row in chained)
    assert rl.validate(a) == {"valid": True, "violations": []}


def test_one_class_grading_perturbed_off_the_unit(Q):
    """Every change of one cell (i, j) with i, j off the unit's support to a
    combination of x and x*x keeps the unit laws; validate gives the full
    scan's report, valid or not."""
    a = truncated_polynomials(Q)
    off = [t for t in range(a.dim) if a.unit[t] == Q.zero]
    assert len(off) == 2
    valid = set()
    for i in off:
        for j in off:
            for coeffs in ((0, 0), (1, 0), (0, 1), (1, 1), (2, -1)):
                mult = [list(row) for row in a.mult]
                mult[i][j] = tuple((k, Q.of(c)) for k, c in zip(off, coeffs) if c)
                b = rl.Algebra(Q, a.labels, mult, a.unit)
                report = rl.validate(b)
                assert report == full_scan(b)
                valid.add(report["valid"])
    assert valid == {True, False}
