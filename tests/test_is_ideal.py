"""``AlgSubspace.is_ideal`` against the loop over every basis vector.

``is_ideal`` multiplies X by its own rows (span(X*X) in X) and by the unit
vectors at the coordinates off X's pivots only, which together span A.
The oracle below is the earlier test: every row of X times every basis
vector b_k, on both sides.
"""

from pathlib import Path

import pytest

import reedylab as rl
from reedylab.algebra import _unit_products, peirce_two_sided, product_span
from reedylab.corpus import default_corpus_dir
from reedylab.linalg import full_space, span
from reedylab.serialize import load_algebra, load_reedy

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)

CORPUS = Path(default_corpus_dir())


def ideal_by_every_unit(sub: rl.AlgSubspace) -> bool:
    """Whether b_k*v and v*b_k lie in X for every row v of X and every basis
    vector b_k of A: 2 * dim A * dim X products."""
    a = sub.algebra
    f = a.field
    units = [{k: f.one} for k in range(a.dim)]
    return all(
        not prod or sub.space.contains(prod)
        for v in sub.space.rows.values()
        for bk in units
        for prod in (a.mul_sparse(bk, v), a.mul_sparse(v, bk))
    )


def corpus_cases():
    """(name, AlgSubspace): the radical and the ideal closure of each frame
    idempotent of every bundled algebra; A+, A- and AeA at each cut of
    every bundled structure."""
    cases = []
    for path in sorted(CORPUS.glob("*.alg.json")):
        algebra, frame = load_algebra(path)
        cases.append((f"{path.name}:rad", rl.radical(algebra)))
        for label, e in zip(frame.labels, frame.idempotents):
            cases.append((f"{path.name}:A{label}A", rl.ideal_closure(algebra, [e])))
    for path in sorted(CORPUS.glob("*.reedy.json")):
        r = load_reedy(path)
        cases += [(f"{path.name}:A+", r.aplus), (f"{path.name}:A-", r.aminus)]
        levels = r.frame.normalized().degrees
        for cut in sorted(set(levels)):
            inside = [i for i, level in enumerate(levels) if level <= cut]
            space = peirce_two_sided(r.frame, inside)
            cases.append((f"{path.name}:AeA@{cut}", rl.AlgSubspace(r.algebra, space)))
    return cases


def test_is_ideal_matches_every_unit_on_the_corpus():
    outcomes = set()
    for name, sub in corpus_cases():
        verdict = sub.is_ideal()
        assert verdict == ideal_by_every_unit(sub), name
        outcomes.add(verdict)
    assert outcomes == {True, False}


def test_is_ideal_reads_a_given_square(monkeypatch, diamond):
    """With span(X*X) passed in, the verdict is the same and ``is_ideal``
    calls no ``mul_sparse``: it neither forms X*X again nor multiplies by
    the unit vectors that way."""
    algebra, frame = diamond
    calls = []
    real = rl.Algebra.mul_sparse
    for sub in (rl.radical(algebra), rl.ideal_closure(algebra, [frame.idempotents[0]]),
                rl.subalgebra_closure(algebra, frame.idempotents)):
        square = product_span(algebra, sub.space, sub.space)
        expected = ideal_by_every_unit(sub)
        assert sub.is_ideal() == expected
        monkeypatch.setattr(rl.Algebra, "mul_sparse", lambda *args: calls.append(args) or real(*args))
        assert sub.is_ideal(square) == expected
        monkeypatch.undo()
    assert calls == []


def two_dim_algebra(field):
    """k[x]/(x^2) on the basis (x, 1), so the unit sits off the pivot of any
    line through x + 1."""
    f = field
    mult = [[(), ((0, f.one),)], [((0, f.one),), ((1, f.one),)]]
    return rl.Algebra(f, ["x", "1"], mult, [f.zero, f.one])


def test_a_line_failing_only_off_pivot_units(diamond):
    """The arrow ab spans a line with ab*ab = 0, so span(X*X) lies in X; it
    fails only at unit vectors off its pivot, such as the arrow bd."""
    algebra, _ = diamond
    f = algebra.field
    arrow = algebra.labels.index("ab")
    sub = rl.AlgSubspace(algebra, span(f, algebra.dim, [algebra.basis_vector(arrow)]))
    assert sub.is_multiplicatively_closed()
    assert not sub.is_ideal() and not ideal_by_every_unit(sub)


@pytest.mark.parametrize("p", [0, 3])
def test_a_line_failing_only_its_square(p):
    """x + 1 in k[x]/(x^2), basis (x, 1): the only coordinate off its pivot is
    the unit's, whose products stay in the line, but (x + 1)^2 = 1 + 2x does
    not (over Q and GF(3))."""
    field = rl.rationals() if p == 0 else rl.prime_field(p)
    algebra = two_dim_algebra(field)
    assert rl.validate(algebra)["valid"]
    sub = rl.AlgSubspace(algebra, span(field, 2, [[field.one, field.one]]))
    assert sub.space.complement_coords() == (1,)
    units = list(_unit_products(algebra, sub.space.rows.values(), (1,)))
    assert units and all(sub.space.contains(prod) for prod in units)
    assert not sub.is_multiplicatively_closed()
    assert not sub.is_ideal() and not ideal_by_every_unit(sub)


def test_zero_and_full_subspaces_are_ideals(diamond, simplex1):
    for algebra in (diamond[0], simplex1.algebra, two_dim_algebra(rl.prime_field(2))):
        f, n = algebra.field, algebra.dim
        for space in (span(f, n, []), full_space(f, n)):
            sub = rl.AlgSubspace(algebra, space)
            assert sub.is_ideal() and ideal_by_every_unit(sub)


def small_algebras():
    out = []
    for field in (rl.rationals(), rl.prime_field(2), rl.prime_field(3)):
        out.append(rl.build_quiver_algebra(rl.diamond_presentation(), field)[0])
        out.append(rl.build_quiver_algebra(rl.a2_presentation(), field)[0])
        out.append(rl.build_simplex_algebra(1, field).algebra)
        out.append(rl.build_matrix_algebra(2, field))
        out.append(two_dim_algebra(field))
    return out


ALGEBRAS = small_algebras()


@st.composite
def subspaces(draw):
    """A span of up to three sparse vectors with small coefficients in a
    small algebra over Q, GF(2) or GF(3), taken as is or closed up to an
    ideal or a subalgebra."""
    a = draw(st.sampled_from(ALGEBRAS))
    f = a.field
    vectors = []
    for _ in range(draw(st.integers(0, 3))):
        vec = [f.zero] * a.dim
        for _ in range(draw(st.integers(1, 3))):
            vec[draw(st.integers(0, a.dim - 1))] = f.of(draw(st.integers(-2, 2)))
        vectors.append(vec)
    kind = draw(st.sampled_from(("span", "ideal", "subalgebra")))
    if kind == "ideal":
        return rl.ideal_closure(a, vectors)
    if kind == "subalgebra":
        return rl.subalgebra_closure(a, vectors)
    return rl.AlgSubspace(a, span(f, a.dim, vectors))


def test_sample_covers_q_gf2_gf3():
    assert {a.field.characteristic for a in ALGEBRAS} == {0, 2, 3}


@SETTINGS
@hypothesis.given(subspaces())
def test_is_ideal_matches_every_unit_on_random_subspaces(sub):
    assert sub.is_ideal() == ideal_by_every_unit(sub)
