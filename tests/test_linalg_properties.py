"""Property tests: the sparse echelon engine against dense and sympy oracles.

Random matrices up to 12 x 12 over Q, GF(2) and GF(3), mostly zeros so that
pivots, free columns and empty rows all occur.  Rational entries are drawn
through ``Q.of``, so they mix ints and Fractions as the package's do.
"""

from fractions import Fraction

import pytest

import reedylab as rl
from reedylab.linalg import Echelon, Matrix, span, sparse

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = {"Q": rl.rationals(), "GF2": rl.prime_field(2), "GF3": rl.prime_field(3)}
SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def scalars(draw, field):
    if draw(st.integers(0, 2)):
        return field.zero
    if field.characteristic:
        return field.of(draw(st.integers(1, field.characteristic - 1)))
    return field.of(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))


@st.composite
def matrices(draw, field, max_rows=12, max_cols=12):
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(1, max_rows))
    return [[draw(scalars(field)) for _ in range(ncols)] for _ in range(nrows)]


field_names = st.sampled_from(sorted(FIELDS))


def dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        if a != field.zero and b != field.zero:
            acc = field.add(acc, field.mul(a, b))
    return acc


def dense_solve(field, basis, vec):
    """Coefficients x with sum x_t * basis[t] = vec by dense RREF of the
    augmented transposed system, or None when there is none."""
    n = len(vec)
    if not basis:
        return () if all(x == field.zero for x in vec) else None
    k = len(basis)
    aug = Matrix(field, [[b[c] for b in basis] + [vec[c]] for c in range(n)])
    red, rank = rl.rref(aug)
    rows = red.rows[:rank]
    if any(row[k] != field.zero and all(x == field.zero for x in row[:k]) for row in rows):
        return None
    # the basis is independent, so the pivots are the columns 0..k-1 in order
    return tuple(rows[t][k] for t in range(k))


@SETTINGS
@hypothesis.given(st.data())
def test_span_basis_is_the_nonzero_rref_rows(data):
    field = FIELDS[data.draw(field_names)]
    rows = data.draw(matrices(field))
    red, rank = rl.rref(Matrix(field, rows))
    assert span(field, len(rows[0]), rows).basis == red.rows[:rank]


@SETTINGS
@hypothesis.given(st.data())
def test_kernel_matches_sympy_nullspace(data):
    sympy = pytest.importorskip("sympy")
    field = FIELDS["Q"]
    rows = data.draw(matrices(field))
    ncols = len(rows[0])
    null = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
    expected = span(field, ncols, [
        [field.of(Fraction(int(x.p), int(x.q))) for x in col] for col in null.nullspace()
    ])
    assert rl.kernel(Matrix(field, rows)) == expected


@SETTINGS
@hypothesis.given(st.data())
def test_kernel_rows_are_annihilated(data):
    field = FIELDS[data.draw(field_names)]
    rows = data.draw(matrices(field))
    ker = rl.kernel(Matrix(field, rows))
    _, rank = rl.rref(Matrix(field, rows))
    assert ker.dim + rank == len(rows[0])
    for v in ker.basis:
        assert all(dot(field, r, v) == field.zero for r in rows)


@SETTINGS
@hypothesis.given(st.data())
def test_reduce_coords_contains_match_a_dense_solve(data):
    field = FIELDS[data.draw(field_names)]
    rows = data.draw(matrices(field, max_rows=6))
    n = len(rows[0])
    u = span(field, n, rows)
    basis = u.basis
    inside = [field.zero] * n
    for b in basis:
        c = data.draw(scalars(field))
        inside = [field.add(x, field.mul(c, y)) for x, y in zip(inside, b)]
    outside = [data.draw(scalars(field)) for _ in range(n)]
    for vec in (tuple(inside), tuple(outside)):
        solution = dense_solve(field, basis, vec)
        sv = sparse(field, vec)
        assert u.contains(sv) == (solution is not None) == rl.contains(u, vec)
        coords = u.coords(sv)
        if solution is None:
            assert coords is None
        else:
            assert coords == sparse(field, solution)
        residue = u.reduce(sv)
        assert not set(residue) & set(u.pivots())
        # vec - residue lies in u, which with zero pivots makes the residue unique
        diff = [field.sub(x, residue.get(c, field.zero)) for c, x in enumerate(vec)]
        assert dense_solve(field, basis, diff) is not None
        assert (not residue) == (solution is not None)


@SETTINGS
@hypothesis.given(st.data())
def test_seeded_echelon_equals_reinserting_the_basis(data):
    field = FIELDS[data.draw(field_names)]
    rows = data.draw(matrices(field))
    n = len(rows[0])
    u = span(field, n, rows[: len(rows) // 2])
    extra = [sparse(field, r) for r in rows[len(rows) // 2:]]
    seeded = Echelon(field, n, u)
    fresh = Echelon(field, n)
    for v in u.basis:
        fresh.insert(sparse(field, v))
    assert seeded.rows == fresh.rows
    for v in extra:
        assert seeded.insert(v) == fresh.insert(v)
    assert seeded.to_subspace() == fresh.to_subspace() == span(field, n, rows)
    assert u == span(field, n, rows[: len(rows) // 2])  # seeding copied u's rows
