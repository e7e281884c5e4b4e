"""Exact linear algebra kernel: canonical forms, kernels, subspace arithmetic."""

import random
from fractions import Fraction
from itertools import product

import pytest

import reedylab as rl
from reedylab.linalg import Matrix, span


def mat(field, rows, ncols=None):
    return Matrix(field, rows, ncols)


def random_matrix(field, rng, nrows, ncols):
    return Matrix(field, [[field.random(rng) for _ in range(ncols)] for _ in range(nrows)])


# --- rref -------------------------------------------------------------------


def test_rref_proportional_rows(Q):
    red, rank = rl.rref(mat(Q, [[2, 4], [1, 2]]))
    assert rank == 1
    assert red.rows == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)))


def test_rref_identity_gf2(GF2):
    ident = mat(GF2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    red, rank = rl.rref(ident)
    assert rank == 3 and red.rows == ident.rows


def test_rref_gf2_hand_reduction(GF2):
    # oracle: row2 += row1, then row1 += new row2, over GF(2)
    m = [[1, 1], [1, 0]]
    r1, r2 = m
    r2 = [(a + b) % 2 for a, b in zip(r2, r1)]          # (0, 1)
    r1 = [(a + b) % 2 for a, b in zip(r1, r2)]          # (1, 0)
    expected = (tuple(r1), tuple(r2))
    red, rank = rl.rref(mat(GF2, m))
    assert rank == 2 and red.rows == expected


def test_rref_idempotent(Q, GF3):
    rng = random.Random(7)
    for field in (Q, GF3):
        for _ in range(50):
            m = random_matrix(field, rng, rng.randint(1, 6), rng.randint(1, 6))
            red, _ = rl.rref(m)
            red2, _ = rl.rref(red)
            assert red2.rows == red.rows


# --- kernel -------------------------------------------------------------------


def test_kernel_single_relation(Q):
    ker = rl.kernel(mat(Q, [[1, 2]]))
    assert ker.basis == ((Fraction(1), Fraction(-1, 2)),)


def test_kernel_identity_is_zero(Q):
    ker = rl.kernel(mat(Q, [[1, 0], [0, 1]]))
    assert ker.dim == 0


def test_kernel_gf2_by_enumeration(GF2):
    m = mat(GF2, [[1, 1, 0], [0, 1, 1]])
    # oracle: enumerate all 8 vectors of GF(2)^3
    solutions = [
        v
        for v in product((0, 1), repeat=3)
        if all(sum(r * x for r, x in zip(row, v)) % 2 == 0 for row in m.rows)
    ]
    nonzero = [v for v in solutions if any(v)]
    assert nonzero == [(1, 1, 1)]
    ker = rl.kernel(m)
    assert ker.dim == 1 and ker.basis == ((1, 1, 1),)


def test_rank_nullity_randomized(Q, GF2):
    rng = random.Random(11)
    for field in (Q, GF2):
        for _ in range(100):
            m = random_matrix(field, rng, rng.randint(1, 7), rng.randint(1, 7))
            _, rank = rl.rref(m)
            assert rank + rl.kernel(m).dim == m.ncols


# --- subspace arithmetic ---------------------------------------------------


def e(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


def test_sum_of_axes(Q):
    u = span(Q, 3, [e(Q, 3, 0)])
    v = span(Q, 3, [e(Q, 3, 1)])
    total = rl.subspace_sum(u, v)
    assert total.dim == 2 and total.basis == (e(Q, 3, 0), e(Q, 3, 1))


def test_sum_idempotent(Q):
    u = span(Q, 3, [(1, 2, 3), (0, 1, 1)])
    assert rl.subspace_sum(u, u) == u


def test_sum_two_lines_full_plane(Q):
    u = span(Q, 2, [(1, 1)])
    v = span(Q, 2, [(1, -1)])
    assert rl.subspace_sum(u, v).dim == 2


def test_intersect_axes(Q):
    u = span(Q, 3, [e(Q, 3, 0), e(Q, 3, 1)])
    v = span(Q, 3, [e(Q, 3, 1), e(Q, 3, 2)])
    inter = rl.subspace_intersect(u, v)
    assert inter.basis == (e(Q, 3, 1),)


def test_intersect_self(Q):
    u = span(Q, 4, [(1, 0, 2, 0), (0, 1, 1, 1)])
    assert rl.subspace_intersect(u, u) == u


def test_intersect_dimension_formula_random_planes(Q):
    rng = random.Random(23)
    for _ in range(40):
        u = span(Q, 4, [[Q.random(rng) for _ in range(4)] for _ in range(2)])
        v = span(Q, 4, [[Q.random(rng) for _ in range(4)] for _ in range(2)])
        s = rl.subspace_sum(u, v)
        i = rl.subspace_intersect(u, v)
        assert s.dim == u.dim + v.dim - i.dim


def test_contains(Q):
    u = span(Q, 2, [e(Q, 2, 0)])
    assert rl.contains(u, e(Q, 2, 0))
    assert not rl.contains(u, e(Q, 2, 1))
    w = span(Q, 2, [(1, 1), (0, 2)])
    # oracle: solve a*(1,1) + b*(0,2) = (3,5) -> a=3, b=1
    assert rl.contains(w, (Fraction(3), Fraction(5)))


def test_contains_length_mismatch(Q):
    u = span(Q, 2, [e(Q, 2, 0)])
    with pytest.raises(ValueError):
        rl.contains(u, (1, 0, 0))


def test_span_rejects_wrong_length_vectors(Q):
    with pytest.raises(ValueError):
        span(Q, 3, [(1, 0, 0), (1, 2)])


def test_ambient_mismatch_raises(Q):
    u = span(Q, 2, [(1, 0)])
    v = span(Q, 3, [(1, 0, 0)])
    with pytest.raises(ValueError):
        rl.subspace_sum(u, v)
    with pytest.raises(ValueError):
        rl.subspace_intersect(u, v)


def test_canonical_form_independent_of_presentation(Q, GF2):
    rng = random.Random(5)
    for field in (Q, GF2):
        for _ in range(40):
            n = rng.randint(2, 5)
            gens = [[field.random(rng) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            u = span(field, n, gens)
            shuffled = list(gens)
            rng.shuffle(shuffled)
            # also mix in a random combination of the generators
            if len(gens) >= 2:
                combo = [field.add(a, b) for a, b in zip(gens[0], gens[1])]
                shuffled.append(combo)
            assert span(field, n, shuffled) == u


def test_modular_law_randomized(Q, GF2):
    # dim(U + V) + dim(U cap V) == dim U + dim V over both field kinds
    rng = random.Random(31)
    for field in (Q, GF2):
        for _ in range(60):
            n = rng.randint(2, 5)
            u = span(field, n, [[field.random(rng) for _ in range(n)] for _ in range(rng.randint(1, 3))])
            v = span(field, n, [[field.random(rng) for _ in range(n)] for _ in range(rng.randint(1, 3))])
            assert (
                rl.subspace_sum(u, v).dim + rl.subspace_intersect(u, v).dim
                == u.dim + v.dim
            )


def test_subspace_equality_is_basis_identity(Q):
    u = span(Q, 2, [(2, 4)])
    v = span(Q, 2, [(1, 2)])
    assert u == v
    assert u.basis == ((Fraction(1), Fraction(2)),)
