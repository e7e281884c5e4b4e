"""Property tests: ``validate``'s generating-set certificate against the
full scan of every triple.

The corpus algebras of dimension at most 40, over Q, GF(2) and GF(3), with
one or two structure constants changed at random.  Most perturbations break
the algebra, some leave it valid; either way ``validate`` must return the
report of the full scan.
"""

import pytest

import reedylab as rl
from reedylab.algebra import _associativity_violations
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


def full_scan(a):
    """The validate report from every triple: the unit checks, then
    associativity with every basis index first."""
    f = a.field
    unit = sparse(f, a.unit)
    violations = []
    for i in range(a.dim):
        bi = {i: f.one}
        if a.mul_sparse(unit, bi) != bi:
            violations.append({"kind": "unit-left", "index": i})
        if a.mul_sparse(bi, unit) != bi:
            violations.append({"kind": "unit-right", "index": i})
    violations += _associativity_violations(a, range(a.dim))
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
    rows = [[sorted((k, c) for k, c in d.items() if c != f.zero) for d in row] for row in mult]
    return rl.Algebra(f, a.labels, rows, a.unit)


@SETTINGS
@hypothesis.given(perturbed())
def test_validate_matches_the_full_scan(a):
    assert rl.validate(a) == full_scan(a)
