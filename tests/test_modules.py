"""Module representations: axioms, induction, restriction, projectivity."""

import pytest

import reedylab as rl
from reedylab.algebra import AlgebraError
from reedylab.modules import (
    _matmul,
    projective_module,
    quotient_module,
    regular_module,
)


def test_regular_modules_satisfy_axioms(diamond, uppertri):
    for algebra, _ in (diamond, uppertri):
        for side in ("left", "right"):
            assert regular_module(algebra, side).validate()["valid"]


def test_projective_column_modules(diamond):
    algebra, frame = diamond
    dims = []
    for e in frame.idempotents:
        module, carrier = projective_module(algebra, e, "left")
        assert module.validate()["valid"]
        dims.append(carrier.dim)
    assert dims == [4, 2, 2, 1]  # paths out of a, b, c, d


def test_quotient_module_by_radical(diamond):
    algebra, frame = diamond
    module, _ = projective_module(algebra, frame.idempotents[0], "left")
    radm = module.radical_submodule()
    top, _ = quotient_module(module, radm)
    assert top.validate()["valid"]
    assert top.dim == 1
    assert module.comp_dim_vector(frame) == (1, 1, 1, 1)
    assert module.top_multiplicities(frame) == (1, 0, 0, 0)


def test_simple_modules_one_dimensional(diamond):
    algebra, frame = diamond
    for i in range(len(frame)):
        simple = rl.simple_module(algebra, frame, i)
        assert simple.dim == 1
        assert simple.comp_dim_vector(frame) == tuple(
            1 if j == i else 0 for j in range(len(frame))
        )


def test_simple_module_requires_elementary(simplex1):
    with pytest.raises(AlgebraError):
        rl.simple_module(simplex1.algebra, simplex1.frame, 0)


# --- induction ------------------------------------------------------------


def test_induction_along_full_algebra_is_identity(uppertri):
    algebra, frame = uppertri
    full = rl.full_subalgebra(algebra)
    module, _ = projective_module(algebra, frame.idempotents[0], "left")
    induced = rl.induce_module(algebra, full, module)
    assert induced.dim == module.dim
    # canonical isomorphism a (x) m -> am intertwines the actions
    f = algebra.field
    sub_alg, rows = full.extracted()
    # projection matrix from induced coordinates (pairs) to module coordinates
    rel_dim = algebra.dim * module.dim
    comp = _recover_complement(algebra, full, module)
    assert len(comp) == module.dim
    cols = []
    for c in comp:
        ai, mj = divmod(c, module.dim)
        cols.append(tuple(row[mj] for row in module.actions[ai]))  # b_ai acting on m_mj
    proj = tuple(
        tuple(cols[j][r] for j in range(len(comp))) for r in range(module.dim)
    )
    for k in range(algebra.dim):
        lhs = _matmul(f, proj, induced.actions[k]) if module.dim == len(comp) else None
        rhs = _matmul(f, module.actions[k], proj) if module.dim == len(comp) else None
        assert lhs == rhs


def _recover_complement(algebra, b_sub, module):
    # mirror of the relation-span construction inside induce_module
    from reedylab.linalg import Echelon

    f = algebra.field
    sub_alg, rows = b_sub.extracted()  # the sparse rows of the subspace
    rel = Echelon(f, algebra.dim * module.dim)
    for bi, sb in enumerate(rows):
        bmat = module.actions[bi]
        for ai in range(algebra.dim):
            ab = algebra.mul_sparse({ai: f.one}, sb)
            for mj in range(module.dim):
                vec = {}
                for c, x in ab.items():
                    vec[c * module.dim + mj] = x
                for r in range(module.dim):
                    coeff = bmat[r][mj]
                    if coeff != f.zero:
                        key = ai * module.dim + r
                        val = f.sub(vec.get(key, f.zero), coeff)
                        if val == f.zero:
                            vec.pop(key, None)
                        else:
                            vec[key] = val
                if vec:
                    rel.insert(vec)
    return rel.to_subspace().complement_coords()


def test_induction_from_diagonal_subalgebra(uppertri):
    algebra, frame = uppertri
    diag = rl.subalgebra_closure(algebra, list(frame.idempotents))
    sub_alg, _ = diag.extracted()
    sub_frame = rl.IdempotentFrame(
        sub_alg, [diag.restrict_vector(e) for e in frame.idempotents], frame.labels
    )
    # v1 is the matrix-unit E11 vertex: its column A*e_v1 is one-dimensional
    i = frame.index_of("v1")
    simple = rl.simple_module(sub_alg, sub_frame, i)
    induced = rl.induce_module(algebra, diag, simple)
    assert induced.dim == 1
    _, carrier = projective_module(algebra, frame.idempotents[i], "left")
    assert carrier.dim == 1


def test_induction_from_vertex_span_gives_projectives(diamond):
    algebra, frame = diamond
    s = rl.subalgebra_closure(algebra, list(frame.idempotents))
    sub_alg, _ = s.extracted()
    sub_frame = rl.IdempotentFrame(
        sub_alg, [s.restrict_vector(e) for e in frame.idempotents], frame.labels
    )
    i = frame.index_of("a")
    induced = rl.induce_module(algebra, s, rl.simple_module(sub_alg, sub_frame, i))
    assert induced.dim == 4
    assert induced.validate()["valid"]
    assert induced.comp_dim_vector(frame) == (1, 1, 1, 1)


def test_induction_blockwise_formula_over_semisimple(diamond):
    # dim(A (x)_S M) = sum_i dim(Ae_i) * dim(e_i M) for S the vertex span
    algebra, frame = diamond
    s = rl.subalgebra_closure(algebra, list(frame.idempotents))
    sub_alg, _ = s.extracted()
    sub_frame = rl.IdempotentFrame(
        sub_alg, [s.restrict_vector(e) for e in frame.idempotents], frame.labels
    )
    reg = regular_module(sub_alg, "left")
    induced = rl.induce_module(algebra, s, reg)
    proj_dims = [projective_module(algebra, e, "left")[1].dim for e in frame.idempotents]
    block_dims = reg.comp_dim_vector(sub_frame)
    assert induced.dim == sum(p * b for p, b in zip(proj_dims, block_dims))


def test_induction_requires_subalgebra_flag(diamond):
    algebra, frame = diamond
    not_sub = rl.plain_subspace(algebra, [frame.idempotents[0]])
    module, _ = projective_module(algebra, frame.idempotents[0], "left")
    with pytest.raises(AlgebraError):
        rl.induce_module(algebra, not_sub, module)


# --- projectivity ----------------------------------------------------------


def test_projectives_are_projective(diamond):
    algebra, frame = diamond
    for e in frame.idempotents:
        module, _ = projective_module(algebra, e, "left")
        assert rl.is_projective_module(module, frame)


def test_simple_at_sink_not_projective(diamond):
    algebra, frame = diamond
    # L(d) has dim 1 but P(d) sits inside longer columns; compare with P(a)
    i = frame.index_of("a")
    simple = rl.simple_module(algebra, frame, i)
    assert not rl.is_projective_module(simple, frame)


def test_everything_projective_over_semisimple(uppertri):
    algebra, frame = uppertri
    diag = rl.subalgebra_closure(algebra, list(frame.idempotents))
    sub_alg, _ = diag.extracted()
    sub_frame = rl.IdempotentFrame(
        sub_alg, [diag.restrict_vector(e) for e in frame.idempotents], frame.labels
    )
    # the radical column rad(P) restricted to the diagonal subalgebra
    rad = rl.radical(algebra)
    module = rl.restrict_module(
        rl.module_from_subspace(algebra, rad.space, "left"), diag
    )
    assert rl.is_projective_module(module, sub_frame)


def test_projectivity_requires_elementary(simplex1):
    module = regular_module(simplex1.algebra, "left")
    with pytest.raises(AlgebraError):
        rl.is_projective_module(module, simplex1.frame)
