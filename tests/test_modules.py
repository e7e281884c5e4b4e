"""Modules as subquotients: invariants, induction, restriction, projectivity,
and agreement with the dense action-matrix oracle."""

import pytest

import dense_modules as dense
import reedylab as rl
from reedylab.algebra import AlgebraError
from reedylab.modules import projective_module, quotient_module, regular_module
from reedylab.qh import layer_quotient_module, level_chain, trace_subspace


def test_regular_module_invariants(diamond, uppertri):
    algebra, frame = diamond
    # e_j A is spanned by the paths ending at j, A e_j by those starting there
    assert regular_module(algebra, "left").comp_dim_vector(frame) == (1, 2, 2, 4)
    assert regular_module(algebra, "right").comp_dim_vector(frame) == (4, 2, 2, 1)
    for algebra, frame in (diamond, uppertri):
        for side in ("left", "right"):
            module = regular_module(algebra, side)
            assert module.dim == algebra.dim
            assert module.top_multiplicities(frame) == (1,) * len(frame)
            assert rl.is_projective_module(module, frame)
            oracle = dense.regular(algebra, side)
            assert dense.invariants(module, frame) == dense.invariants(oracle, frame)


def test_projective_column_modules(diamond):
    algebra, frame = diamond
    dims = []
    for side in ("left", "right"):
        for e in frame.idempotents:
            module = projective_module(algebra, e, side)
            oracle, carrier = dense.projective(algebra, e, side)
            assert module.carrier == carrier
            assert dense.invariants(module, frame) == dense.invariants(oracle, frame)
            dims.append(module.dim)
    assert dims == [4, 2, 2, 1, 1, 2, 2, 4]  # paths out of, then into, a, b, c, d


def test_quotient_module_by_radical(diamond):
    algebra, frame = diamond
    module = projective_module(algebra, frame.idempotents[0], "left")
    radm = module.radical_submodule()
    top = quotient_module(module, radm)
    assert top.dim == 1
    assert top.comp_dim_vector(frame) == top.top_multiplicities(frame) == (1, 0, 0, 0)
    assert module.comp_dim_vector(frame) == (1, 1, 1, 1)
    assert module.top_multiplicities(frame) == (1, 0, 0, 0)


def test_simple_modules_one_dimensional(diamond):
    algebra, frame = diamond
    for i in range(len(frame)):
        simple = rl.simple_module(frame, i)
        assert simple.dim == 1
        assert simple.comp_dim_vector(frame) == tuple(
            1 if j == i else 0 for j in range(len(frame))
        )


def test_simple_module_requires_elementary(simplex1):
    with pytest.raises(AlgebraError):
        rl.simple_module(simplex1.frame, 0)


# --- induction ------------------------------------------------------------


def test_induction_along_full_algebra_is_identity(uppertri, diamond):
    # A (x)_A (Ae/K) = Ae/AK = Ae/K: the same subquotient of A
    for algebra, frame in (uppertri, diamond):
        full = rl.full_subalgebra(algebra)
        for e in frame.idempotents:
            module = projective_module(algebra, e, "left")
            for m in (module, quotient_module(module, module.radical_submodule())):
                induced = rl.induce_module(algebra, full, m)
                assert (induced.carrier, induced.killed) == (m.carrier, m.killed)
                oracle = dense.induce(algebra, full, _dense_copy(m))
                assert dense.invariants(induced, frame) == dense.invariants(oracle, frame)


def _dense_copy(m):
    """The dense oracle's version of a quotient of a projective module."""
    dproj, carrier = dense.projective(m.ambient, m.line, m.side)
    return dense.quotient(dproj, carrier.coords_span(m.killed))


def test_induction_from_diagonal_subalgebra(uppertri):
    algebra, frame = uppertri
    diag = rl.subalgebra_closure(algebra, list(frame.idempotents))
    # v1 is the matrix-unit E11 vertex: its column A*e_v1 is one-dimensional
    i = frame.index_of("v1")
    simple = rl.simple_module(frame, i, sub=diag)
    assert (simple.acting, simple.dim) == (diag, 1)
    induced = rl.induce_module(algebra, diag, simple)
    assert induced.dim == 1
    assert projective_module(algebra, frame.idempotents[i], "left").dim == 1


def test_induction_from_vertex_span_gives_projectives(diamond):
    algebra, frame = diamond
    s = rl.subalgebra_closure(algebra, list(frame.idempotents))
    i = frame.index_of("a")
    induced = rl.induce_module(algebra, s, rl.simple_module(frame, i, sub=s))
    assert induced.dim == 4
    assert induced.carrier == projective_module(algebra, frame.idempotents[i], "left").carrier
    assert induced.comp_dim_vector(frame) == (1, 1, 1, 1)


def test_induction_blockwise_formula_over_semisimple(diamond):
    # dim(A (x)_S M) = sum_i dim(Ae_i) * dim(e_i M) for S the vertex span
    algebra, frame = diamond
    s = rl.subalgebra_closure(algebra, list(frame.idempotents))
    reg = projective_module(algebra, algebra.unit, "left", sub=s)  # S as a left S-module
    assert reg.carrier == s.space
    induced = rl.induce_module(algebra, s, reg)
    proj_dims = [projective_module(algebra, e, "left").dim for e in frame.idempotents]
    block_dims = reg.comp_dim_vector(frame)
    assert induced.dim == sum(p * b for p, b in zip(proj_dims, block_dims))


def test_induction_requires_subalgebra_flag(diamond):
    algebra, frame = diamond
    not_sub = rl.plain_subspace(algebra, [frame.idempotents[0]])
    module = projective_module(algebra, frame.idempotents[0], "left")
    with pytest.raises(AlgebraError):
        rl.induce_module(algebra, not_sub, module)


# --- projectivity ----------------------------------------------------------


def test_projectives_are_projective(diamond):
    algebra, frame = diamond
    for e in frame.idempotents:
        module = projective_module(algebra, e, "left")
        assert rl.is_projective_module(module, frame)


def test_simple_at_sink_not_projective(diamond):
    algebra, frame = diamond
    # L(d) has dim 1 but P(d) sits inside longer columns; compare with P(a)
    i = frame.index_of("a")
    simple = rl.simple_module(frame, i)
    assert not rl.is_projective_module(simple, frame)


def test_everything_projective_over_semisimple(uppertri):
    algebra, frame = uppertri
    diag = rl.subalgebra_closure(algebra, list(frame.idempotents))
    # the radical column rad(P) restricted to the diagonal subalgebra
    rad = rl.radical(algebra)
    module = rl.restrict_module(
        rl.module_from_subspace(algebra, rad.space, "left"), diag
    )
    assert rl.is_projective_module(module, frame)


def test_projectivity_requires_elementary(simplex1):
    module = regular_module(simplex1.algebra, "left")
    with pytest.raises(AlgebraError):
        rl.is_projective_module(module, simplex1.frame)


def test_induction_refuses_carriers_other_than_be(diamond):
    algebra, frame = diamond
    full = rl.full_subalgebra(algebra)
    s = rl.subalgebra_closure(algebra, list(frame.idempotents))
    rad_module = rl.module_from_subspace(algebra, rl.radical(algebra).space, "left")
    restricted = rl.restrict_module(projective_module(algebra, frame.idempotents[0]), s)
    for sub, module in ((full, rad_module), (s, restricted)):
        with pytest.raises(AlgebraError, match="quotient Be/K"):
            rl.induce_module(algebra, sub, module)


def test_submodule_checks(diamond):
    algebra, frame = diamond
    e_a, e_d = frame.idempotents[0], frame.idempotents[3]
    with pytest.raises(AlgebraError, match="not stable"):
        rl.module_from_subspace(algebra, rl.span(algebra.field, algebra.dim, [e_a]), "left")
    proj_d = projective_module(algebra, e_d, "left")
    with pytest.raises(AlgebraError, match="outside the module"):
        quotient_module(proj_d, rl.span(algebra.field, algebra.dim, [e_a]))


# --- the dense oracle on the modules of Theorem 4.1 (iii) -----------------------


def _compare(new, old, frame, old_frame=None):
    """Equal invariants; ``old_frame`` is the frame of an oracle module over
    an extracted subalgebra, whose idempotents are those of ``frame``."""
    assert dense.invariants(new, frame) == dense.invariants(old, old_frame or frame)


def test_subquotients_match_dense_oracle(corpus_structures):
    """Every Borel, Delta, A_B and chain-layer module that the checks
    build agrees with the action-matrix construction in dim, comp and top.

    Modules over B = A+ or A- live in A with acting=B and take A's frame;
    the oracle builds them over B extracted as an algebra."""
    visited, restricted_to = [], set()
    for name, r in corpus_structures.items():
        a, frame = r.algebra, r.frame.normalized()
        if a.dim >= 40:
            continue
        visited.append(name)
        below = rl.Subspace(a.field, a.dim)
        for ideal in level_chain(frame).ideals:
            # the chain layer J_l/J_(l-1) as a subquotient of A
            _compare(rl.ModuleRep(a, "left", ideal.space, below),
                     dense.quotient(dense.from_subspace(a, ideal.space),
                                    ideal.space.coords_span(below)), frame)
            below = ideal.space
        # standard modules (layer quotients when A is not elementary)
        elementary = rl.is_elementary(frame)
        deltas = []
        for i, e in enumerate(frame.idempotents):
            if elementary:
                new = quotient_module(projective_module(a, e), trace_subspace(frame, i))
            else:
                new = layer_quotient_module(frame, i)
            dproj, carrier = dense.projective(a, e)
            old = dense.quotient(dproj, carrier.coords_span(new.killed))
            _compare(new, old, frame)
            deltas.append((new, old))
        for kind, b in (("borel", r.aminus), ("delta", r.aplus)):
            if not rl.is_elementary(frame, b):
                continue
            restricted_to.add((kind, name))
            sub_alg, sub_frame = dense.subalgebra_with_frame(b, frame)
            # A_B, the right regular module restricted to B
            _compare(rl.restrict_module(regular_module(a, "right"), b),
                     dense.restrict(dense.regular(a, "right"), b), frame, sub_frame)
            for i, e in enumerate(sub_frame.idempotents):
                for side in ("left", "right"):
                    _compare(projective_module(a, frame.idempotents[i], side, b),
                             dense.projective(sub_alg, e, side)[0], frame, sub_frame)
                simple = rl.simple_module(frame, i, "left", b)
                assert simple.acting is b
                dproj, _ = dense.projective(sub_alg, e)
                old_simple = dense.quotient(dproj, dproj.radical_submodule())
                _compare(simple, old_simple, frame, sub_frame)
                _compare(rl.induce_module(a, b, simple), dense.induce(a, b, old_simple), frame)
                new, old = deltas[i]
                _compare(rl.restrict_module(new, b), dense.restrict(old, b), frame, sub_frame)
    # every small corpus structure has elementary A+ and A- with the frame
    assert restricted_to == {(kind, name) for name in visited for kind in ("borel", "delta")}
