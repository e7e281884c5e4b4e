"""Heredity ideals and chains, standard modules, and directed-subalgebra tests.

The weight order is the frame's degree function: i is strictly below j
exactly when degree(i) > degree(j), matching the order a heredity chain
induces (lower chain layer = larger weight).  Distinct weights of one
degree are incomparable.  Every check here takes the frame alone, reads
its algebra from ``frame.algebra`` and its levels from ``frame.degrees``.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import NamedTuple

from .algebra import (
    AlgebraError,
    AlgSubspace,
    IdempotentFrame,
    column_span,
    corner_span,
    element_line,
    ideal_closure,
    is_elementary,
    memo,
    peirce_blocks,
    peirce_two_sided,
    product_span,
    radical,
    tensor_dim_over_corner,
)
from .linalg import Subspace, modulo, subspace_sum
from .modules import (
    ModuleRep,
    induce_module,
    is_projective_module,
    projective_module,
    quotient_module,
    regular_module,
    restrict_module,
    simple_module,
)

# the bound on the weights in the frame of qh_order_search and reedy.search_reedy
MAX_WEIGHTS = 7


class WeightOrder:
    """The value of an order file: a level per weight label, which
    ``frame.with_degrees(order.levels)`` makes the frame's degrees."""

    __slots__ = ("labels", "levels")

    def __init__(self, labels, levels):
        self.labels = tuple(labels)
        self.levels = tuple(int(l) for l in levels)
        if len(self.labels) != len(self.levels):
            raise ValueError("labels/levels length mismatch")
        if any(l < 0 for l in self.levels):
            raise ValueError("levels must be natural numbers")

    def to_json(self) -> dict:
        return {"levels": {lab: lev for lab, lev in zip(self.labels, self.levels)}}

    @classmethod
    def from_json(cls, data: dict, labels) -> "WeightOrder":
        levels = data["levels"]
        missing = [lab for lab in labels if lab not in levels]
        if missing:
            raise ValueError(f"order is missing levels for {missing}")
        unknown = [lab for lab in levels if lab not in labels]
        if unknown:
            raise ValueError(f"order gives levels for unknown idempotents {unknown}")
        return cls(tuple(labels), tuple(levels[lab] for lab in labels))


def order_from_degrees(frame: IdempotentFrame) -> WeightOrder:
    """The order file value of the frame's normalized degrees."""
    return WeightOrder(frame.labels, frame.normalized().degrees)


def directedness(frame: IdempotentFrame, raising: bool, sub: AlgSubspace | None = None) -> dict:
    """Directedness of the Peirce blocks of ``sub`` (of A when None).

    Every diagonal block e_i X e_i must be one-dimensional, and a nonzero
    block e_j X e_i with i != j must raise the degree (degree j > degree i)
    when ``raising``, lower it otherwise: Definition conditions (i) and (ii).
    """
    degrees = frame.degree_function()
    return _directed(peirce_blocks(frame, sub), range(len(frame)), frame.labels, degrees, raising)


def _directed(blocks: dict, indices, labels, levels, raising: bool) -> dict:
    """``directedness`` on the blocks (j, i) of the frame indices ``indices``."""
    diag = {}
    violations = []
    for i in indices:
        d = blocks[(i, i)].dim
        diag[labels[i]] = d
        if d != 1:
            violations.append({"kind": "diagonal", "at": labels[i], "dim": d})
    for j in indices:
        for i in indices:
            d = blocks[(j, i)].dim
            if i == j or d == 0:
                continue
            if not (levels[j] > levels[i] if raising else levels[j] < levels[i]):
                violations.append(
                    {"kind": "direction", "from": labels[i], "to": labels[j], "dim": d}
                )
    return {"ok": not violations, "diagonal_dims": diag, "violations": violations}


class LevelChain(NamedTuple):
    """Data of the candidate chain 0 <= J_0 <= J_1 <= ... <= A, kept on the
    frame per degree function: the occupied degrees l, the ideals J_l of A
    and, per level, the residue rows of J_l modulo J_(l-1)."""

    levels: tuple
    ideals: tuple
    layers: tuple


def level_chain(frame: IdempotentFrame) -> LevelChain:
    return memo(frame, ("level_chain", frame.degrees), lambda: _level_chain(frame))


def _level_chain(frame: IdempotentFrame) -> LevelChain:
    a = frame.algebra
    levels = frame.levels()
    ideals, layers = [], []
    below = Subspace(a.field, a.dim)
    for lev in levels:
        # J_l = J_(l-1) + (C*eps_l)*C for C the residue rows of A modulo J_(l-1)
        layer = product_span(a, product_span(a, None, element_line(a, frame.eps(lev)), below),
                             None, below)
        below = subspace_sum(below, layer)
        layers.append(layer)
        ideals.append(AlgSubspace(a, below, AlgSubspace.IDEAL))
    return LevelChain(levels, tuple(ideals), tuple(layers))


def heredity_ideal_check(frame: IdempotentFrame, eps) -> dict:
    """Corner criterion for J = A*eps*A being a heredity ideal."""
    a = frame.algebra
    eps = tuple(eps)
    if not a.is_idempotent(eps):
        raise AlgebraError("heredity_ideal_check requires an idempotent")
    f = a.field
    split = IdempotentFrame(a, [eps, tuple(f.sub(u, x) for u, x in zip(a.unit, eps))], check=False)
    return _heredity_report(frame, split, [0], ideal_closure(a, [eps]).space, None)


def _heredity_report(frame: IdempotentFrame, split: IdempotentFrame, inside,
                     layer: Subspace, below: Subspace | None) -> dict:
    """``heredity_ideal_check`` in A/J' for J' = ``below`` (0 when None): the
    idempotent eps of A that sums the idempotents of the frame ``split`` at
    ``inside``, and ``layer``, the residue rows modulo J' of the ideal J
    generated by eps and J'.  The radical of A/J' is (rad A + J')/J', so
    only A's radical is ever computed."""
    a = frame.algebra
    if layer.dim == 0:
        return {"overall": True, "trivial": True, "ideal_dim": 0, "corner_semisimple": True,
                "tensor_bijective": True}
    rad = modulo(radical(a).space, below)
    corner_rad = corner_span(a, split.sum_of(inside), rad, below)
    corner_ss = corner_rad.dim == 0
    tens = tensor_dim_over_corner(split, inside, below) if corner_ss else None
    tensor_ok = tens == layer.dim if corner_ss else False
    report = {
        "overall": corner_ss and tensor_ok,
        "trivial": False,
        "ideal_dim": layer.dim,
        "corner_semisimple": corner_ss,
        "corner_radical_dim": corner_rad.dim,
        "tensor_dim": tens,
        "tensor_bijective": tensor_ok,
    }
    if is_elementary(frame, below=below):
        report["cross_checks"] = _heredity_cross_checks(frame, layer, rad, below)
    return report


def _heredity_cross_checks(frame: IdempotentFrame, layer: Subspace, rad: Subspace,
                           below: Subspace | None) -> dict:
    """J/J' idempotent, (J/J')*rad*(J/J') zero and J/J' a projective left
    A/J'-module, every product taken modulo J'; the projective of A/J' at
    e_i is (A*e_i + J')/J', of dim A*e_i - dim J'*e_i."""
    a = frame.algebra
    idempotent_ideal = product_span(a, layer, layer, below).dim == layer.dim
    jrj = product_span(a, product_span(a, layer, rad, below), layer, below)
    killed = below if below is not None else Subspace(a.field, a.dim)
    module = ModuleRep(a, "left", subspace_sum(killed, layer), killed)
    cover = sum(mult * product_span(a, None, line, below).dim
                for line, mult in zip(frame.lines(), module.top_multiplicities(frame)) if mult)
    proj = cover == module.dim
    return {
        "idempotent_ideal": idempotent_ideal,
        "j_rad_j_zero": jrj.dim == 0,
        "left_projective": proj,
        "agree": idempotent_ideal and jrj.dim == 0 and proj,
    }


def heredity_chain_verify(frame: IdempotentFrame) -> dict:
    """Layer-by-layer verification of the chain induced by the degrees."""
    a = frame.algebra
    chain = level_chain(frame)
    layers, ok = [], True
    for rank, (lev, layer) in enumerate(zip(chain.levels, chain.layers)):
        below = chain.ideals[rank - 1].space if rank else None
        inside = [i for i, level in enumerate(frame.degrees) if level == lev]
        verdict = _heredity_report(frame, frame, inside, layer, below)
        layers.append({"level": lev, "ideal_dim": chain.ideals[rank].dim, "layer_dim": layer.dim,
                       "verdict": bool(verdict["overall"]), "strictly_increasing": layer.dim > 0,
                       "detail": verdict})
        ok = ok and verdict["overall"] and layer.dim > 0
    complete = a.dim == 0 or (bool(chain.ideals) and chain.ideals[-1].dim == a.dim)
    return {"overall": ok and complete, "complete": complete, "layers": layers}


def trace_subspace(frame: IdempotentFrame, i: int) -> Subspace:
    """Sum over weights j not below-or-equal i of A e_j A e_i, inside A e_i:
    j != i with degree j <= degree i.

    The sum of the ideals A e_j A is the ideal A eps A for eps the sum of
    those e_j, so this is the column at e_i of the two-sided span that
    ``peirce_two_sided`` reads off A's Peirce table."""
    degrees = frame.degree_function()
    outside = [j for j in range(len(frame)) if j != i and degrees[j] <= degrees[i]]
    return column_span(frame.algebra, peirce_two_sided(frame, outside), frame.idempotents[i])


def standard_modules(frame: IdempotentFrame) -> tuple:
    """The standard modules Delta(i) = A e_i / (trace at i) of an elementary
    algebra, one per frame idempotent."""
    a = frame.algebra
    if not is_elementary(frame):
        raise AlgebraError("standard modules via frames require an elementary algebra")
    return tuple(quotient_module(projective_module(a, e, "left"), trace_subspace(frame, i))
                 for i, e in enumerate(frame.idempotents))


def layer_quotient_module(frame: IdempotentFrame, i: int) -> ModuleRep:
    """The module A e_i / J_{l-1} e_i for l the degree of weight i.

    For a valid heredity chain this is the standard module at i (and is
    computable without primitive idempotents of A).
    """
    a = frame.algebra
    chain = level_chain(frame)
    rank = chain.levels.index(frame.degrees[i])
    e = frame.idempotents[i]
    proj = projective_module(a, e, "left")
    if rank == 0:
        return proj
    return quotient_module(proj, column_span(a, chain.ideals[rank - 1].space, e))


def _elementary_candidate(frame: IdempotentFrame, b: AlgSubspace, report: dict) -> bool:
    """Whether ``b`` is an elementary subalgebra for the frame; when not,
    ``report["reason"]`` says why."""
    if b.closure_kind != AlgSubspace.SUBALGEBRA:
        report["reason"] = "candidate is not a verified subalgebra"
    elif not all(b.contains(e) for e in frame.idempotents):
        report["reason"] = "candidate does not contain the frame idempotents"
    elif not is_elementary(frame, b):
        report["reason"] = "candidate subalgebra is not elementary"
    else:
        return True
    return False


def _standards(frame: IdempotentFrame) -> tuple:
    """The standard modules, or the layer quotients when A is not elementary;
    kept on the frame per degree function like the level chain."""
    return memo(frame, ("standards", frame.degrees), lambda: (
        standard_modules(frame) if is_elementary(frame)
        else tuple(layer_quotient_module(frame, i) for i in range(len(frame)))))


def _same_invariants(m: ModuleRep, n: ModuleRep, frame: IdempotentFrame) -> bool:
    """Equal dimension, composition dimension vector and top."""
    return (
        m.dim == n.dim
        and m.comp_dim_vector(frame) == n.comp_dim_vector(frame)
        and m.top_multiplicities(frame) == n.top_multiplicities(frame)
    )


def exact_borel_check(frame: IdempotentFrame, b: AlgSubspace) -> dict:
    """Exact-Borel test: directed subalgebra, exact induction, simples -> standards.

    The per-weight ``match`` compares the invariants of A (x)_B L(i) and of
    the standard module (dimension, composition vector, top); it is not an
    isomorphism test.
    """
    a = frame.algebra
    report: dict = {"overall": False}
    if not _elementary_candidate(frame, b, report):
        return report
    directed = directedness(frame, False, b)["ok"]
    report["directed_simple"] = directed
    right_reg = restrict_module(regular_module(a, "right"), b)
    report["right_projective"] = is_projective_module(right_reg, frame)
    induced_match = True
    per_weight = []
    for i, target in enumerate(_standards(frame)):
        induced = induce_module(a, b, simple_module(frame, i, "left", b))
        same = _same_invariants(induced, target, frame)
        induced_match = induced_match and same
        per_weight.append(
            {
                "weight": frame.labels[i],
                "induced_dim": induced.dim,
                "standard_dim": target.dim,
                "match": same,
            }
        )
    report["induced_are_standards"] = induced_match
    report["weights"] = per_weight
    report["overall"] = directed and report["right_projective"] and induced_match
    return report


def delta_subalgebra_check(frame: IdempotentFrame, c: AlgSubspace) -> dict:
    """Delta-subalgebra test: standards restrict to the projectives of c.

    When ``restrictions_projective`` holds, the per-weight top match already
    decides the isomorphism with the projective of c at that weight, since a
    projective module is determined by its top.
    """
    report: dict = {"overall": False}
    if not _elementary_candidate(frame, c, report):
        return report
    directed = directedness(frame, True, c)["ok"]
    report["directed_projective"] = directed
    all_proj = True
    all_match = True
    per_weight = []
    for i, delta in enumerate(_standards(frame)):
        restricted = restrict_module(delta, c)
        proj_ok = is_projective_module(restricted, frame)
        proj_c = projective_module(frame.algebra, frame.lines()[i], "left", c)
        same = _same_invariants(restricted, proj_c, frame)
        all_proj = all_proj and proj_ok
        all_match = all_match and same
        per_weight.append(
            {
                "weight": frame.labels[i],
                "restricted_dim": restricted.dim,
                "projective_dim": proj_c.dim,
                "projective": proj_ok,
                "match": same,
            }
        )
    report["restrictions_projective"] = all_proj
    report["restrictions_are_projectives"] = all_match
    report["weights"] = per_weight
    report["overall"] = directed and all_proj and all_match
    return report


def normalized_level_functions(n: int, max_levels: int | None = None):
    """All surjective level assignments onto {0..m}, lexicographically."""
    out = []
    for levels in iter_product(range(n), repeat=n):
        top = max(levels) if levels else -1
        if set(levels) != set(range(top + 1)):
            continue
        if max_levels is not None and top + 1 > max_levels:
            continue
        out.append(levels)
    return out


def qh_order_search(frame: IdempotentFrame) -> list[IdempotentFrame]:
    """The frame under every normalized degree function whose candidate
    chain verifies, in lex order of the degrees; the frame's own degrees
    are not read."""
    n = len(frame)
    if n > MAX_WEIGHTS:
        raise AlgebraError(f"frame has {n} weights, search bound is {MAX_WEIGHTS}")
    return [work for work in map(frame.with_degrees, normalized_level_functions(n))
            if heredity_chain_verify(work)["overall"]]
