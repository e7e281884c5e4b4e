"""Heredity ideals and chains, standard modules, and directed-subalgebra tests.

Weight orders are level functions on the frame idempotents: i is strictly
below j exactly when level(i) > level(j), matching the order a heredity
chain induces (lower chain layer = larger weight).  Same-level distinct
weights are incomparable.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import NamedTuple

from .algebra import (
    Algebra,
    AlgebraError,
    AlgSubspace,
    IdempotentFrame,
    column_span,
    corner_span,
    element_line,
    ideal_closure,
    is_elementary,
    product_span,
    radical,
    row_span,
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


class WeightOrder:
    """A partial order on weights induced by a level function."""

    __slots__ = ("labels", "levels")

    def __init__(self, labels, levels):
        self.labels = tuple(labels)
        self.levels = tuple(int(l) for l in levels)
        if len(self.labels) != len(self.levels):
            raise ValueError("labels/levels length mismatch")
        if any(l < 0 for l in self.levels):
            raise ValueError("levels must be natural numbers")

    def __len__(self):
        return len(self.labels)

    def __eq__(self, other):
        return (
            isinstance(other, WeightOrder)
            and self.labels == other.labels
            and self.levels == other.levels
        )

    def __hash__(self):
        return hash((self.labels, self.levels))

    def __repr__(self):
        return f"WeightOrder({dict(zip(self.labels, self.levels))})"

    def lt(self, i: int, j: int) -> bool:
        """i strictly below j (i appears in a later chain layer)."""
        return self.levels[i] > self.levels[j]

    def leq(self, i: int, j: int) -> bool:
        return i == j or self.lt(i, j)

    def to_json(self) -> dict:
        return {"levels": {lab: lev for lab, lev in zip(self.labels, self.levels)}}

    @classmethod
    def from_json(cls, data: dict, labels) -> "WeightOrder":
        levels = data["levels"]
        missing = [lab for lab in labels if lab not in levels]
        if missing:
            raise ValueError(f"order is missing levels for {missing}")
        return cls(tuple(labels), tuple(levels[lab] for lab in labels))


def order_from_degrees(frame: IdempotentFrame) -> WeightOrder:
    if frame.degrees is None:
        raise AlgebraError("frame carries no degree function")
    return WeightOrder(frame.labels, frame.normalized_degrees())


def peirce_blocks(frame: IdempotentFrame, sub: AlgSubspace | None = None) -> dict:
    """All blocks e_j X e_i of the algebra or of a subspace, cached: the
    columns (e_j X) e_i of the rows e_j X."""
    if sub is None:
        cache, key, space = frame._cache, "peirce_full", None
    else:
        cache, key, space = sub._cache, ("peirce", frame.idempotents), sub.space
    if key not in cache:
        a, lines = frame.algebra, frame.lines()
        rows = [row_span(a, line, space) for line in lines]
        cache[key] = {(j, i): column_span(a, rows[j], line)
                      for j in range(len(lines)) for i, line in enumerate(lines)}
    return cache[key]


def directedness(frame: IdempotentFrame, levels, raising: bool,
                 sub: AlgSubspace | None = None) -> dict:
    """Directedness of the Peirce blocks of ``sub`` (of A when None).

    Every diagonal block e_i X e_i must be one-dimensional, and a nonzero
    block e_j X e_i with i != j must raise the level (level j > level i) when
    ``raising``, lower it otherwise: Definition conditions (i) and (ii).
    """
    blocks = peirce_blocks(frame, sub)
    n = len(frame)
    diag = {}
    violations = []
    for i in range(n):
        d = blocks[(i, i)].dim
        diag[frame.labels[i]] = d
        if d != 1:
            violations.append({"kind": "diagonal", "at": frame.labels[i], "dim": d})
    for j in range(n):
        for i in range(n):
            d = blocks[(j, i)].dim
            if i == j or d == 0:
                continue
            if not (levels[j] > levels[i] if raising else levels[j] < levels[i]):
                violations.append(
                    {"kind": "direction", "from": frame.labels[i], "to": frame.labels[j], "dim": d}
                )
    return {"ok": not violations, "diagonal_dims": diag, "violations": violations}


class LevelChain(NamedTuple):
    """Cached data of the candidate chain 0 <= J_0 <= J_1 <= ... <= A: the
    ideals J_l of A and, per level, the residue rows of J_l modulo J_(l-1)."""

    frame: IdempotentFrame
    levels: tuple
    ideals: tuple
    layers: tuple


def level_chain(a: Algebra, frame: IdempotentFrame, order: WeightOrder) -> LevelChain:
    key = ("level_chain", frame.idempotents, order.levels)
    if key in a._cache:
        return a._cache[key]
    levels = tuple(sorted(set(order.levels)))
    work = frame.with_degrees(order.levels)
    ideals, layers = [], []
    below = Subspace(a.field, a.dim)
    for lev in levels:
        # J_l = J_(l-1) + (C*eps_l)*C for C the residue rows of A modulo J_(l-1)
        layer = product_span(a, product_span(a, None, element_line(a, work.eps(lev)), below),
                             None, below)
        below = subspace_sum(below, layer)
        layers.append(layer)
        ideals.append(AlgSubspace(a, below, AlgSubspace.IDEAL))
    chain = LevelChain(work, levels, tuple(ideals), tuple(layers))
    a._cache[key] = chain
    return chain


def heredity_ideal_check(a: Algebra, frame: IdempotentFrame, eps) -> dict:
    """Corner criterion for J = A*eps*A being a heredity ideal."""
    eps = tuple(eps)
    if not a.is_idempotent(eps):
        raise AlgebraError("heredity_ideal_check requires an idempotent")
    return _heredity_report(a, frame, eps, ideal_closure(a, [eps]).space, None)


def _heredity_report(a: Algebra, frame: IdempotentFrame, eps, layer: Subspace,
                     below: Subspace | None) -> dict:
    """``heredity_ideal_check`` in A/J' for J' = ``below`` (0 when None): an
    idempotent eps of A and ``layer``, the residue rows modulo J' of the
    ideal J generated by eps and J'.  The radical of A/J' is
    (rad A + J')/J', so only A's radical is ever computed."""
    if layer.dim == 0:
        return {"overall": True, "trivial": True, "ideal_dim": 0, "corner_semisimple": True,
                "tensor_bijective": True}
    rad = modulo(radical(a).space, below)
    corner_rad = corner_span(a, eps, rad, below)
    corner_ss = corner_rad.dim == 0
    tens = tensor_dim_over_corner(a, eps, below) if corner_ss else None
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
    if is_elementary(a, frame, below=below):
        report["cross_checks"] = _heredity_cross_checks(a, frame, layer, rad, below)
    return report


def _heredity_cross_checks(a: Algebra, frame, layer: Subspace, rad: Subspace,
                           below: Subspace | None) -> dict:
    """J/J' idempotent, (J/J')*rad*(J/J') zero and J/J' a projective left
    A/J'-module, every product taken modulo J'; the projective of A/J' at
    e_i is (A*e_i + J')/J', of dim A*e_i - dim J'*e_i."""
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


def heredity_chain_verify(a: Algebra, frame: IdempotentFrame, order: WeightOrder | None = None) -> dict:
    """Layer-by-layer verification of the chain induced by the degree levels."""
    if order is None:
        order = order_from_degrees(frame)
    chain = level_chain(a, frame, order)
    layers, ok = [], True
    for rank, (lev, layer) in enumerate(zip(chain.levels, chain.layers)):
        below = chain.ideals[rank - 1].space if rank else None
        verdict = _heredity_report(a, chain.frame, chain.frame.eps(lev), layer, below)
        layers.append({"level": lev, "ideal_dim": chain.ideals[rank].dim, "layer_dim": layer.dim,
                       "verdict": bool(verdict["overall"]), "strictly_increasing": layer.dim > 0,
                       "detail": verdict})
        ok = ok and verdict["overall"] and layer.dim > 0
    complete = a.dim == 0 or (bool(chain.ideals) and chain.ideals[-1].dim == a.dim)
    return {"overall": ok and complete, "complete": complete, "layers": layers}


class StandardFamily:
    """Projectives, standard modules and simples over an elementary algebra."""

    __slots__ = ("algebra", "frame", "order", "projectives", "standards", "simples",
                 "comp_vectors", "top_vectors", "factor_bound_ok")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])


def trace_subspace(a: Algebra, frame: IdempotentFrame, order: WeightOrder, i: int) -> Subspace:
    """Sum over weights j not below-or-equal i of A e_j A e_i, inside A e_i.

    The sum of the ideals A e_j A is the ideal of their generators, so this
    is one column of one ideal closure."""
    gens = [e for j, e in enumerate(frame.idempotents) if not order.leq(j, i)]
    return column_span(a, ideal_closure(a, gens).space, frame.idempotents[i])


def standard_modules(a: Algebra, frame: IdempotentFrame, order: WeightOrder) -> StandardFamily:
    if not is_elementary(a, frame):
        raise AlgebraError("standard modules via frames require an elementary algebra")
    projectives = tuple(projective_module(a, e, "left") for e in frame.idempotents)
    standards = tuple(
        quotient_module(proj, trace_subspace(a, frame, order, i))
        for i, proj in enumerate(projectives)
    )
    comp_vectors = tuple(delta.comp_dim_vector(frame) for delta in standards)
    return StandardFamily(
        algebra=a,
        frame=frame,
        order=order,
        projectives=projectives,
        standards=standards,
        simples=tuple(quotient_module(proj, proj.radical_submodule()) for proj in projectives),
        comp_vectors=comp_vectors,
        top_vectors=tuple(delta.top_multiplicities(frame) for delta in standards),
        # no composition factor of Delta(i) above i
        factor_bound_ok=all(
            comp[j] == 0
            for i, comp in enumerate(comp_vectors)
            for j in range(len(frame))
            if not order.leq(j, i)
        ),
    )


def layer_quotient_module(a: Algebra, frame: IdempotentFrame, order: WeightOrder, i: int) -> ModuleRep:
    """The module A e_i / J_{l-1} e_i for l the level of weight i.

    For a valid heredity chain this is the standard module at i (and is
    computable without primitive idempotents of A).
    """
    chain = level_chain(a, frame, order)
    rank = chain.levels.index(order.levels[i])
    e = frame.idempotents[i]
    proj = projective_module(a, e, "left")
    if rank == 0:
        return proj
    return quotient_module(proj, column_span(a, chain.ideals[rank - 1].space, e))


def _elementary_candidate(a: Algebra, frame: IdempotentFrame, b: AlgSubspace, report: dict) -> bool:
    """Whether ``b`` is an elementary subalgebra for the frame; when not,
    ``report["reason"]`` says why."""
    if b.closure_kind != AlgSubspace.SUBALGEBRA:
        report["reason"] = "candidate is not a verified subalgebra"
    elif not all(b.contains(e) for e in frame.idempotents):
        report["reason"] = "candidate does not contain the frame idempotents"
    elif not is_elementary(a, frame, b):
        report["reason"] = "candidate subalgebra is not elementary"
    else:
        return True
    return False


def _standards(a: Algebra, frame: IdempotentFrame, order: WeightOrder) -> tuple:
    """The standard modules, or the layer quotients when A is not elementary;
    cached on A like the level chain."""
    key = ("standards", frame.idempotents, order.levels)
    if key not in a._cache:
        if is_elementary(a, frame):
            a._cache[key] = standard_modules(a, frame, order).standards
        else:
            a._cache[key] = tuple(layer_quotient_module(a, frame, order, i) for i in range(len(frame)))
    return a._cache[key]


def _same_invariants(m: ModuleRep, n: ModuleRep, frame: IdempotentFrame) -> bool:
    """Equal dimension, composition dimension vector and top."""
    return (
        m.dim == n.dim
        and m.comp_dim_vector(frame) == n.comp_dim_vector(frame)
        and m.top_multiplicities(frame) == n.top_multiplicities(frame)
    )


def exact_borel_check(a: Algebra, frame: IdempotentFrame, b: AlgSubspace, order: WeightOrder) -> dict:
    """Exact-Borel test: directed subalgebra, exact induction, simples -> standards.

    The per-weight ``match`` compares the invariants of A (x)_B L(i) and of
    the standard module (dimension, composition vector, top); it is not an
    isomorphism test.
    """
    report: dict = {"overall": False}
    if not _elementary_candidate(a, frame, b, report):
        return report
    directed = directedness(frame, order.levels, False, b)["ok"]
    report["directed_simple"] = directed
    right_reg = restrict_module(regular_module(a, "right"), b)
    report["right_projective"] = is_projective_module(right_reg, frame)
    induced_match = True
    per_weight = []
    for i, target in enumerate(_standards(a, frame, order)):
        induced = induce_module(a, b, simple_module(a, frame, i, "left", b))
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


def delta_subalgebra_check(a: Algebra, frame: IdempotentFrame, c: AlgSubspace, order: WeightOrder) -> dict:
    """Delta-subalgebra test: standards restrict to the projectives of c.

    When ``restrictions_projective`` holds, the per-weight top match already
    decides the isomorphism with the projective of c at that weight, since a
    projective module is determined by its top.
    """
    report: dict = {"overall": False}
    if not _elementary_candidate(a, frame, c, report):
        return report
    directed = directedness(frame, order.levels, True, c)["ok"]
    report["directed_projective"] = directed
    all_proj = True
    all_match = True
    per_weight = []
    for i, delta in enumerate(_standards(a, frame, order)):
        restricted = restrict_module(delta, c)
        proj_ok = is_projective_module(restricted, frame)
        proj_c = projective_module(a, frame.lines()[i], "left", c)
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


def qh_order_search(a: Algebra, frame: IdempotentFrame, max_weights: int = 7) -> list[WeightOrder]:
    """All level functions whose candidate chain verifies, in lex order."""
    n = len(frame)
    if n > max_weights:
        raise AlgebraError(f"frame has {n} weights, search bound is {max_weights}")
    found = []
    for levels in normalized_level_functions(n):
        order = WeightOrder(frame.labels, levels)
        if heredity_chain_verify(a, frame, order)["overall"]:
            found.append(order)
    return found
