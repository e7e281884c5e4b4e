"""Verification, layer analysis, recursion and search for Reedy decompositions.

A Reedy structure is an algebra with a degree-graded idempotent frame and
two oppositely directed unital subalgebras; the decomposition condition
asks multiplication to identify the blockwise tensor product with the
algebra.  All checks return plain JSON-ready report dicts; failures are
report data, never exceptions.
"""

from __future__ import annotations

from itertools import combinations, product as iter_product

from .algebra import (
    Algebra,
    AlgebraError,
    AlgSubspace,
    IdempotentFrame,
    column_span,
    corner,
    corner_span,
    ideal_closure,
    is_elementary,
    product_rank,
    quotient,
    radical,
    row_span,
    subalgebra_closure,
    tensor_dim_over_corner,
    two_sided_span,
)
from .fields import Field
from .linalg import (Echelon, Subspace, add_scaled, densify, modulo, null_space, sparse, sparse_span,
                     subspace_intersect)
from .qh import (
    WeightOrder,
    delta_subalgebra_check,
    directedness,
    exact_borel_check,
    heredity_chain_verify,
    level_chain,
    normalized_level_functions,
    order_from_degrees,
    peirce_blocks,
)


class ReedyStructure:
    """Candidate data (E, deg, A+, A-) over an algebra."""

    __slots__ = ("algebra", "frame", "aplus", "aminus", "_cache")

    def __init__(self, algebra: Algebra, frame: IdempotentFrame, aplus: AlgSubspace,
                 aminus: AlgSubspace, check: bool = True):
        if frame.degrees is None:
            raise AlgebraError("a Reedy structure needs a degree function")
        self.algebra = algebra
        self.frame = frame
        self.aplus = aplus
        self.aminus = aminus
        self._cache = {}
        if check:
            self._check_structure()

    def _check_structure(self):
        for name, sub in (("aplus", self.aplus), ("aminus", self.aminus)):
            if sub.closure_kind != AlgSubspace.SUBALGEBRA:
                raise AlgebraError(f"{name} is not flagged as a subalgebra")
            if not sub.contains(self.algebra.unit):
                raise AlgebraError(f"{name} does not contain the unit")
            for idx, e in enumerate(self.frame.idempotents):
                if not sub.contains(e):
                    raise AlgebraError(
                        f"{name} does not contain idempotent {self.frame.labels[idx]}"
                    )

    def order(self) -> WeightOrder:
        return order_from_degrees(self.frame)

    def __repr__(self):
        return (
            f"ReedyStructure(dim={self.algebra.dim}, E={len(self.frame)}, "
            f"deg={self.frame.degrees})"
        )


def verify_reedy(r: ReedyStructure) -> dict:
    """Full check of the three decomposition conditions, with per-pair data."""
    if "verify" in r._cache:
        return r._cache["verify"]
    frame = r.frame
    cond_plus = directedness(frame, frame.degrees, True, r.aplus)
    cond_minus = directedness(frame, frame.degrees, False, r.aminus)
    blocks_full = peirce_blocks(frame)
    blocks_plus = peirce_blocks(frame, r.aplus)
    blocks_minus = peirce_blocks(frame, r.aminus)
    pairs = []
    decomp_ok = True
    n = len(frame)
    for j in range(n):
        for i in range(n):
            domain, rank = product_rank(
                r.algebra, [(blocks_plus[(j, l)], blocks_minus[(l, i)]) for l in range(n)]
            )
            block_dim = blocks_full[(j, i)].dim
            ok = domain == block_dim == rank
            decomp_ok = decomp_ok and ok
            pairs.append(
                {
                    "from": frame.labels[i],
                    "to": frame.labels[j],
                    "domain_dim": domain,
                    "block_dim": block_dim,
                    "rank": rank,
                    "ok": ok,
                }
            )
    report = {
        "cond_plus": cond_plus,
        "cond_minus": cond_minus,
        "cond_decomp": {"ok": decomp_ok, "pairs": pairs},
        "overall": cond_plus["ok"] and cond_minus["ok"] and decomp_ok,
    }
    r._cache["verify"] = report
    return report


def _require_setup(r: ReedyStructure) -> None:
    report = verify_reedy(r)
    if not (report["cond_plus"]["ok"] and report["cond_minus"]["ok"]):
        raise AlgebraError("directedness preconditions fail for this structure")


def _require_verified(r: ReedyStructure) -> None:
    if not verify_reedy(r)["overall"]:
        raise AlgebraError("structure does not verify as Reedy")


def _tensor_pairs(r: ReedyStructure, indices) -> list:
    """The column A+ e_i and the row e_i A- for each frame index."""
    a = r.algebra
    pairs = []
    for i in indices:
        e = r.frame.lines()[i]
        pairs.append((column_span(a, r.aplus.space, e), row_span(a, e, r.aminus.space)))
    return pairs


def layer_check(r: ReedyStructure) -> dict:
    """Per-level layer isomorphisms, in both the direct and the quotient form.

    Level l compares dim J_l/J_{l-1} against the blockwise tensor data,
    once with the columns A+e_i and rows e_iA- taken in A and once with
    their images in A+/K+ and A-/K-, for K = X*eps_(<l)*X in X = A+ or A-,
    represented in A.  K lies in J_{l-1}, so the rank modulo J_{l-1} does
    not depend on the representatives.
    """
    _require_setup(r)
    a = r.algebra
    frame = r.frame
    order = r.order()
    chain = level_chain(a, frame, order)

    levels_report = []
    all_ok = True
    prev = Subspace(a.field, a.dim)
    for rank, lev in enumerate(chain.levels):
        j_here = chain.ideals[rank]
        layer_dim = j_here.dim - prev.dim
        idx_here = [i for i in range(len(frame)) if order.levels[i] == lev]

        # direct form: A+ e_i (x) e_i A- -> J_l / J_{l-1}
        direct = _tensor_pairs(r, idx_here)
        domain3, rank3 = product_rank(a, direct, prev)
        ok3 = domain3 == layer_dim == rank3

        # quotient form: (A+/K+) e_i (x) e_i (A-/K-) -> J_l / J_{l-1}
        if rank == 0:
            domain2, rank2 = domain3, rank3
        else:
            eps_prev = chain.frame.eps_upto(chain.levels[rank - 1])
            k_plus = two_sided_span(a, eps_prev, r.aplus.space)
            k_minus = two_sided_span(a, eps_prev, r.aminus.space)
            lines = frame.lines()
            pairs = [
                (modulo(col, column_span(a, k_plus, lines[i])),
                 modulo(row, row_span(a, lines[i], k_minus)))
                for (col, row), i in zip(direct, idx_here)
            ]
            domain2, rank2 = product_rank(a, pairs, prev)
        ok2 = domain2 == layer_dim == rank2

        levels_report.append(
            {
                "level": lev,
                "layer_dim": layer_dim,
                "direct_domain": domain3,
                "direct_rank": rank3,
                "direct_ok": ok3,
                "quotient_domain": domain2,
                "quotient_rank": rank2,
                "quotient_ok": ok2,
                "agree": ok2 == ok3,
            }
        )
        all_ok = all_ok and ok2 and ok3
        prev = j_here.space
    overall = verify_reedy(r)["overall"]
    return {
        "levels": levels_report,
        "all_levels_ok": all_ok,
        "reedy_overall": overall,
        "matches_reedy": all_ok == overall,
    }


def reedy_heredity_bottom(r: ReedyStructure) -> dict:
    """Bottom-layer bimodule identity at the minimal occupied degree."""
    _require_verified(r)
    order = r.order()
    t = min(order.levels)
    idx = [i for i in range(len(r.frame)) if order.levels[i] == t]
    lhs = sum(xs.dim * ys.dim for xs, ys in _tensor_pairs(r, idx))
    work = r.frame.with_degrees(order.levels)
    rhs = ideal_closure(r.algebra, [work.eps(t)]).dim
    return {"level": t, "tensor_dim": lhs, "ideal_dim": rhs, "overall": lhs == rhs}


def _build_corner_structure(r: ReedyStructure, cut: int) -> tuple[ReedyStructure, dict]:
    a = r.algebra
    f = a.field
    order = r.order()
    work = r.frame.with_degrees(order.levels)
    e = work.eps_upto(cut)
    c_alg, carrier = corner(a, e)
    idems, labels, degrees = [], [], []
    for i in range(len(r.frame)):
        if order.levels[i] <= cut:
            coords = carrier.coords(sparse(f, r.frame.idempotents[i]))
            idems.append(densify(f, coords, c_alg.dim))
            labels.append(r.frame.labels[i])
            degrees.append(r.frame.degrees[i])
    c_frame = IdempotentFrame(c_alg, idems, labels, degrees, check=False)

    def corner_sub(sub: AlgSubspace) -> AlgSubspace:
        space = carrier.coords_span(corner_span(a, e, sub.space))
        return AlgSubspace(c_alg, space, AlgSubspace.SUBALGEBRA)

    structure = ReedyStructure(c_alg, c_frame, corner_sub(r.aplus), corner_sub(r.aminus), check=False)
    return structure, {"corner_dim": c_alg.dim, "cut": cut}


def _build_quotient_structure(r: ReedyStructure, cut: int) -> tuple[ReedyStructure, dict]:
    a = r.algebra
    f = a.field
    order = r.order()
    work = r.frame.with_degrees(order.levels)
    e = work.eps_upto(cut)
    j = ideal_closure(a, [e])
    q_alg, qmap = quotient(a, j)
    # The induced datum keeps every idempotent above the cut, including any
    # whose image vanishes: a dead idempotent has a zero diagonal block and
    # must make the quotient fail the decomposition conditions.
    idems, labels, degrees = [], [], []
    for idx in range(len(work)):
        if work.degrees[idx] > cut:
            idems.append(qmap.project(work.idempotents[idx]))
            labels.append(work.labels[idx])
            degrees.append(work.degrees[idx])
    q_frame = IdempotentFrame(q_alg, idems, labels, degrees, check=False)

    def image_sub(sub: AlgSubspace) -> tuple[AlgSubspace, dict]:
        image = sparse_span(f, q_alg.dim, (qmap.project_sparse(v) for v in sub.space.rows.values()))
        inner_quotient_dim = sub.dim - two_sided_span(a, e, sub.space).dim
        return (
            AlgSubspace(q_alg, image, AlgSubspace.SUBALGEBRA),
            {"image_dim": image.dim, "inner_quotient_dim": inner_quotient_dim,
             "injective": image.dim == inner_quotient_dim},
        )

    plus_img, plus_diag = image_sub(r.aplus)
    minus_img, minus_diag = image_sub(r.aminus)
    structure = ReedyStructure(q_alg, q_frame, plus_img, minus_img, check=False)
    diag = {"quotient_dim": q_alg.dim, "cut": cut, "aplus": plus_diag, "aminus": minus_diag}
    return structure, diag


def induced_corner(r: ReedyStructure, cut: int) -> ReedyStructure:
    """The corner structure at e = sum of idempotents of level <= cut."""
    _require_verified(r)
    structure, _ = _build_corner_structure(r, cut)
    if not verify_reedy(structure)["overall"]:
        raise AlgebraError("induced corner failed to verify (unexpected)")
    return structure


def induced_quotient(r: ReedyStructure, cut: int) -> ReedyStructure:
    """The quotient structure by the ideal of idempotents of level <= cut."""
    _require_verified(r)
    structure, diag = _build_quotient_structure(r, cut)
    if not (diag["aplus"]["injective"] and diag["aminus"]["injective"]):
        raise AlgebraError("quotient subalgebra images are not embeddings (unexpected)")
    if not verify_reedy(structure)["overall"]:
        raise AlgebraError("induced quotient failed to verify (unexpected)")
    return structure


def recursive_check(r: ReedyStructure, cut: int) -> dict:
    """Corner/quotient recursion at one cut, with the A = A+.A- hypothesis."""
    _require_setup(r)
    a = r.algebra
    hypothesis = product_rank(a, [(r.aplus.space, r.aminus.space)])[1] == a.dim

    corner_struct, _ = _build_corner_structure(r, cut)
    quotient_struct, qdiag = _build_quotient_structure(r, cut)
    corner_ok = verify_reedy(corner_struct)["overall"]
    quotient_ok = verify_reedy(quotient_struct)["overall"]
    order = r.order()
    e = r.frame.with_degrees(order.levels).eps_upto(cut)
    # A e A is the ideal the quotient structure divides out.
    tens = tensor_dim_over_corner(a, e)
    mult_ok = tens == a.dim - qdiag["quotient_dim"]
    triple = (corner_ok, quotient_ok, mult_ok)
    overall = verify_reedy(r)["overall"]
    report = {
        "cut": cut,
        "hypothesis_product_spans": hypothesis,
        "corner_reedy": corner_ok,
        "quotient_reedy": quotient_ok,
        "multiplication_bijective": mult_ok,
        "triple": triple,
        "reedy_overall": overall,
        "equivalence_asserted": hypothesis,
        "quotient_diagnostics": qdiag,
    }
    if hypothesis:
        report["equivalence_holds"] = (all(triple) == overall)
    return report


def characterization_crosscheck(r: ReedyStructure) -> dict:
    """Three-route equivalence: decomposition, bimodule form, Borel/Delta form."""
    a = r.algebra
    frame = r.frame
    order = r.order()
    route_i = verify_reedy(r)["overall"]

    # Route (ii): elementary subalgebras, S maximal semisimple, C (x)_S B = A.
    detail_ii: dict = {}
    try:
        elem = is_elementary(a, frame, r.aplus) and is_elementary(a, frame, r.aminus)
        detail_ii["subalgebras_elementary"] = elem
        inter = subspace_intersect(r.aplus.space, r.aminus.space)
        s_ok = inter == frame.semisimple_span() and inter.dim == len(frame)
        detail_ii["intersection_is_S"] = s_ok
        bij = _bimodule_bijective(r)
        detail_ii.update(bij)
        directed_pair = (
            elem
            and directedness(frame, order.levels, True, r.aplus)["ok"]
            and directedness(frame, order.levels, False, r.aminus)["ok"]
        )
        detail_ii["directed_pair"] = directed_pair
        route_ii = elem and s_ok and bij["bijective"] and directed_pair
    except AlgebraError as exc:
        detail_ii["error"] = str(exc)
        route_ii = False

    # Route (iii): quasi-heredity with exact Borel and Delta subalgebras.
    detail_iii: dict = {}
    try:
        if is_elementary(a, frame):
            weight_bijection = True
            detail_iii["weights"] = "frame indexes the simple modules"
        else:
            zdim = _center_dim(a, radical(a).space)
            weight_bijection = zdim == len(frame)
            detail_iii["weights"] = f"center of A/rad has dim {zdim} vs |E| = {len(frame)}"
        detail_iii["weight_bijection"] = weight_bijection
        if weight_bijection:
            qh_ok = heredity_chain_verify(a, frame, order)["overall"]
            borel = exact_borel_check(a, frame, r.aminus, order)
            delta = delta_subalgebra_check(a, frame, r.aplus, order)
            detail_iii["quasi_hereditary"] = qh_ok
            detail_iii["exact_borel"] = borel["overall"]
            detail_iii["delta_subalgebra"] = delta["overall"]
            route_iii = qh_ok and borel["overall"] and delta["overall"]
        else:
            route_iii = False
    except AlgebraError as exc:
        detail_iii["error"] = str(exc)
        route_iii = False

    return {
        "route_reedy": route_i,
        "route_bimodule": route_ii,
        "route_borel_delta": route_iii,
        "agree": route_i == route_ii == route_iii,
        "detail_bimodule": detail_ii,
        "detail_borel_delta": detail_iii,
        "overall": route_i == route_ii == route_iii,
    }


def _bimodule_bijective(r: ReedyStructure) -> dict:
    """Multiplication C (x)_S B -> A, blockwise over the frame idempotents."""
    a = r.algebra
    domain, rank = product_rank(a, _tensor_pairs(r, range(len(r.frame))))
    return {
        "tensor_dim": domain,
        "image_rank": rank,
        "algebra_dim": a.dim,
        "bijective": domain == rank == a.dim,
    }


def _center_dim(a: Algebra, rad: Subspace) -> int:
    """Dimension of the centre of A/rad (counts the simple blocks when A/rad
    is split semisimple): the nullity of x -> ([x, c] mod rad)_c on the
    residue rows c of A modulo rad, the unit rows off rad's pivots."""
    f, comp, rows = a.field, rad.complement_coords(), []
    for k in comp:
        by_t: dict = {}  # coefficient of b_t in [b_s, b_k] mod rad, as rows indexed by t
        for col, s in enumerate(comp):
            comm = a.mul_sparse({s: f.one}, {k: f.one})
            add_scaled(f, comm, f.neg(f.one), a.mul_sparse({k: f.one}, {s: f.one}))
            for t, c in rad.reduce(comm).items():
                by_t.setdefault(t, {})[col] = c
        rows.extend(by_t.values())
    return null_space(f, len(comp), rows).dim


# search -------------------------------------------------------------------


def _all_subspaces(field: Field, m: int):
    """All subspaces of F_q^m by their canonical RREF bases."""
    elements = [field.of(x) for x in range(field.characteristic)]
    for d in range(m + 1):
        for pivots in combinations(range(m), d):
            free_positions = [
                (row, col)
                for row in range(d)
                for col in range(m)
                if col > pivots[row] and col not in pivots
            ]
            for values in iter_product(elements, repeat=len(free_positions)):
                basis = [[field.zero] * m for _ in range(d)]
                for row in range(d):
                    basis[row][pivots[row]] = field.one
                for (row, col), val in zip(free_positions, values):
                    basis[row][col] = val
                yield [tuple(row) for row in basis]


def _candidate_subalgebras(a: Algebra, frame: IdempotentFrame) -> list[AlgSubspace]:
    """All multiplicatively closed subspaces between S and A (finite field)."""
    f = a.field
    s_space = frame.semisimple_span()
    comp = s_space.complement_coords()
    out = []
    for rows in _all_subspaces(f, len(comp)):
        acc = Echelon(f, a.dim, s_space)
        for row in rows:
            acc.insert({c: x for c, x in zip(comp, row) if x})
        cand = AlgSubspace(a, acc.to_subspace(), AlgSubspace.PLAIN)
        if cand.is_subalgebra():
            out.append(AlgSubspace(a, cand.space, AlgSubspace.SUBALGEBRA))
    uniq = {}
    for cand in out:
        uniq[cand.space.basis] = cand
    return [uniq[k] for k in sorted(uniq, key=lambda b: _basis_key(a.field, b))]


def _basis_key(field: Field, basis) -> tuple:
    return tuple(tuple(field.show(x) for x in row) for row in basis)


def search_reedy(a: Algebra, frame: IdempotentFrame, mode: str = "heuristic",
                 max_levels: int | None = None, exhaustive_bound: int = 8,
                 max_weights: int = 7) -> list[ReedyStructure]:
    """Search for verified Reedy structures over normalized degree functions.

    Heuristic mode closes the degree-raising and degree-lowering block
    spans; exhaustive mode (finite fields) enumerates every subalgebra
    between S and A.  Results are deduplicated and ordered by degree
    function and canonical bases.
    """
    n = len(frame)
    if n > max_weights:
        raise AlgebraError(f"frame has {n} weights, search bound is {max_weights}")
    f = a.field
    if mode not in ("heuristic", "exhaustive"):
        raise ValueError("mode must be 'heuristic' or 'exhaustive'")
    if mode == "exhaustive":
        if f.characteristic == 0:
            raise AlgebraError("exhaustive search requires a finite field")
        if a.dim - n > exhaustive_bound:
            raise AlgebraError(
                f"dim A - |E| = {a.dim - n} exceeds exhaustive bound {exhaustive_bound}"
            )
        candidates = _candidate_subalgebras(a, frame)
    found = {}
    blocks_full = peirce_blocks(frame.without_degrees())
    for levels in normalized_level_functions(n, max_levels):
        work = frame.with_degrees(levels)
        if mode == "heuristic":
            s_gens = list(frame.idempotents)
            raise_gens = list(s_gens)
            lower_gens = list(s_gens)
            for j in range(n):
                for i in range(n):
                    if i == j:
                        continue
                    blk = blocks_full[(j, i)]
                    if blk.dim == 0:
                        continue
                    if levels[j] > levels[i]:
                        raise_gens.extend(blk.rows.values())
                    else:
                        lower_gens.extend(blk.rows.values())
            d_plus = subalgebra_closure(a, raise_gens)
            d_minus = subalgebra_closure(a, lower_gens)
            s_sub = subalgebra_closure(a, s_gens)
            pair_list = [(d_plus, d_minus), (d_plus, s_sub), (s_sub, d_minus)]
        else:
            plus_list = [c for c in candidates if directedness(work, levels, True, c)["ok"]]
            minus_list = [c for c in candidates if directedness(work, levels, False, c)["ok"]]
            pair_list = [(p, m) for p in plus_list for m in minus_list]
        for aplus, aminus in pair_list:
            try:
                structure = ReedyStructure(a, work, aplus, aminus, check=False)
                report = verify_reedy(structure)
            except AlgebraError:
                continue
            if report["overall"]:
                key = (
                    levels,
                    _basis_key(f, aplus.space.basis),
                    _basis_key(f, aminus.space.basis),
                )
                found.setdefault(key, structure)
    return [found[k] for k in sorted(found)]
