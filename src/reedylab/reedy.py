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
    _combination,
    corner,
    corner_span,
    is_elementary,
    memo,
    peirce_blocks,
    peirce_dim,
    peirce_two_sided,
    product_rank,
    quotient,
    quotient_frame,
    radical,
    subalgebra_closure,
    tensor_dim_over_corner,
)
from .fields import Field
from .linalg import (Echelon, Subspace, densify, modulo, null_space, sparse, sparse_span,
                     subspace_intersect)
from .qh import (
    MAX_WEIGHTS,
    _directed,
    delta_subalgebra_check,
    exact_borel_check,
    heredity_chain_verify,
    level_chain,
    normalized_level_functions,
)

# search_reedy's exhaustive mode needs q^(dim A - |E|) <= 2^EXHAUSTIVE_BOUND; with
# nonzero idempotents, the off-diagonal Peirce blocks it enumerates span at most dim A - |E|
EXHAUSTIVE_BOUND = 8


class ReedyStructure:
    """Candidate data (E, deg, A+, A-) over an algebra, which must be the
    frame's.  The checks here hand ``qh`` the frame with its normalized
    degrees (``frame.normalized()``), the levels of the order file that
    ``qh.order_from_degrees`` writes."""

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
        if self.frame.algebra is not self.algebra:
            raise AlgebraError("the frame belongs to another algebra")
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

    def __repr__(self):
        return (
            f"ReedyStructure(dim={self.algebra.dim}, E={len(self.frame)}, "
            f"deg={self.frame.degrees})"
        )


def verify_reedy(r: ReedyStructure) -> dict:
    """Full check of the three decomposition conditions, with per-pair data."""
    return memo(r, "verify", lambda: _conditions(r, range(len(r.frame))))


def _conditions(r: ReedyStructure, indices, below: Subspace | None = None) -> dict:
    """The decomposition conditions on the frame idempotents ``indices``,
    every Peirce block of A, A+ and A- and every rank read modulo the ideal
    ``below`` (0 when None).  For all indices these are the conditions of
    the structure; for those at level <= cut, the conditions of the corner
    eAe; for those above the cut modulo AeA, those of the quotient A/AeA,
    where an idempotent that dies has a zero diagonal block."""
    frame = r.frame
    full, plus, minus = (
        {(j, i): modulo(blocks[(j, i)], below) for j in indices for i in indices}
        for blocks in (peirce_blocks(frame), peirce_blocks(frame, r.aplus),
                       peirce_blocks(frame, r.aminus)))
    cond_plus = _directed(plus, indices, frame.labels, frame.degrees, True)
    cond_minus = _directed(minus, indices, frame.labels, frame.degrees, False)
    if below is None and len(indices) == len(frame):
        counts = _full_decomposition(frame, r.aplus, r.aminus)
    else:
        counts = _decomposition(r.algebra, indices, full, plus, minus, below)
    pairs = [{"from": frame.labels[i], "to": frame.labels[j], "domain_dim": domain,
              "block_dim": block_dim, "rank": rank, "ok": domain == block_dim == rank}
             for (j, i), (domain, block_dim, rank) in zip(iter_product(indices, indices), counts)]
    cond_decomp = {"ok": all(p["ok"] for p in pairs), "pairs": pairs}
    return {"cond_plus": cond_plus, "cond_minus": cond_minus, "cond_decomp": cond_decomp,
            "overall": cond_plus["ok"] and cond_minus["ok"] and cond_decomp["ok"]}


def _decomposition(a: Algebra, indices, full: dict, plus: dict, minus: dict,
                   below: Subspace | None = None) -> tuple:
    """The decomposition condition, which reads no degrees: for each pair
    (j, i) of the frame indices ``indices``, in order, the domain
    dimension, block dimension and rank of multiplication from the sum over
    l of e_jA+e_l (x) e_lA-e_i to e_jAe_i, on the Peirce blocks of A, A+
    and A- (``full``, ``plus``, ``minus``) with every rank read modulo
    ``below``.  The condition holds where the three agree."""
    counts = []
    for j, i in iter_product(indices, indices):
        domain, rank = product_rank(a, [(plus[(j, l)], minus[(l, i)]) for l in indices], below)
        counts.append((domain, full[(j, i)].dim, rank))
    return tuple(counts)


def _full_decomposition(frame: IdempotentFrame, aplus: AlgSubspace, aminus: AlgSubspace) -> tuple:
    """``_decomposition`` on the whole frame, decided once per frame and
    pair (A+, A-) and kept on the frame."""
    return memo(frame, ("decomposition", aplus.space, aminus.space),
                lambda: _decomposition(frame.algebra, range(len(frame)), peirce_blocks(frame),
                                       peirce_blocks(frame, aplus), peirce_blocks(frame, aminus)))


def _require_setup(r: ReedyStructure) -> None:
    report = verify_reedy(r)
    if not (report["cond_plus"]["ok"] and report["cond_minus"]["ok"]):
        raise AlgebraError("directedness preconditions fail for this structure")


def _require_verified(r: ReedyStructure) -> None:
    if not verify_reedy(r)["overall"]:
        raise AlgebraError("structure does not verify as Reedy")


def layer_check(r: ReedyStructure) -> dict:
    """Per-level layer isomorphisms, in the direct and the quotient form.

    Level l compares dim J_l/J_{l-1} against the rank, modulo J_{l-1}, of
    multiplication from A+e_i (x) e_iA- over the e_i at level l: the
    direct form, from the Peirce blocks e_jA+e_i (x) e_iA-e_k, whose sum
    over j and k is A+e_i (x) e_iA-.  The quotient form takes A+e_i and
    e_iA- modulo K+ and K-, for K = X*eps_(<l)*X in X = A+ or A-.  Under
    the directedness that ``_require_setup`` guarantees, K+e_i = 0: it is
    spanned by (A+e_g)(e_gA+e_i) over g below level l, and a nonzero
    e_gA+e_i with g != i needs level g > level i.  Likewise e_iK- = 0.  So
    the two forms have one domain and one rank, computed once per level
    and reported under both sets of keys.
    """
    _require_setup(r)
    a = r.algebra
    frame = r.frame.normalized()
    chain = level_chain(frame)
    plus, minus = peirce_blocks(frame, r.aplus), peirce_blocks(frame, r.aminus)
    n = range(len(frame))

    levels_report = []
    all_ok = True
    prev = Subspace(a.field, a.dim)
    for rank, lev in enumerate(chain.levels):
        j_here = chain.ideals[rank]
        layer_dim = j_here.dim - prev.dim
        idx_here = [i for i in n if frame.degrees[i] == lev]
        domain, image = product_rank(
            a, [(plus[(j, i)], minus[(i, k)]) for i in idx_here for j in n for k in n], prev)
        ok = domain == layer_dim == image
        levels_report.append({"level": lev, "layer_dim": layer_dim, "direct_domain": domain,
                              "direct_rank": image, "direct_ok": ok, "quotient_domain": domain,
                              "quotient_rank": image, "quotient_ok": ok, "agree": True})
        all_ok = all_ok and ok
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
    frame = r.frame.normalized()
    t = min(frame.degrees)
    idx = [i for i in range(len(frame)) if frame.degrees[i] == t]
    lhs = sum(peirce_dim(frame, r.aplus, i) * peirce_dim(frame, r.aminus, i, "right")
              for i in idx)
    rhs = level_chain(frame).ideals[0].dim
    return {"level": t, "tensor_dim": lhs, "ideal_dim": rhs, "overall": lhs == rhs}


def induced_corner(r: ReedyStructure, cut: int) -> ReedyStructure:
    """The corner structure at e = sum of idempotents of level <= cut."""
    _require_verified(r)
    a = r.algebra
    f = a.field
    levels = r.frame.normalized().degrees
    keep = [i for i in range(len(r.frame)) if levels[i] <= cut]
    e = r.frame.sum_of(keep)
    c_alg, carrier = corner(a, e)
    idems = [densify(f, carrier.coords(sparse(f, r.frame.idempotents[i])), c_alg.dim) for i in keep]
    c_frame = IdempotentFrame(c_alg, idems, [r.frame.labels[i] for i in keep],
                              [r.frame.degrees[i] for i in keep], check=False)

    def corner_sub(sub: AlgSubspace) -> AlgSubspace:
        space = carrier.coords_span(corner_span(a, e, sub.space))
        return AlgSubspace(c_alg, space, AlgSubspace.SUBALGEBRA)

    structure = ReedyStructure(c_alg, c_frame, corner_sub(r.aplus), corner_sub(r.aminus), check=False)
    if not verify_reedy(structure)["overall"]:
        raise AlgebraError("induced corner failed to verify (unexpected)")
    return structure


def _image_diagnostics(frame: IdempotentFrame, inside, j: Subspace, sub: AlgSubspace) -> dict:
    """dim (X + AeA)/AeA against dim X/XeX for X = ``sub``, ``j`` = AeA and
    e the sum of the frame idempotents at ``inside``."""
    image_dim = modulo(sub.space, j).dim
    inner_quotient_dim = sub.dim - peirce_two_sided(frame, inside, sub).dim
    return {"image_dim": image_dim, "inner_quotient_dim": inner_quotient_dim,
            "injective": image_dim == inner_quotient_dim}


def induced_quotient(r: ReedyStructure, cut: int) -> ReedyStructure:
    """The quotient structure by the ideal of idempotents of level <= cut."""
    _require_verified(r)
    a = r.algebra
    work = r.frame.normalized()
    inside = [i for i, level in enumerate(work.degrees) if level <= cut]
    j = AlgSubspace(a, peirce_two_sided(work, inside), AlgSubspace.IDEAL)
    if not all(_image_diagnostics(work, inside, j.space, sub)["injective"]
               for sub in (r.aplus, r.aminus)):
        raise AlgebraError("quotient subalgebra images are not embeddings (unexpected)")
    q_alg, qmap = quotient(a, j)
    q_frame = quotient_frame(work, qmap)
    if len(q_frame) != sum(level > cut for level in work.degrees):
        raise AlgebraError("an idempotent above the cut dies in the quotient (unexpected)")

    def image_sub(sub: AlgSubspace) -> AlgSubspace:
        rows = (qmap.project_sparse(v) for v in sub.space.rows.values())
        return AlgSubspace(q_alg, sparse_span(a.field, q_alg.dim, rows), AlgSubspace.SUBALGEBRA)

    structure = ReedyStructure(q_alg, q_frame, image_sub(r.aplus), image_sub(r.aminus), check=False)
    if not verify_reedy(structure)["overall"]:
        raise AlgebraError("induced quotient failed to verify (unexpected)")
    return structure


def recursive_check(r: ReedyStructure, cut: int) -> dict:
    """Corner/quotient recursion at one cut, with the A = A+.A- hypothesis,
    decided in A: the corner on the idempotents at level <= cut, the
    quotient on those above it modulo J = AeA."""
    _require_setup(r)
    a = r.algebra
    report_r = verify_reedy(r)
    # The frame lies in A+ and A-, so A+.A- is the direct sum of the pair images.
    hypothesis = sum(p["rank"] for p in report_r["cond_decomp"]["pairs"]) == a.dim

    levels = r.frame.normalized().degrees
    inside = [i for i, level in enumerate(levels) if level <= cut]
    j = peirce_two_sided(r.frame, inside)
    corner_ok = _conditions(r, inside)["overall"]
    quotient_ok = _conditions(r, [i for i, level in enumerate(levels) if level > cut], j)["overall"]
    qdiag = {"quotient_dim": a.dim - j.dim, "cut": cut,
             "aplus": _image_diagnostics(r.frame, inside, j, r.aplus),
             "aminus": _image_diagnostics(r.frame, inside, j, r.aminus)}
    # Multiplication Ae (x)_eAe eA -> AeA = J, the ideal the quotient divides out.
    tens = tensor_dim_over_corner(r.frame, inside)
    mult_ok = tens == j.dim
    triple = (corner_ok, quotient_ok, mult_ok)
    overall = report_r["overall"]
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
    frame = r.frame.normalized()
    report_i = verify_reedy(r)
    route_i = report_i["overall"]

    # Route (ii): elementary subalgebras, S maximal semisimple, C (x)_S B = A.
    detail_ii: dict = {}
    try:
        elem = is_elementary(frame, r.aplus) and is_elementary(frame, r.aminus)
        detail_ii["subalgebras_elementary"] = elem
        inter = subspace_intersect(r.aplus.space, r.aminus.space)
        s_ok = inter == frame.semisimple_span() and inter.dim == len(frame)
        detail_ii["intersection_is_S"] = s_ok
        bij = _bimodule_bijective(r)
        detail_ii.update(bij)
        directed_pair = elem and report_i["cond_plus"]["ok"] and report_i["cond_minus"]["ok"]
        detail_ii["directed_pair"] = directed_pair
        route_ii = elem and s_ok and bij["bijective"] and directed_pair
    except AlgebraError as exc:
        detail_ii["error"] = str(exc)
        route_ii = False

    # Route (iii): quasi-heredity with exact Borel and Delta subalgebras.
    detail_iii: dict = {}
    try:
        if is_elementary(frame):
            weight_bijection = True
            detail_iii["weights"] = "frame indexes the simple modules"
        else:
            zdim = _center_dim(a, radical(a).space)
            weight_bijection = zdim == len(frame)
            detail_iii["weights"] = f"center of A/rad has dim {zdim} vs |E| = {len(frame)}"
        detail_iii["weight_bijection"] = weight_bijection
        if weight_bijection:
            qh_ok = heredity_chain_verify(frame)["overall"]
            borel = exact_borel_check(frame, r.aminus)
            delta = delta_subalgebra_check(frame, r.aplus)
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
    """Multiplication C (x)_S B -> A, blockwise over the frame idempotents:
    A+e_l (x) e_lA- splits into the Peirce pairs, whose domains and ranks
    the decomposition check has counted."""
    pairs = verify_reedy(r)["cond_decomp"]["pairs"]
    domain = sum(p["domain_dim"] for p in pairs)
    rank = sum(p["rank"] for p in pairs)
    return {
        "tensor_dim": domain,
        "image_rank": rank,
        "algebra_dim": r.algebra.dim,
        "bijective": domain == rank == r.algebra.dim,
    }


def _center_dim(a: Algebra, rad: Subspace) -> int:
    """Dimension of the centre of A/rad (counts the simple blocks when A/rad
    is split semisimple): the nullity of x -> ([x, c] mod rad)_c on the
    residue rows c of A modulo rad, the unit rows off rad's pivots, with
    [b_s, b_k] = mult[s][k] - mult[k][s] read off the table."""
    f, mult, comp, rows = a.field, a.mult, rad.complement_coords(), []
    for k in comp:
        by_t: dict = {}  # coefficient of b_t in [b_s, b_k] mod rad, as rows indexed by t
        for col, s in enumerate(comp):
            if s == k or not (mult[s][k] or mult[k][s]):
                continue
            comm: dict = {}
            for t, c in mult[s][k]:
                comm[t] = f.add(comm.get(t, f.zero), c)
            for t, c in mult[k][s]:
                comm[t] = f.sub(comm.get(t, f.zero), c)
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


def _candidate_subalgebras(frame: IdempotentFrame) -> list[tuple]:
    """Every subalgebra X between S and A with e_iXe_i = k e_i for all i
    (finite field, nonzero frame idempotents), with its block dimensions
    D_X[j][i] = dim e_jXe_i, as pairs (X, D_X).

    X contains S, so it is the direct sum of its blocks e_jXe_i: S plus one
    subspace of each nonzero off-diagonal block of A, enumerated in the
    block's row coordinates.  These are the subalgebras directedness can
    admit; D_X is read off the chosen pieces."""
    a = frame.algebra
    f, n = a.field, len(frame)
    off = [(key, list(blk.rows.values())) for key, blk in peirce_blocks(frame).items()
           if key[0] != key[1] and blk.dim]
    # per block: the sparse rows of each of its subspaces
    choices = [[[_combination(f, dict(enumerate(coeffs)), rows) for coeffs in basis]
                for basis in _all_subspaces(f, len(rows))] for _, rows in off]
    s_space = frame.semisimple_span()
    out = []
    for pieces in iter_product(*choices):
        acc = Echelon(f, a.dim, s_space)
        for piece in pieces:
            for v in piece:
                acc.insert(v)
        cand = AlgSubspace(a, acc.to_subspace(), AlgSubspace.PLAIN)
        if cand.is_subalgebra():
            dims = [[int(i == j) for i in range(n)] for j in range(n)]
            for ((j, i), _), piece in zip(off, pieces):
                dims[j][i] = len(piece)
            out.append((AlgSubspace(a, cand.space, AlgSubspace.SUBALGEBRA),
                        tuple(map(tuple, dims))))
    return out


def _peirce_dims(frame: IdempotentFrame, sub: AlgSubspace | None) -> tuple:
    """D_X[j][i] = dim e_jXe_i, from the Peirce table of X (of A when None)."""
    blocks, n = peirce_blocks(frame, sub), range(len(frame))
    return tuple(tuple(blocks[(j, i)].dim for i in n) for j in n)


def _forced_dims(d_a: tuple, levels) -> tuple | None:
    """The block dimensions (D_+, D_-) that A+ and A- of a Reedy structure
    under ``levels`` must have, or None when no pair can have them.

    D_+ and D_- are 1 on the diagonal; off it, D_+[j][i] is nonzero only
    where level j > level i and D_-[j][i] only where level j < level i.
    Entry (j, i) of D_+ . D_- = D_A is then [i = j] + D_+[j][i] + D_-[j][i]
    plus D_+[j][l] D_-[l][i] over the l with level l < min(level j,
    level i), so taking the pairs by that minimum solves for each entry:
    a block LU factorisation, unique when it exists."""
    n = range(len(levels))
    plus = [[int(i == j) for i in n] for j in n]
    minus = [row[:] for row in plus]
    for j, i in sorted(iter_product(n, n), key=lambda ji: min(levels[ji[0]], levels[ji[1]])):
        low = min(levels[j], levels[i])
        rest = d_a[j][i] - sum(plus[j][l] * minus[l][i] for l in n if levels[l] < low)
        if rest < 0 or levels[j] == levels[i] and rest != (i == j):
            return None
        if levels[j] != levels[i]:
            (plus if levels[j] > levels[i] else minus)[j][i] = rest
    return tuple(map(tuple, plus)), tuple(map(tuple, minus))


def _basis_key(field: Field, basis) -> tuple:
    return tuple(tuple(field.show(x) for x in row) for row in basis)


def search_reedy(frame: IdempotentFrame, mode: str = "heuristic",
                 max_levels: int | None = None) -> list[ReedyStructure]:
    """Search for verified Reedy structures over normalized degree functions.

    A degree function forces the block dimensions of A+ and A-
    (``_forced_dims``); one with none admits no structure and is skipped.
    Otherwise the candidates for A+ (A-) are those whose block dimensions
    equal the forced D_+ (D_-).  Heuristic mode offers S and the closures
    of the degree-raising and degree-lowering block spans; exhaustive mode
    (finite fields) offers every subalgebra between S and A whose diagonal
    blocks are the lines k e_i.  The decomposition condition reads no
    degrees, so it is decided once per pair (A+, A-) and kept on the frame
    for ``verify_reedy``.  Results are deduplicated and ordered by degree
    function and canonical bases.
    """
    a = frame.algebra
    n = len(frame)
    if n > MAX_WEIGHTS:
        raise AlgebraError(f"frame has {n} weights, search bound is {MAX_WEIGHTS}")
    f = a.field
    if mode not in ("heuristic", "exhaustive"):
        raise ValueError("mode must be 'heuristic' or 'exhaustive'")
    if mode == "exhaustive":
        if f.characteristic == 0:
            raise AlgebraError("exhaustive search requires a finite field")
        if f.characteristic ** (a.dim - n) > 2 ** EXHAUSTIVE_BOUND:
            raise AlgebraError(f"q^(dim A - |E|) = {f.characteristic}^{a.dim - n} "
                               f"exceeds exhaustive bound 2^{EXHAUSTIVE_BOUND}")
    if any(not line.dim for line in frame.lines()):
        return []  # e_zXe_z = 0 for a zero idempotent e_z: no X is directed
    if mode == "exhaustive":
        candidates = _candidate_subalgebras(frame)
    else:
        closures = {}  # space -> (the closure with that space, its block dimensions)

        def closure(gens) -> tuple:
            c = subalgebra_closure(a, gens)
            return closures.setdefault(c.space, (c, _peirce_dims(frame, c)))
        s_pair = closure(frame.idempotents)
    d_a = _peirce_dims(frame, None)
    found = {}
    blocks_full = peirce_blocks(frame)
    for levels in normalized_level_functions(n, max_levels):
        forced = _forced_dims(d_a, levels)
        if forced is None:
            continue
        if mode == "heuristic":
            # the off-diagonal blocks of A that raise the level, and the rest
            gens = {True: list(frame.idempotents), False: list(frame.idempotents)}
            for (j, i), blk in blocks_full.items():
                if i != j:
                    gens[levels[j] > levels[i]].extend(blk.rows.values())
            offers = ([closure(gens[True]), s_pair], [s_pair, closure(gens[False])])
        else:
            offers = (candidates, candidates)
        # a closure equal to S is S's own object: offer each candidate once
        plus_list, minus_list = (list(dict.fromkeys(c for c, dims in offer if dims == want))
                                 for offer, want in zip(offers, forced))
        work = frame.with_degrees(levels)
        for aplus, aminus in iter_product(plus_list, minus_list):
            structure = ReedyStructure(a, work, aplus, aminus, check=False)
            if verify_reedy(structure)["overall"]:
                key = (
                    levels,
                    _basis_key(f, aplus.space.basis),
                    _basis_key(f, aminus.space.basis),
                )
                found.setdefault(key, structure)
    return [found[k] for k in sorted(found)]
