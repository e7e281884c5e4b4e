"""Builders for the example families: quiver algebras with relations,
truncated monotone-map category algebras, matrix algebras, dual extensions
of oppositely directed algebras, and tensor products of verified structures.

Multiplication is always function composition: in a product x*y the factor
y acts first, so a path x lies in the block e_target A e_source.  Quiver
relation paths are written in traversal order (first arrow first) in input
data and converted internally.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

from .algebra import (
    Algebra,
    AlgebraError,
    AlgSubspace,
    IdempotentFrame,
    column_span,
    is_elementary,
    radical,
    row_span,
    tensor_algebras,
    validate,
)
from .fields import Field
from .linalg import Echelon, densify, span, sparse
from .qh import peirce_blocks
from .reedy import ReedyStructure, verify_reedy


class QuiverPresentation:
    """A quiver with relations and a nilpotency bound on path length."""

    __slots__ = ("vertices", "arrows", "relations", "nilpotency_bound")

    def __init__(self, vertices, arrows, relations=(), nilpotency_bound: int = 1):
        self.vertices = tuple(vertices)
        self.arrows = tuple((src, tgt, label) for src, tgt, label in arrows)
        self.relations = tuple(
            tuple((coeff, tuple(path)) for coeff, path in rel) for rel in relations
        )
        self.nilpotency_bound = int(nilpotency_bound)
        self._validate()

    def _validate(self):
        if self.nilpotency_bound < 1:
            raise AlgebraError("nilpotency_bound must be at least 1")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise AlgebraError("duplicate vertex labels")
        seen = set()
        for src, tgt, label in self.arrows:
            if src not in vset or tgt not in vset:
                raise AlgebraError(f"arrow {label!r} has unknown endpoints")
            if label in seen or label in vset:
                raise AlgebraError(f"duplicate label {label!r}")
            seen.add(label)
        arrow_map = {label: (src, tgt) for src, tgt, label in self.arrows}
        for ridx, rel in enumerate(self.relations):
            endpoints = None
            if not rel:
                raise AlgebraError(f"relation {ridx} is empty")
            for coeff, path in rel:
                if not path:
                    raise AlgebraError(f"relation {ridx} contains an empty path")
                for lab in path:
                    if lab not in arrow_map:
                        raise AlgebraError(f"relation {ridx} uses unknown arrow {lab!r}")
                for prev, nxt in zip(path, path[1:]):
                    if arrow_map[prev][1] != arrow_map[nxt][0]:
                        raise AlgebraError(f"relation {ridx} contains a non-composable path")
                ep = (arrow_map[path[0]][0], arrow_map[path[-1]][1])
                if endpoints is None:
                    endpoints = ep
                elif endpoints != ep:
                    raise AlgebraError(f"relation {ridx} mixes endpoints {endpoints} and {ep}")


def _enumerate_paths(pres: QuiverPresentation, max_len: int):
    """Paths as (source, target, arrows-in-traversal-order), grouped by length."""
    arrow_map = {label: (src, tgt) for src, tgt, label in pres.arrows}
    by_len = [[(v, v, ()) for v in pres.vertices]]
    for _ in range(max_len):
        nxt = []
        for src, tgt, labs in by_len[-1]:
            for a_src, a_tgt, a_lab in pres.arrows:
                if a_src == tgt:
                    nxt.append((src, a_tgt, labs + (a_lab,)))
        by_len.append(nxt)
    return by_len, arrow_map


def build_quiver_algebra(pres: QuiverPresentation, field: Field):
    """Path algebra modulo relations, truncated at the nilpotency bound.

    The bound is accepted only when every path one step beyond it reduces
    into the span of shorter classes; otherwise the presentation is
    rejected as still growing.
    """
    bound = pres.nilpotency_bound
    by_len, arrow_map = _enumerate_paths(pres, bound + 1)
    # Longest paths first so that RREF pivots eliminate them preferentially.
    ordered = []
    for length in range(bound + 1, -1, -1):
        ordered.extend(sorted(by_len[length]))
    coord = {p: idx for idx, p in enumerate(ordered)}
    total = len(ordered)
    rel_space = Echelon(field, total)

    def path_endpoints(path):
        if not path:
            raise AlgebraError("internal: empty relation path")
        return arrow_map[path[0]][0], arrow_map[path[-1]][1]

    all_paths = [p for length in range(bound + 2) for p in by_len[length]]
    for ridx, rel in enumerate(pres.relations):
        src, tgt = path_endpoints(rel[0][1])
        min_len = min(len(path) for _, path in rel)
        max_len = max(len(path) for _, path in rel)
        for x_src, x_tgt, x_labs in all_paths:
            if x_src != tgt:
                continue
            for y_src, y_tgt, y_labs in all_paths:
                if y_tgt != src:
                    continue
                if len(x_labs) + min_len + len(y_labs) > bound + 1:
                    continue
                if len(x_labs) + max_len + len(y_labs) > bound + 1:
                    # A translate that fits only partially into the window
                    # would impose a truncated (hence wrong) relation.
                    raise AlgebraError(
                        f"dimension still growing at the bound: a translate of "
                        f"relation {ridx} exceeds length {bound + 1}; raise the "
                        f"nilpotency bound"
                    )
                vec: dict = {}
                for coeff, path in rel:
                    key = (y_src, x_tgt, y_labs + path + x_labs)
                    c = coord[key]
                    val = field.add(vec.get(c, field.zero), field.parse(str(coeff)) if isinstance(coeff, str) else field.of(coeff))
                    if val == field.zero:
                        vec.pop(c, None)
                    else:
                        vec[c] = val
                if vec:
                    rel_space.insert(vec)
    rel_sub = rel_space.to_subspace()
    comp = rel_sub.complement_coords()
    long_survivors = [ordered[c] for c in comp if len(ordered[c][2]) > bound]
    if long_survivors:
        raise AlgebraError(
            f"dimension still growing at the bound: {len(long_survivors)} independent "
            f"paths of length {bound + 1} (e.g. {'*'.join(long_survivors[0][2])})"
        )

    index = {c: t for t, c in enumerate(comp)}

    def reduce_coord_vec(vec: dict) -> dict:
        dense = rel_sub.reduce(densify(field, vec, total))
        return {index[c]: dense[c] for c in comp if dense[c] != field.zero}

    reduce_memo: dict = {}

    def reduce_path(src, tgt, labs) -> dict:
        key = (src, tgt, labs)
        if key in reduce_memo:
            return reduce_memo[key]
        if len(labs) <= bound + 1:
            out = reduce_coord_vec({coord[key]: field.one})
        else:
            head = labs[: bound + 1]
            head_tgt = arrow_map[head[-1]][1]
            chunk = reduce_path(src, head_tgt, head)
            out = {}
            for cls_idx, cval in chunk.items():
                c_src, c_tgt, c_labs = ordered[comp[cls_idx]]
                piece = reduce_path(src, tgt, c_labs + labs[len(head):])
                for t, v in piece.items():
                    val = field.add(out.get(t, field.zero), field.mul(cval, v))
                    if val == field.zero:
                        out.pop(t, None)
                    else:
                        out[t] = val
        reduce_memo[key] = out
        return out

    labels = []
    for c in comp:
        src, tgt, labs = ordered[c]
        labels.append("*".join(labs) if labs else str(src))
    basis_paths = [ordered[c] for c in comp]
    mult = []
    for x_src, x_tgt, x_labs in basis_paths:
        per = []
        for y_src, y_tgt, y_labs in basis_paths:
            if y_tgt != x_src:
                per.append(())
                continue
            out = reduce_path(y_src, x_tgt, y_labs + x_labs)
            per.append(tuple(sorted(out.items())))
        mult.append(tuple(per))
    unit = [field.zero] * len(comp)
    vertex_pos = {}
    for t, (src, tgt, labs) in enumerate(basis_paths):
        if not labs:
            unit[t] = field.one
            vertex_pos[src] = t
    algebra = Algebra(field, labels, mult, unit)
    diag = validate(algebra)
    if not diag["valid"]:
        raise AlgebraError(f"quiver algebra failed validation: {diag['violations'][:3]}")

    idempotents = [algebra.basis_vector(vertex_pos[v]) for v in pres.vertices]
    frame = IdempotentFrame(algebra, idempotents, pres.vertices)
    return algebra, frame


class MonotoneMap:
    """A weakly monotone map of finite ordinals, stored by its value tuple."""

    __slots__ = ("source_size", "target_size", "values")

    def __init__(self, source_size: int, target_size: int, values):
        self.source_size = source_size
        self.target_size = target_size
        self.values = tuple(values)
        if len(self.values) != source_size:
            raise ValueError("value list length mismatch")
        if any(v < 0 or v >= target_size for v in self.values):
            raise ValueError("values out of range")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values not weakly increasing")

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and self.source_size == other.source_size
            and self.target_size == other.target_size
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.source_size, self.target_size, self.values))

    def __repr__(self):
        vals = "".join(str(v) for v in self.values)
        return f"[{self.source_size - 1}]->[{self.target_size - 1}]:{vals}"

    def compose(self, other: "MonotoneMap") -> "MonotoneMap":
        """self after other (other is applied first)."""
        if other.target_size != self.source_size:
            raise ValueError("not composable")
        return MonotoneMap(
            other.source_size, self.target_size, tuple(self.values[v] for v in other.values)
        )

    def is_injective(self) -> bool:
        return len(set(self.values)) == self.source_size

    def is_surjective(self) -> bool:
        return len(set(self.values)) == self.target_size

    def epi_mono_factor(self) -> tuple["MonotoneMap", "MonotoneMap"]:
        """Unique factorization as injection-after-surjection through the image."""
        image = sorted(set(self.values))
        rank = {v: r for r, v in enumerate(image)}
        surj = MonotoneMap(self.source_size, len(image), tuple(rank[v] for v in self.values))
        inj = MonotoneMap(len(image), self.target_size, tuple(image))
        return surj, inj


def monotone_maps(i: int, j: int):
    """All weakly monotone maps [i] -> [j] in lexicographic order."""
    return [
        MonotoneMap(i + 1, j + 1, values)
        for values in combinations_with_replacement(range(j + 1), i + 1)
    ]


def simplex_block_dim(i: int, j: int) -> int:
    """Closed form |Hom([i],[j])| = C(i+j+1, i+1)."""
    return comb(i + j + 1, i + 1)


def build_simplex_algebra(n: int, field: Field) -> ReedyStructure:
    """Category algebra of monotone maps on [0]..[n] with its Reedy data."""
    if n < 0:
        raise AlgebraError("n must be nonnegative")
    basis: list[MonotoneMap] = []
    for i in range(n + 1):
        for j in range(n + 1):
            basis.extend(monotone_maps(i, j))
    pos = {m: t for t, m in enumerate(basis)}
    labels = [repr(m) for m in basis]
    mult = []
    for x in basis:
        per = []
        for y in basis:
            if y.target_size != x.source_size:
                per.append(())
            else:
                per.append(((pos[x.compose(y)], field.one),))
        mult.append(tuple(per))
    unit = [field.zero] * len(basis)
    idems = []
    for i in range(n + 1):
        ident = MonotoneMap(i + 1, i + 1, tuple(range(i + 1)))
        unit[pos[ident]] = field.one
        idems.append(ident)
    algebra = Algebra(field, labels, mult, unit)
    frame = IdempotentFrame(
        algebra,
        [algebra.basis_vector(pos[e]) for e in idems],
        [f"e{i}" for i in range(n + 1)],
        list(range(n + 1)),
    )
    inj_vecs = [algebra.basis_vector(pos[m]) for m in basis if m.is_injective()]
    surj_vecs = [algebra.basis_vector(pos[m]) for m in basis if m.is_surjective()]
    aplus = AlgSubspace(algebra, span(field, algebra.dim, inj_vecs), AlgSubspace.SUBALGEBRA)
    aminus = AlgSubspace(algebra, span(field, algebra.dim, surj_vecs), AlgSubspace.SUBALGEBRA)
    if not (aplus.is_subalgebra() and aminus.is_subalgebra()):
        raise AlgebraError("directed spans are not subalgebras (unexpected)")
    structure = ReedyStructure(algebra, frame, aplus, aminus)
    algebra._cache["simplex_basis"] = tuple(basis)
    return structure


def build_matrix_algebra(n: int, field: Field) -> Algebra:
    """Full matrix algebra on the unit basis E_rc."""
    if n < 1:
        raise AlgebraError("n must be at least 1")
    labels = [f"E{r + 1}{c + 1}" for r in range(n) for c in range(n)]

    def pos(r, c):
        return r * n + c

    mult = []
    for r in range(n):
        for c in range(n):
            per = []
            for d in range(n):
                for e in range(n):
                    if c == d:
                        per.append(((pos(r, e), field.one),))
                    else:
                        per.append(())
            mult.append(tuple(per))
    unit = [field.zero] * (n * n)
    for r in range(n):
        unit[pos(r, r)] = field.one
    return Algebra(field, labels, mult, unit)


def matrix_diag_frame(a: Algebra, n: int) -> IdempotentFrame:
    return IdempotentFrame(
        a, [a.basis_vector(r * n + r) for r in range(n)], [f"E{r + 1}{r + 1}" for r in range(n)]
    )


def build_dual_extension(aplus_alg: Algebra, plus_frame: IdempotentFrame,
                         aminus_alg: Algebra, minus_frame: IdempotentFrame):
    """Glue oppositely directed elementary algebras over their common
    semisimple base, with radical-times-radical products set to zero.

    Returns the glued algebra and its verified Reedy structure.
    """
    if aplus_alg.field != aminus_alg.field:
        raise AlgebraError("dual extension factors must share the field")
    if len(plus_frame) != len(minus_frame):
        raise AlgebraError("frames must have the same number of idempotents")
    if plus_frame.degrees is None or minus_frame.degrees is None:
        raise AlgebraError("both frames need degree functions")
    if plus_frame.degrees != minus_frame.degrees:
        raise AlgebraError("frames must carry the same degree function")
    f = aplus_alg.field
    n = len(plus_frame)
    if not is_elementary(aplus_alg, plus_frame):
        raise AlgebraError("raising factor is not elementary")
    if not is_elementary(aminus_alg, minus_frame):
        raise AlgebraError("lowering factor is not elementary")
    blocks_plus = peirce_blocks(plus_frame)
    blocks_minus = peirce_blocks(minus_frame)
    for j in range(n):
        for i in range(n):
            if i == j:
                if blocks_plus[(j, i)].dim != 1 or blocks_minus[(j, i)].dim != 1:
                    raise AlgebraError("diagonal blocks must be one-dimensional")
                continue
            if blocks_plus[(j, i)].dim and not plus_frame.degrees[j] > plus_frame.degrees[i]:
                raise AlgebraError("raising factor violates directedness")
            if blocks_minus[(j, i)].dim and not minus_frame.degrees[j] < minus_frame.degrees[i]:
                raise AlgebraError("lowering factor violates directedness")

    # Columns A+ e_l and rows e_l A-.
    cols = [column_span(aplus_alg, None, e) for e in plus_frame.idempotents]
    rows = [row_span(aminus_alg, e, None) for e in minus_frame.idempotents]

    offsets = []
    total = 0
    for l in range(n):
        offsets.append(total)
        total += cols[l].dim * rows[l].dim

    def slot(l, xi, yj):
        return offsets[l] + xi * rows[l].dim + yj

    rad_plus = radical(aplus_alg)
    rad_minus = radical(aminus_alg)

    def split_minus(l: int, y):
        """y in e_l A- as (scalar along e_l, radical part)."""
        resid = rad_minus.space.reduce(y)
        e_resid = rad_minus.space.reduce(minus_frame.idempotents[l])
        lam = None
        for c, base in enumerate(e_resid):
            if base != f.zero:
                lam = f.div(resid[c], base)
                break
        if lam is None:
            raise AlgebraError("degenerate idempotent in lowering factor")
        rad_part = tuple(
            f.sub(vy, f.mul(lam, ve)) for vy, ve in zip(y, minus_frame.idempotents[l])
        )
        return lam, rad_part

    def split_plus(m: int, x):
        resid = rad_plus.space.reduce(x)
        e_resid = rad_plus.space.reduce(plus_frame.idempotents[m])
        mu = None
        for c, base in enumerate(e_resid):
            if base != f.zero:
                mu = f.div(resid[c], base)
                break
        if mu is None:
            raise AlgebraError("degenerate idempotent in raising factor")
        return mu

    labels = []
    for l in range(n):
        for xi in range(cols[l].dim):
            for yj in range(rows[l].dim):
                labels.append(f"t{l}_{xi}_{yj}")

    mult = [[{} for _ in range(total)] for _ in range(total)]
    for l in range(n):
        for m in range(n):
            for xi, x in enumerate(cols[l].basis):
                for yj, y in enumerate(rows[l].basis):
                    lam, y_rad = split_minus(l, y)
                    for xk, xp in enumerate(cols[m].basis):
                        mu = split_plus(m, xp)
                        for yl, yp in enumerate(rows[m].basis):
                            acc: dict = {}
                            # mu * x (x) (y_rad * y')   [component l]
                            if mu != f.zero and any(v != f.zero for v in y_rad):
                                prod = aminus_alg.mul(y_rad, yp)
                                coords = rows[l].coords(prod)
                                if coords is None:
                                    raise AlgebraError("row span not closed (unexpected)")
                                for c, v in enumerate(coords):
                                    if v != f.zero:
                                        acc[slot(l, xi, c)] = f.mul(mu, v)
                            # lam * (x * x') (x) y'    [component m]
                            if lam != f.zero:
                                prod = aplus_alg.mul(x, xp)
                                coords = cols[m].coords(prod)
                                if coords is None:
                                    raise AlgebraError("column span not closed (unexpected)")
                                for c, v in enumerate(coords):
                                    if v != f.zero:
                                        key = slot(m, c, yl)
                                        val = f.add(acc.get(key, f.zero), f.mul(lam, v))
                                        if val == f.zero:
                                            acc.pop(key, None)
                                        else:
                                            acc[key] = val
                            if acc:
                                mult[slot(l, xi, yj)][slot(m, xk, yl)] = acc
    mult_rows = tuple(
        tuple(tuple(sorted(mult[x][y].items())) for y in range(total)) for x in range(total)
    )

    def embed_pair(l, pvec, mvec) -> dict:
        pc = cols[l].coords(pvec)
        mc = rows[l].coords(mvec)
        if pc is None or mc is None:
            raise AlgebraError("embedding outside the component spans")
        out = {}
        for xi, va in enumerate(pc):
            if va == f.zero:
                continue
            for yj, vb in enumerate(mc):
                if vb != f.zero:
                    out[slot(l, xi, yj)] = f.mul(va, vb)
        return out

    unit_vec = [f.zero] * total
    for l in range(n):
        for key, v in embed_pair(l, plus_frame.idempotents[l], minus_frame.idempotents[l]).items():
            unit_vec[key] = f.add(unit_vec[key], v)
    algebra = Algebra(f, labels, mult_rows, unit_vec)
    diag = validate(algebra)
    if not diag["valid"]:
        raise AlgebraError(f"dual extension failed associativity: {diag['violations'][:3]}")

    idems = []
    for i in range(n):
        vec = [f.zero] * total
        for key, v in embed_pair(i, plus_frame.idempotents[i], minus_frame.idempotents[i]).items():
            vec[key] = v
        idems.append(tuple(vec))
    frame = IdempotentFrame(algebra, idems, plus_frame.labels, plus_frame.degrees)

    def embed_plus(b) -> tuple:
        out = [f.zero] * total
        sb = sparse(f, b)
        for l in range(n):
            be = aplus_alg.mul_sparse(sb, sparse(f, plus_frame.idempotents[l]))
            if not be:
                continue
            dense = densify(f, be, aplus_alg.dim)
            for key, v in embed_pair(l, dense, minus_frame.idempotents[l]).items():
                out[key] = f.add(out[key], v)
        return tuple(out)

    def embed_minus(c) -> tuple:
        out = [f.zero] * total
        sc = sparse(f, c)
        for l in range(n):
            ec = aminus_alg.mul_sparse(sparse(f, minus_frame.idempotents[l]), sc)
            if not ec:
                continue
            dense = densify(f, ec, aminus_alg.dim)
            for key, v in embed_pair(l, plus_frame.idempotents[l], dense).items():
                out[key] = f.add(out[key], v)
        return tuple(out)

    plus_span = span(f, total, [embed_plus(aplus_alg.basis_vector(k)) for k in range(aplus_alg.dim)])
    minus_span = span(f, total, [embed_minus(aminus_alg.basis_vector(k)) for k in range(aminus_alg.dim)])
    aplus = AlgSubspace(algebra, plus_span, AlgSubspace.SUBALGEBRA)
    aminus = AlgSubspace(algebra, minus_span, AlgSubspace.SUBALGEBRA)
    if not (aplus.is_subalgebra() and aminus.is_subalgebra()):
        raise AlgebraError("embedded factors are not subalgebras (unexpected)")
    structure = ReedyStructure(algebra, frame, aplus, aminus)
    report = verify_reedy(structure)
    if not report["overall"]:
        raise AlgebraError("dual extension does not verify (unexpected)")
    return algebra, structure


def build_tensor_reedy(r1: ReedyStructure, r2: ReedyStructure) -> ReedyStructure:
    """Tensor product structure with paired idempotents and summed degrees."""
    if not verify_reedy(r1)["overall"] or not verify_reedy(r2)["overall"]:
        raise AlgebraError("tensor construction requires verified inputs")
    a, b = r1.algebra, r2.algebra
    f = a.field
    c = tensor_algebras(a, b)

    def outer(u, v) -> tuple:
        out = [f.zero] * (a.dim * b.dim)
        for i, x in enumerate(u):
            if x == f.zero:
                continue
            for j, y in enumerate(v):
                if y != f.zero:
                    out[i * b.dim + j] = f.mul(x, y)
        return tuple(out)

    idems, labels, degrees = [], [], []
    for i in range(len(r1.frame)):
        for j in range(len(r2.frame)):
            idems.append(outer(r1.frame.idempotents[i], r2.frame.idempotents[j]))
            labels.append(f"{r1.frame.labels[i]}*{r2.frame.labels[j]}")
            degrees.append(r1.frame.degrees[i] + r2.frame.degrees[j])
    frame = IdempotentFrame(c, idems, labels, degrees)
    plus_span = span(
        f, c.dim,
        [outer(u, v) for u in r1.aplus.space.basis for v in r2.aplus.space.basis],
    )
    minus_span = span(
        f, c.dim,
        [outer(u, v) for u in r1.aminus.space.basis for v in r2.aminus.space.basis],
    )
    structure = ReedyStructure(
        c, frame,
        AlgSubspace(c, plus_span, AlgSubspace.SUBALGEBRA),
        AlgSubspace(c, minus_span, AlgSubspace.SUBALGEBRA),
    )
    if not verify_reedy(structure)["overall"]:
        raise AlgebraError("tensor structure does not verify (unexpected)")
    return structure


def diamond_presentation() -> QuiverPresentation:
    """The commuting-square quiver: a over b,c over d with one relation."""
    return QuiverPresentation(
        vertices=["a", "b", "c", "d"],
        arrows=[["a", "b", "ab"], ["a", "c", "ac"], ["b", "d", "bd"], ["c", "d", "cd"]],
        relations=[[("1", ("ab", "bd")), ("-1", ("ac", "cd"))]],
        nilpotency_bound=2,
    )


def a2_presentation() -> QuiverPresentation:
    return QuiverPresentation(
        vertices=["v0", "v1"], arrows=[["v0", "v1", "x"]], relations=[], nilpotency_bound=1
    )
