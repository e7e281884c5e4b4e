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
    row_span,
    tensor_algebras,
    validate,
)
from .fields import Field
from .linalg import Echelon, add_scaled, densify, sparse, sparse_span
from .qh import directedness
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


def _coefficient(field: Field, coeff, ridx: int):
    """A relation coefficient (a decimal string or a number) in ``field``."""
    try:
        return field.parse(coeff) if isinstance(coeff, str) else field.of(coeff)
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraError(
            f"relation {ridx}: coefficient {coeff!r} is not a scalar of {field!r} ({exc})"
        ) from None


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

    all_paths = [p for length in range(bound + 2) for p in by_len[length]]
    for ridx, rel in enumerate(pres.relations):
        rel = [(_coefficient(field, coeff, ridx), path) for coeff, path in rel]
        first = rel[0][1]  # every path of a relation has these endpoints
        src, tgt = arrow_map[first[0]][0], arrow_map[first[-1]][1]
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
                    add_scaled(field, vec, coeff, {coord[key]: field.one})
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
    reduce_memo: dict = {}

    def reduce_path(src, tgt, labs) -> dict:
        """The class of a path.  A path longer than bound + 1 is 0.  Its head
        of length bound + 1 could only be congruent to shorter paths through
        an inhomogeneous relation translate reaching length bound + 1, and
        extending that translate by the path's next arrow gives one that the
        relation loop above refuses, so the head is 0."""
        key = (src, tgt, labs)
        if key not in reduce_memo:
            reduce_memo[key] = {} if len(labs) > bound + 1 else {
                index[c]: x for c, x in rel_sub.reduce({coord[key]: field.one}).items()}
        return reduce_memo[key]

    basis_paths = [ordered[c] for c in comp]
    labels = ["*".join(labs) if labs else str(src) for src, _, labs in basis_paths]
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
    inj_vecs = [{pos[m]: field.one} for m in basis if m.is_injective()]
    surj_vecs = [{pos[m]: field.one} for m in basis if m.is_surjective()]
    aplus = AlgSubspace(algebra, sparse_span(field, algebra.dim, inj_vecs), AlgSubspace.SUBALGEBRA)
    aminus = AlgSubspace(algebra, sparse_span(field, algebra.dim, surj_vecs), AlgSubspace.SUBALGEBRA)
    if not (aplus.is_subalgebra() and aminus.is_subalgebra()):
        raise AlgebraError("directed spans are not subalgebras (unexpected)")
    return ReedyStructure(algebra, frame, aplus, aminus)


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


def build_dual_extension(plus_frame: IdempotentFrame, minus_frame: IdempotentFrame):
    """Glue oppositely directed elementary algebras, given by their framed
    factors, over their common semisimple base, with radical-times-radical
    products set to zero.

    Returns the glued algebra and its verified Reedy structure.
    """
    aplus_alg, aminus_alg = plus_frame.algebra, minus_frame.algebra
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
    if not is_elementary(plus_frame):
        raise AlgebraError("raising factor is not elementary")
    if not is_elementary(minus_frame):
        raise AlgebraError("lowering factor is not elementary")
    reports = {
        "raising": directedness(plus_frame, True),
        "lowering": directedness(minus_frame, False),
    }
    if any(v["kind"] == "diagonal" for rep in reports.values() for v in rep["violations"]):
        raise AlgebraError("diagonal blocks must be one-dimensional")
    for name, rep in reports.items():
        if not rep["ok"]:
            raise AlgebraError(f"{name} factor violates directedness")

    # Columns A+ e_l and rows e_l A-, with sparse frame idempotents.  Their
    # corners are the lines k e_l, so x in A+ e_l is mu e_l + x_rad with
    # e_l x = mu e_l, and y in e_l A- is lam e_l + y_rad with y e_l = lam e_l.
    e_plus = [sparse(f, e) for e in plus_frame.idempotents]
    e_minus = [sparse(f, e) for e in minus_frame.idempotents]
    cols = [column_span(aplus_alg, None, e) for e in e_plus]
    rows = [row_span(aminus_alg, e, None) for e in e_minus]

    def line_part(v: dict, ev: dict, e: dict):
        """(c, v - c e) for ev = c e."""
        k = min(e)
        c = f.div(ev.get(k, f.zero), e[k])
        rest = dict(v)
        add_scaled(f, rest, f.neg(c), e)
        return c, rest

    xs = [[(x, *line_part(x, aplus_alg.mul_sparse(e, x), e)) for x in c.rows.values()]
          for e, c in zip(e_plus, cols)]
    ys = [[(y, *line_part(y, aminus_alg.mul_sparse(y, e), e)) for y in r.rows.values()]
          for e, r in zip(e_minus, rows)]

    basis = [(l, xi, yj) for l in range(n) for xi in range(cols[l].dim)
             for yj in range(rows[l].dim)]
    pos = {b: t for t, b in enumerate(basis)}
    total = len(basis)

    def span_coords(space, prod: dict, what: str) -> dict:
        """Coordinates in a factor's span, which a loaded factor that is not
        associative may leave."""
        coords = space.coords(prod)
        if coords is None:
            raise AlgebraError(f"{what} span not closed (unexpected)")
        return coords

    # (x (x) y)(x' (x) y') = mu(x') x (x) (y_rad y') + lam(y) (x x') (x) y'
    mult = []
    for l, xi, yj in basis:
        x = xs[l][xi][0]
        _, lam, y_rad = ys[l][yj]
        per = []
        for m, xk, yk in basis:
            xp, mu, _ = xs[m][xk]
            acc: dict = {}
            if mu and y_rad:
                prod = span_coords(rows[l], aminus_alg.mul_sparse(y_rad, ys[m][yk][0]), "row")
                add_scaled(f, acc, mu, {pos[l, xi, c]: v for c, v in prod.items()})
            if lam:
                prod = span_coords(cols[m], aplus_alg.mul_sparse(x, xp), "column")
                add_scaled(f, acc, lam, {pos[m, c, yk]: v for c, v in prod.items()})
            per.append(tuple(sorted(acc.items())))
        mult.append(tuple(per))

    # e_l lies in A+ e_l and in e_l A-: idempotents e_l (x) e_l, A+ spanned
    # by the x (x) e_l and A- by the e_l (x) y
    e_cols = [c.coords(e) for c, e in zip(cols, e_plus)]
    e_rows = [r.coords(e) for r, e in zip(rows, e_minus)]
    idems = [{pos[l, xi, yj]: f.mul(a, b) for xi, a in e_cols[l].items()
              for yj, b in e_rows[l].items()} for l in range(n)]
    unit_vec = {k: v for e in idems for k, v in e.items()}  # disjoint supports
    algebra = Algebra(f, [f"t{l}_{xi}_{yj}" for l, xi, yj in basis], mult,
                      densify(f, unit_vec, total))
    diag = validate(algebra)
    if not diag["valid"]:
        raise AlgebraError(f"dual extension failed associativity: {diag['violations'][:3]}")
    frame = IdempotentFrame(
        algebra, [densify(f, e, total) for e in idems], plus_frame.labels, plus_frame.degrees
    )
    plus_span = sparse_span(f, total, ({pos[l, xi, yj]: v for yj, v in e_rows[l].items()}
                                       for l in range(n) for xi in range(cols[l].dim)))
    minus_span = sparse_span(f, total, ({pos[l, xi, yj]: v for xi, v in e_cols[l].items()}
                                        for l in range(n) for yj in range(rows[l].dim)))
    aplus = AlgSubspace(algebra, plus_span, AlgSubspace.SUBALGEBRA)
    aminus = AlgSubspace(algebra, minus_span, AlgSubspace.SUBALGEBRA)
    if not (aplus.is_subalgebra() and aminus.is_subalgebra()):
        raise AlgebraError("embedded factors are not subalgebras (unexpected)")
    structure = ReedyStructure(algebra, frame, aplus, aminus)
    if not verify_reedy(structure)["overall"]:
        raise AlgebraError("dual extension does not verify (unexpected)")
    return algebra, structure


def build_tensor_reedy(r1: ReedyStructure, r2: ReedyStructure) -> ReedyStructure:
    """Tensor product structure with paired idempotents and summed degrees."""
    if not verify_reedy(r1)["overall"] or not verify_reedy(r2)["overall"]:
        raise AlgebraError("tensor construction requires verified inputs")
    a, b = r1.algebra, r2.algebra
    f = a.field
    c = tensor_algebras(a, b)

    def outer(u: dict, v: dict) -> dict:
        return {i * b.dim + j: f.mul(x, y) for i, x in u.items() for j, y in v.items()}

    def outer_span(x: AlgSubspace, y: AlgSubspace) -> AlgSubspace:
        rows = (outer(u, v) for u in x.space.rows.values() for v in y.space.rows.values())
        return AlgSubspace(c, sparse_span(f, c.dim, rows), AlgSubspace.SUBALGEBRA)

    idems, labels, degrees = [], [], []
    for i in range(len(r1.frame)):
        for j in range(len(r2.frame)):
            e = outer(sparse(f, r1.frame.idempotents[i]), sparse(f, r2.frame.idempotents[j]))
            idems.append(densify(f, e, c.dim))
            labels.append(f"{r1.frame.labels[i]}*{r2.frame.labels[j]}")
            degrees.append(r1.frame.degrees[i] + r2.frame.degrees[j])
    frame = IdempotentFrame(c, idems, labels, degrees)
    structure = ReedyStructure(
        c, frame, outer_span(r1.aplus, r2.aplus), outer_span(r1.aminus, r2.aminus)
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
