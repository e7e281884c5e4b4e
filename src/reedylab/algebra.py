"""Finite-dimensional associative algebras given by structure constants.

An algebra stores its multiplication sparsely: ``mult[i][j]`` is a tuple of
``(k, c)`` pairs meaning b_i * b_j = sum c * b_k.  Vectors over the algebra
given one at a time (units, frame idempotents) are dense tuples of field
scalars; subspaces keep sparse echelon rows (dicts index -> scalar), and
everything that walks a span works on those rows.

All objects here are immutable after construction (tuples throughout).
Derived data is memoised by ``memo`` on the object it is a function of:
the radical on the algebra; the idempotent lines, S, the Peirce tables and
everything else read against a frame on the frame, keyed by the subspace's
space (None for A); a subspace's extraction and radical on the subspace.
"""

from __future__ import annotations

from .fields import Field
from .linalg import (
    Echelon,
    Subspace,
    add_scaled,
    densify,
    full_space,
    modulo,
    null_space,
    span,
    sparse,
    sparse_span,
)


class AlgebraError(Exception):
    pass


def memo(owner, key, compute):
    """The value of ``compute()``, computed once per ``key`` and kept in the
    private cache of ``owner``, the object it is a function of."""
    cache = owner._cache
    if key not in cache:
        cache[key] = compute()
    return cache[key]


class Algebra:
    __slots__ = ("field", "dim", "labels", "mult", "unit", "_cache")

    def __init__(self, field: Field, labels, mult, unit):
        """``mult[i][j]`` is a tuple of ``(k, c)`` tuples with an int ``k``;
        each row is stored as a tuple of the cells given."""
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.mult = tuple(map(tuple, mult))
        self.unit = tuple(unit)
        if len(self.mult) != self.dim or any(len(r) != self.dim for r in self.mult):
            raise ValueError("structure constant table has wrong shape")
        if len(self.unit) != self.dim:
            raise ValueError("unit vector has wrong length")
        self._cache = {}

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field!r})"

    # multiplication --------------------------------------------------

    def mul_sparse(self, u: dict, w: dict) -> dict:
        f = self.field
        acc: dict = {}
        mult = self.mult
        for i, a in u.items():
            row = mult[i]
            for j, b in w.items():
                pairs = row[j]
                if not pairs:
                    continue
                ab = f.mul(a, b)
                for k, c in pairs:
                    val = f.add(acc.get(k, f.zero), f.mul(ab, c))
                    if not val:
                        acc.pop(k, None)
                    else:
                        acc[k] = val
        return acc

    def mul(self, u, w) -> tuple:
        f = self.field
        out = self.mul_sparse(sparse(f, u), sparse(f, w))
        return densify(f, out, self.dim)

    def zero_vector(self) -> tuple:
        return (self.field.zero,) * self.dim

    def basis_vector(self, i: int) -> tuple:
        f = self.field
        return tuple(f.one if j == i else f.zero for j in range(self.dim))

    def is_idempotent(self, vec) -> bool:
        return self.mul(vec, vec) == tuple(vec)


def validate(a: Algebra) -> dict:
    """Check associativity and the unit laws, listing every violation.

    Write assoc(x, y, z) = (xy)z - x(yz).  The unit laws are checked first,
    on every basis element.  Associativity is then certified on a
    generating set G: if the unit laws hold, assoc(g, y, z) vanishes for
    every g in G and all basis y, z, and the right-nested words
    g1(g2(...(gk*1))) span A, then A is associative, by induction on word
    length: for x = g*w,
    ((gw)y)z = (g(wy))z = g((wy)z) = g(w(yz)) = (gw)(yz).
    The induction starts at the empty word 1, where assoc(1, y, z) = 0
    follows from the left unit law; without that check a corrupted table
    can pass the certificate (a copy of diamond with d*bd = bd + cd does).

    The certificate visits only the triples that chain in the table's own
    grading.  Each basis index t gets a row class R(t) and a column class
    C(t), the finest partition with C(s) = R(t) whenever b_s b_t has a
    nonzero term, and R(k) = R(s), C(k) = C(t) for every nonzero term
    c b_k of b_s b_t.  Reading the table alone, a nonzero term b_m of
    b_i b_j with b_m b_k nonzero gives C(i) = R(j) and
    C(j) = C(m) = R(k), and likewise for b_i (b_j b_k).  So both sides
    of assoc(i, j, k) are 0 unless R(j) = C(i) and R(k) = C(j), with no
    associativity assumed, and for each g in G only j in the class C(g)
    and k in the class C(j) are scanned.  Terms with a zero coefficient,
    which a loaded table may keep, add nothing to a product and join no
    classes.

    When the unit laws or the certificate fail, the full scan runs over
    every i and, by the same lemma, over the chained j and k only, so the
    violations listed are always those of every triple.

    Both scans decide a triple by table lookup when its cells have one term
    each, as every shipped or generated table's do, and by summing both
    sides otherwise (see ``_associativity_violations``); neither compares
    a scalar through ``Fraction.__eq__``.
    """
    f = a.field
    violations = []
    unit = sparse(f, a.unit)
    for i in range(a.dim):
        bi = {i: f.one}
        if a.mul_sparse(unit, bi) != bi:
            violations.append({"kind": "unit-left", "index": i})
        if a.mul_sparse(bi, unit) != bi:
            violations.append({"kind": "unit-right", "index": i})
    gens, chained = _word_generators(a, unit)
    if not violations and gens is not None and not _associativity_violations(a, gens, chained):
        return {"valid": True, "violations": []}
    violations.extend(_associativity_violations(a, range(a.dim), chained))
    return {"valid": not violations, "violations": violations}


def _word_generators(a: Algebra, unit: dict):
    """Basis indices G whose right-nested words g1(g2(...(gk*1))) span A
    (None if even the words in all basis elements do not), and ``chained``:
    for each basis index t, the indices s with R(s) = C(t) in the grading
    of ``validate``, in increasing order.

    One pass over the table counts each index's uses as a product term and
    joins the classes, by union-find over the nodes R(t) = t and
    C(t) = dim + t.  Indices that occur least often as a product term come
    first, and one is kept only if its basis vector is not yet a
    combination of words.  A zero product g*w adds no word, and no word is
    formed once the words span A.
    """
    f = a.field
    n = a.dim
    uses = [0] * n
    parent = list(range(2 * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(x, y):
        x, y = find(x), find(y)
        if x != y:
            parent[x] = y

    for s, row in enumerate(a.mult):
        for t, pairs in enumerate(row):
            for k, c in pairs:
                uses[k] += 1
                if not c:
                    continue
                # most joins repeat one already made; equal parents skip the call
                if parent[n + s] != parent[t]:
                    join(n + s, t)
                if parent[k] != parent[s]:
                    join(k, s)
                if parent[n + k] != parent[n + t]:
                    join(n + k, n + t)
    rows: dict = {}
    for s in range(n):
        rows.setdefault(find(s), []).append(s)
    chained = [rows.get(find(n + t), ()) for t in range(n)]

    words = Echelon(f, a.dim)
    found = [unit] if words.insert(unit) else []
    gens = []
    for i in sorted(range(a.dim), key=uses.__getitem__):
        if words.dim == a.dim:
            break
        if words.contains({i: f.one}):
            continue
        gens.append(i)
        pending = [(i, w) for w in found]
        while pending and words.dim < a.dim:
            g, w = pending.pop()
            gw = a.mul_sparse({g: f.one}, w)
            if gw and words.insert(gw):
                found.append(gw)
                pending.extend((h, gw) for h in gens)
    return (gens if words.dim == a.dim else None), chained


def _associativity_violations(a: Algebra, firsts, chained) -> list:
    """The triples (i, j, k) with i in ``firsts`` where (b_i b_j) b_k and
    b_i (b_j b_k) differ, in scan order.  j runs over ``chained[i]`` and k
    over ``chained[j]``.

    A triple is decided by lookup when its four cells have at most one term
    each: b_i b_j = c b_m, b_m b_k = d b_t, b_j b_k = c' b_m' and
    b_i b_m' = d' b_t', where an empty cell reads as a zero scalar.  The two
    sides are then (cd) b_t and (c'd') b_t', the same vector when cd and
    c'd' are both 0, or when t = t' and cd = c'd'.  Every other triple,
    a one-term triple this test does not accept included, is decided by
    the exact sums of both sides."""
    f = a.field
    mul, zero = f.mul, f.zero
    mult = a.mult
    violations = []
    for i in firsts:
        row_i = mult[i]
        for j in chained[i]:
            ij = row_i[j]
            row_j = mult[j]
            one_term = len(ij) < 2
            if ij and one_term:  # c and row_m are read only for this ij
                (m, c), = ij
                row_m = mult[m]
            for k in chained[j]:
                jk = row_j[k]
                if not ij and not jk:
                    continue
                if one_term and len(jk) < 2:
                    left = ij and row_m[k]
                    right = jk and row_i[jk[0][0]]
                    if len(left) < 2 and len(right) < 2:
                        x = mul(c, left[0][1]) if left else zero
                        y = mul(jk[0][1], right[0][1]) if right else zero
                        if not x and not y:
                            continue
                        if x and y and left[0][0] == right[0][0] and (
                                x == y if type(x) is type(y) is int else _same_scalar(x, y)):
                            continue
                lhs = _scaled_sum(f, ((coeff, mult[s][k]) for s, coeff in ij))
                rhs = _scaled_sum(f, ((coeff, row_i[s]) for s, coeff in jk))
                if lhs.keys() != rhs.keys() or not all(
                        _same_scalar(x, rhs[t]) for t, x in lhs.items()):
                    violations.append({"kind": "associativity", "triple": (i, j, k)})
    return violations


def _scaled_sum(f: Field, pairs) -> dict:
    """The sum of c * cell over the (scalar, table cell) pairs, sparse."""
    acc: dict = {}
    for c, cell in pairs:
        for t, d in cell:
            val = f.add(acc.get(t, f.zero), f.mul(c, d))
            if not val:
                acc.pop(t, None)
            else:
                acc[t] = val
    return acc


def _same_scalar(x, y) -> bool:
    """x == y for two scalars: ints as ints, and rationals by numerator and
    denominator, which ``Fraction`` keeps in lowest terms, so that
    ``Fraction.__eq__`` does not run."""
    if type(x) is int and type(y) is int:
        return x == y
    return x.numerator == y.numerator and x.denominator == y.denominator


class IdempotentFrame:
    """A complete set of pairwise orthogonal idempotents with optional degrees."""

    __slots__ = ("algebra", "labels", "idempotents", "degrees", "_cache")

    def __init__(self, algebra: Algebra, idempotents, labels=None, degrees=None, check=True):
        self.algebra = algebra
        self.idempotents = tuple(tuple(v) for v in idempotents)
        n = len(self.idempotents)
        self.labels = tuple(labels) if labels is not None else tuple(f"e{i}" for i in range(n))
        if len(self.labels) != n:
            raise ValueError("label count mismatch")
        self.degrees = tuple(int(d) for d in degrees) if degrees is not None else None
        if self.degrees is not None and len(self.degrees) != n:
            raise ValueError("degree count mismatch")
        self._cache = {}
        if check:
            self._check()

    def _check(self):
        a = self.algebra
        f = a.field
        vecs = [sparse(f, e) for e in self.idempotents]
        for idx, e in enumerate(vecs):
            if a.mul_sparse(e, e) != e:
                raise AlgebraError(f"element {self.labels[idx]} is not idempotent")
        for i, u in enumerate(vecs):
            for j, w in enumerate(vecs):
                if i != j and a.mul_sparse(u, w):
                    raise AlgebraError(
                        f"idempotents {self.labels[i]}, {self.labels[j]} not orthogonal"
                    )
        if self.sum_of(range(len(self))) != a.unit:
            raise AlgebraError("idempotents do not sum to the unit")
        if self.degrees is not None and any(d < 0 for d in self.degrees):
            raise AlgebraError("degrees must be natural numbers")

    def __len__(self):
        return len(self.idempotents)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def with_degrees(self, degrees) -> "IdempotentFrame":
        """The frame with another degree function (None for none), sharing
        this frame's cache: nothing cached on a frame depends on degrees."""
        copy = IdempotentFrame(self.algebra, self.idempotents, self.labels, degrees, check=False)
        copy._cache = self._cache
        return copy

    def without_degrees(self) -> "IdempotentFrame":
        return self.with_degrees(None)

    # degree structure -------------------------------------------------

    def degree_function(self) -> tuple[int, ...]:
        """The degrees, or an AlgebraError when the frame has none."""
        if self.degrees is None:
            raise AlgebraError("frame has no degree function")
        return self.degrees

    def levels(self) -> tuple[int, ...]:
        """Occupied degree values in increasing order."""
        return tuple(sorted(set(self.degree_function())))

    def normalized(self) -> "IdempotentFrame":
        """The frame with each degree replaced by its rank among the
        occupied degrees, 0 for the lowest."""
        ranks = {d: r for r, d in enumerate(self.levels())}
        return self.with_degrees([ranks[d] for d in self.degrees])

    def eps(self, level: int) -> tuple:
        """Sum of the idempotents of the given degree (zero if none)."""
        return self.sum_of(i for i, d in enumerate(self.degrees) if d == level)

    def sum_of(self, indices) -> tuple:
        """Sum of the idempotents at ``indices`` (zero if none)."""
        f = self.algebra.field
        total = [f.zero] * self.algebra.dim
        for i in indices:
            total = [f.add(x, y) for x, y in zip(total, self.idempotents[i])]
        return tuple(total)

    def lines(self) -> tuple:
        """Each idempotent's span as a sparse Subspace (zero for a zero
        idempotent), built once per frame."""
        f, n = self.algebra.field, self.algebra.dim
        return memo(self, "lines",
                    lambda: tuple(sparse_span(f, n, [sparse(f, e)]) for e in self.idempotents))

    def semisimple_span(self) -> Subspace:
        return memo(self, "S", lambda: span(self.algebra.field, self.algebra.dim, self.idempotents))


def peirce_blocks(frame: IdempotentFrame, sub: AlgSubspace | None = None) -> dict:
    """All blocks e_j X e_i of the algebra or of a subspace, kept on the
    frame: the columns (e_j X) e_i of the rows e_j X."""
    space = None if sub is None else sub.space

    def blocks():
        a, lines = frame.algebra, frame.lines()
        rows = [row_span(a, line, space) for line in lines]
        return {(j, i): column_span(a, rows[j], line)
                for j in range(len(lines)) for i, line in enumerate(lines)}
    return memo(frame, ("peirce", space), blocks)


def peirce_dim(frame: IdempotentFrame, sub: AlgSubspace | None, i: int, side: str = "left") -> int:
    """dim X e_i (dim e_i X on the "right") for X = A or a subspace holding
    the frame, which sums to 1: the sum of the Peirce blocks of X at e_i."""
    blocks = peirce_blocks(frame, sub)
    return sum(blocks[(j, i) if side == "left" else (i, j)].dim for j in range(len(frame)))


class AlgSubspace:
    """A subspace of an algebra, optionally verified as subalgebra or ideal."""

    PLAIN = "plain"
    SUBALGEBRA = "subalgebra"
    IDEAL = "two-sided-ideal"

    __slots__ = ("algebra", "space", "closure_kind", "_cache")

    def __init__(self, algebra: Algebra, space: Subspace, closure_kind: str = PLAIN):
        if space.ambient_dim != algebra.dim:
            raise ValueError("ambient dimension mismatch")
        self.algebra = algebra
        self.space = space
        self.closure_kind = closure_kind
        self._cache = {}

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"AlgSubspace(dim={self.dim}, kind={self.closure_kind})"

    def contains(self, vec) -> bool:
        """Whether a dense element lies in the space."""
        return self.space.contains(sparse(self.algebra.field, vec))

    def _contains_all(self, products) -> bool:
        """Whether every sparse vector in ``products`` lies in the space."""
        return not any(prod and self.space.reduce(prod) for prod in products)

    def is_multiplicatively_closed(self) -> bool:
        a = self.algebra
        rows = self.space.rows.values()
        return self._contains_all(a.mul_sparse(u, v) for u in rows for v in rows)

    def is_subalgebra(self) -> bool:
        return self.contains(self.algebra.unit) and self.is_multiplicatively_closed()

    def is_ideal(self, square: Subspace | None = None) -> bool:
        """Whether X is a two-sided ideal.  Being one is linear in the
        multiplier, and the rows of X with the unit vectors b_c at the
        coordinates c off X's pivots span A, so X is an ideal exactly when
        span(X*X) lies in X and so do b_c*X and X*b_c for those c:
        |X|^2 + 2(dim A - |X|)|X| products, with no associativity assumed.
        ``square`` is span(X*X) when the caller has formed it already."""
        if square is None:
            closed = self.is_multiplicatively_closed()
        else:
            closed = self._contains_all(square.rows.values())
        return closed and self._contains_all(_unit_products(
            self.algebra, self.space.rows.values(), self.space.complement_coords()))

    def extracted(self):
        """The subspace as a standalone algebra plus its embedding rows
        (the sparse rows of the space, whose order indexes the new basis).

        Requires a verified multiplicative closure (subalgebra flag for a
        unital result; the unit of an extracted ideal is not defined).
        """
        if self.closure_kind != AlgSubspace.SUBALGEBRA:
            raise AlgebraError("extraction needs a verified subalgebra")
        a, rows = self.algebra, self.space.rows
        return memo(self, "extracted", lambda: (
            _on_rows(a, self.space, a.unit, [f"s{i}_{a.labels[p]}" for i, p in enumerate(rows)]),
            tuple(rows.values())))


def _unit_products(a: Algebra, vectors, coords):
    """b_c*v and v*b_c for each sparse v in ``vectors`` and c in ``coords``,
    read off the structure constants in one pass over v:
    b_c*v = sum_i v_i mult[c][i] and v*b_c = sum_i v_i mult[i][c].  The
    nonzero cells at each i are gathered once per call."""
    f, mult = a.field, a.mult
    cells: dict = {}  # i -> ([(c, mult[c][i])], [(c, mult[i][c])]) over c in coords, cells nonzero
    for v in vectors:
        left: dict = {}
        right: dict = {}
        for i, x in v.items():
            if i not in cells:
                cells[i] = ([(c, mult[c][i]) for c in coords if mult[c][i]],
                            [(c, mult[i][c]) for c in coords if mult[i][c]])
            for out, at in zip((left, right), cells[i]):
                for c, pairs in at:
                    prod = out.setdefault(c, {})
                    for k, m in pairs:
                        val = f.add(prod.get(k, f.zero), f.mul(x, m))
                        if not val:
                            prod.pop(k, None)
                        else:
                            prod[k] = val
        yield from left.values()
        yield from right.values()


def _on_rows(a: Algebra, space: Subspace, unit, labels) -> Algebra:
    """A multiplicatively closed ``space`` that contains the dense element
    ``unit``, as an algebra with that unit on the basis of its rows: the
    structure constants are the coordinates of the row products."""
    rows = space.rows.values()
    mult = []
    for u in rows:
        per = []
        for v in rows:
            coords = space.coords(a.mul_sparse(u, v))
            if coords is None:
                raise AlgebraError("subspace is not multiplicatively closed")
            per.append(tuple(coords.items()))
        mult.append(tuple(per))
    unit_coords = space.coords(sparse(a.field, unit))
    if unit_coords is None:
        raise AlgebraError("subspace does not contain the unit")
    return Algebra(a.field, labels, mult, densify(a.field, unit_coords, space.dim))


def plain_subspace(a: Algebra, vectors) -> AlgSubspace:
    return AlgSubspace(a, span(a.field, a.dim, vectors), AlgSubspace.PLAIN)


def full_subalgebra(a: Algebra) -> AlgSubspace:
    return AlgSubspace(a, full_space(a.field, a.dim), AlgSubspace.SUBALGEBRA)


def _as_sparse(f, vec) -> dict:
    """An element given densely or as a sparse dict, as a sparse dict."""
    return vec if isinstance(vec, dict) else sparse(f, vec)


def subalgebra_closure(a: Algebra, generators) -> AlgSubspace:
    """Smallest unital subalgebra containing the generators (dense or sparse):
    the fixed point of S <- S*S from the span of the unit and the
    generators, where S*S contains S because 1 lies in S."""
    f = a.field
    s = sparse_span(f, a.dim, (_as_sparse(f, v) for v in [a.unit, *generators]))
    while True:
        nxt = product_span(a, s, s)
        if nxt.dim == s.dim:
            return AlgSubspace(a, s, AlgSubspace.SUBALGEBRA)
        s = nxt


def ideal_closure(a: Algebra, generators) -> AlgSubspace:
    """Smallest two-sided ideal containing the generators (dense or sparse):
    (A*X)*A for X their span, since A is unital."""
    f = a.field
    x = sparse_span(f, a.dim, (_as_sparse(f, v) for v in generators))
    return AlgSubspace(a, product_span(a, product_span(a, None, x), None), AlgSubspace.IDEAL)


# spans and products --------------------------------------------------------


def _product_echelon(a: Algebra, pairs, base: Subspace | None = None):
    """Every product x*y for x in X, y in Y and (X, Y) in ``pairs``, reduced
    modulo ``base`` and inserted into one Echelon; returns the sum of
    dim X * dim Y and the Echelon, whose rows are the residue rows of the
    products modulo ``base``."""
    acc = Echelon(a.field, a.dim)
    domain = 0
    for xs, ys in pairs:
        domain += xs.dim * ys.dim
        for x in xs.rows.values():
            for y in ys.rows.values():
                prod = a.mul_sparse(x, y)
                if prod and base is not None:
                    prod = base.reduce(prod)
                if prod:
                    acc.insert(prod)
    return domain, acc


def product_span(a: Algebra, xs: Subspace | None, ys: Subspace | None,
                 base: Subspace | None = None) -> Subspace:
    """Span of x*y for x in X and y in Y, where None stands for A; with
    ``base`` = J an ideal, the residue rows of X*Y modulo J, and X and Y may
    be residue rows too (None is then A/J), since J*A and A*J lie in J."""
    if xs is None:
        xs = full_space(a.field, a.dim, base)
    if ys is None:
        ys = full_space(a.field, a.dim, base)
    return _product_echelon(a, [(xs, ys)], base)[1].to_subspace()


def element_line(a: Algebra, e) -> Subspace:
    """The span of one element, given densely, as a sparse dict or as a line."""
    if isinstance(e, Subspace):
        return e
    return sparse_span(a.field, a.dim, [_as_sparse(a.field, e)])


def column_span(a: Algebra, space: Subspace | None, e) -> Subspace:
    """Span of X*e for X a subspace (the column A*e when None)."""
    return product_span(a, space, element_line(a, e))


def row_span(a: Algebra, e, space: Subspace | None) -> Subspace:
    """Span of e*X for X a subspace (the row e*A when None)."""
    return product_span(a, element_line(a, e), space)


def corner_span(a: Algebra, e, space: Subspace | None, base: Subspace | None = None) -> Subspace:
    """Span of e*X*e for X a subspace (the corner eAe when None), modulo
    the ideal ``base`` when given."""
    line = element_line(a, e)
    return product_span(a, line, product_span(a, space, line, base), base)


def peirce_two_sided(frame: IdempotentFrame, inside, sub: AlgSubspace | None = None) -> Subspace:
    """Span of X*e*X for X = A (the ideal AeA) or a subalgebra ``sub``
    holding the frame, and e the sum of the frame idempotents at
    ``inside``, from the cached Peirce table of X.  Its block at (h, g) is
    all of e_hXe_g when h or g is inside, since e_h = e_h e e_h lies in X
    and e_hXe_g = e_h e (e_hXe_g); for h and g outside it is the span of
    the products (e_hXe_i)(e_iXe_g) over i inside.  Both read X's table
    as associative, which a loaded file does not yet prove."""
    blocks, n = peirce_blocks(frame, sub), range(len(frame))
    outside = [h for h in n if h not in inside]
    pairs = [(blocks[(h, i)], blocks[(i, g)]) for h in outside for g in outside for i in inside]
    acc = _product_echelon(frame.algebra, pairs)[1]
    for (h, g), block in blocks.items():
        if h in inside or g in inside:
            for row in block.rows.values():
                acc.insert(row)
    return acc.to_subspace()


def product_rank(a: Algebra, pairs, base: Subspace | None = None) -> tuple[int, int]:
    """Domain dimension and rank of multiplication from the sum of X (x) Y to A.

    ``pairs`` yields (X, Y) subspaces of A, X (x) Y of dimension
    dim X * dim Y.  With ``base`` the rank is taken modulo that subspace,
    i.e. dim(base + image) - dim(base).
    """
    domain, acc = _product_echelon(a, pairs, base)
    return domain, acc.dim


class QuotientMap:
    """Projection data for an algebra quotient A -> A/J; the quotient's basis
    is the ambient coordinates that are not pivots of J."""

    __slots__ = ("source", "target", "ideal", "complement", "_index")

    def __init__(self, source: Algebra, ideal: AlgSubspace):
        self.source = source
        self.target = None
        self.ideal = ideal
        self.complement = ideal.space.complement_coords()
        self._index = {c: t for t, c in enumerate(self.complement)}

    def project_sparse(self, vec: dict) -> dict:
        index = self._index
        return {index[c]: x for c, x in self.ideal.space.reduce(vec).items()}

    def project(self, vec) -> tuple:
        """Dense image of a dense element."""
        f = self.source.field
        return densify(f, self.project_sparse(sparse(f, vec)), len(self.complement))


def quotient(a: Algebra, j: AlgSubspace) -> tuple[Algebra, QuotientMap]:
    """Quotient algebra by a verified two-sided ideal, with its projection;
    the checks hold A/J as residue rows modulo J instead (``product_span``)."""
    if j.closure_kind != AlgSubspace.IDEAL:
        raise AlgebraError("quotient requires a verified two-sided ideal")
    qmap = QuotientMap(a, j)
    comp = qmap.complement
    mult = [
        tuple(tuple(sorted(qmap.project_sparse(dict(a.mult[x][y])).items())) for y in comp)
        for x in comp
    ]
    q = Algebra(a.field, [a.labels[c] for c in comp], mult, qmap.project(a.unit))
    qmap.target = q
    return q, qmap


def quotient_frame(frame: IdempotentFrame, qmap: QuotientMap) -> IdempotentFrame:
    """Push a frame through a quotient, dropping idempotents that die."""
    f = qmap.target.field
    idems, labels, degrees = [], [], []
    for idx, e in enumerate(frame.idempotents):
        img = qmap.project(e)
        if any(x != f.zero for x in img):
            idems.append(img)
            labels.append(frame.labels[idx])
            if frame.degrees is not None:
                degrees.append(frame.degrees[idx])
    return IdempotentFrame(
        qmap.target, idems, labels, degrees if frame.degrees is not None else None
    )


def corner(a: Algebra, e) -> tuple[Algebra, Subspace]:
    """The corner algebra eAe with unit e, and eAe in A, whose rows are the
    corner's basis."""
    e = tuple(e)
    if not a.is_idempotent(e):
        raise AlgebraError("corner requires an idempotent element")
    sub = corner_span(a, e, None)
    return _on_rows(a, sub, e, [f"c_{a.labels[p]}" for p in sub.rows]), sub


# radical -----------------------------------------------------------------


def _trace_form_kernel(a: Algebra) -> Subspace:
    """Kernel of the form (x, y) -> tr(L_xy) on the standard basis."""
    f = a.field
    traces = []
    for m in range(a.dim):
        t = f.zero
        for k in range(a.dim):
            for idx, c in a.mult[m][k]:
                if idx == k:
                    t = f.add(t, c)
        traces.append(t)
    rows = []
    for i in range(a.dim):
        row = {}
        for j in range(a.dim):
            t = f.zero
            for m, c in a.mult[i][j]:
                if traces[m]:
                    t = f.add(t, f.mul(c, traces[m]))
            if t:
                row[j] = t
        rows.append(row)
    return null_space(f, a.dim, rows)


def _trace_power_mod(rows, exp: int, modulus: int) -> int:
    """tr(M**exp) mod modulus for an integer matrix M given by sparse rows
    and an exponent exp >= 1."""

    def reduced(acc: dict) -> dict:
        out = {}
        for s, v in acc.items():
            v %= modulus
            if v:
                out[s] = v
        return out

    def matmul(x, y):
        out = []
        for xr in x:
            acc: dict = {}
            for m, c in xr.items():
                for s, v in y[m].items():
                    acc[s] = acc.get(s, 0) + c * v
            out.append(reduced(acc))
        return out

    result = None
    base = [reduced(row) for row in rows]
    e = exp
    while e:
        if e & 1:
            result = base if result is None else matmul(result, base)
        e >>= 1
        if e:
            base = matmul(base, base)
            if not any(base):
                return 0  # every later factor is a power of the zero matrix
    return sum(row.get(r, 0) for r, row in enumerate(result)) % modulus


def _radical_charp(a: Algebra, seed: Subspace | None = None) -> Subspace:
    """Descending p-power trace chain on integer lifts of the regular
    representation: step i cuts by x -> tr(L_{xy}^{p^(i-1)}) / p^(i-1) mod p,
    which resolves the block multiplicities that make the plain trace form
    degenerate in characteristic p.  The form is symmetric: the lift of
    L_{xy} agrees mod p with the product of the lifts of L_x and L_y,
    matrices that agree mod p have p^(i-1)-th powers that agree mod p^i,
    and tr((XY)^q) = tr((YX)^q).

    Step 1 is the plain trace form on the standard basis, so its kernel is
    ``_trace_form_kernel(a)``; passing that kernel as ``seed`` starts the
    chain at step 2.  Without a seed the chain starts from the whole space.
    """
    p = a.field.characteristic
    f = a.field
    n = a.dim
    # int_rows[k][t][j]: coefficient of b_t in b_k * b_j, lifted to [0, p).
    int_rows = []
    for k in range(n):
        rows: dict = {}
        for j in range(n):
            for t, c in a.mult[k][j]:
                row = rows.setdefault(t, {})
                row[j] = (row.get(j, 0) + int(c)) % p
        int_rows.append(rows)

    def left_matrix_int(vec: dict) -> list:
        out = [{} for _ in range(n)]
        for k, c in vec.items():
            c = int(c)
            for t, row in int_rows[k].items():
                outt = out[t]
                for j, v in row.items():
                    outt[j] = outt.get(j, 0) + c * v
        return out

    if seed is None:
        current, power = full_space(f, n), 1
    else:
        current, power = seed, p
    # power = p^(i-1) at step i; the chain ends with the first power >= n.
    while current.dim and power // p < n:
        rows = list(current.rows.values())
        s = len(rows)
        modulus = power * p
        form = [{} for _ in range(s)]
        for r in range(s):
            for t in range(r, s):
                prod = a.mul_sparse(rows[r], rows[t])
                if prod:
                    tr = _trace_power_mod(left_matrix_int(prod), power, modulus)
                    val = (tr // power) % p
                    if val:
                        form[r][t] = form[t][r] = val
        combos = null_space(f, s, form).rows.values()
        current = sparse_span(f, n, (_combination(f, combo, rows) for combo in combos))
        power *= p
    return current


def _combination(f, coords: dict, rows) -> dict:
    """The sparse vector sum of c * rows[t] over the coefficients {t: c}."""
    vec: dict = {}
    for t, c in coords.items():
        add_scaled(f, vec, c, rows[t])
    return vec


def _check_nilpotent(a: Algebra, sub: Subspace, square: Subspace | None = None) -> bool:
    """Whether some power of ``sub`` vanishes, where J^(k+1) = span(J^k * J);
    ``square`` is J^2 when the caller has formed it already.

    A nonzero power that repeats (J^(k+1) = J^k) repeats forever, so the
    check stops there with False.
    """
    power, nxt = sub, square
    for _ in range(a.dim + 1):
        if power.dim == 0:
            return True
        if nxt is None:
            nxt = product_span(a, power, sub)
        if nxt == power:
            return False
        power, nxt = nxt, None
    return power.dim == 0


def radical(a: Algebra) -> AlgSubspace:
    """The Jacobson radical as a verified two-sided ideal (see
    ``radical_generic``, which certifies it a nilpotent ideal), kept on A."""
    return memo(a, "radical", lambda: AlgSubspace(a, radical_generic(a), AlgSubspace.IDEAL))


def radical_generic(a: Algebra) -> Subspace:
    """The radical by trace forms, returned only once certified a nilpotent
    two-sided ideal.

    The trace-form kernel K is an ideal containing rad A.  In characteristic
    0 or p > dim A, Newton's identities make every element of K nilpotent,
    so K is the radical.  Otherwise the p-power trace chain continues from
    K; each of its forms vanishes on rad A, so a K that is already the
    radical comes back unchanged.

    Both certificates read one span K^2 = span(K*K): the nilpotency chain
    starts from it, and then the ideal test (``AlgSubspace.is_ideal``) asks
    K^2 in K and multiplies K only by the unit vectors off K's pivots.
    """
    k = _trace_form_kernel(a)
    if 0 < a.field.characteristic <= a.dim:
        k = _radical_charp(a, k)
    square = product_span(a, k, k)
    if not _check_nilpotent(a, k, square):
        raise AlgebraError("radical candidate not nilpotent (unsupported input)")
    if not AlgSubspace(a, k).is_ideal(square):
        raise AlgebraError("radical candidate not an ideal (unsupported input)")
    return k


def radical_space(a: Algebra, sub: AlgSubspace | None = None) -> Subspace:
    """rad(X) as a subspace of A, for X = A or a verified subalgebra ``sub``:
    rad(B) is the radical of B extracted as an algebra, embedded back along
    B's rows and kept on ``sub``."""
    if sub is None:
        return radical(a).space

    def embedded():
        sub_alg, rows = sub.extracted()
        coords = radical(sub_alg).space.rows.values()
        return sparse_span(a.field, a.dim, (_combination(a.field, c, rows) for c in coords))
    return memo(sub, "radical", embedded)


def is_elementary(frame: IdempotentFrame, sub: AlgSubspace | None = None,
                  below: Subspace | None = None) -> bool:
    """Whether X = A (or the verified subalgebra ``sub``) is elementary for
    the frame: every frame idempotent lies in X and is nonzero, and
    dim X - dim rad X = |E|.  Then X/rad X holds |E| orthogonal nonzero
    idempotents that sum to 1, so the count forces its corners to be k*e_i.
    With ``below`` = J, X is A/J in residue rows modulo J: rad(A/J) is
    (rad A + J)/J and the frame idempotents in J, which vanish, are skipped.
    Verdicts without J are kept on the frame."""
    a = frame.algebra

    def decide():
        lines, dim = frame.lines(), a.dim if sub is None else sub.dim
        if below is not None:
            lines = [line for line in lines if not all(map(below.contains, line.rows.values()))]
            dim -= below.dim
        ok = all(line.dim for line in lines) and (
            sub is None or all(sub.space.contains(v) for line in lines for v in line.rows.values()))
        return ok and dim - modulo(radical_space(a, sub), below).dim == len(lines)
    if below is not None:
        return decide()
    return memo(frame, ("elementary", None if sub is None else sub.space), decide)


def is_primitive_idempotent(a: Algebra, e) -> bool:
    """Local corner test: e is primitive iff eAe/rad(eAe) is one-dimensional,
    where rad(eAe) = e*rad(A)*e."""
    if not a.is_idempotent(tuple(e)):
        raise AlgebraError("is_primitive_idempotent requires an idempotent element")
    return corner_span(a, e, None).dim - corner_span(a, e, radical(a).space).dim == 1


def tensor_algebras(a: Algebra, b: Algebra) -> Algebra:
    """Componentwise tensor product algebra on the paired basis."""
    if a.field != b.field:
        raise AlgebraError("tensor factors must share the field")
    f = a.field
    labels = [f"{la}*{lb}" for la in a.labels for lb in b.labels]
    nb = b.dim

    def pair(i, j):
        return i * nb + j

    mult = []
    for i1 in range(a.dim):
        for j1 in range(nb):
            per = []
            for i2 in range(a.dim):
                rows_a = a.mult[i1][i2]
                for j2 in range(nb):
                    if not rows_a:
                        per.append(())
                        continue
                    rows_b = b.mult[j1][j2]
                    if not rows_b:
                        per.append(())
                        continue
                    entries = []
                    for k1, c1 in rows_a:
                        for k2, c2 in rows_b:
                            entries.append((pair(k1, k2), f.mul(c1, c2)))
                    entries.sort()
                    per.append(tuple(entries))
            mult.append(tuple(per))
    unit = [f.zero] * (a.dim * nb)
    for i, x in enumerate(a.unit):
        if x == f.zero:
            continue
        for j, y in enumerate(b.unit):
            if y != f.zero:
                unit[pair(i, j)] = f.mul(x, y)
    return Algebra(f, labels, mult, unit)


def tensor_dim_over_corner(frame: IdempotentFrame, inside, below: Subspace | None = None) -> int:
    """dim of Ae (x)_{eAe} eA for e the sum of the frame idempotents at
    ``inside``, one frame pair (h, g) at a time.  eAe holds each e_i, so
    x (x) y vanishes for x in e_hAe_i, y in e_kAe_g and k != i.  If h or g
    is inside, the part at (h, g) is the block e_hAe_g.  For h and g
    outside it is e_hAe (x)_C N, for C = eAe and N = eAe_g, read off a
    projective presentation of N, since (x) is right exact:
    - generators v_t in e_{k_t}N: the block rows of each e_kAe_g, k by
      increasing degree (in frame order without degrees), each kept when
      it is not yet in the C-submodule of N the rows kept so far generate;
    - P = the sum of the C e_{k_t} maps onto N by c_t -> c_t v_t, and its
      kernel K is the sum of the e_jK (j inside), each one null space of
      the sum of the e_jAe_{k_t} -> e_jAe_g;
    - e_hAe (x)_C N is then the sum of the e_hAe_{k_t} modulo the tuples
      (m kappa_t)_t, for kappa in a basis of e_jK and m in a basis of
      e_hAe_j, since m (x) kappa = m e_j (x) kappa.
    The part maps onto e_h(AeA)e_g, the span of the x v_t for x in
    e_hAe_{k_t}, so the relations stop once their rank is the width less
    that span's rank; none is needed when eAe is spanned by the e_i or N
    is projective (K = 0).  The block and bound identities read A's table
    as associative, which a loaded file does not yet prove.  With
    ``below`` = J, an ideal, all is read in A/J: blocks as residue rows
    modulo J, products reduced modulo J."""
    a, lines, n = frame.algebra, frame.lines(), range(len(frame))
    f, dim = a.field, a.dim
    inside = sorted(inside)
    outside = [h for h in n if h not in inside]
    reduce = below.reduce if below is not None else dict
    columns = {i: product_span(a, None, lines[i], below) for i in inside}
    rows = {i: product_span(a, lines[i], None, below) for i in inside}
    blocks = {(k, i): product_span(a, lines[k], columns[i], below) for k in inside for i in inside}
    total = sum(columns[i].dim + rows[i].dim for i in inside) - sum(b.dim for b in blocks.values())
    if all(b.dim == 0 or (i == k and b.dim == 1) for (i, k), b in blocks.items()):
        # eAe is spanned by the e_i, whose relations vanish: each part is its full width
        return total + sum((columns[i].dim - blocks[(i, i)].dim) * (rows[i].dim - blocks[(i, i)].dim)
                           for i in inside)
    for i in inside:
        blocks.update({(h, i): product_span(a, lines[h], columns[i], below) for h in outside})
        blocks.update({(i, h): product_span(a, rows[i], lines[h], below) for h in outside})
    order = inside if frame.degrees is None else sorted(inside, key=frame.degrees.__getitem__)
    # the part at (h, g) is 0 when e_hAe is, so N is presented only for the other h
    left = [h for h in outside if any(blocks[(h, i)].dim for i in inside)]
    for g in outside if left else ():
        gens, images = [], {j: [] for j in inside}
        module = {j: Echelon(f, dim) for j in inside}
        for k in order:
            for v in blocks[(k, g)].rows.values():
                if module[k].contains(v):
                    continue
                t = len(gens)
                gens.append((k, v))
                for j in inside:
                    for c in blocks[(j, k)].rows.values():
                        cv = reduce(a.mul_sparse(c, v))
                        images[j].append((t, c, cv))
                        module[j].insert(cv)
        # (j, kappa) for kappa in a basis of e_jK, as its parts kappa_t in e_jAe_{k_t}
        kernel = []
        for j in order:
            transposed = {}
            for s, (_, _, cv) in enumerate(images[j]):
                for p, x in cv.items():
                    transposed.setdefault(p, {})[s] = x
            for coords in null_space(f, len(images[j]), transposed.values()).rows.values():
                kappa = {}
                for s, x in coords.items():
                    t, c, _ = images[j][s]
                    add_scaled(f, kappa.setdefault(t, {}), x, c)
                kernel.append((j, kappa))
        for h in left:
            width = sum(blocks[(h, k)].dim for k, _ in gens)
            if not kernel:
                total += width
                continue
            image = Echelon(f, dim)
            for k, v in gens:
                for x in blocks[(h, k)].rows.values():
                    image.insert(reduce(a.mul_sparse(x, v)))
            bound = width - image.dim
            # m (x) kappa in the sum of the e_hAe_{k_t}, m kappa_t at the columns t * dim + p
            tuples = ({t * dim + p: x for t, part in kappa.items()
                       for p, x in reduce(a.mul_sparse(m, part)).items()}
                      for j, kappa in kernel for m in blocks[(h, j)].rows.values())
            relations = Echelon(f, len(gens) * dim)
            for vec in tuples if bound else ():
                if relations.insert(vec) and relations.dim == bound:
                    break
            total += width - relations.dim
    return total
