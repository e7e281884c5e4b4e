"""Finite-dimensional associative algebras given by structure constants.

An algebra stores its multiplication sparsely: ``mult[i][j]`` is a tuple of
``(k, c)`` pairs meaning b_i * b_j = sum c * b_k.  Vectors over the algebra
given one at a time (units, frame idempotents) are dense tuples of field
scalars; subspaces keep sparse echelon rows (dicts index -> scalar), and
everything that walks a span works on those rows.

All objects here are immutable after construction (tuples throughout);
derived data is memoised in a private per-instance cache.
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


class Algebra:
    __slots__ = ("field", "dim", "labels", "mult", "unit", "_cache")

    def __init__(self, field: Field, labels, mult, unit):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.mult = tuple(
            tuple(tuple((int(k), c) for k, c in row) for row in per_i) for per_i in mult
        )
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
                    if val == f.zero:
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
    """Check associativity and the unit laws, listing every violation."""
    f = a.field
    violations = []
    unit = sparse(f, a.unit)
    for i in range(a.dim):
        bi = {i: f.one}
        if a.mul_sparse(unit, bi) != bi:
            violations.append({"kind": "unit-left", "index": i})
        if a.mul_sparse(bi, unit) != bi:
            violations.append({"kind": "unit-right", "index": i})
    for i in range(a.dim):
        row_i = a.mult[i]
        for j in range(a.dim):
            ij = row_i[j]
            row_j = a.mult[j]
            for k in range(a.dim):
                jk = row_j[k]
                if not ij and not jk:
                    continue
                lhs: dict = {}
                for m, c in ij:
                    for t, d in a.mult[m][k]:
                        val = f.add(lhs.get(t, f.zero), f.mul(c, d))
                        if val == f.zero:
                            lhs.pop(t, None)
                        else:
                            lhs[t] = val
                rhs: dict = {}
                for m, c in jk:
                    for t, d in row_i[m]:
                        val = f.add(rhs.get(t, f.zero), f.mul(c, d))
                        if val == f.zero:
                            rhs.pop(t, None)
                        else:
                            rhs[t] = val
                if lhs != rhs:
                    violations.append({"kind": "associativity", "triple": (i, j, k)})
    return {"valid": not violations, "violations": violations}


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
        for idx, e in enumerate(self.idempotents):
            if a.mul(e, e) != e:
                raise AlgebraError(f"element {self.labels[idx]} is not idempotent")
        for i in range(len(self.idempotents)):
            for j in range(len(self.idempotents)):
                if i != j:
                    prod = a.mul(self.idempotents[i], self.idempotents[j])
                    if any(x != f.zero for x in prod):
                        raise AlgebraError(
                            f"idempotents {self.labels[i]}, {self.labels[j]} not orthogonal"
                        )
        total = [f.zero] * a.dim
        for e in self.idempotents:
            total = [f.add(x, y) for x, y in zip(total, e)]
        if tuple(total) != a.unit:
            raise AlgebraError("idempotents do not sum to the unit")
        if self.degrees is not None and any(d < 0 for d in self.degrees):
            raise AlgebraError("degrees must be natural numbers")

    def __len__(self):
        return len(self.idempotents)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def with_degrees(self, degrees) -> "IdempotentFrame":
        return IdempotentFrame(
            self.algebra, self.idempotents, self.labels, degrees, check=False
        )

    def without_degrees(self) -> "IdempotentFrame":
        return IdempotentFrame(self.algebra, self.idempotents, self.labels, None, check=False)

    # degree structure -------------------------------------------------

    def levels(self) -> tuple[int, ...]:
        """Occupied degree values in increasing order."""
        if self.degrees is None:
            raise AlgebraError("frame has no degree function")
        return tuple(sorted(set(self.degrees)))

    def normalized_degrees(self) -> tuple[int, ...]:
        ranks = {d: r for r, d in enumerate(self.levels())}
        return tuple(ranks[d] for d in self.degrees)

    def eps(self, level: int) -> tuple:
        """Sum of the idempotents of the given degree (zero if none)."""
        return self._degree_sum(lambda d: d == level)

    def eps_upto(self, level: int) -> tuple:
        return self._degree_sum(lambda d: d <= level)

    def _degree_sum(self, keep) -> tuple:
        f = self.algebra.field
        total = [f.zero] * self.algebra.dim
        for e, d in zip(self.idempotents, self.degrees):
            if keep(d):
                total = [f.add(x, y) for x, y in zip(total, e)]
        return tuple(total)

    def lines(self) -> tuple:
        """Each idempotent's span as a sparse Subspace (zero for a zero
        idempotent), built once per frame."""
        if "lines" not in self._cache:
            f, n = self.algebra.field, self.algebra.dim
            self._cache["lines"] = tuple(sparse_span(f, n, [sparse(f, e)]) for e in self.idempotents)
        return self._cache["lines"]

    def semisimple_span(self) -> Subspace:
        key = "S"
        if key not in self._cache:
            self._cache[key] = span(self.algebra.field, self.algebra.dim, self.idempotents)
        return self._cache[key]


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

    def is_ideal(self) -> bool:
        a = self.algebra
        f = a.field
        units = [{k: f.one} for k in range(a.dim)]
        return self._contains_all(
            prod
            for v in self.space.rows.values()
            for bk in units
            for prod in (a.mul_sparse(bk, v), a.mul_sparse(v, bk))
        )

    def extracted(self):
        """The subspace as a standalone algebra plus its embedding rows
        (the sparse rows of the space, whose order indexes the new basis).

        Requires a verified multiplicative closure (subalgebra flag for a
        unital result; the unit of an extracted ideal is not defined).
        """
        if "extracted" in self._cache:
            return self._cache["extracted"]
        if self.closure_kind != AlgSubspace.SUBALGEBRA:
            raise AlgebraError("extraction needs a verified subalgebra")
        a = self.algebra
        labels = [f"s{i}_{a.labels[p]}" for i, p in enumerate(self.space.rows)]
        sub = _on_rows(a, self.space, a.unit, labels)
        self._cache["extracted"] = (sub, tuple(self.space.rows.values()))
        return self._cache["extracted"]


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


def two_sided_span(a: Algebra, e, space: Subspace | None) -> Subspace:
    """Span of X*e*X for X a subspace (the ideal AeA when None)."""
    return product_span(a, column_span(a, space, e), space)


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
    """tr(M**exp) mod modulus for an integer matrix M given by sparse rows."""

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
    if result is None:
        return len(rows) % modulus
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


def _check_nilpotent(a: Algebra, sub: Subspace) -> bool:
    """Whether some power of ``sub`` vanishes, where J^(k+1) = span(J^k * J).

    A nonzero power that repeats (J^(k+1) = J^k) repeats forever, so the
    check stops there with False.
    """
    power = sub
    for _ in range(a.dim + 1):
        if power.dim == 0:
            return True
        nxt = product_span(a, power, sub)
        if nxt == power:
            return False
        power = nxt
    return power.dim == 0


def radical(a: Algebra) -> AlgSubspace:
    """The Jacobson radical as a verified two-sided ideal (see
    ``radical_generic``), checked nilpotent and two-sided on every result."""
    if "radical" in a._cache:
        return a._cache["radical"]
    result = AlgSubspace(a, radical_generic(a), AlgSubspace.IDEAL)
    if not _check_nilpotent(a, result.space):
        raise AlgebraError("radical candidate not nilpotent (unsupported input)")
    if not result.is_ideal():
        raise AlgebraError("radical candidate not an ideal (unsupported input)")
    a._cache["radical"] = result
    return result


def radical_generic(a: Algebra) -> Subspace:
    """The radical by trace forms.

    The trace-form kernel K is an ideal containing rad A, so K = rad A as
    soon as K is nilpotent.  In characteristic 0 or p > dim A, Newton's
    identities make every element of K nilpotent, so K is the radical with
    no further pass.  Otherwise K is checked nilpotent, and if it is not,
    the p-power trace chain continues from K.
    """
    if a.dim == 0:
        return Subspace(a.field, 0)
    k = _trace_form_kernel(a)
    p = a.field.characteristic
    if p == 0 or p > a.dim or _check_nilpotent(a, k):
        return k
    return _radical_charp(a, k)


def radical_space(a: Algebra, sub: AlgSubspace | None = None) -> Subspace:
    """rad(X) as a subspace of A, for X = A or a verified subalgebra ``sub``:
    rad(B) is the radical of B extracted as an algebra, embedded back along
    B's rows and cached on ``sub``."""
    if sub is None:
        return radical(a).space
    if "radical" not in sub._cache:
        sub_alg, rows = sub.extracted()
        coords = radical(sub_alg).space.rows.values()
        sub._cache["radical"] = sparse_span(
            a.field, a.dim, (_combination(a.field, c, rows) for c in coords)
        )
    return sub._cache["radical"]


def is_elementary(a: Algebra, frame: IdempotentFrame, sub: AlgSubspace | None = None,
                  below: Subspace | None = None) -> bool:
    """Whether X = A (or the verified subalgebra ``sub``) is elementary for
    the frame: every frame idempotent lies in X, dim X - dim rad X = |E|, and
    dim e_i X e_i - dim e_i rad(X) e_i = 1, the corner of X/rad(X) at e_i.
    With ``below`` = J, X is A/J in residue rows modulo J: rad(A/J) is
    (rad A + J)/J and the frame idempotents in J, which vanish, are skipped.
    Verdicts without J are cached on X per frame."""
    cache = {} if below is not None else a._cache if sub is None else sub._cache
    key = ("elementary", frame.idempotents)
    if key not in cache:
        lines, space = frame.lines(), None if sub is None else sub.space
        if below is not None:
            space = full_space(a.field, a.dim, below)
            lines = [line for line in lines if not all(map(below.contains, line.rows.values()))]
        ok = sub is None or all(space.contains(v) for line in lines for v in line.rows.values())
        if ok:
            rad = modulo(radical_space(a, sub), below)
            ok = (a.dim if space is None else space.dim) - rad.dim == len(lines) and all(
                corner_span(a, line, space, below).dim - corner_span(a, line, rad, below).dim == 1
                for line in lines)
        cache[key] = ok
    return cache[key]


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


def tensor_dim_over_corner(a: Algebra, e, below: Subspace | None = None) -> int:
    """dim of Ae (x)_{eAe} eA, via the rank of the balancing relations.

    With ``below`` = J, an ideal of A, the algebra is A/J: M, N and the
    corner are residue rows modulo J, and a product is read in their
    coordinates after reduction modulo J."""
    f = a.field
    e = tuple(e)
    if not a.is_idempotent(e):
        raise AlgebraError("tensor_dim_over_corner requires an idempotent")
    if below is None:
        below = Subspace(f, a.dim)
    line = element_line(a, e)
    m_space = product_span(a, None, line, below)
    n_space = product_span(a, line, None, below)
    dim_m, dim_n = m_space.dim, n_space.dim
    if dim_m == 0 or dim_n == 0:
        return 0
    m_rows = m_space.rows.values()
    n_rows = n_space.rows.values()
    relations = Echelon(f, dim_m * dim_n)
    for sr in product_span(a, line, m_space, below).rows.values():
        xr = [m_space.coords(below.reduce(a.mul_sparse(x, sr))) for x in m_rows]
        ry = [n_space.coords(below.reduce(a.mul_sparse(sr, y))) for y in n_rows]
        # x r (x) y - x (x) r y for every basis pair (x, y)
        for xi, left in enumerate(xr):
            for yj, right in enumerate(ry):
                vec = {c * dim_n + yj: v for c, v in left.items()}
                for c, v in right.items():
                    key = xi * dim_n + c
                    val = f.sub(vec.get(key, f.zero), v)
                    if val == f.zero:
                        vec.pop(key, None)
                    else:
                        vec[key] = val
                if vec:
                    relations.insert(vec)
    return dim_m * dim_n - relations.dim
