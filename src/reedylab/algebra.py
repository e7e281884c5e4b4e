"""Finite-dimensional associative algebras given by structure constants.

An algebra stores its multiplication sparsely: ``mult[i][j]`` is a tuple of
``(k, c)`` pairs meaning b_i * b_j = sum c * b_k.  Vectors over the algebra
are dense tuples of field scalars; hot paths work with sparse dicts.

All objects here are immutable after construction (tuples throughout);
derived data is memoised in a private per-instance cache.
"""

from __future__ import annotations

from .fields import Field
from .linalg import (
    Echelon,
    Matrix,
    Subspace,
    densify,
    kernel,
    span,
    sparse,
    subspace_sum,
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

    def trace_left(self, vec):
        """Trace of left multiplication by ``vec`` on the algebra."""
        f = self.field
        cached = self._cache.get("basis_traces")
        if cached is None:
            cached = []
            for m in range(self.dim):
                t = f.zero
                for k in range(self.dim):
                    for idx, c in self.mult[m][k]:
                        if idx == k:
                            t = f.add(t, c)
                cached.append(t)
            self._cache["basis_traces"] = cached
        acc = f.zero
        for m, a in enumerate(vec):
            if a != f.zero:
                acc = f.add(acc, f.mul(a, cached[m]))
        return acc


def validate(a: Algebra) -> dict:
    """Check associativity and the unit laws, listing every violation."""
    f = a.field
    violations = []
    for i in range(a.dim):
        bi = {i: f.one}
        if a.mul_sparse(sparse(f, a.unit), bi) != bi:
            violations.append({"kind": "unit-left", "index": i})
        if a.mul_sparse(bi, sparse(f, a.unit)) != bi:
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
        a = self.algebra
        f = a.field
        total = [f.zero] * a.dim
        for e, d in zip(self.idempotents, self.degrees):
            if d == level:
                total = [f.add(x, y) for x, y in zip(total, e)]
        return tuple(total)

    def eps_upto(self, level: int) -> tuple:
        a = self.algebra
        f = a.field
        total = [f.zero] * a.dim
        for e, d in zip(self.idempotents, self.degrees):
            if d <= level:
                total = [f.add(x, y) for x, y in zip(total, e)]
        return tuple(total)

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
        return self.space.contains(vec)

    def is_multiplicatively_closed(self) -> bool:
        a = self.algebra
        for u in self.space.basis:
            for v in self.space.basis:
                if not self.space.contains(a.mul(u, v)):
                    return False
        return True

    def is_subalgebra(self) -> bool:
        return self.space.contains(self.algebra.unit) and self.is_multiplicatively_closed()

    def is_ideal(self) -> bool:
        a = self.algebra
        f = a.field
        for v in self.space.basis:
            sv = sparse(f, v)
            for k in range(a.dim):
                bk = {k: f.one}
                left = a.mul_sparse(bk, sv)
                right = a.mul_sparse(sv, bk)
                if not self.space.contains(densify(f, left, a.dim)):
                    return False
                if not self.space.contains(densify(f, right, a.dim)):
                    return False
        return True

    def extracted(self):
        """The subspace as a standalone algebra plus its embedding rows.

        Requires a verified multiplicative closure (subalgebra flag for a
        unital result; the unit of an extracted ideal is not defined).
        """
        if "extracted" in self._cache:
            return self._cache["extracted"]
        if self.closure_kind != AlgSubspace.SUBALGEBRA:
            raise AlgebraError("extraction needs a verified subalgebra")
        a = self.algebra
        f = a.field
        rows = self.space.basis
        labels = [f"s{i}_{a.labels[p]}" for i, p in enumerate(self.space.pivots())]
        mult = []
        for u in rows:
            per = []
            for v in rows:
                prod = a.mul(u, v)
                coords = self.space.coords(prod)
                if coords is None:
                    raise AlgebraError("subalgebra flag is wrong: not closed")
                per.append(tuple((k, c) for k, c in enumerate(coords) if c != f.zero))
            mult.append(tuple(per))
        unit_coords = self.space.coords(a.unit)
        if unit_coords is None:
            raise AlgebraError("subalgebra flag is wrong: unit missing")
        sub = Algebra(f, labels, mult, unit_coords)
        self._cache["extracted"] = (sub, rows)
        return sub, rows

    def restrict_vector(self, vec):
        return self.space.coords(vec)

    def embed_vector(self, coords) -> tuple:
        f = self.algebra.field
        out = [f.zero] * self.algebra.dim
        for c, row in zip(coords, self.space.basis):
            if c != f.zero:
                out = [f.add(x, f.mul(c, y)) for x, y in zip(out, row)]
        return tuple(out)


def subalgebra_frame(b: AlgSubspace, frame: IdempotentFrame):
    """A verified subalgebra as an algebra, with the ambient frame restricted
    to it; ``(None, None)`` when a frame idempotent lies outside it."""
    sub_alg, _ = b.extracted()
    idems = [b.restrict_vector(e) for e in frame.idempotents]
    if any(coords is None for coords in idems):
        return None, None
    return sub_alg, IdempotentFrame(sub_alg, idems, frame.labels, frame.degrees, check=False)


def plain_subspace(a: Algebra, vectors) -> AlgSubspace:
    return AlgSubspace(a, span(a.field, a.dim, vectors), AlgSubspace.PLAIN)


def full_subalgebra(a: Algebra) -> AlgSubspace:
    return AlgSubspace(
        a, span(a.field, a.dim, [a.basis_vector(i) for i in range(a.dim)]), AlgSubspace.SUBALGEBRA
    )


def subalgebra_closure(a: Algebra, generators) -> AlgSubspace:
    """Smallest unital subalgebra containing the generators."""
    f = a.field
    acc = Echelon(f, a.dim)
    for v in [a.unit, *generators]:
        acc.insert(sparse(f, v) if not isinstance(v, dict) else v)
    # Re-walk pairwise products until the span is multiplicatively stable.
    stable = False
    while not stable:
        stable = True
        rows = [dict(r) for r in acc.rows.values()]
        for u in rows:
            for v in rows:
                if acc.insert(a.mul_sparse(u, v)):
                    stable = False
    return AlgSubspace(a, acc.to_subspace(), AlgSubspace.SUBALGEBRA)


def ideal_closure(a: Algebra, generators) -> AlgSubspace:
    """Smallest two-sided ideal containing the generators."""
    f = a.field
    acc = Echelon(f, a.dim)
    frontier = []
    for v in generators:
        sv = sparse(f, v) if not isinstance(v, dict) else dict(v)
        if acc.insert(sv):
            frontier.append(sv)
    while frontier:
        new = []
        for r in frontier:
            for k in range(a.dim):
                bk = {k: f.one}
                for prod in (a.mul_sparse(bk, r), a.mul_sparse(r, bk)):
                    if prod and acc.insert(prod):
                        new.append(prod)
        frontier = new
    return AlgSubspace(a, acc.to_subspace(), AlgSubspace.IDEAL)


# spans and products --------------------------------------------------------


def _image_span(a: Algebra, vectors, image) -> Subspace:
    """Span of image(v) over sparse v in ``vectors`` (the basis of A when None)."""
    f = a.field
    acc = Echelon(f, a.dim)
    if vectors is None:
        gens = ({k: f.one} for k in range(a.dim))
    else:
        gens = (sparse(f, v) for v in vectors)
    for v in gens:
        acc.insert(image(v))
    return acc.to_subspace()


def column_span(a: Algebra, vectors, e) -> Subspace:
    """Span of X*e for X the given vectors (the column A*e when None)."""
    se = sparse(a.field, e)
    return _image_span(a, vectors, lambda v: a.mul_sparse(v, se))


def row_span(a: Algebra, e, vectors) -> Subspace:
    """Span of e*X for X the given vectors (the row e*A when None)."""
    se = sparse(a.field, e)
    return _image_span(a, vectors, lambda v: a.mul_sparse(se, v))


def corner_span(a: Algebra, e, vectors) -> Subspace:
    """Span of e*X*e for X the given vectors (the corner eAe when None)."""
    se = sparse(a.field, e)
    return _image_span(a, vectors, lambda v: a.mul_sparse(se, a.mul_sparse(v, se)))


def product_rank(a: Algebra, pairs, base: Subspace | None = None) -> tuple[int, int]:
    """Domain dimension and rank of multiplication from the sum of X (x) Y to A.

    ``pairs`` yields (X, Y) lists of vectors of A, each X (x) Y of dimension
    |X|*|Y|.  With ``base`` the rank is taken modulo that subspace, i.e.
    dim(base + image) - dim(base).
    """
    f = a.field
    acc = Echelon(f, a.dim)
    if base is not None:
        for v in base.basis:
            acc.insert(sparse(f, v))
    start = acc.dim
    domain = 0
    for xs, ys in pairs:
        domain += len(xs) * len(ys)
        sparse_ys = [sparse(f, y) for y in ys]
        for x in xs:
            sx = sparse(f, x)
            for sy in sparse_ys:
                prod = a.mul_sparse(sx, sy)
                if prod:
                    acc.insert(prod)
    return domain, acc.dim - start


class QuotientMap:
    """Projection data for an algebra quotient A -> A/J."""

    __slots__ = ("source", "target", "ideal", "_complement")

    def __init__(self, source: Algebra, target: Algebra, ideal: AlgSubspace, complement):
        self.source = source
        self.target = target
        self.ideal = ideal
        self._complement = complement

    def project(self, vec) -> tuple:
        reduced = self.ideal.space.reduce(vec)
        return tuple(reduced[c] for c in self._complement)

    def lift(self, vec) -> tuple:
        f = self.source.field
        out = [f.zero] * self.source.dim
        for c, x in zip(self._complement, vec):
            out[c] = x
        return tuple(out)


def quotient(a: Algebra, j: AlgSubspace) -> tuple[Algebra, QuotientMap]:
    """Quotient algebra by a verified two-sided ideal, with its projection."""
    if j.closure_kind != AlgSubspace.IDEAL:
        raise AlgebraError("quotient requires a verified two-sided ideal")
    f = a.field
    comp = j.space.complement_coords()
    index = {c: t for t, c in enumerate(comp)}
    labels = [a.labels[c] for c in comp]

    def project_sparse(vec: dict) -> dict:
        dense = j.space.reduce(densify(f, vec, a.dim))
        return {index[c]: dense[c] for c in comp if dense[c] != f.zero}

    mult = []
    for x in comp:
        per = []
        for y in comp:
            prod = project_sparse(dict(a.mult[x][y]))
            per.append(tuple(sorted(prod.items())))
        mult.append(tuple(per))
    unit = densify(f, project_sparse(sparse(f, a.unit)), len(comp))
    q = Algebra(f, labels, mult, unit)
    return q, QuotientMap(a, q, j, comp)


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


class CornerMap:
    """Inclusion data for a corner algebra eAe -> A."""

    __slots__ = ("source", "corner", "idempotent", "rows")

    def __init__(self, source: Algebra, corner: Algebra, idempotent, rows):
        self.source = source
        self.corner = corner
        self.idempotent = tuple(idempotent)
        self.rows = rows


def corner(a: Algebra, e) -> tuple[Algebra, CornerMap]:
    """The corner algebra eAe with unit e and its embedding into A."""
    f = a.field
    e = tuple(e)
    if not a.is_idempotent(e):
        raise AlgebraError("corner requires an idempotent element")
    sub = corner_span(a, e, None)
    rows = sub.basis
    labels = [f"c_{a.labels[p]}" for p in sub.pivots()]
    mult = []
    for u in rows:
        per = []
        for v in rows:
            coords = sub.coords(a.mul(u, v))
            if coords is None:
                raise AlgebraError("corner is not multiplicatively closed (bug)")
            per.append(tuple((k, c) for k, c in enumerate(coords) if c != f.zero))
        mult.append(tuple(per))
    unit_coords = sub.coords(e)
    if unit_coords is None:
        raise AlgebraError("corner does not contain its unit (bug)")
    c = Algebra(f, labels, mult, unit_coords)
    return c, CornerMap(a, c, e, rows)


# radical -----------------------------------------------------------------


def _trace_form_kernel(a: Algebra) -> Subspace:
    f = a.field
    rows = []
    prods = [[dict(a.mult[i][j]) for j in range(a.dim)] for i in range(a.dim)]
    traces = [a.trace_left(a.basis_vector(m)) for m in range(a.dim)]
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            t = f.zero
            for m, c in prods[i][j].items():
                if traces[m] != f.zero:
                    t = f.add(t, f.mul(c, traces[m]))
            row.append(t)
        rows.append(row)
    return kernel(Matrix(f, rows, a.dim)) if a.dim else Subspace(f, 0)


def _radical_char0(a: Algebra) -> Subspace:
    f = a.field
    candidate = _trace_form_kernel(a)
    while True:
        ideal = AlgSubspace(a, candidate, AlgSubspace.IDEAL)
        q, qmap = quotient(a, ideal)
        k = _trace_form_kernel(q)
        if k.dim == 0:
            return candidate
        lifted = [qmap.lift(v) for v in k.basis]
        candidate = subspace_sum(candidate, span(f, a.dim, lifted))


def _trace_power_mod(mat, exp: int, modulus: int, n: int) -> int:
    """tr(mat**exp) for an integer matrix, with entries reduced mod modulus."""

    def matmul(x, y):
        out = [[0] * n for _ in range(n)]
        for r in range(n):
            xr = x[r]
            outr = out[r]
            for m in range(n):
                c = xr[m]
                if c:
                    ym = y[m]
                    for s in range(n):
                        if ym[s]:
                            outr[s] = (outr[s] + c * ym[s]) % modulus
        return out

    result = None
    base = [[v % modulus for v in row] for row in mat]
    e = exp
    while e:
        if e & 1:
            result = base if result is None else matmul(result, base)
        e >>= 1
        if e:
            base = matmul(base, base)
    if result is None:
        result = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
    return sum(result[r][r] for r in range(n)) % modulus


def _radical_charp(a: Algebra) -> Subspace:
    """Descending p-power trace chain on integer lifts of the regular
    representation: step i cuts by x -> tr(L_{xy}^{p^(i-1)}) / p^(i-1) mod p,
    which resolves the block multiplicities that make the plain trace form
    degenerate in characteristic p.
    """
    p = a.field.characteristic
    f = a.field
    n = a.dim
    int_mats = []
    for k in range(n):
        mat = [[0] * n for _ in range(n)]
        for j in range(n):
            for t, c in a.mult[k][j]:
                mat[t][j] = (mat[t][j] + int(c)) % p
        int_mats.append(mat)

    def left_matrix_int(vec) -> list:
        out = [[0] * n for _ in range(n)]
        for k, c in enumerate(vec):
            c = int(c) % p
            if c:
                mk = int_mats[k]
                for r in range(n):
                    row = mk[r]
                    outr = out[r]
                    for s in range(n):
                        if row[s]:
                            outr[s] += c * row[s]
        return out

    current = span(f, n, [a.basis_vector(i) for i in range(n)])
    power = 1  # p^(i-1) at step i
    modulus = p
    while True:
        rows_amb = list(current.basis)
        s = len(rows_amb)
        if s == 0:
            break
        form = []
        for r in range(s):
            row = []
            for t in range(s):
                prod = a.mul(rows_amb[r], rows_amb[t])
                lm = left_matrix_int(prod)
                tr = _trace_power_mod(lm, power, modulus, n)
                row.append((tr // power) % p)
            form.append(row)
        ker = kernel(Matrix(f, form, s))
        vecs = []
        for combo in ker.basis:
            vec = [f.zero] * n
            for idx, c in enumerate(combo):
                if c != f.zero:
                    vec = [f.add(x, f.mul(c, y)) for x, y in zip(vec, rows_amb[idx])]
            vecs.append(vec)
        current = span(f, n, vecs)
        if power >= n:
            break
        power *= p
        modulus *= p
    return current


def _check_nilpotent(a: Algebra, sub: Subspace) -> bool:
    f = a.field
    current = [sparse(f, v) for v in sub.basis]
    gens = list(current)
    for _ in range(a.dim + 1):
        if not current:
            return True
        acc = Echelon(f, a.dim)
        for u in current:
            for v in gens:
                prod = a.mul_sparse(u, v)
                if prod:
                    acc.insert(prod)
        nxt = acc.to_subspace()
        if nxt.dim == 0:
            return True
        current = [sparse(f, v) for v in nxt.basis]
    return False


def radical(a: Algebra) -> AlgSubspace:
    """The Jacobson radical as a verified two-sided ideal.

    Characteristic zero uses the trace-form kernel iterated to a fixed
    point; positive characteristic uses p-power trace forms.  A quiver or
    graded builder may pre-register the span of positive-length classes
    via ``_cache['radical_hint']`` after verifying it nilpotent.
    """
    if "radical" in a._cache:
        return a._cache["radical"]
    hint = a._cache.get("radical_hint")
    result = AlgSubspace(a, radical_generic(a) if hint is None else hint, AlgSubspace.IDEAL)
    if not _check_nilpotent(a, result.space):
        raise AlgebraError("radical candidate not nilpotent (unsupported input)")
    if not result.is_ideal():
        raise AlgebraError("radical candidate not an ideal (unsupported input)")
    a._cache["radical"] = result
    return result


def radical_generic(a: Algebra) -> Subspace:
    """The radical by trace forms, ignoring any builder hint."""
    if a.dim == 0:
        return Subspace(a.field, 0)
    if a.field.characteristic == 0:
        return _radical_char0(a)
    return _radical_charp(a)


def is_elementary(a: Algebra, frame: IdempotentFrame) -> bool:
    """Whether A/rad(A) is a product of copies of k split by the frame."""
    rad = radical(a)
    if a.dim - rad.dim != len(frame):
        return False
    q, qmap = quotient(a, rad)
    return all(corner_span(q, qmap.project(e), None).dim == 1 for e in frame.idempotents)


def is_primitive_idempotent(a: Algebra, e) -> bool:
    """Local corner test: e is primitive iff eAe has a 1-dim semisimple quotient."""
    c, _ = corner(a, e)
    rad = radical(c)
    return c.dim - rad.dim == 1


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


def tensor_dim_over_corner(a: Algebra, e) -> int:
    """dim of Ae (x)_{eAe} eA, via the rank of the balancing relations."""
    f = a.field
    e = tuple(e)
    if not a.is_idempotent(e):
        raise AlgebraError("tensor_dim_over_corner requires an idempotent")
    m_space = column_span(a, None, e)
    n_space = row_span(a, e, None)
    dim_m, dim_n = m_space.dim, n_space.dim
    if dim_m == 0 or dim_n == 0:
        return 0
    m_rows = [sparse(f, v) for v in m_space.basis]
    n_rows = [sparse(f, v) for v in n_space.basis]

    def coords(space: Subspace, prod: dict) -> dict:
        return sparse(f, space.coords(densify(f, prod, a.dim))) if prod else {}

    relations = Echelon(f, dim_m * dim_n)
    for r in corner_span(a, e, None).basis:
        sr = sparse(f, r)
        xr = [coords(m_space, a.mul_sparse(x, sr)) for x in m_rows]
        ry = [coords(n_space, a.mul_sparse(sr, y)) for y in n_rows]
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
