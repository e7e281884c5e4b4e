"""Exact linear algebra: canonical subspaces on sparse echelon rows.

A subspace is held by its reduced row-echelon basis, which is unique, so
two subspaces are equal iff their rows are.  A row is a sparse dict
column -> nonzero scalar whose entry at its pivot (its smallest column) is
1 and whose entries at the other pivots are 0.  ``Echelon`` is the one
elimination engine: it builds those rows incrementally, and every span,
kernel, sum and intersection runs on it.  ``Subspace.basis`` is a dense
view for output only.

``Matrix`` and ``rref`` are a dense reference implementation, kept for
callers that hold dense matrices and as a test oracle for the sparse
engine; nothing else in the package uses them.
"""

from __future__ import annotations

from .fields import Field


class Matrix:
    """An immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        self.field = field
        self.rows = tuple(tuple(field.of(x) if not isinstance(x, str) else field.parse(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged matrix")
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols mismatch")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.field!r}, {[list(map(self.field.show, r)) for r in self.rows]})"


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form of ``m`` together with its rank.

    Pivots are normalised to 1 and cleared above and below; zero rows are
    kept so the output has the same shape as the input.
    """
    f = m.field
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, nrows):
            if rows[r][col] != f.zero:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        inv = f.inv(rows[pivot_row][col])
        if inv != f.one:
            rows[pivot_row] = [f.mul(inv, x) for x in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and rows[r][col] != f.zero:
                c = rows[r][col]
                src = rows[pivot_row]
                rows[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[r], src)]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return Matrix(f, rows, ncols), pivot_row


def sparse(field: Field, vec) -> dict:
    return {c: x for c, x in enumerate(vec) if x != field.zero}


def densify(field: Field, vec: dict, n: int) -> tuple:
    out = [field.zero] * n
    for c, x in vec.items():
        out[c] = x
    return tuple(out)


def add_scaled(f: Field, target: dict, coeff, source: dict) -> None:
    """target += coeff * source for sparse vectors, in place, dropping
    entries that vanish."""
    for c, x in source.items():
        val = f.add(target.get(c, f.zero), f.mul(coeff, x))
        if val:
            target[c] = val
        else:
            target.pop(c, None)


def _reduce(f: Field, rows: dict, vec: dict) -> dict:
    """Residue of a sparse vector modulo fully reduced rows (a copy).

    Each row is zero at every other pivot, so one pass over the pivots the
    vector starts with clears them all.
    """
    v = {c: x for c, x in vec.items() if x}
    for c in [c for c in v if c in rows]:
        add_scaled(f, v, f.neg(v[c]), rows[c])
    return v


class Subspace:
    """A subspace of k^n held by its reduced echelon rows.

    ``rows`` maps each pivot, in increasing order, to its sparse row.  The
    rows are shared, never mutated: build new spaces with ``Echelon``.
    """

    __slots__ = ("field", "ambient_dim", "rows")

    def __init__(self, field: Field, ambient_dim: int, rows: dict | None = None):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows if rows is not None else {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple:
        """The rows as dense tuples in pivot order, built on each call (output only)."""
        return tuple(densify(self.field, row, self.ambient_dim) for row in self.rows.values())

    def pivots(self) -> tuple[int, ...]:
        return tuple(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Residue of a sparse vector after eliminating this subspace's pivots."""
        return _reduce(self.field, self.rows, vec)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def coords(self, vec: dict):
        """Coefficients {row index: scalar} of a sparse vector, or None if outside."""
        if self.reduce(vec):
            return None
        return {t: vec[p] for t, p in enumerate(self.rows) if vec.get(p)}

    def coords_span(self, sub: "Subspace") -> "Subspace":
        """A subspace of this one, in coordinates on this space's rows."""
        return sparse_span(self.field, self.dim, (self.coords(v) for v in sub.rows.values()))

    def complement_coords(self) -> tuple[int, ...]:
        """Ambient coordinates not used as pivots (a complement basis)."""
        return tuple(c for c in range(self.ambient_dim) if c not in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.pivots()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class Echelon:
    """Incremental reduced echelon basis with sparse rows.

    ``insert`` keeps every row reduced against every other pivot, so the
    rows are at all times the canonical rows of their span.  ``start``
    seeds the basis with (a copy of) a subspace's rows.
    """

    __slots__ = ("field", "ambient_dim", "rows", "_col_index")

    def __init__(self, field: Field, ambient_dim: int, start: Subspace | None = None):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows: dict[int, dict] = {}
        self._col_index: dict[int, set] = {}
        if start is not None:
            for pivot, row in start.rows.items():
                self.rows[pivot] = dict(row)
                for c in row:
                    self._col_index.setdefault(c, set()).add(pivot)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, vec: dict) -> bool:
        """Add a sparse vector to the span; True if the dimension grew."""
        f = self.field
        v = _reduce(f, self.rows, vec)
        if not v:
            return False
        pivot = min(v)
        inv = f.inv(v[pivot])
        if inv != f.one:
            v = {c: f.mul(inv, x) for c, x in v.items()}
        # Back-eliminate the new pivot from stored rows.
        for rp in list(self._col_index.get(pivot, ())):
            row = self.rows[rp]
            coeff = row.get(pivot)
            if coeff is None:
                continue
            before = set(row)
            add_scaled(f, row, f.neg(coeff), v)
            for c in before - set(row):
                self._col_index[c].discard(rp)
            for c in set(row) - before:
                self._col_index.setdefault(c, set()).add(rp)
        self.rows[pivot] = v
        for c in v:
            self._col_index.setdefault(c, set()).add(pivot)
        return True

    def to_subspace(self) -> Subspace:
        """The span as a Subspace.  It takes the rows over: insert no more."""
        return Subspace(self.field, self.ambient_dim, {p: self.rows[p] for p in sorted(self.rows)})


def sparse_span(field: Field, ambient_dim: int, rows) -> Subspace:
    """Span of sparse vectors."""
    acc = Echelon(field, ambient_dim)
    for v in rows:
        acc.insert(v)
    return acc.to_subspace()


def full_space(field: Field, n: int, base: Subspace | None = None) -> Subspace:
    """k^n, or its residue rows modulo ``base``: the unit rows at the
    coordinates that are not pivots of ``base``."""
    skip = base.rows if base is not None else ()
    return Subspace(field, n, {c: {c: field.one} for c in range(n) if c not in skip})


def span(field: Field, ambient_dim: int, vectors) -> Subspace:
    """Span of dense vectors of length ``ambient_dim``."""
    rows = []
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError(f"vector of length {len(v)} in k^{ambient_dim}")
        rows.append(sparse(field, [field.of(x) for x in v]))
    return sparse_span(field, ambient_dim, rows)


def null_space(field: Field, ncols: int, rows) -> Subspace:
    """{x in k^ncols : r . x = 0 for every sparse row r}."""
    ech = Echelon(field, ncols)
    for r in rows:
        ech.insert(r)
    out = Echelon(field, ncols)
    for fc in range(ncols):
        if fc in ech.rows:
            continue
        # x_fc = 1, every other free coordinate 0, pivots solved from their rows
        vec = {fc: field.one}
        for p in ech._col_index.get(fc, ()):
            vec[p] = field.neg(ech.rows[p][fc])
        out.insert(vec)
    return out.to_subspace()


def kernel(m: Matrix) -> Subspace:
    """Right null space of a dense matrix as a canonical subspace of k^ncols."""
    return null_space(m.field, m.ncols, [sparse(m.field, r) for r in m.rows])


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim or u.field != v.field:
        raise ValueError("ambient mismatch")


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    acc = Echelon(u.field, u.ambient_dim, u)
    for row in v.rows.values():
        acc.insert(row)
    return acc.to_subspace()


def modulo(u: Subspace, base: Subspace | None) -> Subspace:
    """The residue rows of U modulo ``base`` (U when None): the canonical
    rows, zero at the pivots of ``base``, of the span that holds
    (U + base)/base in the ambient coordinates."""
    if base is None or not base.rows:
        return u
    return sparse_span(u.field, u.ambient_dim, (base.reduce(v) for v in u.rows.values()))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Largest common subspace, by Zassenhaus: eliminate the rows (x, x) for
    x in U and (y, 0) for y in V of k^2n; the rows with a zero first half
    are (0, w) for w running over the canonical rows of U cap V."""
    _check_ambient(u, v)
    n = u.ambient_dim
    acc = Echelon(u.field, 2 * n)
    for x in u.rows.values():
        acc.insert({**x, **{c + n: val for c, val in x.items()}})
    for y in v.rows.values():
        acc.insert(y)
    rows = {p - n: {c - n: val for c, val in acc.rows[p].items()}
            for p in sorted(acc.rows) if p >= n}
    return Subspace(u.field, n, rows)


def contains(u: Subspace, vec) -> bool:
    """Whether a dense vector lies in ``u``."""
    if len(vec) != u.ambient_dim:
        raise ValueError("vector length mismatch")
    return u.contains(sparse(u.field, vec))
