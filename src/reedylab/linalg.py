"""Exact dense linear algebra: canonical RREF, kernels and subspace arithmetic.

Subspaces are stored by their reduced row-echelon basis, which is unique,
so two subspaces are equal iff their basis matrices are identical.  That
canonical form is what every higher layer uses to compare spaces and to
emit deterministic reports.

Internally a sparse echelon accumulator is provided for incremental span
and rank computations in large ambient spaces (relation spans of tensor
products); its final basis is re-emitted in the same canonical form.
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
    pivots = []
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
        pivots.append(col)
        pivot_row += 1
        if pivot_row == nrows:
            break
    return Matrix(f, rows, ncols), pivot_row


class Subspace:
    """A subspace of k^n held by its canonical RREF basis (no zero rows)."""

    __slots__ = ("field", "ambient_dim", "basis", "_pivots", "_pivot_row")

    def __init__(self, field: Field, ambient_dim: int, basis=()):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(v) for v in basis)
        self._pivots = None
        self._pivot_row = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple[int, ...]:
        if self._pivots is None:
            f = self.field
            piv = []
            for row in self.basis:
                for c, x in enumerate(row):
                    if x != f.zero:
                        piv.append(c)
                        break
            self._pivots = tuple(piv)
            self._pivot_row = {c: row for c, row in zip(piv, self.basis)}
        return self._pivots

    def pivot_rows(self) -> dict:
        self.pivots()
        return self._pivot_row

    def reduce(self, vec) -> tuple:
        """Residue of ``vec`` after eliminating this subspace's pivots."""
        f = self.field
        rows = self.pivot_rows()
        v = list(vec)
        for c in self.pivots():
            coeff = v[c]
            if coeff != f.zero:
                row = rows[c]
                v = [f.sub(x, f.mul(coeff, y)) for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, vec) -> bool:
        f = self.field
        return all(x == f.zero for x in self.reduce(vec))

    def coords(self, vec):
        """Coefficients of ``vec`` in the RREF basis, or None if outside."""
        if not self.contains(vec):
            return None
        return tuple(vec[c] for c in self.pivots())

    def complement_coords(self) -> tuple[int, ...]:
        """Ambient coordinates not used as pivots (a complement basis)."""
        piv = set(self.pivots())
        return tuple(c for c in range(self.ambient_dim) if c not in piv)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def subspace_from_matrix(m: Matrix) -> Subspace:
    red, rank = rref(m)
    return Subspace(m.field, m.ncols, red.rows[:rank])


def span(field: Field, ambient_dim: int, vectors) -> Subspace:
    vectors = list(vectors)
    if not vectors:
        return Subspace(field, ambient_dim)
    return subspace_from_matrix(Matrix(field, vectors, ambient_dim))


def kernel(m: Matrix) -> Subspace:
    """Right null space of ``m`` as a canonical subspace of k^ncols."""
    f = m.field
    red, rank = rref(m)
    pivots = []
    for row in red.rows[:rank]:
        for c, x in enumerate(row):
            if x != f.zero:
                pivots.append(c)
                break
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [f.zero] * m.ncols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.rows[r][fc])
        basis.append(v)
    return span(f, m.ncols, basis)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim or u.field != v.field:
        raise ValueError("ambient mismatch")
    return span(u.field, u.ambient_dim, list(u.basis) + list(v.basis))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Largest common subspace, via the kernel of the stacked coefficient map."""
    if u.ambient_dim != v.ambient_dim or u.field != v.field:
        raise ValueError("ambient mismatch")
    if u.dim == 0 or v.dim == 0:
        return Subspace(u.field, u.ambient_dim)
    f = u.field
    # Columns: coefficients (a, b) with a*U = b*V, encoded as [U^T | -V^T].
    cols = u.dim + v.dim
    rows = []
    for c in range(u.ambient_dim):
        row = [u.basis[i][c] for i in range(u.dim)]
        row += [f.neg(v.basis[j][c]) for j in range(v.dim)]
        rows.append(row)
    ker = kernel(Matrix(f, rows, cols))
    vecs = []
    for combo in ker.basis:
        vec = [f.zero] * u.ambient_dim
        for i in range(u.dim):
            a = combo[i]
            if a != f.zero:
                row = u.basis[i]
                vec = [f.add(x, f.mul(a, y)) for x, y in zip(vec, row)]
        vecs.append(vec)
    return span(f, u.ambient_dim, vecs)


def contains(u: Subspace, vec) -> bool:
    if len(vec) != u.ambient_dim:
        raise ValueError("vector length mismatch")
    return u.contains(vec)


class Echelon:
    """Incremental reduced echelon basis with sparse rows.

    Rows are dicts column -> nonzero scalar; pivots are the smallest
    columns.  ``insert`` keeps the basis fully reduced, so the accumulated
    rows convert directly into the canonical Subspace form.  Suited to the
    very sparse spans that ideal closures and relation spans produce.
    """

    __slots__ = ("field", "ambient_dim", "rows", "_col_index")

    def __init__(self, field: Field, ambient_dim: int):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows: dict[int, dict] = {}
        self._col_index: dict[int, set] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _axpy(self, target: dict, coeff, source: dict):
        f = self.field
        for c, x in source.items():
            val = f.sub(target.get(c, f.zero), f.mul(coeff, x))
            if val == f.zero:
                target.pop(c, None)
            else:
                target[c] = val

    def reduce(self, vec: dict) -> dict:
        """Eliminate existing pivots from a sparse vector (copy)."""
        f = self.field
        v = {c: x for c, x in vec.items() if x != f.zero}
        while True:
            hit = None
            for c in v:
                if c in self.rows:
                    hit = c
                    break
            if hit is None:
                return v
            self._axpy(v, v[hit], self.rows[hit])

    def insert(self, vec: dict) -> bool:
        """Add a sparse vector to the span; True if the dimension grew."""
        f = self.field
        v = self.reduce(vec)
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
            self._axpy(row, coeff, v)
            for c in before - set(row):
                self._col_index[c].discard(rp)
            for c in set(row) - before:
                self._col_index.setdefault(c, set()).add(rp)
        self.rows[pivot] = v
        for c in v:
            self._col_index.setdefault(c, set()).add(pivot)
        return True

    def to_subspace(self) -> Subspace:
        f = self.field
        basis = []
        for pivot in sorted(self.rows):
            row = self.rows[pivot]
            dense = [f.zero] * self.ambient_dim
            for c, x in row.items():
                dense[c] = x
            basis.append(tuple(dense))
        return Subspace(f, self.ambient_dim, basis)


def sparse(field: Field, vec) -> dict:
    return {c: x for c, x in enumerate(vec) if x != field.zero}


def densify(field: Field, vec: dict, n: int) -> tuple:
    out = [field.zero] * n
    for c, x in vec.items():
        out[c] = x
    return tuple(out)
