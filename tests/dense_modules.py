"""Dense test oracle for modules: one action matrix per algebra basis element.

This is an independent construction of the modules that ``reedylab.modules``
reads off as subquotients of the algebra: the regular and projective
modules, quotients, restriction along a subalgebra and induction as the
balanced tensor product A (x)_k M modulo the relations ab (x) m - a (x) bm.
Matrices act on coordinate columns.
"""

from reedylab.algebra import IdempotentFrame, column_span, radical, row_span
from reedylab.linalg import Echelon, densify, sparse, sparse_span


class DenseModule:
    def __init__(self, algebra, side, dim, actions):
        self.algebra = algebra
        self.side = side
        self.dim = dim
        self.actions = [[list(row) for row in m] for m in actions]

    def action_matrix(self, x: dict):
        """Dense matrix of the action of a sparse algebra element."""
        f = self.algebra.field
        out = [[f.zero] * self.dim for _ in range(self.dim)]
        for k, c in x.items():
            for r, row in enumerate(self.actions[k]):
                for s, val in enumerate(row):
                    if val != f.zero:
                        out[r][s] = f.add(out[r][s], f.mul(c, val))
        return out

    def radical_submodule(self):
        """rad(A)*M inside module coordinates."""
        f = self.algebra.field
        rad = radical(self.algebra)
        return sparse_span(f, self.dim, (
            col for r in rad.space.rows.values() for col in columns(f, self.action_matrix(r))
        ))

    def comp_dim_vector(self, frame):
        f = self.algebra.field
        return tuple(
            sparse_span(f, self.dim, columns(f, self.action_matrix(sparse(f, e)))).dim
            for e in frame.idempotents
        )

    def top_multiplicities(self, frame):
        f = self.algebra.field
        radm = self.radical_submodule()
        index = {c: t for t, c in enumerate(radm.complement_coords())}
        return tuple(
            sparse_span(f, len(index), (
                {index[c]: x for c, x in radm.reduce(col).items()}
                for col in columns(f, self.action_matrix(sparse(f, e)))
            )).dim
            for e in frame.idempotents
        )


def columns(f, mat):
    n = len(mat)
    return [{r: mat[r][c] for r in range(n) if mat[r][c] != f.zero} for c in range(n)]


def from_columns(f, cols, n):
    return [[col.get(r, f.zero) for col in cols] for r in range(n)]


def regular(a, side="left"):
    f = a.field
    actions = []
    for k in range(a.dim):
        mat = [[f.zero] * a.dim for _ in range(a.dim)]
        for j in range(a.dim):
            for t, c in (a.mult[k][j] if side == "left" else a.mult[j][k]):
                mat[t][j] = f.add(mat[t][j], c)
        actions.append(mat)
    return DenseModule(a, side, a.dim, actions)


def from_subspace(a, sub, side="left"):
    """The module on an action-stable subspace of the regular module."""
    f = a.field
    actions = []
    for k in range(a.dim):
        bk = {k: f.one}
        cols = []
        for v in sub.rows.values():
            coords = sub.coords(a.mul_sparse(bk, v) if side == "left" else a.mul_sparse(v, bk))
            assert coords is not None, "subspace is not stable under the action"
            cols.append(coords)
        actions.append(from_columns(f, cols, sub.dim))
    return DenseModule(a, side, sub.dim, actions)


def projective(a, e, side="left"):
    """A*e (left) or e*A (right) with its carrier subspace."""
    sub = column_span(a, None, e) if side == "left" else row_span(a, e, None)
    return from_subspace(a, sub, side), sub


def quotient(m, sub):
    """Quotient by an action-stable subspace given in module coordinates."""
    f = m.algebra.field
    comp = sub.complement_coords()
    index = {c: t for t, c in enumerate(comp)}
    actions = []
    for mk in m.actions:
        cols = columns(f, mk)
        actions.append(from_columns(f, [
            {index[t]: x for t, x in sub.reduce(cols[c]).items()} for c in comp
        ], len(comp)))
    return DenseModule(m.algebra, m.side, len(comp), actions)


def subalgebra_with_frame(b_sub, frame):
    """A verified subalgebra B extracted as an algebra, with the frame's
    idempotents in B's coordinates; None when one lies outside B."""
    f = b_sub.algebra.field
    sub_alg, _ = b_sub.extracted()
    coords = [b_sub.space.coords(sparse(f, e)) for e in frame.idempotents]
    if any(c is None for c in coords):
        return None
    idems = [densify(f, c, b_sub.dim) for c in coords]
    return sub_alg, IdempotentFrame(sub_alg, idems, frame.labels, frame.degrees)


def restrict(m, b_sub):
    sub_alg, rows = b_sub.extracted()
    return DenseModule(sub_alg, m.side, m.dim, [m.action_matrix(v) for v in rows])


def induce(a, b_sub, m):
    """A (x)_B M for a left module M over the extracted subalgebra B."""
    f = a.field
    sub_alg, rows = b_sub.extracted()
    n = m.dim
    rel = Echelon(f, a.dim * n)
    for bi, sb in enumerate(rows):
        bmat = m.actions[bi]
        for ai in range(a.dim):
            ab = a.mul_sparse({ai: f.one}, sb)
            for mj in range(n):
                vec = {c * n + mj: x for c, x in ab.items()}
                for r in range(n):
                    if bmat[r][mj] != f.zero:
                        key = ai * n + r
                        val = f.sub(vec.get(key, f.zero), bmat[r][mj])
                        if val == f.zero:
                            vec.pop(key, None)
                        else:
                            vec[key] = val
                if vec:
                    rel.insert(vec)
    rel_sub = rel.to_subspace()
    comp = rel_sub.complement_coords()
    index = {c: t for t, c in enumerate(comp)}
    actions = []
    for k in range(a.dim):
        cols = []
        for c in comp:
            ai, mj = divmod(c, n)
            red = rel_sub.reduce({t * n + mj: coeff for t, coeff in a.mult[k][ai]})
            cols.append({index[t]: x for t, x in red.items()})
        actions.append(from_columns(f, cols, len(comp)))
    return DenseModule(a, "left", len(comp), actions)


def invariants(m, frame):
    return m.dim, m.comp_dim_vector(frame), m.top_multiplicities(frame)
