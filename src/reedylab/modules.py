"""Finite-dimensional modules over structure-constant algebras.

A module is stored by one dense action matrix per algebra basis element;
matrices act on coordinate columns, so for a left module act(x*y) =
act(x) @ act(y) and for a right module the composition order swaps.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    AlgebraError,
    AlgSubspace,
    IdempotentFrame,
    column_span,
    is_elementary,
    radical,
    row_span,
)
from .fields import Field
from .linalg import Echelon, Subspace, sparse, sparse_span


class ModuleRep:
    __slots__ = ("algebra", "side", "dim", "actions", "_cache")

    def __init__(self, algebra: Algebra, side: str, dim: int, actions):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.algebra = algebra
        self.side = side
        self.dim = dim
        self.actions = tuple(tuple(tuple(row) for row in m) for m in actions)
        if len(self.actions) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        for m in self.actions:
            if len(m) != dim or any(len(r) != dim for r in m):
                raise ValueError("action matrix shape mismatch")
        self._cache = {}

    def __repr__(self):
        return f"ModuleRep({self.side}, dim={self.dim} over dim-{self.algebra.dim} algebra)"

    # actions ------------------------------------------------------------

    def action_matrix(self, x: dict) -> tuple:
        """Dense matrix of the action of a sparse algebra element."""
        f = self.algebra.field
        out = [[f.zero] * self.dim for _ in range(self.dim)]
        for k, c in x.items():
            mk = self.actions[k]
            for r in range(self.dim):
                row = mk[r]
                outr = out[r]
                for s in range(self.dim):
                    if row[s] != f.zero:
                        outr[s] = f.add(outr[s], f.mul(c, row[s]))
        return tuple(tuple(r) for r in out)

    def validate(self) -> dict:
        """Check the unit law and compatibility with structure constants."""
        a = self.algebra
        f = a.field
        violations = []
        ident = tuple(
            tuple(f.one if r == s else f.zero for s in range(self.dim)) for r in range(self.dim)
        )
        if self.action_matrix(sparse(f, a.unit)) != ident:
            violations.append({"kind": "unit"})
        for i in range(a.dim):
            for j in range(a.dim):
                if self.side == "left":
                    comp = _matmul(f, self.actions[i], self.actions[j])
                else:
                    comp = _matmul(f, self.actions[j], self.actions[i])
                expected = [[f.zero] * self.dim for _ in range(self.dim)]
                for k, c in a.mult[i][j]:
                    mk = self.actions[k]
                    for r in range(self.dim):
                        for s in range(self.dim):
                            if mk[r][s] != f.zero:
                                expected[r][s] = f.add(expected[r][s], f.mul(c, mk[r][s]))
                if comp != tuple(tuple(r) for r in expected):
                    violations.append({"kind": "action", "pair": (i, j)})
        return {"valid": not violations, "violations": violations}

    # derived structures ---------------------------------------------------

    def radical_submodule(self) -> Subspace:
        """rad(A)*M (or M*rad(A) for right modules) inside module coordinates."""
        if "radical_submodule" in self._cache:
            return self._cache["radical_submodule"]
        f = self.algebra.field
        rad = radical(self.algebra)
        sub = sparse_span(f, self.dim, (
            col for r in rad.space.rows.values() for col in _columns(f, self.action_matrix(r))
        ))
        self._cache["radical_submodule"] = sub
        return sub

    def top_multiplicities(self, frame: IdempotentFrame) -> tuple[int, ...]:
        """dim e_i * top(M) per frame index (top(M)*e_i for right modules)."""
        f = self.algebra.field
        radm = self.radical_submodule()
        index = {c: t for t, c in enumerate(radm.complement_coords())}
        out = []
        for e in frame.idempotents:
            mat = self.action_matrix(sparse(f, e))
            out.append(sparse_span(f, len(index), (
                {index[c]: x for c, x in radm.reduce(col).items()} for col in _columns(f, mat)
            )).dim)
        return tuple(out)

    def comp_dim_vector(self, frame: IdempotentFrame) -> tuple[int, ...]:
        """dim e_i*M per frame index (counts composition factors when elementary)."""
        f = self.algebra.field
        return tuple(
            sparse_span(f, self.dim, _columns(f, self.action_matrix(sparse(f, e)))).dim
            for e in frame.idempotents
        )


def _columns(f: Field, mat) -> list:
    """The columns of a dense square matrix as sparse vectors."""
    n = len(mat)
    return [{r: mat[r][c] for r in range(n) if mat[r][c] != f.zero} for c in range(n)]


def _matmul(f: Field, x, y):
    n = len(x)
    out = [[f.zero] * n for _ in range(n)]
    for r in range(n):
        xr = x[r]
        outr = out[r]
        for m in range(n):
            c = xr[m]
            if c == f.zero:
                continue
            ym = y[m]
            for s in range(n):
                if ym[s] != f.zero:
                    outr[s] = f.add(outr[s], f.mul(c, ym[s]))
    return tuple(tuple(r) for r in out)


def regular_module(a: Algebra, side: str = "left") -> ModuleRep:
    f = a.field
    actions = []
    for k in range(a.dim):
        mat = [[f.zero] * a.dim for _ in range(a.dim)]
        for j in range(a.dim):
            pairs = a.mult[k][j] if side == "left" else a.mult[j][k]
            for t, c in pairs:
                mat[t][j] = f.add(mat[t][j], c)
        actions.append(mat)
    return ModuleRep(a, side, a.dim, actions)


def module_from_subspace(a: Algebra, sub: Subspace, side: str = "left") -> ModuleRep:
    """Module structure on an action-stable subspace of the regular module."""
    f = a.field
    actions = []
    for k in range(a.dim):
        bk = {k: f.one}
        cols = []
        for v in sub.rows.values():
            coords = sub.coords(a.mul_sparse(bk, v) if side == "left" else a.mul_sparse(v, bk))
            if coords is None:
                raise AlgebraError("subspace is not stable under the action")
            cols.append(coords)
        actions.append(_from_columns(f, cols, sub.dim))
    return ModuleRep(a, side, sub.dim, actions)


def _from_columns(f: Field, cols, n: int) -> list:
    """The dense n x n matrix with the given sparse columns."""
    return [[col.get(r, f.zero) for col in cols] for r in range(n)]


def projective_module(a: Algebra, e, side: str = "left") -> tuple[ModuleRep, Subspace]:
    """The cyclic projective Ae (left) or eA (right) with its carrier subspace."""
    sub = column_span(a, None, e) if side == "left" else row_span(a, e, None)
    return module_from_subspace(a, sub, side), sub


def quotient_module(m: ModuleRep, sub: Subspace) -> tuple[ModuleRep, tuple[int, ...]]:
    """Quotient by an action-stable subspace; returns the complement coordinates."""
    f = m.algebra.field
    comp = sub.complement_coords()
    index = {c: t for t, c in enumerate(comp)}
    actions = []
    for mk in m.actions:
        cols = _columns(f, mk)
        reduced = [sub.reduce(cols[c]) for c in comp]
        actions.append(_from_columns(
            f, [{index[t]: x for t, x in red.items()} for red in reduced], len(comp)
        ))
    return ModuleRep(m.algebra, m.side, len(comp), actions), comp


def simple_module(a: Algebra, frame: IdempotentFrame, index: int, side: str = "left") -> ModuleRep:
    """The simple top of the cyclic projective at a frame idempotent.

    Requires the algebra to be elementary with respect to the frame, so the
    result is one-dimensional with scalar actions.
    """
    if not is_elementary(a, frame):
        raise AlgebraError("simple modules via frames need an elementary algebra")
    proj, _ = projective_module(a, frame.idempotents[index], side)
    radm = proj.radical_submodule()
    simple, _ = quotient_module(proj, radm)
    if simple.dim != 1:
        raise AlgebraError("top of the cyclic projective is not one-dimensional")
    return simple


def restrict_module(m: ModuleRep, b_sub: AlgSubspace) -> ModuleRep:
    """Restriction along the inclusion of a verified subalgebra."""
    sub_alg, rows = b_sub.extracted()
    actions = [m.action_matrix(v) for v in rows]
    return ModuleRep(sub_alg, m.side, m.dim, actions)


def induce_module(a: Algebra, b_sub: AlgSubspace, m: ModuleRep) -> ModuleRep:
    """A (x)_B M for a verified subalgebra B and a left B-module M.

    Computed as the quotient of A (x)_k M by the span of the balancing
    relations ab (x) m - a (x) bm.
    """
    if b_sub.closure_kind != AlgSubspace.SUBALGEBRA:
        raise AlgebraError("induction requires a verified subalgebra")
    if m.side != "left":
        raise AlgebraError("induction is implemented for left modules")
    sub_alg, rows = b_sub.extracted()
    if m.algebra is not sub_alg and m.algebra.dim != sub_alg.dim:
        raise AlgebraError("module is not over the extracted subalgebra")
    f = a.field
    dim_m = m.dim
    ambient = a.dim * dim_m
    rel = Echelon(f, ambient)
    for bi, sb in enumerate(rows):
        bmat = m.actions[bi]
        for ai in range(a.dim):
            ab = a.mul_sparse({ai: f.one}, sb)
            for mj in range(dim_m):
                vec: dict = {}
                for c, x in ab.items():
                    vec[c * dim_m + mj] = x
                for r in range(dim_m):
                    coeff = bmat[r][mj]
                    if coeff != f.zero:
                        key = ai * dim_m + r
                        val = f.sub(vec.get(key, f.zero), coeff)
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
            ai, mj = divmod(c, dim_m)
            red = rel_sub.reduce({t * dim_m + mj: coeff for t, coeff in a.mult[k][ai]})
            cols.append({index[t]: x for t, x in red.items()})
        actions.append(_from_columns(f, cols, len(comp)))
    return ModuleRep(a, "left", len(comp), actions)


def is_projective_module(m: ModuleRep, frame: IdempotentFrame) -> bool:
    """Projective-cover dimension test over an elementary algebra."""
    a = m.algebra
    if not is_elementary(a, frame):
        raise AlgebraError("projectivity test supported for elementary algebras only")
    tops = m.top_multiplicities(frame)
    total = 0
    for i, mult in enumerate(tops):
        if mult == 0:
            continue
        _, carrier = projective_module(a, frame.idempotents[i], m.side)
        total += mult * carrier.dim
    return total == m.dim
