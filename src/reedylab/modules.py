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
from .linalg import Echelon, Subspace, densify, sparse


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

    def apply_basis(self, k: int, vec) -> tuple:
        f = self.algebra.field
        m = self.actions[k]
        return tuple(f.dot(m[r], vec) for r in range(self.dim))

    def action_matrix(self, x) -> tuple:
        """Dense matrix of the action of an algebra element."""
        f = self.algebra.field
        out = [[f.zero] * self.dim for _ in range(self.dim)]
        for k, c in enumerate(x):
            if c == f.zero:
                continue
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
        if self.action_matrix(a.unit) != ident:
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
        acc = Echelon(f, self.dim)
        for r in rad.space.basis:
            mat = self.action_matrix(r)
            for col in range(self.dim):
                acc.insert({row: mat[row][col] for row in range(self.dim) if mat[row][col] != f.zero})
        sub = acc.to_subspace()
        self._cache["radical_submodule"] = sub
        return sub

    def top_multiplicities(self, frame: IdempotentFrame) -> tuple[int, ...]:
        """dim e_i * top(M) per frame index (top(M)*e_i for right modules)."""
        f = self.algebra.field
        radm = self.radical_submodule()
        comp = radm.complement_coords()
        out = []
        for e in frame.idempotents:
            mat = self.action_matrix(e)
            acc = Echelon(f, len(comp))
            for col in range(self.dim):
                img = [mat[row][col] for row in range(self.dim)]
                red = radm.reduce(img)
                acc.insert({t: red[c] for t, c in enumerate(comp) if red[c] != f.zero})
            out.append(acc.dim)
        return tuple(out)

    def comp_dim_vector(self, frame: IdempotentFrame) -> tuple[int, ...]:
        """dim e_i*M per frame index (counts composition factors when elementary)."""
        f = self.algebra.field
        out = []
        for e in frame.idempotents:
            mat = self.action_matrix(e)
            acc = Echelon(f, self.dim)
            for col in range(self.dim):
                acc.insert({row: mat[row][col] for row in range(self.dim) if mat[row][col] != f.zero})
            out.append(acc.dim)
        return tuple(out)


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
    rows = sub.basis
    actions = []
    for k in range(a.dim):
        cols = []
        for v in rows:
            img = a.mul(a.basis_vector(k), v) if side == "left" else a.mul(v, a.basis_vector(k))
            coords = sub.coords(img)
            if coords is None:
                raise AlgebraError("subspace is not stable under the action")
            cols.append(coords)
        mat = [[cols[j][r] for j in range(sub.dim)] for r in range(sub.dim)]
        actions.append(mat)
    return ModuleRep(a, side, sub.dim, actions)


def projective_module(a: Algebra, e, side: str = "left") -> tuple[ModuleRep, Subspace]:
    """The cyclic projective Ae (left) or eA (right) with its carrier subspace."""
    sub = column_span(a, None, e) if side == "left" else row_span(a, e, None)
    return module_from_subspace(a, sub, side), sub


def quotient_module(m: ModuleRep, sub: Subspace) -> tuple[ModuleRep, tuple[int, ...]]:
    """Quotient by an action-stable subspace; returns the complement coordinates."""
    f = m.algebra.field
    comp = sub.complement_coords()
    d = len(comp)
    actions = []
    for k in range(m.algebra.dim):
        cols = []
        for c in comp:
            basis_vec = tuple(f.one if r == c else f.zero for r in range(m.dim))
            img = m.apply_basis(k, basis_vec)
            red = sub.reduce(img)
            cols.append([red[t] for t in comp])
        mat = [[cols[j][r] for j in range(d)] for r in range(d)]
        actions.append(mat)
    return ModuleRep(m.algebra, m.side, d, actions), comp


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
    for bi, bvec in enumerate(rows):
        bmat = m.actions[bi]
        sb = sparse(f, bvec)
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
    d = len(comp)
    actions = []
    for k in range(a.dim):
        cols = []
        for c in comp:
            ai, mj = divmod(c, dim_m)
            img: dict = {}
            for t, coeff in a.mult[k][ai]:
                img[t * dim_m + mj] = coeff
            red = rel_sub.reduce(densify(f, img, ambient))
            cols.append([red[t] for t in comp])
        mat = [[cols[j][r] for j in range(d)] for r in range(d)]
        actions.append(mat)
    return ModuleRep(a, "left", d, actions)


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
