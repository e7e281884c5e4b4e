"""Finite-dimensional modules as subquotients of an algebra.

Every module here is U/K for subspaces K <= U of an ambient algebra A that
are stable under multiplication, from the module's side, by an acting
algebra X: A itself, or a verified subalgebra of A after restriction.
Every invariant is the dimension of a span of products, so no action
matrix is ever formed.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    AlgebraError,
    AlgSubspace,
    IdempotentFrame,
    column_span,
    is_elementary,
    product_rank,
    product_span,
    radical,
    row_span,
)
from .linalg import Subspace, full_space, sparse, sparse_span, subspace_sum


class ModuleRep:
    """The subquotient ``carrier / killed`` of ``ambient`` as a left (or
    right) module.

    ``acting`` is the verified subalgebra X of ``ambient`` that acts, None
    for the whole algebra; ``algebra`` is X as a standalone algebra, and the
    frames passed to the invariants live on it.  ``idempotent`` is a sparse
    idempotent e with carrier = X*e (e*X for right modules), or None when
    the carrier is not known to be of that form.
    """

    __slots__ = ("ambient", "acting", "side", "carrier", "killed", "idempotent", "_cache")

    def __init__(self, ambient: Algebra, side: str, carrier: Subspace,
                 killed: Subspace | None = None, acting: AlgSubspace | None = None,
                 idempotent: dict | None = None):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.ambient = ambient
        self.side = side
        self.carrier = carrier
        self.killed = killed if killed is not None else Subspace(ambient.field, ambient.dim)
        self.acting = acting
        self.idempotent = idempotent
        self._cache = {}

    def __repr__(self):
        return f"ModuleRep({self.side}, dim={self.dim} over dim-{self.algebra.dim} algebra)"

    @property
    def algebra(self) -> Algebra:
        return self.ambient if self.acting is None else self.acting.extracted()[0]

    @property
    def dim(self) -> int:
        return self.carrier.dim - self.killed.dim

    def _acting_on_carrier(self, xs: Subspace) -> tuple:
        """The pair whose products span X*U (U*X for right modules)."""
        return (xs, self.carrier) if self.side == "left" else (self.carrier, xs)

    def _rank_modulo(self, e, base: Subspace) -> int:
        """dim(e*U + base) - dim(base) for a frame idempotent e (U*e on the right)."""
        a = self.ambient
        e = sparse(a.field, e)
        line = sparse_span(a.field, a.dim, [e if self.acting is None else self.acting.embed(e)])
        return product_rank(a, [self._acting_on_carrier(line)], base)[1]

    def radical_submodule(self) -> Subspace:
        """rad(X)*U + K (U*rad(X) + K for right modules), whose quotient of
        the module is its top."""
        if "radical_submodule" not in self._cache:
            a = self.ambient
            rad = radical(self.algebra).space
            if self.acting is not None:
                lifted = (self.acting.embed(r) for r in rad.rows.values())
                rad = sparse_span(a.field, a.dim, lifted)
            self._cache["radical_submodule"] = subspace_sum(
                product_span(a, *self._acting_on_carrier(rad)), self.killed
            )
        return self._cache["radical_submodule"]

    def top_multiplicities(self, frame: IdempotentFrame) -> tuple[int, ...]:
        """dim e_i * top(M) per frame index (top(M)*e_i for right modules)."""
        radm = self.radical_submodule()
        return tuple(self._rank_modulo(e, radm) for e in frame.idempotents)

    def comp_dim_vector(self, frame: IdempotentFrame) -> tuple[int, ...]:
        """dim e_i*M per frame index (counts composition factors when elementary)."""
        return tuple(self._rank_modulo(e, self.killed) for e in frame.idempotents)


def regular_module(a: Algebra, side: str = "left") -> ModuleRep:
    return ModuleRep(a, side, full_space(a.field, a.dim), idempotent=sparse(a.field, a.unit))


def module_from_subspace(a: Algebra, sub: Subspace, side: str = "left") -> ModuleRep:
    """Module structure on an action-stable subspace of the regular module.

    A*U contains U because A is unital, so U is stable iff A*U = U."""
    if (product_span(a, None, sub) if side == "left" else product_span(a, sub, None)) != sub:
        raise AlgebraError("subspace is not stable under the action")
    return ModuleRep(a, side, sub)


def projective_module(a: Algebra, e, side: str = "left") -> ModuleRep:
    """The cyclic projective Ae (left) or eA (right) of a dense idempotent e."""
    carrier = column_span(a, None, e) if side == "left" else row_span(a, e, None)
    return ModuleRep(a, side, carrier, idempotent=sparse(a.field, e))


def quotient_module(m: ModuleRep, sub: Subspace) -> ModuleRep:
    """M/N for the submodule N = (sub + K)/K, ``sub`` a subspace of the carrier."""
    if any(m.carrier.reduce(v) for v in sub.rows.values()):
        raise AlgebraError("quotient by a subspace outside the module")
    return ModuleRep(m.ambient, m.side, m.carrier, subspace_sum(m.killed, sub),
                     m.acting, m.idempotent)


def simple_module(a: Algebra, frame: IdempotentFrame, index: int, side: str = "left") -> ModuleRep:
    """The simple top of the cyclic projective at a frame idempotent.

    Requires the algebra to be elementary with respect to the frame, so the
    result is one-dimensional.
    """
    if not is_elementary(a, frame):
        raise AlgebraError("simple modules via frames need an elementary algebra")
    proj = projective_module(a, frame.idempotents[index], side)
    simple = quotient_module(proj, proj.radical_submodule())
    if simple.dim != 1:
        raise AlgebraError("top of the cyclic projective is not one-dimensional")
    return simple


def restrict_module(m: ModuleRep, b_sub: AlgSubspace) -> ModuleRep:
    """Restriction along the inclusion of a verified subalgebra: the same
    subquotient, acted on by the subalgebra only."""
    if m.acting is not None or b_sub.algebra.dim != m.ambient.dim:
        raise AlgebraError("restriction needs a subalgebra of the module's algebra")
    b_sub.extracted()  # raises unless the subalgebra is verified
    return ModuleRep(m.ambient, m.side, m.carrier, m.killed, b_sub)


def induce_module(a: Algebra, b_sub: AlgSubspace, m: ModuleRep) -> ModuleRep:
    """A (x)_B M for a verified subalgebra B and a left B-module M = Be/K.

    A (x)_B Be is Ae, and A (x)_B - is right exact, so A (x)_B (Be/K) is
    Ae / A*K.  Modules not of the form Be/K are refused.
    """
    if b_sub.closure_kind != AlgSubspace.SUBALGEBRA:
        raise AlgebraError("induction requires a verified subalgebra")
    if m.side != "left":
        raise AlgebraError("induction is implemented for left modules")
    sub_alg, _ = b_sub.extracted()
    if m.algebra is not sub_alg and m.algebra.dim != sub_alg.dim:
        raise AlgebraError("module is not over the extracted subalgebra")
    if m.acting is not None or m.idempotent is None:
        raise AlgebraError("induction needs a quotient Be/K of a projective of the subalgebra")
    f = a.field
    e = b_sub.embed(m.idempotent)
    killed = sparse_span(f, a.dim, (b_sub.embed(v) for v in m.killed.rows.values()))
    return ModuleRep(a, "left", column_span(a, None, e), product_span(a, None, killed),
                     idempotent=e)


def is_projective_module(m: ModuleRep, frame: IdempotentFrame) -> bool:
    """Projective-cover dimension test over an elementary algebra."""
    a = m.algebra
    if not is_elementary(a, frame):
        raise AlgebraError("projectivity test supported for elementary algebras only")
    tops = m.top_multiplicities(frame)
    total = sum(
        mult * projective_module(a, frame.idempotents[i], m.side).dim
        for i, mult in enumerate(tops) if mult
    )
    return total == m.dim
