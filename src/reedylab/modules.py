"""Finite-dimensional modules as subquotients of an algebra.

Every module here is U/K for subspaces K <= U of an ambient algebra A that
are stable under multiplication, from the module's side, by an acting
algebra X: A itself, or a verified subalgebra B of A.  A module over B is
a subquotient of A acted on by B (B*e, its simple top, a restriction), so
the frames passed to the invariants are always A's frames.  Every invariant
is the dimension of a span of products, so no action matrix is ever formed.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    AlgebraError,
    AlgSubspace,
    IdempotentFrame,
    column_span,
    element_line,
    is_elementary,
    product_rank,
    product_span,
    radical_space,
    row_span,
)
from .linalg import Subspace, full_space, modulo, subspace_sum


class ModuleRep:
    """The subquotient ``carrier / killed`` of ``ambient`` as a left (or
    right) module.

    ``acting`` is the verified subalgebra X of ``ambient`` that acts, None
    for the whole algebra; the frames passed to the invariants are frames of
    ``ambient``.  ``line`` is the span of an idempotent e with carrier = X*e
    (e*X for right modules), or None when the carrier is not known to be of
    that form.
    """

    __slots__ = ("ambient", "acting", "side", "carrier", "killed", "line", "_cache")

    def __init__(self, ambient: Algebra, side: str, carrier: Subspace,
                 killed: Subspace | None = None, acting: AlgSubspace | None = None,
                 line: Subspace | None = None):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.ambient = ambient
        self.side = side
        self.carrier = carrier
        self.killed = killed if killed is not None else Subspace(ambient.field, ambient.dim)
        self.acting = acting
        self.line = line
        self._cache = {}

    def __repr__(self):
        return f"ModuleRep({self.side}, dim={self.dim} over dim-{(self.acting or self.ambient).dim} algebra)"

    @property
    def dim(self) -> int:
        return self.carrier.dim - self.killed.dim

    def _acting_on_carrier(self, xs: Subspace) -> tuple:
        """The pair whose products span X*U (U*X for right modules) modulo
        K, with U held by its residue rows modulo K since X*K lies in K."""
        if "residue" not in self._cache:
            self._cache["residue"] = modulo(self.carrier, self.killed)
        rows = self._cache["residue"]
        return (xs, rows) if self.side == "left" else (rows, xs)

    def _rank_modulo(self, line: Subspace, base: Subspace) -> int:
        """dim(e*U + base) - dim(base) for the line of a frame idempotent e
        (U*e on the right)."""
        return product_rank(self.ambient, [self._acting_on_carrier(line)], base)[1]

    def radical_submodule(self) -> Subspace:
        """rad(X)*U + K (U*rad(X) + K for right modules), whose quotient of
        the module is its top."""
        if "radical_submodule" not in self._cache:
            rad = radical_space(self.ambient, self.acting)
            self._cache["radical_submodule"] = subspace_sum(
                self.killed, product_span(self.ambient, *self._acting_on_carrier(rad), self.killed)
            )
        return self._cache["radical_submodule"]

    def top_multiplicities(self, frame: IdempotentFrame) -> tuple[int, ...]:
        """dim e_i * top(M) per frame index (top(M)*e_i for right modules)."""
        radm = self.radical_submodule()
        return tuple(self._rank_modulo(line, radm) for line in frame.lines())

    def comp_dim_vector(self, frame: IdempotentFrame) -> tuple[int, ...]:
        """dim e_i*M per frame index (counts composition factors when elementary)."""
        return tuple(self._rank_modulo(line, self.killed) for line in frame.lines())


def regular_module(a: Algebra, side: str = "left") -> ModuleRep:
    return ModuleRep(a, side, full_space(a.field, a.dim), line=element_line(a, a.unit))


def module_from_subspace(a: Algebra, sub: Subspace, side: str = "left") -> ModuleRep:
    """Module structure on an action-stable subspace of the regular module.

    A*U contains U because A is unital, so U is stable iff A*U = U."""
    if (product_span(a, None, sub) if side == "left" else product_span(a, sub, None)) != sub:
        raise AlgebraError("subspace is not stable under the action")
    return ModuleRep(a, side, sub)


def projective_module(a: Algebra, e, side: str = "left", sub: AlgSubspace | None = None) -> ModuleRep:
    """The cyclic projective Xe (left) or eX (right) of an idempotent e (dense,
    sparse or its line) of X = A or the verified subalgebra ``sub``."""
    line = element_line(a, e)
    space = None if sub is None else sub.space
    carrier = column_span(a, space, line) if side == "left" else row_span(a, line, space)
    return ModuleRep(a, side, carrier, acting=sub, line=line)


def quotient_module(m: ModuleRep, sub: Subspace) -> ModuleRep:
    """M/N for the submodule N = (sub + K)/K, ``sub`` a subspace of the carrier."""
    if any(m.carrier.reduce(v) for v in sub.rows.values()):
        raise AlgebraError("quotient by a subspace outside the module")
    return ModuleRep(m.ambient, m.side, m.carrier, subspace_sum(m.killed, sub),
                     m.acting, m.line)


def simple_module(a: Algebra, frame: IdempotentFrame, index: int, side: str = "left",
                  sub: AlgSubspace | None = None) -> ModuleRep:
    """The simple top of the cyclic projective at a frame idempotent, over
    X = A or the verified subalgebra ``sub``.

    Requires X to be elementary with respect to the frame, so the result is
    one-dimensional.
    """
    if not is_elementary(a, frame, sub):
        raise AlgebraError("simple modules via frames need an elementary algebra")
    proj = projective_module(a, frame.lines()[index], side, sub)
    simple = quotient_module(proj, proj.radical_submodule())
    if simple.dim != 1:
        raise AlgebraError("top of the cyclic projective is not one-dimensional")
    return simple


def restrict_module(m: ModuleRep, b_sub: AlgSubspace) -> ModuleRep:
    """Restriction along the inclusion of a verified subalgebra: the same
    subquotient, acted on by the subalgebra only."""
    if (m.acting is not None or b_sub.algebra.dim != m.ambient.dim
            or b_sub.closure_kind != AlgSubspace.SUBALGEBRA):
        raise AlgebraError("restriction needs a verified subalgebra of the module's algebra")
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
    if (m.ambient is not a or m.acting not in (None, b_sub) or m.line is None
            or m.carrier != column_span(a, b_sub.space, m.line)):
        raise AlgebraError("induction needs a quotient Be/K of a projective of the subalgebra")
    return ModuleRep(a, "left", column_span(a, None, m.line), product_span(a, None, m.killed),
                     line=m.line)


def is_projective_module(m: ModuleRep, frame: IdempotentFrame) -> bool:
    """Projective-cover dimension test over an elementary acting algebra."""
    if not is_elementary(m.ambient, frame, m.acting):
        raise AlgebraError("projectivity test supported for elementary algebras only")
    tops = m.top_multiplicities(frame)
    total = sum(
        mult * projective_module(m.ambient, frame.lines()[i], m.side, m.acting).dim
        for i, mult in enumerate(tops) if mult
    )
    return total == m.dim
