"""Test oracle for ``peirce_blocks``, and changes of basis to feed it.

``algebra.peirce_blocks`` splits X's rows by the idempotents the table lets
act and keeps rows their idempotents fix as they are.  This is the routine
it replaced: the row e_j X as the span of (line of e_j) * x over every row x
of X, then each block as the span of r * (line of e_i) over every row r of
that row.

``change_basis`` carries a Reedy structure (table, unit, frame, A+ and A-)
to another basis exactly; ``permuted`` and ``unitriangular`` are the two
changes the tests use.  A unitriangular basis mixes the Peirce blocks, so
its basis vectors are not fixed by their idempotents.
"""

from reedylab import Algebra, AlgSubspace, IdempotentFrame, ReedyStructure
from reedylab.algebra import column_span, row_span
from reedylab.linalg import Echelon, add_scaled, densify, sparse, sparse_span


def peirce_blocks_by_spans(frame: IdempotentFrame, sub: AlgSubspace | None = None) -> dict:
    """All blocks e_j X e_i of A (``sub`` None) or of a subspace: the
    columns (e_j X) e_i of the rows e_j X, by the idempotent lines."""
    a, lines = frame.algebra, frame.lines()
    space = None if sub is None else sub.space
    rows = [row_span(a, line, space) for line in lines]
    return {(j, i): column_span(a, rows[j], line)
            for j in range(len(lines)) for i, line in enumerate(lines)}


def change_basis(r: ReedyStructure, basis) -> ReedyStructure:
    """``r`` on the basis c_k = basis[k], sparse vectors in r's coordinates
    that must span A.  A vector goes to the new coordinates through the
    inverse matrix, read off the reduced echelon rows (b_p, row p of the
    inverse) of the rows (c_k, unit vector k)."""
    a = r.algebra
    f, n = a.field, a.dim
    pairs = Echelon(f, 2 * n)
    for k, c in enumerate(basis):
        pairs.insert({**c, n + k: f.one})
    inverse = {p: {col - n: x for col, x in row.items() if col >= n} for p, row in pairs.rows.items()}
    if sorted(inverse) != list(range(n)):
        raise ValueError("the new basis does not span the algebra")

    def image(v: dict) -> dict:
        out: dict = {}
        for p, x in v.items():
            add_scaled(f, out, x, inverse[p])
        return out

    def dense(v) -> tuple:
        return densify(f, image(sparse(f, v)), n)

    mult = [[tuple(sorted(image(a.mul_sparse(cs, ct)).items())) for ct in basis] for cs in basis]
    b = Algebra(f, a.labels, mult, dense(a.unit))
    frame = IdempotentFrame(b, [dense(e) for e in r.frame.idempotents], r.frame.labels,
                            r.frame.degrees)

    def sub(x: AlgSubspace) -> AlgSubspace:
        return AlgSubspace(b, sparse_span(f, n, map(image, x.space.rows.values())), x.closure_kind)
    return ReedyStructure(b, frame, sub(r.aplus), sub(r.aminus))


def permuted(r: ReedyStructure, rng) -> ReedyStructure:
    """``r`` on its basis in a seeded order."""
    order = list(range(r.algebra.dim))
    rng.shuffle(order)
    return change_basis(r, [{t: r.algebra.field.one} for t in order])


def unitriangular(r: ReedyStructure, rng, density: float) -> ReedyStructure:
    """``r`` on the basis c_k = b_k + sum over t > k of u_kt b_t, where each
    u_kt is, with probability ``density``, a seeded nonzero scalar +-m/d
    with m, d <= 3 (a field of characteristic above 3), and 0 otherwise."""
    f, n = r.algebra.field, r.algebra.dim
    basis = []
    for k in range(n):
        c = {k: f.one}
        for t in range(k + 1, n):
            if rng.random() < density:
                c[t] = f.div(f.of(rng.choice((-3, -2, -1, 1, 2, 3))), f.of(rng.randint(1, 3)))
        basis.append(c)
    return change_basis(r, basis)
