"""Test oracle for ``tensor_dim_over_corner``: the blockwise balancing system.

``algebra.tensor_dim_over_corner`` reads each part e_hAe (x)_{eAe} eAe_g
off a projective presentation of eAe_g.  This is the routine it replaced:
the same blocks and the same bound, with one balancing relation
x r (x) y - x (x) r y for every corner row r, in the sum over i inside of
e_hAe_i (x) e_iAe_g.
"""

from reedylab.algebra import IdempotentFrame, product_rank, product_span
from reedylab.linalg import Echelon, Subspace


def balanced_tensor_dim(frame: IdempotentFrame, inside, below: Subspace | None = None) -> int:
    """dim of Ae (x)_{eAe} eA for e the sum of the frame idempotents at
    ``inside``, one frame pair (h, g) at a time.  eAe holds each e_i, so
    x (x) y vanishes for x in e_hAe_i, y in e_kAe_g and k != i.  If h or g
    is inside, the part at (h, g) is the block e_hAe_g.  Otherwise it is
    the sum over i inside of e_hAe_i (x) e_iAe_g modulo the relations
    x r (x) y - x (x) r y for r in e_iAe_k (i, k inside); it maps onto
    e_h(AeA)e_g, so the relations stop once their rank is the width less
    that image's rank, and the products x r and r y of a corner row r are
    formed only when the first relation from r is asked for, once per
    outside index, so rows past that point cost nothing.  The block and
    bound identities read A's table as associative, which a loaded file
    does not yet prove.  With ``below`` = J, an ideal, all is read in A/J:
    blocks as residue rows modulo J, products reduced modulo J."""
    a, lines, n = frame.algebra, frame.lines(), range(len(frame))
    inside = sorted(inside)
    outside = [h for h in n if h not in inside]
    reduce = below.reduce if below is not None else dict
    columns = {i: product_span(a, None, lines[i], below) for i in inside}
    rows = {i: product_span(a, lines[i], None, below) for i in inside}
    blocks = {(k, i): product_span(a, lines[k], columns[i], below) for k in inside for i in inside}
    total = sum(columns[i].dim + rows[i].dim for i in inside) - sum(b.dim for b in blocks.values())
    if all(b.dim == 0 or (i == k and b.dim == 1) for (i, k), b in blocks.items()):
        # eAe is spanned by the e_i, whose relations vanish: each part is its full width
        return total + sum((columns[i].dim - blocks[(i, i)].dim) * (rows[i].dim - blocks[(i, i)].dim)
                           for i in inside)
    for i in inside:
        blocks.update({(h, i): product_span(a, lines[h], columns[i], below) for h in outside})
        blocks.update({(i, h): product_span(a, rows[i], lines[h], below) for h in outside})
    corner = [(i, k, r) for i in inside for k in inside for r in blocks[(i, k)].rows.values()]
    products = {}

    def times(side, h, t):
        """For the t-th corner row r in e_iAe_k, in block coordinates: x*r in
        e_hAe_k for the rows x of e_hAe_i (side "x"), or r*y in e_iAe_h for
        the rows y of e_kAe_h (side "y"); formed once, when first asked for."""
        if (side, h, t) not in products:
            i, k, r = corner[t]
            products[side, h, t] = (
                [blocks[(h, k)].coords(reduce(a.mul_sparse(x, r))) for x in blocks[(h, i)].rows.values()]
                if side == "x" else
                [blocks[(i, h)].coords(reduce(a.mul_sparse(r, y))) for y in blocks[(k, h)].rows.values()])
        return products[side, h, t]

    for h in outside:
        for g in outside:
            pairs = [(blocks[(h, i)], blocks[(i, g)]) for i in inside]
            offsets, width = {}, 0
            for i, (x, y) in zip(inside, pairs):
                offsets[i] = (width, y.dim)
                width += x.dim * y.dim
            relations, bound = Echelon(a.field, width), None
            for vec in _balancing(a.field, corner, lambda t: times("x", h, t),
                                  lambda t: times("y", g, t), offsets):
                if bound is None:
                    bound = width - product_rank(a, pairs, below)[1]
                if relations.dim < bound:
                    relations.insert(vec)
                if relations.dim == bound:
                    break
            total += width - relations.dim
    return total


def _balancing(f, corner, xr, ry, offsets):
    """The nonzero relations x r (x) y - x (x) r y, where x r (x) y sits at
    the column offset + c * step + j for ``offsets[k]`` = (offset, step),
    c the coordinate of x*r and j the index of y, and x (x) r y likewise at
    ``offsets[i]``; ``xr(t)`` and ``ry(t)`` give the products x*r and r*y
    for the t-th corner row, asked for only as the relations reach it."""
    for t, (i, k, _) in enumerate(corner):
        (at_i, step_i), (at_k, step_k) = offsets[i], offsets[k]
        per_x, per_y = xr(t), ry(t)
        for xi, x_r in enumerate(per_x):
            for yj, r_y in enumerate(per_y):
                vec = {at_k + c * step_k + yj: v for c, v in x_r.items()}
                for c, v in r_y.items():
                    key = at_i + xi * step_i + c
                    val = f.sub(vec.get(key, f.zero), v)
                    if val:
                        vec[key] = val
                    else:
                        vec.pop(key)
                if vec:
                    yield vec
