"""Test oracle for the exhaustive search: every subalgebra between S and A.

``reedy._candidate_subalgebras`` builds its candidates block by block from
the Peirce decomposition.  This is the plain enumeration it replaced: S
plus each subspace of F_q^m on the m = dim A - dim S coordinates off S's
pivots, kept when it is a subalgebra.
"""

from reedylab.algebra import AlgSubspace
from reedylab.linalg import Echelon
from reedylab.reedy import _all_subspaces


def all_subalgebras_over_s(a, frame):
    f = a.field
    s_space = frame.semisimple_span()
    comp = s_space.complement_coords()
    out = []
    for rows in _all_subspaces(f, len(comp)):
        acc = Echelon(f, a.dim, s_space)
        for row in rows:
            acc.insert({c: x for c, x in zip(comp, row) if x})
        cand = AlgSubspace(a, acc.to_subspace(), AlgSubspace.PLAIN)
        if cand.is_subalgebra():
            out.append(AlgSubspace(a, cand.space, AlgSubspace.SUBALGEBRA))
    return out
