import pytest

import reedylab as rl


@pytest.fixture(scope="session")
def Q():
    return rl.rationals()


@pytest.fixture(scope="session")
def GF2():
    return rl.prime_field(2)


@pytest.fixture(scope="session")
def GF3():
    return rl.prime_field(3)


@pytest.fixture(scope="session")
def diamond(Q):
    algebra, frame = rl.build_quiver_algebra(rl.diamond_presentation(), Q)
    return algebra, frame


@pytest.fixture(scope="session")
def diamond_gf2(GF2):
    algebra, frame = rl.build_quiver_algebra(rl.diamond_presentation(), GF2)
    return algebra, frame


@pytest.fixture(scope="session")
def uppertri(Q):
    algebra, frame = rl.build_quiver_algebra(rl.a2_presentation(), Q)
    return algebra, frame


@pytest.fixture(scope="session")
def m2q(Q):
    algebra = rl.build_matrix_algebra(2, Q)
    return algebra, rl.matrix_diag_frame(algebra, 2)


@pytest.fixture(scope="session")
def simplex1(Q):
    return rl.build_simplex_algebra(1, Q)


@pytest.fixture(scope="session")
def simplex2(Q):
    return rl.build_simplex_algebra(2, Q)


@pytest.fixture(scope="session")
def simplex3(Q):
    return rl.build_simplex_algebra(3, Q)


def diamond_structure(algebra, frame, degrees, plus_full, minus_full):
    work = frame.with_degrees(degrees)
    s = rl.subalgebra_closure(algebra, list(frame.idempotents))
    aplus = rl.full_subalgebra(algebra) if plus_full else s
    aminus = rl.full_subalgebra(algebra) if minus_full else s
    return rl.ReedyStructure(algebra, work, aplus, aminus)


@pytest.fixture(scope="session")
def diamond_1234(diamond):
    return diamond_structure(*diamond, [1, 2, 3, 4], True, False)


@pytest.fixture(scope="session")
def uppertri_ss(uppertri):
    algebra, frame = uppertri
    s = rl.subalgebra_closure(algebra, list(frame.idempotents))
    return rl.ReedyStructure(algebra, frame.with_degrees([1, 0]), s, s)


@pytest.fixture(scope="session")
def tensor63(diamond_1234, simplex1):
    return rl.build_tensor_reedy(diamond_1234, simplex1)


@pytest.fixture(scope="session")
def tensor49(simplex1):
    return rl.build_tensor_reedy(simplex1, simplex1)


@pytest.fixture(scope="session")
def dualext_a2(Q):
    up = rl.QuiverPresentation(["a", "b"], [["a", "b", "u"]], [], 1)
    down = rl.QuiverPresentation(["a", "b"], [["b", "a", "v"]], [], 1)
    ap, apf = rl.build_quiver_algebra(up, Q)
    am, amf = rl.build_quiver_algebra(down, Q)
    return rl.build_dual_extension(apf.with_degrees([0, 1]), amf.with_degrees([0, 1]))


@pytest.fixture(scope="session")
def corpus_structures(Q, diamond, uppertri, simplex1, simplex2, tensor63, tensor49,
                      dualext_a2, m2_gf2_pair):
    """The verified/falsified Reedy structures the property suites range over."""
    d_alg, d_frame = diamond
    u_alg, u_frame = uppertri
    k_alg, k_frame = rl.build_quiver_algebra(rl.QuiverPresentation(["pt"], [], [], 1), Q)
    k_struct = rl.ReedyStructure(
        k_alg, k_frame.with_degrees([0]), rl.full_subalgebra(k_alg), rl.full_subalgebra(k_alg)
    )
    u_s = rl.subalgebra_closure(u_alg, list(u_frame.idempotents))
    structures = {
        "k": k_struct,
        "diamond-1234-AS": diamond_structure(d_alg, d_frame, [1, 2, 3, 4], True, False),
        "diamond-1223-AS": diamond_structure(d_alg, d_frame, [1, 2, 2, 3], True, False),
        "diamond-4231-SA": diamond_structure(d_alg, d_frame, [4, 2, 3, 1], False, True),
        "diamond-4312-SS": diamond_structure(d_alg, d_frame, [4, 3, 1, 2], False, False),
        "uppertri-SS": rl.ReedyStructure(u_alg, u_frame.with_degrees([1, 0]), u_s, u_s),
        "uppertri-AS": rl.ReedyStructure(
            u_alg, u_frame.with_degrees([0, 1]), rl.full_subalgebra(u_alg), u_s
        ),
        "m2-pair": m2_gf2_pair,
        "simplex1": simplex1,
        "simplex2": simplex2,
        "dualext-a2": dualext_a2[1],
        "tensor63": tensor63,
        "tensor49": tensor49,
    }
    return structures


@pytest.fixture(scope="session")
def m2_gf2_pair(GF2):
    m2 = rl.build_matrix_algebra(2, GF2)
    diag = rl.matrix_diag_frame(m2, 2).with_degrees([0, 1])
    upper = rl.subalgebra_closure(m2, list(diag.idempotents) + [m2.basis_vector(1)])
    lower = rl.subalgebra_closure(m2, list(diag.idempotents) + [m2.basis_vector(2)])
    return rl.ReedyStructure(m2, diag, lower, upper)
