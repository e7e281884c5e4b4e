"""JSON round trips: algebras with exact scalars, reedy data, orders, quivers."""

from fractions import Fraction

import pytest

import reedylab as rl
from reedylab.serialize import (
    FormatError,
    algebra_from_json,
    algebra_to_json,
    dumps,
    load_algebra,
    load_reedy,
    order_from_json,
    parse_field_flag,
    quiver_from_json,
    quiver_to_json,
    save_algebra,
    save_reedy,
    write_json,
)


def test_field_flag_parsing():
    assert parse_field_flag("Q").characteristic == 0
    assert parse_field_flag("GF:7").characteristic == 7
    with pytest.raises(FormatError):
        parse_field_flag("R")


def test_algebra_roundtrip_bitexact_rationals(Q):
    # an algebra with genuinely fractional structure constants: k[t]/(t^2 - 1/2)
    labels = ["one", "t"]
    mult = [
        [((0, Q.of(1)),), ((1, Q.of(1)),)],
        [((1, Q.of(1)),), ((0, Fraction(1, 2)),)],
    ]
    a = rl.Algebra(Q, labels, mult, [Q.of(1), Q.of(0)])
    assert rl.validate(a)["valid"]
    doc = algebra_to_json(a)
    assert doc["mult"][3] == [1, 1, [[0, "1/2"]]]
    text = dumps(doc)
    loaded, _ = algebra_from_json(doc)
    assert dumps(algebra_to_json(loaded)) == text
    assert loaded.mult == a.mult


def test_algebra_roundtrip_gf(diamond_gf2, tmp_path):
    algebra, frame = diamond_gf2
    path = tmp_path / "d.alg.json"
    save_algebra(path, algebra, frame)
    loaded, lframe = load_algebra(path)
    assert loaded.mult == algebra.mult
    assert loaded.unit == algebra.unit
    assert lframe.idempotents == frame.idempotents
    save_algebra(tmp_path / "d2.alg.json", loaded, lframe)
    assert (tmp_path / "d.alg.json").read_text() == (tmp_path / "d2.alg.json").read_text()


def test_reedy_roundtrip(tmp_path, corpus_structures):
    s = corpus_structures["diamond-1234-AS"]
    save_algebra(tmp_path / "d.alg.json", s.algebra, s.frame)
    save_reedy(tmp_path / "d.reedy.json", s, "d.alg.json")
    loaded = load_reedy(tmp_path / "d.reedy.json")
    assert loaded.aplus.space == s.aplus.space
    assert loaded.aminus.space == s.aminus.space
    assert loaded.frame.degrees == s.frame.degrees
    assert rl.verify_reedy(loaded)["overall"]


def test_reedy_from_generators(tmp_path, diamond):
    algebra, frame = diamond
    save_algebra(tmp_path / "d.alg.json", algebra, frame.with_degrees([1, 2, 3, 4]))
    doc = {
        "algebra": "d.alg.json",
        "aplus": {
            "generators": [
                [str(x) for x in algebra.basis_vector(i)] for i in range(algebra.dim)
            ]
        },
        "aminus": {
            "generators": [[str(x) for x in e] for e in frame.idempotents]
        },
    }
    write_json(tmp_path / "d.reedy.json", doc)
    loaded = load_reedy(tmp_path / "d.reedy.json")
    assert loaded.aplus.dim == 9 and loaded.aminus.dim == 4
    assert rl.verify_reedy(loaded)["overall"]


def test_reedy_rejects_non_subalgebra_basis(tmp_path, diamond):
    algebra, frame = diamond
    save_algebra(tmp_path / "d.alg.json", algebra, frame.with_degrees([1, 2, 3, 4]))
    arrow = algebra.basis_vector(algebra.labels.index("ab"))
    doc = {
        "algebra": "d.alg.json",
        "aplus": {"basis": [[str(x) for x in arrow]]},
        "aminus": {"basis": [[str(x) for x in e] for e in frame.idempotents]},
    }
    write_json(tmp_path / "bad.reedy.json", doc)
    with pytest.raises(FormatError, match="subalgebra"):
        load_reedy(tmp_path / "bad.reedy.json")


def test_order_parsing(diamond):
    _, frame = diamond
    order = order_from_json({"levels": {"a": 0, "b": 1, "c": 1, "d": 2}}, frame)
    assert order.levels == (0, 1, 1, 2)
    with pytest.raises(FormatError):
        order_from_json({"levels": {"a": 0}}, frame)


def test_quiver_roundtrip(Q):
    pres = rl.diamond_presentation()
    doc = quiver_to_json(pres)
    again = quiver_from_json(doc)
    assert again.vertices == pres.vertices
    assert again.arrows == pres.arrows
    assert again.relations == pres.relations
    a1, _ = rl.build_quiver_algebra(pres, Q)
    a2, _ = rl.build_quiver_algebra(again, Q)
    assert a1.mult == a2.mult


def test_quiver_errors_name_the_relation():
    with pytest.raises(FormatError, match="relation 0"):
        quiver_from_json(
            {
                "vertices": ["a", "b", "c"],
                "arrows": [["a", "b", "x"], ["a", "c", "y"]],
                "relations": [
                    [{"coeff": "1", "path": ["x"]}, {"coeff": "-1", "path": ["y"]}]
                ],
                "nilpotency_bound": 2,
            }
        )


def test_malformed_algebra_documents():
    with pytest.raises(FormatError):
        algebra_from_json({"field": {"kind": "Q"}, "dim": 2, "labels": ["a"]})
    with pytest.raises(FormatError):
        algebra_from_json(
            {"field": {"kind": "X"}, "dim": 1, "labels": ["a"], "unit": ["1"], "mult": []}
        )


@pytest.mark.parametrize("key", ["idempotents", "degrees"])
@pytest.mark.parametrize("value", [[1, 2], "ab", 3])
def test_frame_maps_must_be_objects(key, value, diamond):
    data = algebra_to_json(*diamond)
    data["degrees"] = {lab: 0 for lab in diamond[1].labels}
    data[key] = value
    with pytest.raises(FormatError, match=f"'{key}' must be an object"):
        algebra_from_json(data)
