"""JSON round trips: algebras with exact scalars, reedy data, orders, quivers."""

from fractions import Fraction

import pytest

import reedylab as rl
from reedylab.qh import order_from_degrees
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
    read_json,
    save_algebra,
    save_reedy,
    write_json,
)
from reedylab.cli import main
from reedylab.corpus import default_corpus_dir
from reedylab.linalg import densify, sparse


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


CORPUS = default_corpus_dir()
CORPUS_ALGEBRAS = sorted(CORPUS.glob("*.alg.json"))
CORPUS_REEDY = sorted(CORPUS.glob("*.reedy.json"))


@pytest.mark.parametrize("path", CORPUS_ALGEBRAS, ids=lambda p: p.name)
def test_corpus_algebras_reload_to_the_same_bytes(path, tmp_path):
    save_algebra(tmp_path / path.name, *load_algebra(path))
    assert (tmp_path / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("path", CORPUS_REEDY, ids=lambda p: p.name)
def test_corpus_reedy_files_reload_to_the_same_bytes(path, tmp_path):
    save_reedy(tmp_path / path.name, load_reedy(path), read_json(path)["algebra"])
    assert (tmp_path / path.name).read_bytes() == path.read_bytes()


def test_data_files_put_one_key_per_line(tmp_path, diamond):
    algebra, frame = diamond
    save_algebra(tmp_path / "d.alg.json", algebra, frame)
    lines = (tmp_path / "d.alg.json").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    assert [line.split(":")[0] for line in lines[1:-1]] == [
        '  "field"', '  "dim"', '  "labels"', '  "unit"', '  "mult"', '  "idempotents"']


@pytest.fixture(scope="module")
def indented_corpus(tmp_path_factory):
    """The bundled algebra and Reedy files written with ``dumps``, the
    two-space indent layout they were bundled in before."""
    out = tmp_path_factory.mktemp("indented")
    for path in CORPUS_ALGEBRAS + CORPUS_REEDY:
        write_json(out / path.name, read_json(path))
        assert (out / path.name).read_bytes() != path.read_bytes(), path.name
    return out


def frame_data(frame):
    return None if frame is None else (frame.labels, frame.idempotents, frame.degrees)


@pytest.mark.parametrize("path", CORPUS_ALGEBRAS, ids=lambda p: p.name)
def test_indented_algebra_files_load_to_the_same_algebra(indented_corpus, path):
    (old, old_frame), (new, new_frame) = (load_algebra(d / path.name)
                                          for d in (indented_corpus, CORPUS))
    assert old.mult == new.mult and old.unit == new.unit
    assert frame_data(old_frame) == frame_data(new_frame)


@pytest.mark.parametrize("path", CORPUS_REEDY, ids=lambda p: p.name)
def test_indented_reedy_files_give_the_same_reports(indented_corpus, path, tmp_path, capsys):
    old, new = (load_reedy(d / path.name) for d in (indented_corpus, CORPUS))
    assert old.algebra.mult == new.algebra.mult
    assert frame_data(old.frame) == frame_data(new.frame)
    assert old.aplus.space.basis == new.aplus.space.basis
    assert old.aminus.space.basis == new.aminus.space.basis
    order = tmp_path / "degrees.order.json"
    write_json(order, order_from_degrees(new.frame).to_json())
    alg_name = read_json(path)["algebra"]

    def verify(*argv):
        code = main(["verify", *map(str, argv)])
        return code, capsys.readouterr().out

    old_reports, new_reports = ([verify("reedy", d / path.name), verify("qh", d / alg_name, order)]
                                for d in (indented_corpus, CORPUS))
    assert old_reports == new_reports
    assert all(code in (0, 1) and out for code, out in new_reports)


def _pad_empty_cells(doc, literal):
    """``doc`` with the term [0, literal] in every cell of its table that had none."""
    filled = [row for row in doc["mult"] if row[2]]
    taken = {(i, j) for i, j, _ in filled}
    n = doc["dim"]
    doc["mult"] = filled + [[i, j, [[0, literal]]]
                            for i in range(n) for j in range(n) if (i, j) not in taken]


def test_zero_terms_are_dropped_at_load(tmp_path):
    """A table padded with zero terms, [0, "0"] over Q and [0, "2"] over
    GF(2), loads to the table without them and gives the same reports."""
    corpus = default_corpus_dir()
    for stem, literal in [("tensor49", "0"), ("diamond.gf2", "2")]:
        doc = read_json(corpus / f"{stem}.alg.json")
        _pad_empty_cells(doc, literal)
        write_json(tmp_path / f"{stem}.alg.json", doc)
        (padded, _), (plain, _) = (load_algebra(d / f"{stem}.alg.json") for d in (tmp_path, corpus))
        assert padded.mult == plain.mult, stem
        assert dumps(rl.validate(padded)) == dumps(rl.validate(plain)), stem
    (tmp_path / "tensor49.reedy.json").write_bytes((corpus / "tensor49.reedy.json").read_bytes())
    padded, plain = (load_reedy(d / "tensor49.reedy.json") for d in (tmp_path, corpus))
    for check in (rl.verify_reedy, rl.layer_check, rl.characterization_crosscheck):
        assert dumps(check(padded)) == dumps(check(plain)), check.__name__


def rescaled(structure, scales):
    """The algebra and frame of ``structure`` on the basis scales[i] * b_i."""
    a, f = structure.algebra, structure.algebra.field

    def vec(v):
        return [f.div(x, s) for x, s in zip(v, scales)]

    mult = [
        [tuple((k, f.div(f.mul(f.mul(scales[i], scales[j]), c), scales[k])) for k, c in pairs)
         for j, pairs in enumerate(row)]
        for i, row in enumerate(a.mult)
    ]
    b = rl.Algebra(f, a.labels, mult, vec(a.unit))
    frame = structure.frame
    return b, rl.IdempotentFrame(b, [vec(e) for e in frame.idempotents], frame.labels,
                                 frame.degrees)


def scalar_literals(doc):
    """Every scalar literal of an algebra or reedy document."""
    if "mult" in doc:
        yield from doc["unit"]
        for _, _, pairs in doc["mult"]:
            yield from (c for _, c in pairs)
        for vec in doc.get("idempotents", {}).values():
            yield from vec
    else:
        for key in ("aplus", "aminus"):
            for vec in doc[key]["basis"]:
                yield from vec


def test_repeated_fractional_literals_load_to_the_saved_values(tmp_path, simplex2):
    cycle = [Fraction(1, 2), Fraction(2, 3), 3, Fraction(5, 4)]
    algebra, frame = rescaled(simplex2, [cycle[i % 4] for i in range(simplex2.algebra.dim)])
    assert rl.validate(algebra)["valid"]
    save_algebra(tmp_path / "s.alg.json", algebra, frame)
    literals = list(scalar_literals(read_json(tmp_path / "s.alg.json")))
    fractional = [x for x in literals if "/" in x]
    assert len(set(fractional)) < len(fractional)
    loaded, lframe = load_algebra(tmp_path / "s.alg.json")
    assert loaded.mult == algebra.mult
    assert loaded.unit == algebra.unit
    assert lframe.idempotents == frame.idempotents
    assert lframe.degrees == frame.degrees


def test_loading_parses_each_distinct_literal_once_per_document(tmp_path, simplex3, monkeypatch):
    # a count, unlike a time, repeats exactly: the guard that loads stay cheap
    save_algebra(tmp_path / "s.alg.json", simplex3.algebra, simplex3.frame)
    save_reedy(tmp_path / "s.reedy.json", simplex3, "s.alg.json")
    field_type = type(simplex3.algebra.field)
    parse = field_type.parse
    calls = []

    def counting_parse(self, text):
        calls.append(text)
        return parse(self, text)

    monkeypatch.setattr(field_type, "parse", counting_parse)
    loaded = load_reedy(tmp_path / "s.reedy.json")
    docs = [read_json(tmp_path / name) for name in ("s.alg.json", "s.reedy.json")]
    assert sum(len(list(scalar_literals(doc))) for doc in docs) > 10_000
    assert len(calls) <= sum(len(set(scalar_literals(doc))) for doc in docs)
    assert loaded.algebra.mult == simplex3.algebra.mult


def sheared(a, frame, s, t):
    """The algebra and frame of ``a`` on the basis with b_s replaced by
    b_s + b_t: old coordinates v become v with v_t - v_s at t."""
    f = a.field

    def new(v: dict) -> dict:
        v = dict(v)
        v[t] = f.sub(v.get(t, f.zero), v.get(s, f.zero))
        return {k: x for k, x in v.items() if x}

    def old_basis(i):
        return {i: f.one, t: f.one} if i == s else {i: f.one}

    mult = [
        [tuple(sorted(new(a.mul_sparse(old_basis(i), old_basis(j))).items()))
         for j in range(a.dim)]
        for i in range(a.dim)
    ]
    b = rl.Algebra(f, a.labels, mult, densify(f, new(sparse(f, a.unit)), a.dim))
    idems = [densify(f, new(sparse(f, e)), a.dim) for e in frame.idempotents]
    return b, rl.IdempotentFrame(b, idems, frame.labels, frame.degrees)


def peirce_block(a, frame, i):
    """The (x, y) with e_x b_i e_y = b_i, for a basis vector b_i in one block."""
    f = a.field
    bi = {i: f.one}
    idems = [sparse(f, e) for e in frame.idempotents]
    return next((x, y) for x, ex in enumerate(idems) for y, ey in enumerate(idems)
                if a.mul_sparse(a.mul_sparse(ex, bi), ey) == bi)


@pytest.mark.parametrize("field", [{"kind": "Q"}, {"kind": "GF", "p": 3}])
def test_several_term_rows_load_to_the_built_table(tmp_path, field):
    """simplex1 with one basis vector sheared inside its Peirce block has
    cells of two terms; saved and reloaded, it is the table that was built."""
    doc = read_json(default_corpus_dir() / "simplex1.alg.json")
    doc["field"] = field
    a, frame = algebra_from_json(doc)
    blocks = [peirce_block(a, frame, i) for i in range(a.dim)]
    s, t = next((s, t) for s in range(a.dim) for t in range(a.dim)
                if s != t and blocks[s] == blocks[t])
    b, bframe = sheared(a, frame, s, t)
    assert rl.validate(b)["valid"]
    assert max(len(cell) for row in b.mult for cell in row) >= 2
    save_algebra(tmp_path / "s.alg.json", b, bframe)
    loaded, lframe = load_algebra(tmp_path / "s.alg.json")
    assert loaded.mult == b.mult
    assert loaded.unit == b.unit
    assert lframe.idempotents == bframe.idempotents
    assert lframe.degrees == bframe.degrees


def test_several_term_row_is_sorted_and_stripped_of_zero_terms():
    doc = read_json(default_corpus_dir() / "uppertri.alg.json")
    doc["mult"][0][2] = [[2, "0"], [1, "1"]]
    a, _ = algebra_from_json(doc)
    assert a.mult[0][1] == ((1, 1),)
    doc["mult"][0][2] = [[2, "1"], [1, "1"]]
    a, _ = algebra_from_json(doc)
    assert a.mult[0][1] == ((1, 1), (2, 1))


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
