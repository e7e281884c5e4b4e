"""CLI contract: subcommands, exit codes, deterministic reports."""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from reedylab.cli import main
from reedylab.corpus import default_corpus_dir
from reedylab.serialize import read_json, write_json

CORPUS = default_corpus_dir()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_diamond(tmp_path, capsys):
    out = tmp_path / "d.alg.json"
    code, stdout, _ = run(
        capsys, "build", str(CORPUS / "diamond.quiver.json"), "--field", "Q", "-o", str(out)
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["dim"] == 9 and report["radical_dim"] == 5
    assert out.exists()


def test_build_malformed_relation_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.quiver.json"
    write_json(
        bad,
        {
            "vertices": ["a", "b", "c"],
            "arrows": [["a", "b", "x"], ["a", "c", "y"]],
            "relations": [[{"coeff": "1", "path": ["x"]}, {"coeff": "-1", "path": ["y"]}]],
            "nilpotency_bound": 2,
        },
    )
    code, _, stderr = run(capsys, "build", str(bad))
    assert code == 2
    assert "relation 0" in stderr


def test_construct_simplex(tmp_path, capsys):
    base = tmp_path / "s2"
    code, stdout, _ = run(capsys, "construct", "simplex", "--n", "2", "-o", str(base))
    assert code == 0
    report = json.loads(stdout)
    assert report["dim"] == 31
    assert Path(f"{base}.alg.json").exists() and Path(f"{base}.reedy.json").exists()
    code, stdout, _ = run(capsys, "verify", "reedy", f"{base}.reedy.json")
    assert code == 0


def test_construct_matrix_gf2(tmp_path, capsys):
    base = tmp_path / "m2"
    code, stdout, _ = run(
        capsys, "construct", "matrix", "--n", "2", "--field", "GF:2", "-o", str(base)
    )
    assert code == 0
    assert json.loads(stdout)["dim"] == 4


def test_construct_tensor(tmp_path, capsys):
    code, stdout, _ = run(
        capsys,
        "construct",
        "tensor",
        str(CORPUS / "diamond.deg1234.reedy.json"),
        str(CORPUS / "simplex1.reedy.json"),
        "-o",
        str(tmp_path / "t"),
    )
    assert code == 0
    assert json.loads(stdout)["dim"] == 63


def test_construct_tensor_sibling_discovery(tmp_path, capsys):
    # passing .alg.json files finds the .reedy.json siblings by name
    for stem in ("simplex1",):
        shutil.copy(CORPUS / f"{stem}.alg.json", tmp_path / f"{stem}.alg.json")
        shutil.copy(CORPUS / f"{stem}.reedy.json", tmp_path / f"{stem}.reedy.json")
    code, stdout, _ = run(
        capsys,
        "construct",
        "tensor",
        str(tmp_path / "simplex1.alg.json"),
        str(tmp_path / "simplex1.alg.json"),
        "-o",
        str(tmp_path / "t49"),
    )
    assert code == 0 and json.loads(stdout)["dim"] == 49


def test_corpus_run_is_deterministic(capsys):
    code, stdout, _ = run(capsys, "corpus", "run")
    assert code == 0
    code2, stdout2, _ = run(capsys, "corpus", "run")
    assert code2 == 0 and stdout2 == stdout


NOT_NATURAL = [1.7, True, "x", -1]


def _corrupt(tmp_path, stem, suffix, key, label, value):
    """Copy a corpus file into tmp_path with data[key][label] replaced."""
    data = read_json(CORPUS / f"{stem}{suffix}")
    data[key][label] = value
    write_json(tmp_path / f"{stem}{suffix}", data)


@pytest.mark.parametrize("value", NOT_NATURAL)
def test_non_natural_degree_in_algebra_file_exits_2(tmp_path, capsys, value):
    _corrupt(tmp_path, "simplex1", ".alg.json", "degrees", "e1", value)
    shutil.copy(CORPUS / "simplex1.reedy.json", tmp_path)
    code, _, stderr = run(capsys, "verify", "reedy", str(tmp_path / "simplex1.reedy.json"))
    assert code == 2 and "degree of 'e1'" in stderr


@pytest.mark.parametrize("value", NOT_NATURAL)
def test_non_natural_degree_in_reedy_file_exits_2(tmp_path, capsys, value):
    shutil.copy(CORPUS / "diamond.alg.json", tmp_path)
    _corrupt(tmp_path, "diamond.deg1234", ".reedy.json", "degrees", "a", value)
    code, _, stderr = run(capsys, "verify", "reedy", str(tmp_path / "diamond.deg1234.reedy.json"))
    assert code == 2 and "degree of 'a'" in stderr


@pytest.mark.parametrize("value", NOT_NATURAL)
def test_non_natural_level_in_order_file_exits_2(tmp_path, capsys, value):
    _corrupt(tmp_path, "uppertri.order01", ".order.json", "levels", "v1", value)
    code, _, stderr = run(
        capsys, "verify", "qh", str(CORPUS / "uppertri.alg.json"),
        str(tmp_path / "uppertri.order01.order.json"),
    )
    assert code == 2 and "level of 'v1'" in stderr


NOT_OBJECT = [[1, 2, 3, 4], "1234", 4]


@pytest.mark.parametrize("value", NOT_OBJECT)
def test_non_object_degrees_in_algebra_file_exits_2(tmp_path, capsys, value):
    data = read_json(CORPUS / "simplex1.alg.json")
    data["degrees"] = value
    write_json(tmp_path / "simplex1.alg.json", data)
    shutil.copy(CORPUS / "simplex1.reedy.json", tmp_path)
    code, _, stderr = run(capsys, "verify", "reedy", str(tmp_path / "simplex1.reedy.json"))
    assert code == 2 and "'degrees' must be an object" in stderr


@pytest.mark.parametrize("value", NOT_OBJECT)
def test_non_object_degrees_in_reedy_file_exits_2(tmp_path, capsys, value):
    shutil.copy(CORPUS / "diamond.alg.json", tmp_path)
    data = read_json(CORPUS / "diamond.deg1234.reedy.json")
    data["degrees"] = value
    write_json(tmp_path / "diamond.deg1234.reedy.json", data)
    code, _, stderr = run(capsys, "verify", "reedy", str(tmp_path / "diamond.deg1234.reedy.json"))
    assert code == 2 and "'degrees' must be an object" in stderr


# a label that is not a frame idempotent, beside every label that is
UNKNOWN_LABEL = [
    ("simplex1.alg.json", "degrees", "simplex1.reedy.json",
     "degrees given for unknown idempotent 'zz'"),
    ("diamond.deg1234.reedy.json", "degrees", "diamond.alg.json",
     "degrees given for unknown idempotent 'zz'"),
    ("diamond.order0123.order.json", "levels", "diamond.alg.json",
     "order gives levels for unknown idempotents ['zz']"),
]


@pytest.mark.parametrize("name, key, other, message", UNKNOWN_LABEL)
def test_unknown_label_exits_2(tmp_path, capsys, name, key, other, message):
    edited = _edit_copy(tmp_path, name, _set([key, "zz"], 7))
    shutil.copy(CORPUS / other, tmp_path)
    if key == "levels":
        argv = ["qh", str(tmp_path / other), str(edited)]
    else:
        argv = ["reedy", str(tmp_path / (other if name.endswith(".alg.json") else name))]
    code, _, stderr = run(capsys, "verify", *argv)
    assert code == 2 and message in stderr


def test_reedy_file_with_non_string_algebra_exits_2(tmp_path, capsys):
    reedy = tmp_path / "bad.reedy.json"
    write_json(reedy, {"algebra": 5})
    code, _, stderr = run(capsys, "verify", "reedy", str(reedy))
    assert code == 2 and "'algebra' must be a file path string, got 5" in stderr


def test_non_object_reedy_file_exits_2(tmp_path, capsys):
    reedy = tmp_path / "bad.reedy.json"
    write_json(reedy, ["algebra"])
    code, _, stderr = run(capsys, "verify", "reedy", str(reedy))
    assert code == 2 and 'reedy document must be a JSON object, got ["algebra"]' in stderr


def test_non_object_algebra_file_exits_2(tmp_path, capsys):
    alg = tmp_path / "bad.alg.json"
    write_json(alg, 5)
    code, _, stderr = run(
        capsys, "verify", "qh", str(alg), str(CORPUS / "uppertri.order01.order.json")
    )
    assert code == 2 and "algebra document must be a JSON object, got 5" in stderr


def test_non_object_quiver_file_exits_2(tmp_path, capsys):
    quiver = tmp_path / "bad.quiver.json"
    write_json(quiver, 5)
    code, _, stderr = run(capsys, "build", str(quiver), "-o", str(tmp_path / "out.alg.json"))
    assert code == 2 and "quiver document must be a JSON object, got 5" in stderr


def _edit_copy(tmp_path, name, edit):
    """Copy a corpus file into tmp_path after applying edit(data) to it."""
    data = read_json(CORPUS / name)
    edit(data)
    write_json(tmp_path / name, data)
    return tmp_path / name


def _set(path, value):
    """An edit that replaces data[path[0]][path[1]]... with value."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


# uppertri: labels x, v0, v1; mult row 0 is x * v0 = x, which no frame check reads
MALFORMED_ALGEBRA = [
    (["labels"], 5, "'labels' must be a list of strings"),
    (["mult"], [[0, 0, 5]], "bad mult row [0, 0, 5]"),
    (["mult"], [["0", 0, []]], 'mult row ["0", 0]: index must be an integer in [0, 3)'),
    (["idempotents", "v0"], 5, "idempotent 'v0' must be a list of 3 scalars"),
    (["mult", 0, 2, 0, 1], 0.1, "mult row [0, 1]: scalars must be decimal strings, got 0.1"),
    (["mult", 0, 2, 0, 1], True, "mult row [0, 1]: scalars must be decimal strings, got true"),
    (["mult", 0, 2, 0, 1], "1/0", "mult row [0, 1]: '1/0' is not a scalar of Q"),
    (["mult", 1], [0, 1, []], "mult row [0, 1]: [i, j] appears more than once"),
    (["mult", 0, 2], [[0, "1"], [0, "1"]], "mult row [0, 1]: k = 0 appears more than once"),
    # zero terms are dropped at load, but only after the duplicate check
    (["mult", 0, 2], [[2, "0"], [2, "1"]], "mult row [0, 1]: k = 2 appears more than once"),
    # a cell stays () after a row with no terms, so a repeat is not seen in the table
    (["mult"], [[0, 2, []], [0, 2, [[0, "1"]]]], "mult row [0, 2]: [i, j] appears more than once"),
    (["mult", 0, 2, 0], 5, "mult row [0, 1]: entry 5 is not a [k, c] pair"),
    (["mult", 0], [True, 0, []],
     "mult row [true, 0]: index must be an integer in [0, 3), got true"),
    (["mult", 0, 2, 0, 0], 3, "mult row [0, 1]: index must be an integer in [0, 3), got 3"),
    # the frame check: x + v0 is idempotent, and v1 (x + v0) = x
    (["idempotents", "v0"], ["0", "2", "0"],
     "invalid idempotent frame: element v0 is not idempotent"),
    (["idempotents", "v0"], ["1", "1", "0"],
     "invalid idempotent frame: idempotents v1, v0 not orthogonal"),
    (["idempotents"], {"v0": ["0", "1", "0"]},
     "invalid idempotent frame: idempotents do not sum to the unit"),
]


@pytest.mark.parametrize("path, value, message", MALFORMED_ALGEBRA)
def test_malformed_algebra_file_exits_2(tmp_path, capsys, path, value, message):
    alg = _edit_copy(tmp_path, "uppertri.alg.json", _set(path, value))
    code, _, stderr = run(
        capsys, "verify", "qh", str(alg), str(CORPUS / "uppertri.order01.order.json")
    )
    assert code == 2 and message in stderr


# simplex2 has 393 mult rows of one "1" each, so a bad literal placed late
# follows hundreds of good ones that a parse memo could wrongly answer for
@pytest.mark.parametrize("rows", [[-1], [200, -1]])
def test_bad_literal_after_good_ones_names_its_first_row(tmp_path, capsys, rows):
    def edit(data):
        for r in rows:
            data["mult"][r][2][0][1] = "1/0"

    alg = _edit_copy(tmp_path, "simplex2.alg.json", edit)
    shutil.copy(CORPUS / "simplex2.reedy.json", tmp_path)
    code, _, stderr = run(capsys, "verify", "reedy", str(tmp_path / "simplex2.reedy.json"))
    first = json.dumps(read_json(alg)["mult"][rows[0]][:2])
    assert code == 2 and f"mult row {first}: '1/0' is not a scalar of Q" in stderr


def test_bad_literal_in_a_late_basis_vector_names_it(tmp_path, capsys):
    shutil.copy(CORPUS / "simplex2.alg.json", tmp_path)
    reedy = _edit_copy(tmp_path, "simplex2.reedy.json", _set(["aminus", "basis", -1, -1], "1/0"))
    code, _, stderr = run(capsys, "verify", "reedy", str(reedy))
    last = len(read_json(reedy)["aminus"]["basis"]) - 1
    assert code == 2 and f"aminus.basis[{last}]: '1/0' is not a scalar of Q" in stderr


def test_integer_scalar_in_prime_field_file_exits_2(tmp_path, capsys):
    alg = _edit_copy(tmp_path, "diamond.gf2.alg.json", _set(["mult", 0, 2, 0, 1], 1))
    code, _, stderr = run(capsys, "search", str(alg))
    assert code == 2 and "mult row [0, 5]: scalars must be decimal strings, got 1" in stderr


MALFORMED_QUIVER = [
    (["vertices"], 5, "'vertices' must be a list of strings, got 5"),
    (["arrows"], 5, "'arrows' must be a list of arrows, got 5"),
    (["relations"], 5, "'relations' must be a list of relations, got 5"),
    (["relations", 0, 0, "coeff"], 0.5, "relation 0: scalars must be decimal strings, got 0.5"),
    (["nilpotency_bound"], "2", "'nilpotency_bound' must be a natural number, got \"2\""),
    (["nilpotency_bound"], 1.5, "'nilpotency_bound' must be a natural number, got 1.5"),
    (["arrows", 0], ["a", "b"], 'arrow ["a", "b"] is not [source, target, label] strings'),
]


@pytest.mark.parametrize("path, value, message", MALFORMED_QUIVER)
def test_malformed_quiver_file_exits_2(tmp_path, capsys, path, value, message):
    quiver = _edit_copy(tmp_path, "diamond.quiver.json", _set(path, value))
    code, _, stderr = run(capsys, "build", str(quiver), "-o", str(tmp_path / "out.alg.json"))
    assert code == 2 and message in stderr


@pytest.mark.parametrize("coeff", ["1/2", "0.5"])
def test_coefficient_outside_the_field_exits_2(tmp_path, capsys, coeff):
    quiver = _edit_copy(tmp_path, "diamond.quiver.json", _set(["relations", 0, 0, "coeff"], coeff))
    code, _, stderr = run(
        capsys, "build", str(quiver), "--field", "GF:2", "-o", str(tmp_path / "out.alg.json")
    )
    assert code == 2
    assert f"relation 0: coefficient {coeff!r} is not a scalar of GF(2)" in stderr


@pytest.mark.parametrize("p", [7.9, "2", [2]])
def test_non_natural_field_characteristic_exits_2(tmp_path, capsys, p):
    alg = _edit_copy(tmp_path, "diamond.gf2.alg.json", _set(["field", "p"], p))
    code, _, stderr = run(capsys, "search", str(alg))
    assert code == 2 and "field 'p' must be a natural number" in stderr


@pytest.mark.parametrize("flag", ["GF:x", "GF:2.5", "GF:"])
def test_malformed_field_flag_exits_2(tmp_path, capsys, flag):
    code, _, stderr = run(
        capsys, "construct", "matrix", "--n", "2", "--field", flag, "-o", str(tmp_path / "m")
    )
    assert code == 2 and f"bad --field value {flag!r}" in stderr


@pytest.mark.parametrize("flag, cause", [
    ("GF:4", "characteristic must be prime, got 4"),
    ("GF:1", "characteristic must be prime, got 1"),
    ("GF:0", "characteristic must be prime, got 0"),
    ("GF:2147483659", "prime fields limited to p < 2^31"),
])
def test_unsupported_field_flag_names_the_flag(tmp_path, capsys, flag, cause):
    code, _, stderr = run(
        capsys, "construct", "matrix", "--n", "2", "--field", flag, "-o", str(tmp_path / "m")
    )
    assert code == 2 and f"bad --field value {flag!r}: {cause}" in stderr


def test_unsupported_field_characteristic_names_the_key(tmp_path, capsys):
    alg = _edit_copy(tmp_path, "diamond.gf2.alg.json", _set(["field", "p"], 4))
    code, _, stderr = run(capsys, "search", str(alg))
    assert code == 2 and "field 'p': characteristic must be prime, got 4" in stderr


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_nonpositive_max_levels_exits_2(capsys, bound):
    code, stdout, stderr = run(
        capsys, "search", str(CORPUS / "diamond.alg.json"), "--max-levels", bound
    )
    assert code == 2 and stdout == ""
    assert f"--max-levels must be at least 1, got {bound}" in stderr


MALFORMED_SUBSPACE = [
    (5, "'aplus' must be an object"),
    ({"basis": 5}, "aplus.basis must be a list of vectors"),
    ({"basis": [["1", "0"]]}, "aplus.basis[0] must be a list of 3 scalars, got 2 entries"),
    ({"basis": [["0", "1", "1"]]}, "aplus does not contain idempotent v0"),  # only the unit
]


@pytest.mark.parametrize("value, message", MALFORMED_SUBSPACE)
def test_malformed_subspace_in_reedy_file_exits_2(tmp_path, capsys, value, message):
    shutil.copy(CORPUS / "uppertri.alg.json", tmp_path)
    reedy = _edit_copy(tmp_path, "uppertri.as.reedy.json", _set(["aplus"], value))
    code, _, stderr = run(capsys, "verify", "reedy", str(reedy))
    assert code == 2 and message in stderr


def test_construct_dualext(tmp_path, capsys):
    up = tmp_path / "up.alg.json"
    down = tmp_path / "down.alg.json"
    import reedylab as rl
    from reedylab.serialize import save_algebra

    Q = rl.rationals()
    ap, apf = rl.build_quiver_algebra(
        rl.QuiverPresentation(["a", "b"], [["a", "b", "u"]], [], 1), Q
    )
    am, amf = rl.build_quiver_algebra(
        rl.QuiverPresentation(["a", "b"], [["b", "a", "v"]], [], 1), Q
    )
    save_algebra(up, ap, apf.with_degrees([0, 1]))
    save_algebra(down, am, amf.with_degrees([0, 1]))
    code, stdout, _ = run(
        capsys, "construct", "dualext", str(up), str(down), "-o", str(tmp_path / "de")
    )
    assert code == 0
    assert json.loads(stdout)["dim"] == 5


def test_verify_reedy_exit_codes(capsys):
    code, stdout, _ = run(
        capsys, "verify", "reedy",
        str(CORPUS / "diamond.alg.json"), str(CORPUS / "diamond.deg1234.reedy.json"),
    )
    assert code == 0 and json.loads(stdout)["overall"] is True
    code, stdout, _ = run(capsys, "verify", "reedy", str(CORPUS / "uppertri.ss.reedy.json"))
    assert code == 1
    report = json.loads(stdout)
    total_domain = sum(p["domain_dim"] for p in report["cond_decomp"]["pairs"])
    total_block = sum(p["block_dim"] for p in report["cond_decomp"]["pairs"])
    assert (total_domain, total_block) == (2, 3)


def test_verify_rejects_an_algebra_the_reedy_file_does_not_reference(capsys):
    reedy = str(CORPUS / "diamond.deg1234.reedy.json")
    for algebra in (CORPUS / "k.alg.json", CORPUS / "missing.alg.json"):
        code, stdout, stderr = run(capsys, "verify", "reedy", str(algebra), reedy)
        assert code == 2 and stdout == ""
        assert str(algebra) in stderr and reedy in stderr


def test_verify_accepts_the_referenced_algebra_by_another_path(capsys, monkeypatch):
    monkeypatch.chdir(CORPUS)
    other = os.path.join("..", CORPUS.name, "diamond.alg.json")
    code, stdout, _ = run(capsys, "verify", "reedy", other, "diamond.deg1234.reedy.json")
    assert code == 0 and json.loads(stdout)["overall"] is True


def test_make_corpus_regenerates_the_bundled_corpus(tmp_path):
    """The corpus script, run into an empty directory, writes every bundled
    fixture byte for byte: its recomputed verdicts and serializations match."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_corpus.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bundled = sorted(p.name for p in CORPUS.iterdir() if p.is_file())
    assert sorted(p.name for p in tmp_path.iterdir()) == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (CORPUS / name).read_bytes(), name


def test_verify_qh(capsys):
    code, stdout, _ = run(
        capsys, "verify", "qh",
        str(CORPUS / "diamond.alg.json"), str(CORPUS / "diamond.order3201.order.json"),
    )
    assert code == 0 and json.loads(stdout)["overall"] is True


def test_verify_borel_delta(capsys):
    code, _, _ = run(capsys, "verify", "borel", str(CORPUS / "simplex1.reedy.json"))
    assert code == 0
    code, _, _ = run(capsys, "verify", "delta", str(CORPUS / "simplex1.reedy.json"))
    assert code == 0
    code, _, _ = run(capsys, "verify", "borel", str(CORPUS / "uppertri.ss.reedy.json"))
    assert code == 1


def test_verify_theorem41(capsys):
    code, stdout, _ = run(capsys, "verify", "theorem41", str(CORPUS / "tensor49.reedy.json"))
    assert code == 0
    report = json.loads(stdout)
    assert report["agree"] and report["route_reedy"]


def test_verify_theorem53_counterexample(capsys):
    code, stdout, _ = run(
        capsys, "verify", "theorem53", str(CORPUS / "uppertri.ss.reedy.json"), "--cut", "0"
    )
    assert code == 1
    report = json.loads(stdout)
    assert report["triple"] == [True, True, True]
    assert report["hypothesis_product_spans"] is False
    assert report["overall"] is False


def test_verify_missing_cut_is_usage_error(capsys):
    code, _, stderr = run(capsys, "verify", "theorem53", str(CORPUS / "uppertri.ss.reedy.json"))
    assert code == 2 and "cut" in stderr


@pytest.mark.parametrize("what, files", [
    *((what, ["uppertri.ss.reedy.json"]) for what in ("reedy", "borel", "delta", "theorem41")),
    ("qh", ["uppertri.alg.json", "uppertri.order01.order.json"]),
])
def test_verify_cut_on_another_check_is_usage_error(capsys, what, files):
    """Only theorem53 reads --cut; any other check refuses it rather than
    ignoring it, before reading its files."""
    code, stdout, stderr = run(capsys, "verify", what, *(str(CORPUS / f) for f in files), "--cut", "3")
    assert (code, stdout) == (2, "")
    assert stderr == "error: --cut applies only to verify theorem53\n"


def test_search_exit_codes(capsys):
    code, stdout, _ = run(
        capsys, "search", str(CORPUS / "m2.gf2.alg.json"), "--mode", "exhaustive"
    )
    assert code == 1 and json.loads(stdout)["count"] == 0
    code, stdout, _ = run(
        capsys, "search", str(CORPUS / "simplex1.alg.json"), "--mode", "heuristic"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["count"] == 1
    assert report["found"][0]["aplus_dim"] == 4


def test_exhaustive_search_over_a_large_field_exits_2_at_once(tmp_path, capsys):
    base = tmp_path / "s1p"
    code, _, _ = run(capsys, "construct", "simplex", "--n", "1", "--field", "GF:2147483629",
                     "-o", str(base))
    assert code == 0
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "search", f"{base}.alg.json", "--mode", "exhaustive")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and stdout == ""
    assert "2147483629^5 exceeds exhaustive bound 2^8" in stderr


def test_search_diamond_gf2(capsys):
    code, stdout, _ = run(
        capsys, "search", str(CORPUS / "diamond.gf2.alg.json"), "--mode", "exhaustive"
    )
    assert code == 0
    report = json.loads(stdout)
    degs = [tuple(e["degrees"][v] for v in ("a", "b", "c", "d")) for e in report["found"]]
    assert (0, 1, 2, 3) in degs
    assert (3, 2, 0, 1) not in degs


def test_search_reports_are_byte_identical(capsys):
    _, first, _ = run(capsys, "search", str(CORPUS / "diamond.gf2.alg.json"), "--mode", "exhaustive")
    _, second, _ = run(capsys, "search", str(CORPUS / "diamond.gf2.alg.json"), "--mode", "exhaustive")
    assert first == second


def test_verify_reports_are_byte_identical(capsys):
    _, first, _ = run(capsys, "verify", "theorem41", str(CORPUS / "simplex1.reedy.json"))
    _, second, _ = run(capsys, "verify", "theorem41", str(CORPUS / "simplex1.reedy.json"))
    assert first == second


def test_corpus_run_passes(capsys):
    code, stdout, _ = run(capsys, "corpus", "run")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].endswith("corpus entries match")


def test_corpus_corrupted_fixture_names_entry(tmp_path, capsys):
    import shutil

    shutil.copytree(CORPUS, tmp_path / "corpus")
    index = tmp_path / "corpus" / "entries.json"
    data = json.loads(index.read_text())
    data["entries"][0]["expected"]["overall"] = not data["entries"][0]["expected"]["overall"]
    name = data["entries"][0]["name"]
    index.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "corpus", "run", "--dir", str(tmp_path / "corpus"))
    assert code == 1
    assert any(l.startswith("FAIL") and name in l for l in stdout.splitlines())


def test_corpus_empty_dir_exits_2(tmp_path, capsys):
    """A directory without entries.json, an unreadable index and an empty
    one: the error goes to stderr, like every other command's, and stdout
    stays empty."""
    code, stdout, stderr = run(capsys, "corpus", "run", "--dir", str(tmp_path))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error:") and "entries.json" in stderr
    for text in ("{not json", json.dumps({"entries": []})):
        (tmp_path / "entries.json").write_text(text)
        code, stdout, stderr = run(capsys, "corpus", "run", "--dir", str(tmp_path))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:")


def _one_entry(bundled, /, **fields):
    """An index holding the bundled entry named ``bundled`` with ``fields`` replaced."""
    entry = next(e for e in read_json(CORPUS / "entries.json")["entries"] if e["name"] == bundled)
    return {"entries": [{**entry, **fields}]}


# index -> exit code and the cause on stderr (exit 2) or on the one FAIL line (exit 1)
MALFORMED_CORPUS = [
    ([1, 2], 2, "corpus index document must be a JSON object, got [1, 2]"),
    ({"entries": 5}, 2, "'entries' must be a list of entry objects, got 5"),
    ({"entries": ["x"]}, 2, 'corpus entry 0 document must be a JSON object, got "x"'),
    (_one_entry("uppertri-ss-theorem53-cut0", cut=[1]), 1, "'cut' must be an integer, got [1]"),
    (_one_entry("uppertri-ss-theorem53-cut0", cut=True), 1, "'cut' must be an integer, got true"),
    (_one_entry("k-trivial", reedy=5), 1, "'reedy' must be a file name, got 5"),
    (_one_entry("simplex1-search-heuristic", excludes_degrees=5), 1,
     "'excludes_degrees' must be a list, got 5"),
    (_one_entry("simplex1-search-heuristic", max_levels="2"), 1,
     "'max_levels' must be an integer or null, got \"2\""),
    (_one_entry("k-trivial", name=[1]), 1, "'name' must be a string, got [1]"),
    # no degree function has fewer than 1 level: such a search used to pass with count 0
    (_one_entry("diamond-gf2-search", max_levels=0, expected={"count": 0}), 1,
     "error: entry field 'max_levels' must be at least 1, got 0"),
    (_one_entry("diamond-gf2-search", max_levels=-2, expected={"count": 0}), 1,
     "error: entry field 'max_levels' must be at least 1, got -2"),
    # only theorem53 reads a cut; any other check refuses one
    *((_one_entry(bundled, cut=0), 1, "error: entry field 'cut' applies only to check theorem53")
      for bundled in ("k-trivial", "k-trivial-t41", "uppertri-qh-01", "simplex1-search-heuristic")),
]


@pytest.mark.parametrize("index, code, cause", MALFORMED_CORPUS)
def test_malformed_corpus_names_the_cause(tmp_path, capsys, index, code, cause):
    """A fault in the index exits 2 with stdout empty; a fault in one entry
    is a FAIL line that names the field.  Neither is a traceback."""
    shutil.copytree(CORPUS, tmp_path / "corpus")
    (tmp_path / "corpus" / "entries.json").write_text(json.dumps(index))
    got, stdout, stderr = run(capsys, "corpus", "run", "--dir", str(tmp_path / "corpus"))
    assert got == code
    if code == 2:
        assert stdout == "" and stderr == f"error: {cause}\n"
    else:
        assert stdout.splitlines()[0].startswith("FAIL") and cause in stdout.splitlines()[0]


# file name -> the command that reads it; json.loads fails with RecursionError
# on deep nesting, which must exit 2 like any other unreadable file
DEEPLY_NESTED = [
    ("bad.reedy.json", lambda d: ["verify", "reedy", str(d / "bad.reedy.json")]),
    ("bad.alg.json", lambda d: ["verify", "qh", str(d / "bad.alg.json"),
                                str(CORPUS / "uppertri.order01.order.json")]),
    ("entries.json", lambda d: ["corpus", "run", "--dir", str(d)]),
]


@pytest.mark.parametrize("name, argv", DEEPLY_NESTED, ids=[row[0] for row in DEEPLY_NESTED])
def test_deeply_nested_json_exits_2(tmp_path, capsys, name, argv):
    (tmp_path / name).write_text("[" * 100_000)
    code, stdout, stderr = run(capsys, *argv(tmp_path))
    assert code == 2 and stdout == ""
    assert stderr == f"error: {tmp_path / name}: JSON nested too deeply to read\n"


@pytest.mark.parametrize("check", ["borel", "delta"])
def test_corpus_entries_take_every_verify_check(tmp_path, capsys, check):
    shutil.copytree(CORPUS, tmp_path / "corpus")
    index = _one_entry("simplex1", check=check, name=f"simplex1-{check}")
    (tmp_path / "corpus" / "entries.json").write_text(json.dumps(index))
    code, stdout, _ = run(capsys, "corpus", "run", "--dir", str(tmp_path / "corpus"))
    assert code == 0 and stdout.startswith(f"PASS  simplex1-{check} ")


def test_missing_file_exits_2(capsys):
    code, _, stderr = run(capsys, "verify", "reedy", "/nonexistent/x.reedy.json")
    assert code == 2


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "reedylab", "corpus", "run"],
        capture_output=True, text=True, env=_src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1].endswith("corpus entries match")


@pytest.fixture
def parser_builds(monkeypatch):
    """The top-level reedylab parsers constructed while the test runs."""
    builds = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "reedylab":
            builds.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return builds


def test_main_builds_its_parser_at_most_once(tmp_path, capsys, parser_builds):
    diamond = str(CORPUS / "diamond.deg1234.reedy.json")
    calls = [
        (0, ["verify", "reedy", diamond]),
        (0, ["build", str(CORPUS / "diamond.quiver.json"), "-o", str(tmp_path / "d.alg.json")]),
        (0, ["construct", "matrix", "--n", "2", "-o", str(tmp_path / "m2")]),
        (0, ["search", str(CORPUS / "simplex1.alg.json")]),
        (2, ["verify", "reedy", "--cut", "3", diamond]),
    ]
    for expected, argv in calls:
        assert run(capsys, *argv)[0] == expected, argv
    assert len(parser_builds) <= 1


def test_a_usage_error_leaves_the_next_call_unchanged(capsys, parser_builds):
    argv = ["verify", "reedy", str(CORPUS / "diamond.deg1234.reedy.json")]
    before = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: reedylab verify ")
    assert run(capsys, *argv) == before
    assert before[0] == 0
    assert len(parser_builds) <= 1


def test_one_call_per_process_writes_the_in_process_bytes(capsys):
    """A shell run is one call in a fresh process; its report equals the one
    a call makes after earlier calls in the same process."""
    simplex1 = str(CORPUS / "simplex1.reedy.json")
    for argv in (["verify", "borel", simplex1], ["verify", "reedy", simplex1],
                 ["search", str(CORPUS / "simplex1.alg.json")]):
        run(capsys, *argv)
    code, stdout, _ = run(capsys, "verify", "theorem41", simplex1)
    proc = subprocess.run(
        [sys.executable, "-m", "reedylab", "verify", "theorem41", simplex1],
        capture_output=True, text=True, env=_src_env(), timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (code, stdout), proc.stderr
    assert code == 0


def test_verifies_without_numpy_and_sympy():
    """The package has no runtime dependencies: with numpy and sympy made
    unimportable it still imports and verifies Theorem 4.1 on simplex1."""
    script = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['sympy'] = None\n"
        "from reedylab.cli import main\n"
        f"raise SystemExit(main(['verify', 'theorem41', {str(CORPUS / 'simplex1.reedy.json')!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_src_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["agree"] is True
