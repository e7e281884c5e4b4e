"""CLI contract: subcommands, exit codes, deterministic reports."""

import json
import os
import shutil
import subprocess
import sys
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
]


@pytest.mark.parametrize("path, value, message", MALFORMED_ALGEBRA)
def test_malformed_algebra_file_exits_2(tmp_path, capsys, path, value, message):
    alg = _edit_copy(tmp_path, "uppertri.alg.json", _set(path, value))
    code, _, stderr = run(
        capsys, "verify", "qh", str(alg), str(CORPUS / "uppertri.order01.order.json")
    )
    assert code == 2 and message in stderr


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
    code, stdout, _ = run(capsys, "corpus", "run", "--dir", str(tmp_path))
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, _, stderr = run(capsys, "verify", "reedy", "/nonexistent/x.reedy.json")
    assert code == 2


def test_verifies_without_numpy_and_sympy():
    """The package has no runtime dependencies: with numpy and sympy made
    unimportable it still imports and verifies Theorem 4.1 on simplex1."""
    script = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['sympy'] = None\n"
        "from reedylab.cli import main\n"
        f"raise SystemExit(main(['verify', 'theorem41', {str(CORPUS / 'simplex1.reedy.json')!r}]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["agree"] is True
