"""Golden reports: the canonical report text of the bundled examples, byte for byte.

``tests/golden/`` holds the ``serialize.dumps`` text of

- the report of every corpus entry, through the check table that
  ``reedylab verify`` and ``corpus run`` share (the CLI ``search`` output
  for search entries), plus a heuristic search on every bundled algebra
  with a frame below dimension 40;
- the CLI ``search`` output in both modes for diamond, simplex1 and
  uppertri over GF(3), built by the constructors (``GF3_SEARCHES``);
- ``layer_check``, ``reedy_heredity_bottom``, ``recursive_check`` at every
  cut and ``characterization_crosscheck`` for every bundled Reedy file (the
  last two only below dimension 40);
- the full ``exact_borel_check`` and ``delta_subalgebra_check`` reports for
  every bundled Reedy file below dimension 40, with A+ and A- as given
  (Borel on A-, Delta on A+) and swapped;
- the algebra and Reedy files of ``build_dual_extension`` on three pairs of
  quiver algebras (``DUAL_EXTENSIONS``);
- ``recursive_check`` on the smallest structure whose multiplication map
  Ae (x)_eAe eA -> AeA fails while the corner and the quotient are Reedy
  (``two_cycle_structure``);
- the stdout of ``reedylab verify borel``, ``delta`` and ``theorem41`` on
  each diamond Reedy file read next to a corrupted diamond table
  (``corrupted_diamond_table``), whose exit codes are pinned in
  ``CORRUPTED_DIAMOND_EXITS``: a fast path must not hide a bad table.

Dimension 40 keeps the suite fast: it leaves out the tensor examples.

A refactor must leave every file unchanged.  Regenerate the files only for
an intended report change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

from reedylab import (AlgebraError, QuiverPresentation, ReedyStructure, a2_presentation,
                      build_dual_extension, build_quiver_algebra, build_simplex_algebra,
                      diamond_presentation, prime_field, rationals, serialize, subalgebra_closure)
from reedylab.cli import main
from reedylab.corpus import default_corpus_dir, entry_report
from reedylab.qh import delta_subalgebra_check, exact_borel_check
from reedylab.reedy import (
    characterization_crosscheck,
    layer_check,
    recursive_check,
    reedy_heredity_bottom,
)

CORPUS = default_corpus_dir()
GOLDEN = Path(__file__).resolve().parent / "golden"
SMALL_DIM = 40

# stem -> (algebra, frame) over GF(3), saved to a temporary file and searched in both modes
GF3_SEARCHES = {
    "diamond.gf3": lambda f: build_quiver_algebra(diamond_presentation(), f),
    "simplex1.gf3": lambda f: (lambda r: (r.algebra, r.frame))(build_simplex_algebra(1, f)),
    "uppertri.gf3": lambda f: build_quiver_algebra(a2_presentation(), f),
}


def _opposite(pres: QuiverPresentation) -> QuiverPresentation:
    """The mirrored quiver: every arrow and every relation path reversed."""
    return QuiverPresentation(
        pres.vertices,
        [(tgt, src, label) for src, tgt, label in pres.arrows],
        [[(coeff, path[::-1]) for coeff, path in rel] for rel in pres.relations],
        pres.nilpotency_bound,
    )


A3_ARROWS = [["v0", "v1", "x"], ["v1", "v2", "y"]]

# stem -> (field, raising presentation, lowering presentation, degrees), glued by
# build_dual_extension
DUAL_EXTENSIONS = {
    "diamond.q": (rationals(), diamond_presentation(), _opposite(diamond_presentation()),
                  [0, 1, 1, 2]),
    "a3.gf3": (prime_field(3),
               QuiverPresentation(["v0", "v1", "v2"], A3_ARROWS, [[("1", ("x", "y"))]], 1),
               _opposite(QuiverPresentation(["v0", "v1", "v2"], A3_ARROWS, [], 2)),
               [0, 1, 2]),
    "parallel.gf2": (prime_field(2),
                     QuiverPresentation(["a", "b"], [["a", "b", "u1"], ["a", "b", "u2"]], [], 1),
                     QuiverPresentation(["a", "b"], [["b", "a", "d"]], [], 1), [0, 1]),
}


def two_cycle_structure():
    """The quiver 1 <-> 2 with arrows x: 1 -> 2 and y: 2 -> 1, xy = yx = 0,
    over GF(2), degrees (0, 1), A+ generated by x and A- by y.  At cut 0
    the corner k e1 and the quotient k e2 are Reedy, but Ae1 (x)_k e1A has
    dimension 4 and Ae1A only 3 (e1, x, y), so A is not Reedy."""
    pres = QuiverPresentation(["1", "2"], [["1", "2", "x"], ["2", "1", "y"]],
                              [[("1", ("x", "y"))], [("1", ("y", "x"))]], 2)
    algebra, frame = build_quiver_algebra(pres, prime_field(2))

    def closure(arrow):
        return subalgebra_closure(algebra, [*frame.idempotents,
                                            algebra.basis_vector(algebra.labels.index(arrow))])
    return ReedyStructure(algebra, frame.with_degrees([0, 1]), closure("x"), closure("y"))


# diamond Reedy file -> exit codes of verify borel, delta and theorem41 on the corrupted table
CORRUPTED_DIAMOND_EXITS = {
    "diamond.deg1223": {"borel": 0, "delta": 1, "theorem41": 1},
    "diamond.deg1234": {"borel": 0, "delta": 1, "theorem41": 1},
    "diamond.deg4231": {"borel": 1, "delta": 0, "theorem41": 1},
    "diamond.deg4312": {"borel": 1, "delta": 1, "theorem41": 0},
}


def corrupted_diamond_table() -> dict:
    """diamond.alg.json with d*bd = bd + cd, which breaks the unit law at bd
    and associativity at (d, bd, *)."""
    data = serialize.read_json(CORPUS / "diamond.alg.json")
    d, bd, cd = (data["labels"].index(x) for x in ("d", "bd", "cd"))
    data["mult"] = [row for row in data["mult"] if row[:2] != [d, bd]]
    data["mult"].append([d, bd, [[bd, "1"], [cd, "1"]]])
    return data


def corrupted_diamond_runs() -> dict:
    """(stem, check) -> (exit code, stdout) of ``reedylab verify CHECK`` on a
    copy of each diamond Reedy file next to the corrupted table."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        serialize.write_json(Path(tmp) / "diamond.alg.json", corrupted_diamond_table())
        for stem, exits in CORRUPTED_DIAMOND_EXITS.items():
            shutil.copy(CORPUS / f"{stem}.reedy.json", tmp)
            for check in exits:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(["verify", check, str(Path(tmp) / f"{stem}.reedy.json")])
                out[(stem, check)] = (code, buf.getvalue())
    return out


def _dual_extension_report(field, up, down, degrees) -> str:
    (_, apf), (_, amf) = (build_quiver_algebra(pres, field) for pres in (up, down))
    algebra, structure = build_dual_extension(apf.with_degrees(degrees), amf.with_degrees(degrees))
    return serialize.dumps({
        "algebra": serialize.algebra_to_json(algebra, structure.frame),
        "reedy": serialize.reedy_to_json(structure, "algebra"),
    })


def _search(algebra, mode: str, max_levels=None, base: Path = CORPUS) -> str:
    argv = ["search", str(base / algebra), "--mode", mode]
    if max_levels is not None:
        argv += ["--max-levels", str(max_levels)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


def _or_error(fn, *args):
    try:
        return fn(*args)
    except AlgebraError as exc:
        return {"error": str(exc)}


def _entry_report(entry: dict) -> str:
    if entry["check"] == "search":
        return _search(entry["algebra"], entry.get("mode", "heuristic"), entry.get("max_levels"))
    return serialize.dumps(entry_report(entry, CORPUS))


def _structure_report(path: Path) -> str:
    r = serialize.load_reedy(path)
    report = {
        "layer_check": _or_error(layer_check, r),
        "heredity_bottom": _or_error(reedy_heredity_bottom, r),
    }
    if r.algebra.dim < SMALL_DIM:
        cuts = r.frame.normalized().levels()
        report["recursive_check"] = [_or_error(recursive_check, r, cut) for cut in cuts]
        report["theorem41"] = _or_error(characterization_crosscheck, r)
    return serialize.dumps(report)


def _borel_delta_report(r) -> str:
    frame = r.frame.normalized()
    report = {}
    for name, borel, delta in (("given", r.aminus, r.aplus), ("swapped", r.aplus, r.aminus)):
        report[name] = {
            "exact_borel": _or_error(exact_borel_check, frame, borel),
            "delta_subalgebra": _or_error(delta_subalgebra_check, frame, delta),
        }
    return serialize.dumps(report)


def golden_reports() -> dict[str, str]:
    """File name under tests/golden/ -> canonical report text."""
    out = {}
    for entry in serialize.read_json(CORPUS / "entries.json")["entries"]:
        out[f"corpus.{entry['name']}.json"] = _entry_report(entry)
    for path in sorted(CORPUS.glob("*.alg.json")):
        data = serialize.read_json(path)
        if "idempotents" in data and data["dim"] < SMALL_DIM:
            out[f"search.{path.name[:-len('.alg.json')]}.json"] = _search(path.name, "heuristic")
    with tempfile.TemporaryDirectory() as tmp:
        for stem, build in GF3_SEARCHES.items():
            serialize.save_algebra(Path(tmp) / f"{stem}.alg.json", *build(prime_field(3)))
            for mode in ("heuristic", "exhaustive"):
                out[f"search.{stem}.{mode}.json"] = _search(f"{stem}.alg.json", mode, base=Path(tmp))
    for path in sorted(CORPUS.glob("*.reedy.json")):
        stem = path.name[:-len('.reedy.json')]
        out[f"structure.{stem}.json"] = _structure_report(path)
        r = serialize.load_reedy(path)
        if r.algebra.dim < SMALL_DIM:
            out[f"borel_delta.{stem}.json"] = _borel_delta_report(r)
    for stem, args in DUAL_EXTENSIONS.items():
        out[f"dualext.{stem}.json"] = _dual_extension_report(*args)
    out["theorem53.two-cycle.gf2.json"] = serialize.dumps(recursive_check(two_cycle_structure(), 0))
    for (stem, check), (_, stdout) in corrupted_diamond_runs().items():
        out[f"corrupted.{stem}.{check}.json"] = stdout
    return out


def test_golden_reports_are_byte_identical():
    reports = golden_reports()
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(reports)
    changed = [name for name, text in reports.items()
               if (GOLDEN / name).read_text(encoding="utf-8") != text]
    assert not changed, f"reports differ from tests/golden/: {changed}"


def test_corrupted_diamond_exit_codes():
    codes = {key: code for key, (code, _) in corrupted_diamond_runs().items()}
    assert codes == {(stem, check): code for stem, exits in CORRUPTED_DIAMOND_EXITS.items()
                     for check, code in exits.items()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for name, text in golden_reports().items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
