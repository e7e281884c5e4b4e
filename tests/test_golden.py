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
  quiver algebras (``DUAL_EXTENSIONS``).

Dimension 40 keeps the suite fast: it leaves out the tensor examples.

A refactor must leave every file unchanged.  Regenerate the files only for
an intended report change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from reedylab import (AlgebraError, QuiverPresentation, a2_presentation, build_dual_extension,
                      build_quiver_algebra, build_simplex_algebra, diamond_presentation,
                      prime_field, rationals, serialize)
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
    return out


def test_golden_reports_are_byte_identical():
    reports = golden_reports()
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(reports)
    changed = [name for name, text in reports.items()
               if (GOLDEN / name).read_text(encoding="utf-8") != text]
    assert not changed, f"reports differ from tests/golden/: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for name, text in golden_reports().items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
