"""The named checks, and the bundled example corpus that pins their verdicts.

``REEDY_CHECKS``, ``run_qh`` and ``run_search`` decide how each check loads
its files and which function runs it; ``reedylab verify``, ``reedylab
search`` and ``corpus run`` all go through them.  Each corpus entry names
a check (a ``verify`` target or ``search``), its input files (relative to
the corpus directory) and the expected report values, tagged with the
provenance of the expectation (PAPER, TRIVIAL or DERIVED).
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import AlgebraError
from .qh import delta_subalgebra_check, exact_borel_check, heredity_chain_verify
from .reedy import characterization_crosscheck, recursive_check, search_reedy, verify_reedy
from .serialize import FormatError, document, load_algebra, load_order, load_reedy, read_json

PROVENANCE_TAGS = ("PAPER", "TRIVIAL", "DERIVED")

# check -> its report on a loaded ReedyStructure r; only theorem53 reads the cut
REEDY_CHECKS = {
    "reedy": lambda r, cut: verify_reedy(r),
    "borel": lambda r, cut: exact_borel_check(r.frame.normalized(), r.aminus),
    "delta": lambda r, cut: delta_subalgebra_check(r.frame.normalized(), r.aplus),
    "theorem41": lambda r, cut: characterization_crosscheck(r),
    "theorem53": lambda r, cut: recursive_check(r, cut),
}
CHECKS = (*REEDY_CHECKS, "qh", "search")

# entry field -> (the JSON type of its value, never a boolean; that type in words)
ENTRY_FIELDS = {
    **dict.fromkeys(("reedy", "algebra", "order"), (str, "a file name")),
    "cut": (int, "an integer"),
    "max_levels": ((int, type(None)), "an integer or null"),
    **dict.fromkeys(("excludes_degrees", "contains_pairs"), (list, "a list")),
}


def default_corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


def load_frame(path):
    """An algebra file's frame, on its algebra; the file must carry one."""
    frame = load_algebra(path)[1]
    if frame is None:
        raise FormatError("algebra file carries no idempotent frame")
    return frame


def run_qh(algebra_path, order_path) -> dict:
    """The heredity chain report of an algebra file under an order file,
    whose levels become the frame's degrees."""
    frame = load_frame(algebra_path)
    return heredity_chain_verify(frame.with_degrees(load_order(order_path, frame).levels))


def run_search(algebra_path, mode: str, max_levels: int | None, name: str) -> list:
    """The verified Reedy structures on an algebra file's frame, any degrees.
    A ``max_levels`` below 1 admits no degree function; it is refused with
    a FormatError that calls it ``name``."""
    if max_levels is not None and max_levels < 1:
        raise FormatError(f"{name} must be at least 1, got {max_levels}")
    return search_reedy(load_frame(algebra_path).without_degrees(), mode=mode,
                        max_levels=max_levels)


def _field(entry: dict, key: str, default=None):
    """``entry[key]``, or a FormatError naming the field when its value is malformed."""
    kind, what = ENTRY_FIELDS[key]
    value = entry.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError(f"entry field {key!r} must be {what}, got {json.dumps(value)}")
    return value


def _search_summary(entry: dict, base: Path) -> dict:
    excludes = _field(entry, "excludes_degrees", [])
    contains = _field(entry, "contains_pairs", [])
    found = run_search(base / _field(entry, "algebra"), entry.get("mode", "heuristic"),
                       _field(entry, "max_levels"), "entry field 'max_levels'")
    report = {
        "count": len(found),
        "degree_functions": [list(d) for d in sorted({s.frame.degrees for s in found})],
        "pairs": sorted([list(s.frame.degrees), s.aplus.dim, s.aminus.dim] for s in found),
    }
    if excludes:
        report["excluded_ok"] = not any(d in report["degree_functions"] for d in excludes)
    if contains:
        report["contains_ok"] = all(p in report["pairs"] for p in contains)
    return report


def entry_report(entry: dict, base: Path) -> dict:
    """The report of a corpus entry's check (one of ``CHECKS``) on its files."""
    check = entry["check"]
    if "cut" in entry and check != "theorem53":
        raise FormatError("entry field 'cut' applies only to check theorem53")
    if check == "qh":
        return run_qh(base / _field(entry, "algebra"), base / _field(entry, "order"))
    if check == "search":
        return _search_summary(entry, base)
    cut = _field(entry, "cut") if check == "theorem53" else None
    return REEDY_CHECKS[check](load_reedy(base / _field(entry, "reedy")), cut)


def _match(expected, actual, path="") -> list[str]:
    mismatches = []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path or 'report'}: expected object, got {type(actual).__name__}"]
        for key, val in expected.items():
            if key not in actual:
                mismatches.append(f"{path + key}: missing from report")
            else:
                mismatches.extend(_match(val, actual[key], path + key + "."))
        return mismatches
    if expected != actual:
        mismatches.append(f"{path[:-1] or 'value'}: expected {expected!r}, got {actual!r}")
    return mismatches


def run_entry(entry: dict, base: Path) -> dict:
    name = entry.get("name", "<unnamed>")
    if not isinstance(name, str):
        name = json.dumps(name)
        reason = f"entry field 'name' must be a string, got {name}"
    elif entry.get("provenance") not in PROVENANCE_TAGS:
        reason = f"bad provenance tag {entry.get('provenance')!r}"
    elif "expected" not in entry:
        reason = "fixture has no expected verdict"
    elif entry.get("check") not in CHECKS:
        reason = f"unknown check {entry.get('check')!r}"
    else:
        try:
            report = entry_report(entry, base)
        except (FormatError, AlgebraError, KeyError, OSError, ValueError) as exc:
            return {"name": name, "ok": False, "reason": f"error: {exc}"}
        reason = "; ".join(_match(entry["expected"], json.loads(json.dumps(report))))
    return {"name": name, "ok": not reason, "reason": reason}


def run_corpus(directory, out) -> int:
    """Run every entry of a corpus index, one PASS/FAIL line each.

    A missing, malformed or empty index raises a FormatError before any
    output; a malformed entry is a FAIL line naming its field.
    """
    base = Path(directory) if directory else default_corpus_dir()
    index = base / "entries.json"
    if not base.is_dir() or not index.exists():
        raise FormatError(f"corpus directory {base} has no entries.json")
    entries = document(read_json(index), "corpus index").get("entries", [])
    if not isinstance(entries, list):
        raise FormatError(f"'entries' must be a list of entry objects, got {json.dumps(entries)}")
    for i, entry in enumerate(entries):
        document(entry, f"corpus entry {i}")
    if not entries:
        raise FormatError(f"corpus at {base} is empty")
    results = [run_entry(e, base) for e in entries]
    for entry, result in zip(entries, results):
        line = f"{result['name']:<40} [{entry.get('provenance', '?')}]"
        print(f"PASS  {line}" if result["ok"] else f"FAIL  {line}  {result['reason']}", file=out)
    passed = sum(result["ok"] for result in results)
    print(f"{passed}/{len(results)} corpus entries match", file=out)
    return 0 if passed == len(results) else 1
