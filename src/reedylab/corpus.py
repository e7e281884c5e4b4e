"""Bundled example corpus: fixture files plus expected verdicts.

Each entry names a check, its input files (relative to the corpus
directory) and the expected report values, tagged with the provenance of
the expectation (PAPER, TRIVIAL or DERIVED).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .algebra import AlgebraError
from .qh import heredity_chain_verify
from .reedy import characterization_crosscheck, recursive_check, search_reedy, verify_reedy
from .serialize import FormatError, load_algebra, load_order, load_reedy, read_json

PROVENANCE_TAGS = ("PAPER", "TRIVIAL", "DERIVED")


def default_corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


def _jsonify(value):
    return json.loads(json.dumps(value))


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
    check = entry.get("check")
    provenance = entry.get("provenance")
    if provenance not in PROVENANCE_TAGS:
        return {"name": name, "ok": False, "reason": f"bad provenance tag {provenance!r}"}
    if "expected" not in entry:
        return {"name": name, "ok": False, "reason": "fixture has no expected verdict"}
    try:
        if check == "reedy":
            report = verify_reedy(load_reedy(base / entry["reedy"]))
        elif check == "theorem41":
            report = characterization_crosscheck(load_reedy(base / entry["reedy"]))
        elif check == "theorem53":
            report = recursive_check(load_reedy(base / entry["reedy"]), int(entry["cut"]))
        elif check == "qh":
            algebra, frame = load_algebra(base / entry["algebra"])
            if frame is None:
                raise FormatError("algebra file carries no idempotent frame")
            order = load_order(base / entry["order"], frame)
            report = heredity_chain_verify(algebra, frame, order)
        elif check == "search":
            algebra, frame = load_algebra(base / entry["algebra"])
            if frame is None:
                raise FormatError("algebra file carries no idempotent frame")
            found = search_reedy(
                algebra,
                frame.without_degrees(),
                mode=entry.get("mode", "heuristic"),
                max_levels=entry.get("max_levels"),
            )
            degree_sets = sorted({s.frame.degrees for s in found})
            report = {
                "count": len(found),
                "degree_functions": [list(d) for d in degree_sets],
                "pairs": sorted(
                    [list(s.frame.degrees), s.aplus.dim, s.aminus.dim] for s in found
                ),
            }
            for excl in entry.get("excludes_degrees", []):
                report.setdefault("excluded_ok", True)
                if list(excl) in report["degree_functions"]:
                    report["excluded_ok"] = False
            for incl in entry.get("contains_pairs", []):
                report.setdefault("contains_ok", True)
                if list(incl) not in report["pairs"]:
                    report["contains_ok"] = False
        else:
            return {"name": name, "ok": False, "reason": f"unknown check {check!r}"}
    except (FormatError, AlgebraError, KeyError, OSError, ValueError) as exc:
        return {"name": name, "ok": False, "reason": f"error: {exc}"}
    mismatches = _match(_jsonify(entry["expected"]), _jsonify(report))
    if mismatches:
        return {"name": name, "ok": False, "reason": "; ".join(mismatches)}
    return {"name": name, "ok": True, "reason": ""}


def run_corpus(directory, out) -> int:
    base = Path(directory) if directory else default_corpus_dir()
    index = base / "entries.json"
    if not base.is_dir() or not index.exists():
        print(f"error: corpus directory {base} has no entries.json", file=sys.stderr)
        return 2
    try:
        entries = read_json(index).get("entries", [])
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"error: corpus at {base} is empty", file=sys.stderr)
        return 2
    results = [run_entry(e, base) for e in entries]
    failures = 0
    for entry, result in zip(entries, results):
        tag = entry.get("provenance", "?")
        if result["ok"]:
            print(f"PASS  {result['name']:<40} [{tag}]", file=out)
        else:
            failures += 1
            print(f"FAIL  {result['name']:<40} [{tag}]  {result['reason']}", file=out)
    print(f"{len(results) - failures}/{len(results)} corpus entries match", file=out)
    return 0 if failures == 0 else 1
