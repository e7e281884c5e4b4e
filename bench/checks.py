"""The benchmark's checks: one user command each, run in-process.

A check loads its input files fresh and calls one public entry point, the
way ``reedylab`` on the command line or a Python caller would.  Commands
the CLI offers go through ``cli.main`` with ``--out``; ``load``,
``validate`` and ``layer`` have no CLI command and use the Python API.
Each check yields an exit code and its canonical report text, which the
benchmark compares byte-for-byte with the pinned report.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from reedylab import algebra, cli, reedy, serialize

PINNED_DIR = Path(__file__).resolve().parent / "pinned"


def _cli(argv: list[str], out: Path) -> tuple[int, str]:
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if code in (0, 1) else ""


def _load_report(r) -> dict:
    return {
        "field": serialize.field_to_json(r.algebra.field),
        "dim": r.algebra.dim,
        "idempotents": list(r.frame.labels),
        "degrees": list(r.frame.degrees),
        "aplus_dim": r.aplus.dim,
        "aminus_dim": r.aminus.dim,
    }


def run_check(check: dict, work: Path) -> tuple[int, str]:
    """Run one check on the inputs under ``work``; return exit code and report."""
    kind = check["kind"]
    stem = work / check.get("stem", "")
    reedy_file = f"{stem}.reedy.json"
    out = work / "report.json"
    if kind == "corpus":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["corpus", "run", "--dir", str(work / check["dir"])])
        # Entry order follows the seeded shuffle; the sorted lines do not.
        return code, "".join(sorted(buf.getvalue().splitlines(keepends=True)))
    if kind == "load":
        r = serialize.load_reedy(reedy_file)
        return 0, serialize.dumps(_load_report(r))
    if kind == "validate":
        a, _ = serialize.load_algebra(work / check.get("algebra", f"{stem}.alg.json"))
        report = algebra.validate(a)
        return (0 if report["valid"] else 1), serialize.dumps(report)
    if kind == "layer":
        report = reedy.layer_check(serialize.load_reedy(reedy_file))
        return (0 if report["all_levels_ok"] else 1), serialize.dumps(report)
    if kind == "verify":
        return _cli(["verify", "reedy", reedy_file], out)
    if kind == "theorem41":
        return _cli(["verify", "theorem41", reedy_file], out)
    if kind == "qh":
        order = work / check["order"] if "order" in check else f"{stem}.order.json"
        return _cli(["verify", "qh", f"{stem}.alg.json", str(order)], out)
    if kind == "theorem53":
        codes, texts = [], []
        for cut in check["cuts"]:
            code, text = _cli(["verify", "theorem53", reedy_file, "--cut", str(cut)], out)
            codes.append(code)
            texts.append(text)
        return max(codes), "".join(texts)
    raise ValueError(f"unknown check kind {kind!r}")


def load_pinned(workload: str) -> dict:
    path = PINNED_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))
