"""Regenerate the pinned reports in bench/pinned/ from unpermuted inputs.

    python3 bench/pin.py [WORKLOAD ...]

Each workload's checks run once on the constructor output in its own
basis (the bundled corpus in its own order); the exit code and report
text of every check are written to ``bench/pinned/<workload>.json``.
Run it only when a report is meant to change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from run import WORK_DIR, WORKLOADS  # noqa: E402


def pin(workload: str) -> dict:
    """The exit code and report of every check on the unpermuted inputs."""
    work = WORK_DIR / f"pin-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        pinned = {}
        for check in gen.generate(workload, None, work):
            code, text = checks.run_check(check, work)
            pinned[check["id"]] = {"exit": code, "report": text}
        return pinned
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()


def main(argv: list[str]) -> int:
    checks.PINNED_DIR.mkdir(exist_ok=True)
    for workload in argv or WORKLOADS:
        pinned = pin(workload)
        path = checks.PINNED_DIR / f"{workload}.json"
        path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path}: {len(pinned)} checks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
