"""The traced benchmark run (``bench/run.py --trace 1``) wraps package
functions by name: every name it lists must still resolve."""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    """bench/tracing.py as a module, executed from its source (no bytecode
    is written next to it)."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    for table in (tracing.SPANS, tracing.CALL_COUNTS):
        for metric, targets in table.items():
            for owner, name in targets:
                assert callable(getattr(owner, name, None)), (metric, owner, name)
