"""Per-layer measurement for the benchmark's traced run, from outside ``src/``.

Three sources, all attached from here while one pass runs:

- cProfile, in the main thread and in every thread started during the
  pass (the corpus runner's pool), for self time per layer and call
  counts of named functions;
- spans: wrappers around named public functions recording inclusive
  time, outermost call only, summed over threads;
- counters: wrappers that read return values cProfile cannot see
  (echelon inserts that grew the span, search candidates that verified).

A layer is a module of ``src/reedylab``; ``cli.py`` and ``corpus.py``
together are the ``cli`` layer.  ``fractions.py`` counts toward
``fields``.  Any other function (builtins, the rest of the standard
library) counts toward the layers of its callers, split by the time spent
on each call edge; time blocked on a lock counts toward none.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import threading
import time
from pathlib import Path

import reedylab
from reedylab import algebra, corpus, fields, linalg, modules, qh, reedy, serialize

PACKAGE_DIR = Path(reedylab.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parent
LAYERS = ("fields", "linalg", "algebra", "modules", "qh", "reedy", "serialize", "cli")
COMMAND_MODULES = ("cli", "corpus")

# metric -> public functions whose inclusive time it sums
SPANS = {
    "algebra.validate_s": [(algebra, "validate")],
    "algebra.closure_s": [(algebra, "subalgebra_closure"), (algebra, "ideal_closure")],
    "algebra.quotient_corner_s": [(algebra, "quotient"), (algebra, "quotient_frame"),
                                  (algebra, "corner")],
    "algebra.tensor_dim_s": [(algebra, "tensor_dim_over_corner")],
    "algebra.radical_s": [(algebra, "radical"), (algebra, "radical_generic")],
    "modules.induce_s": [(modules, "induce_module")],
    "qh.level_chain_s": [(qh, "level_chain")],
    "qh.borel_delta_s": [(qh, "exact_borel_check"), (qh, "delta_subalgebra_check")],
    "serialize.load_s": [(serialize, "load_reedy"), (serialize, "load_algebra"),
                         (serialize, "load_order")],
}

# metric -> (module or class, function name) whose calls cProfile counts
CALL_COUNTS = {
    "algebra.mul_sparse_calls": [(algebra.Algebra, "mul_sparse")],
    "algebra.radical_calls": [(algebra, "radical")],
    "algebra.is_elementary_calls": [(algebra, "is_elementary")],
    "linalg.rref_calls": [(linalg, "rref")],
    "linalg.conversions": [(linalg, "sparse"), (linalg, "densify")],
    "reedy.verify_reedy_calls": [(reedy, "verify_reedy")],
}

# Blocked time: a thread waiting on a lock is not busy in any layer.
WAIT_BUILTINS = ("<method 'acquire' of '_thread.lock' objects>",
                 "<method 'acquire' of '_thread.RLock' objects>")
FRACTION_OPS = ("_add", "_sub", "_mul", "_div", "__neg__")
PRIME_FIELD_OPS = ("add", "sub", "mul", "neg", "inv")

PER_LAYER_METRICS = [
    ("fields.self_s", "s"), ("fields.scalar_ops", "count"), ("fields.zero_tests", "count"),
    ("linalg.self_s", "s"), ("linalg.echelon_inserts", "count"),
    ("linalg.insert_useful_ratio", "ratio"), ("linalg.rref_calls", "count"),
    ("linalg.conversions", "count"),
    ("algebra.self_s", "s"), ("algebra.mul_sparse_calls", "count"),
    ("algebra.validate_s", "s"), ("algebra.closure_s", "s"), ("algebra.quotient_corner_s", "s"),
    ("algebra.tensor_dim_s", "s"), ("algebra.radical_s", "s"),
    ("algebra.radical_calls", "count"), ("algebra.is_elementary_calls", "count"),
    ("modules.self_s", "s"), ("modules.induce_s", "s"),
    ("qh.self_s", "s"), ("qh.level_chain_s", "s"), ("qh.borel_delta_s", "s"),
    ("reedy.self_s", "s"), ("reedy.verify_reedy_calls", "count"),
    ("reedy.search_hit_ratio", "ratio"),
    ("serialize.self_s", "s"), ("serialize.load_s", "s"),
    ("cli.self_s", "s"), ("setup.generate_s", "s"), ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    """Wrappers and profilers for one traced pass; ``install`` before it,
    ``uninstall`` after, then ``metrics``."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stats: pstats.Stats | None = None

    # per-thread accumulators; list.append is atomic, so no lock is needed
    def _state(self) -> dict:
        st = getattr(self._local, "state", None)
        if st is None:
            st = {"depth": {}, "time": {}, "count": {}, "in_search": 0}
            self._local.state = st
            self._states.append(st)
        return st

    def _total(self, section: str, key: str):
        return sum(st[section].get(key, 0) for st in self._states)

    # wrappers ---------------------------------------------------------

    def _span(self, metric: str, fn):
        def span(*args, **kwargs):
            st = self._state()
            depth = st["depth"].get(metric, 0)
            st["depth"][metric] = depth + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                st["depth"][metric] = depth
                if depth == 0:
                    st["time"][metric] = st["time"].get(metric, 0.0) + time.perf_counter() - start
        return span

    def _insert(self, fn):
        def insert(acc, vec):
            grew = fn(acc, vec)
            count = self._state()["count"]
            count["insert_tried"] = count.get("insert_tried", 0) + 1
            if grew:
                count["insert_grew"] = count.get("insert_grew", 0) + 1
            return grew
        return insert

    def _search(self, fn):
        def search(*args, **kwargs):
            st = self._state()
            st["in_search"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                st["in_search"] -= 1
        return search

    def _verify(self, fn):
        def verify(r):
            report = fn(r)
            st = self._state()
            if st["in_search"]:
                st["count"]["search_tried"] = st["count"].get("search_tried", 0) + 1
                if report["overall"]:
                    st["count"]["search_hit"] = st["count"].get("search_hit", 0) + 1
            return report
        return verify

    @staticmethod
    def _serial(fn):
        lock = threading.Lock()

        def serial(*args, **kwargs):
            with lock:
                return fn(*args, **kwargs)
        return serial

    def _replace(self, owner, name: str, new) -> None:
        """Point every reference to ``owner.name`` inside reedylab at ``new``."""
        old = getattr(owner, name)
        if isinstance(owner, type):
            self._patches.append((owner, name, old))
            setattr(owner, name, new)
            return
        for mod in list(sys.modules.values()):
            if mod is not None and getattr(mod, "__name__", "").startswith("reedylab"):
                for attr, value in list(vars(mod).items()):
                    if value is old:
                        self._patches.append((mod, attr, old))
                        setattr(mod, attr, new)

    def install(self) -> None:
        for metric, targets in SPANS.items():
            for module, name in targets:
                self._replace(module, name, self._span(metric, getattr(module, name)))
        for cls_name in ("Echelon", "RankCounter"):
            cls = getattr(linalg, cls_name, None)
            if cls is not None:
                self._replace(cls, "insert", self._insert(cls.insert))
        # One corpus entry at a time: pool threads then never wait for the
        # interpreter lock inside a layer, so wall-clock self time is busy time.
        if hasattr(corpus, "run_entry"):
            self._replace(corpus, "run_entry", self._serial(corpus.run_entry))
        self._replace(reedy, "search_reedy", self._search(reedy.search_reedy))
        self._replace(reedy, "verify_reedy", self._verify(reedy.verify_reedy))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # profiling --------------------------------------------------------

    def profile(self, fn) -> None:
        """Run ``fn()`` under cProfile in every thread."""
        main = cProfile.Profile()
        workers: list[cProfile.Profile] = []

        def start_thread_profile(frame, event, arg):
            prof = cProfile.Profile()
            workers.append(prof)
            prof.enable()

        threading.setprofile(start_thread_profile)
        main.enable()
        try:
            fn()
        finally:
            main.disable()
            threading.setprofile(None)
        self._stats = pstats.Stats(main)
        for prof in workers:
            self._stats.add(prof)

    # aggregation ------------------------------------------------------

    def metrics(self, scale: float, setup_s: float, overhead_ratio: float) -> dict:
        """Per-layer metrics; times are multiplied by ``scale``."""
        raw = self._stats.stats
        selfs = layer_self_times(raw)
        out = {f"{layer}.self_s": selfs.get(layer, 0.0) * scale for layer in LAYERS}
        for metric in SPANS:
            out[metric] = self._total("time", metric) * scale
        for metric, targets in CALL_COUNTS.items():
            out[metric] = sum(_calls(raw, owner, name) for owner, name in targets)
        out["fields.scalar_ops"] = sum(
            nc for (path, _, name), (_, nc, *_rest) in raw.items()
            if path.endswith("fractions.py") and name in FRACTION_OPS
        ) + sum(_calls(raw, fields.PrimeField, name) for name in PRIME_FIELD_OPS)
        out["fields.zero_tests"] = sum(
            nc for (path, _, name), (_, nc, *_rest) in raw.items()
            if path.endswith("fractions.py") and name == "__eq__"
        )
        tried = self._total("count", "insert_tried")
        out["linalg.echelon_inserts"] = tried
        out["linalg.insert_useful_ratio"] = _ratio(self._total("count", "insert_grew"), tried)
        out["reedy.search_hit_ratio"] = _ratio(
            self._total("count", "search_hit"), self._total("count", "search_tried")
        )
        out["setup.generate_s"] = setup_s
        out["trace.overhead_ratio"] = overhead_ratio
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _calls(raw: dict, owner, name: str) -> int:
    fn = getattr(owner, name, None)
    code = getattr(fn, "__code__", None)
    if code is None:
        return 0
    entry = raw.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry else 0


def file_layer(path: str) -> str | None:
    """The layer a source file belongs to, or None to follow its callers."""
    if path == "~" or path.startswith("<"):
        return None
    p = Path(path)
    if p.name == "fractions.py":
        return "fields"
    if p.parent == PACKAGE_DIR:
        return "cli" if p.stem in COMMAND_MODULES else p.stem
    if BENCH_DIR in p.parents or p.parent == BENCH_DIR:
        return "bench"
    return None


def layer_self_times(raw: dict) -> dict:
    """Profile self time per layer, following callers for unowned functions."""
    memo: dict = {}

    def shares(func) -> dict:
        if func in memo:
            return memo[func]
        layer = file_layer(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        memo[func] = {"other": 1.0}  # guards recursion through cycles
        callers = raw[func][4] if func in raw else {}
        weights = {c: edge[3] or edge[1] for c, edge in callers.items()}
        total = sum(weights.values())
        result: dict = {}
        if total:
            for caller, w in weights.items():
                for lay, share in shares(caller).items():
                    result[lay] = result.get(lay, 0.0) + share * w / total
        memo[func] = result or {"other": 1.0}
        return memo[func]

    out: dict = {}
    for func, (_, _, tt, _, callers) in raw.items():
        if func[0] == "~" and func[2] in WAIT_BUILTINS:
            continue
        layer = file_layer(func[0])
        if layer is not None:
            out[layer] = out.get(layer, 0.0) + tt
            continue
        edges = {c: e[2] for c, e in callers.items()}
        if not callers or not sum(edges.values()):
            for lay, share in shares(func).items():
                out[lay] = out.get(lay, 0.0) + share * tt
            continue
        scale = tt / sum(edges.values())
        for caller, edge_tt in edges.items():
            for lay, share in shares(caller).items():
                out[lay] = out.get(lay, 0.0) + share * edge_tt * scale
    return out
