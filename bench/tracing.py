"""In-memory spans around calls into tileconn's layers.

The traced run swaps each layer function for a wrapper in every tileconn
module that holds it by name, so calls made inside the package (sweep
calling edge_graph, decide_membership calling _survivor_set) are spanned
too.  Nothing under src/ changes; the untraced runs never install this.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Records (name, start, end, parent) spans and work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.caches: dict = {}  # metric name -> lru_cache-wrapped function
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, after=None):
        """Wrapper that spans fn; after(args, result) updates counters."""

        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times_ns(self) -> dict[str, int]:
        """Per span name: total duration minus time covered by child spans."""
        child_ns = [0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[sid] - self.starts[sid]
        out: dict[str, int] = defaultdict(int)
        for sid, name in enumerate(self.names):
            out[name] += self.ends[sid] - self.starts[sid] - child_ns[sid]
        return dict(out)

    def call_counts(self) -> Counter:
        return Counter(self.names)

    def records(self) -> list[list]:
        return [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i]]
            for i in range(len(self.names))
        ]


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.sid)


def patch_everywhere(package: str, original, replacement) -> None:
    """Rebind every module-level name of the package bound to original."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _miss_detector(cached):
    """Callable telling whether the last call of cached missed its lru_cache."""
    info = getattr(cached, "cache_info", None)
    if info is None:
        return lambda: True
    seen = info().misses

    def missed() -> bool:
        nonlocal seen
        now = info().misses
        if now == seen:
            return False
        seen = now
        return True

    return missed


def install(tracer: Tracer) -> None:
    """Span every layer function the per-layer metrics name."""
    from tileconn import expansions, membership, render, series, sweep

    c = tracer.counters
    tracer.caches = {
        "series.cache_entries": getattr(series, "series_sums", None),
        "membership.survivor_cache_entries": getattr(membership, "_survivor_set", None),
    }
    survivor_missed = _miss_detector(tracer.caches["membership.survivor_cache_entries"])
    series_missed = _miss_detector(tracer.caches["series.cache_entries"])

    def survivors_after(args, result):
        if survivor_missed():
            box, alive = result
            c["membership.box_states"] += (2 * box.l_max + 1) * (2 * box.k_max + 1)
            c["membership.survivor_states"] += len(alive)

    def series_after(args, result):
        if series_missed():
            c["series.terms_used"] += result.terms_used

    def decide_after(args, outcome):
        if outcome.member:
            c["membership.members"] += 1
            c["membership.witness_digits"] += len(outcome.witness.preperiod) + len(
                outcome.witness.period
            )

    def report_after(args, text):
        c["sweep.report_bytes"] += len(text)

    def rasterize_after(args, grid):
        cfg = args[0]
        c["render.points"] += len(cfg.digits) ** cfg.depth
        c["render.set_pixels"] += grid.pixels.count(1)

    def components_after(args, count):
        c["render.components"] += count

    def write_after(args, _):
        c["render.bytes_written"] += os.path.getsize(args[1])

    targets = [
        (membership, "_survivor_set", "membership.survivors", survivors_after),
        (membership, "state_box", "membership.state_box", None),
        (membership, "decide_membership", "membership.decide_membership", decide_after),
        (membership, "edge_graph", "membership.edge_graph", None),
        (membership, "is_connected", "membership.is_connected", None),
        (expansions, "verify_witness", "expansions.verify_witness", None),
        (expansions, "eval_expansion", "expansions.eval_expansion", None),
        (series, "series_sums", "series.series_sums", series_after),
        (sweep, "sweep_theorem", "sweep.sweep_theorem", None),
        (sweep, "mirror_check", "sweep.mirror_check", None),
        (sweep, "corollary_check", "sweep.corollary_check", None),
        (sweep, "report_json", "sweep.report_json", report_after),
        (render, "rasterize", "render.rasterize", rasterize_after),
        (render, "count_components", "render.count_components", components_after),
        (render, "write_image", "render.write_image", write_after),
    ]
    for module, attr, name, after in targets:
        original = getattr(module, attr, None)
        if original is not None:
            patch_everywhere("tileconn", original, tracer.wrap(name, original, after))


def cache_sizes(tracer: Tracer) -> dict[str, int]:
    """Entries held by the decision caches, read via cache_info()."""
    out = {}
    for name, cached in tracer.caches.items():
        info = getattr(cached, "cache_info", None)
        out[name] = info().currsize if info is not None else 0
    return out
