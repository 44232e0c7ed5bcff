"""Layer tracing from outside the engine.

A ``Tracer`` swaps wrappers in for the public functions at each layer
boundary (``repro.core.store``, ``repro.core.bingo_vertex``,
``repro.core.batched`` as the store calls it, ``repro.walk`` and
``repro.spark.engine``) and puts the originals back when it is
uninstalled. Nothing under ``src/`` changes.

Every wrapped call updates per-name aggregates: calls, total seconds,
self seconds (total minus the wrapped calls it made) and an ``amount``
(walkers, draws, events, ...). Coarse boundaries also record a span
``(id, name, start, end, parent_id, round)``; per-edge and per-vertex
calls (``has_edge``, vertex draws, per-vertex batches) are aggregated
only, so spans stay few and the tracer's own cost stays bounded.
Spans are kept in memory and written out by the caller at the end.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

_perf = time.perf_counter


def _arg(a, k, i, name, default=None):
    """Positional-or-keyword argument ``name`` at position ``i``."""
    return a[i] if len(a) > i else k.get(name, default)


def local_targets():
    """(owner, attribute, trace name, span?, amount, context) for the
    local engine's layers.

    ``amount(args, kwargs, result)`` is the work a call did; ``context``
    names a mode that the calls made inside this one are also counted
    under (node2vec walks)."""
    import repro.core.store as store_mod
    import repro.walk.apps as apps_mod
    from repro.core.bingo_vertex import BingoVertex
    from repro.core.store import BingoStore

    return [
        (BingoStore, "apply_batch", "store.apply_batch", True,
         lambda a, k, r: len(_arg(a, k, 1, "batch")), None),
        # apply_batch looks these two up in the store module's globals.
        (store_mod, "resolve_net_effects", "store.resolve_net_effects", True,
         None, None),
        (store_mod, "apply_vertex_batch", "batched.apply_vertex_batch", False,
         lambda a, k, r: len(_arg(a, k, 1, "inserts")) + len(_arg(a, k, 2, "deletes")),
         None),
        (BingoStore, "sample_next", "store.sample_next", True,
         lambda a, k, r: len(_arg(a, k, 2, "cur")), None),
        (BingoStore, "has_edge", "store.has_edge", False, None, None),
        (BingoVertex, "sample_dst", "vertex.sample_dst", False,
         lambda a, k, r: _arg(a, k, 2, "size", 1), None),
        (BingoVertex, "sample_dst_one", "vertex.sample_dst_one", False, None, None),
        # The app kernels call random_walk through the apps module.
        (apps_mod, "random_walk", "walk.random_walk", True,
         lambda a, k, r: r.steps,
         lambda a, k: "node2vec" if k.get("node2vec") is not None else None),
    ]


def spark_targets():
    """Boundaries of the Spark engine. ``createDataFrame`` is called once
    per engine round (one per update call, one per walk round), so its
    calls inside ``spark.walk`` count the walk's Spark rounds."""
    from pyspark.sql import SparkSession
    from repro.spark.engine import SparkBingoEngine

    return [
        (SparkBingoEngine, "apply_updates", "spark.apply_updates", True,
         lambda a, k, r: len(_arg(a, k, 1, "batch")), None),
        (SparkBingoEngine, "walk", "spark.walk", True,
         lambda a, k, r: len(r), lambda a, k: "spark.walk"),
        (SparkSession, "createDataFrame", "spark.createDataFrame", False,
         None, None),
    ]


class Tracer:
    """Per-name aggregates and spans of wrapped calls.

    ``stats[name]`` is ``[calls, total_s, self_s, amount]``; names seen
    while a context is active are also counted as ``"<context>:<name>"``.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.round = -1
        self.t0 = _perf()
        self._stack: list[list] = []   # frames: [child_s, span_id]
        self._context: str | None = None
        self._next_id = 0

    def _record(self, name, context, dt, self_dt, amount):
        for key in (name, f"{context}:{name}") if context else (name,):
            st = self.stats.get(key)
            if st is None:
                st = self.stats[key] = [0, 0.0, 0.0, 0]
            st[0] += 1
            st[1] += dt
            st[2] += self_dt
            st[3] += amount

    def _call(self, name, fn, span, amount, context, a, k):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        sid = self._next_id if span else parent
        if span:
            self._next_id += 1
        frame = [0.0, sid]
        stack.append(frame)
        outer = self._context
        active = (context(a, k) if context else None) or outer
        self._context = active
        t0 = _perf()
        try:
            result = fn(*a, **k)
        finally:
            t1 = _perf()
            stack.pop()
            self._context = outer
        dt = t1 - t0
        if stack:
            stack[-1][0] += dt
        self._record(name, active, dt, dt - frame[0],
                     1 if amount is None else amount(a, k, result))
        if span:
            self.spans.append((sid, name, t0 - self.t0, t1 - self.t0, parent, self.round))
        return result

    def wrap(self, name, fn, span=False, amount=None, context=None):
        tracer = self

        def wrapper(*a, **k):
            return tracer._call(name, fn, span, amount, context, a, k)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, targets):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, span, amount, context in targets:
                orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, span, amount, context))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def get(self, name, field: int = 0):
        st = self.stats.get(name)
        return 0 if st is None else st[field]

    def layer_self_s(self) -> dict:
        """Self seconds per layer (name prefix before the first dot)."""
        out: dict = {}
        for name, st in self.stats.items():
            if ":" in name:
                continue
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + st[2]
        return out
