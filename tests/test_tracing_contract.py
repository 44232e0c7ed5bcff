"""The benchmark's tracer (``perfbench/tracing.py``) wraps engine
functions by name from outside the engine: methods in class bodies and
functions in module globals. These tests keep those names where the
tracer looks for them, so a refactor cannot silently stop a layer from
being counted in a traced benchmark run."""
import importlib
from pathlib import Path

import numpy as np
import pandas as pd

from repro.core import BingoStore
from repro.walk import deepwalk, node2vec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counts_every_local_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    store = BingoStore(pd.DataFrame({
        "src": [0, 0, 1, 1, 2, 2, 3],
        "dst": [1, 2, 2, 3, 3, 0, 0],
        "bias": [1, 2, 3, 4, 5, 6, 7],
    }))
    batch = pd.DataFrame({"op": [1, -1], "src": [3, 0], "dst": [1, 1], "bias": [2, 0]})
    rng = np.random.default_rng(0)
    tracer = tracing.Tracer()
    with tracer.installed(tracing.local_targets()):
        store.apply_batch(batch)
        deepwalk(store, rng, length=3)
        node2vec(store, rng, length=3)
    for name in ("store.has_edge", "store.sample_next", "vertex.sample_dst_one",
                 "batched.apply_vertex_batch", "store.resolve_net_effects"):
        assert tracer.get(name) > 0, name


def test_spark_engine_keeps_traced_methods():
    from repro.spark.engine import SparkBingoEngine

    assert "apply_updates" in SparkBingoEngine.__dict__
    assert "walk" in SparkBingoEngine.__dict__
