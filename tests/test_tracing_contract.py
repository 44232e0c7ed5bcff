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
from repro.graphs.partition import partition_of
from repro.graphs.updates import apply_updates, make_update_plan
from repro.synth_data import graph_edges
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


def test_spark_state_is_one_blob_per_partition(spark):
    """The benchmark sums ``len()`` of ``engine._state`` values (state and
    collected bytes) and reads ``store_of(pid)`` for its counts."""
    from repro.spark.engine import SparkBingoEngine

    plan = make_update_plan(graph_edges("AM").head(800), batch_size=50, n_batches=1,
                            mode="mixed", seed=7)
    eng = SparkBingoEngine(spark, plan.initial, n_parts=3)

    def check(truth):
        pids = partition_of(truth["src"].to_numpy(), 3)
        assert set(eng._state) == set(pids.tolist())
        for pid, blob in eng._state.items():
            assert type(blob) is bytes
            store = eng.store_of(pid)
            assert isinstance(store, BingoStore)
            want = truth[pids == pid].reset_index(drop=True)
            pd.testing.assert_frame_equal(store.edges(), want, check_dtype=False)

    check(plan.initial.sort_values(["src", "dst"]).reset_index(drop=True))
    eng.apply_updates(plan.batches[0])
    check(apply_updates(plan.initial, plan.batches))
