"""Distributed BINGO engine: 1-D partitioned state, walker forwarding,
distributed updates — cross-checked against the local engine and the
pandas ground truth."""
import pickle
import time

import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException

from repro.core import BingoStore
from repro.graphs.partition import partition_of, split_by_partition
from repro.graphs.updates import apply_updates, make_update_plan
from repro.spark.engine import SparkBingoEngine
from repro.synth_data import graph_edges
from repro.walk import random_walk
from tests.util import assert_distribution, rng


@pytest.fixture(scope="module")
def small_edges():
    return graph_edges("AM").head(2500)


@pytest.fixture(scope="module")
def engine(spark, small_edges):
    return SparkBingoEngine(spark, small_edges, n_parts=4)


class TestConstruction:
    def test_state_covers_all_edges(self, engine, small_edges):
        got = engine.edges().astype({"src": np.int64, "dst": np.int64})
        want = (
            small_edges.sort_values(["src", "dst"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_partition_stores_valid(self, engine):
        for pid in range(engine.n_parts):
            engine.store_of(pid).check_invariants()

    def test_memory_accounting(self, engine):
        g, s = engine.memory_bytes()
        assert g > 0 and s > 0


class TestDistributedWalk:
    def test_paths_follow_edges(self, engine, small_edges):
        starts = engine.vertices()[:40]
        seg = engine.walk(starts=starts, length=6, seed=1)
        has = set(zip(small_edges.src, small_edges.dst))
        by_walker = seg.sort_values(["walker", "step"]).groupby("walker")
        for _, grp in by_walker:
            vs = grp.vertex.tolist()
            for a, b in zip(vs[:-1], vs[1:]):
                assert (a, b) in has, f"edge ({a},{b}) not in graph"

    def test_walk_lengths_bounded(self, engine):
        starts = engine.vertices()[:30]
        seg = engine.walk(starts=starts, length=5, seed=2)
        assert seg.step.max() <= 5
        assert set(seg[seg.step == 0].walker) == set(range(30))

    def test_first_step_distribution_matches_local(self, spark):
        # Biased triangle across partitions: first-hop distribution must
        # follow Eq. 2 exactly as in the local engine.
        edges = pd.DataFrame(
            {"src": [0, 0, 1, 2], "dst": [1, 2, 0, 0], "bias": [3, 1, 1, 1]}
        )
        eng = SparkBingoEngine(spark, edges, n_parts=3)
        seg = eng.walk(starts=np.zeros(4000, dtype=np.int64), length=1, seed=3)
        first = seg[seg.step == 1].vertex.to_numpy()
        assert_distribution(first - 1, [0.75, 0.25])

    def test_ppr_stop_prob(self, spark):
        edges = pd.DataFrame(
            {"src": [0, 1], "dst": [1, 0], "bias": [1, 1]}
        )
        eng = SparkBingoEngine(spark, edges, n_parts=2)
        seg = eng.walk(starts=np.zeros(600, dtype=np.int64), length=50,
                       seed=4, stop_prob=0.5)
        lengths = seg.groupby("walker").step.max()
        # Geometric with p=0.5: mean 1 extra step.
        assert 0.6 < lengths.mean() < 1.6

    def test_ppr_length_tail(self, spark):
        # Every Spark round must draw a fresh random stream. With one
        # stream replayed each round, the first walker of a partition drew
        # the same stop coin every round and walked all 50 steps.
        edges = pd.DataFrame({"src": [0, 1], "dst": [1, 0], "bias": [1, 1]})
        eng = SparkBingoEngine(spark, edges, n_parts=2)
        seg = eng.walk(starts=np.zeros(600, dtype=np.int64), length=50,
                       seed=6, stop_prob=0.5)
        lengths = seg.groupby("walker").step.max().to_numpy()
        assert len(lengths) == 600
        # P(some walker of 600 takes more than 30 steps) = 600 * 2^-31.
        assert lengths.max() <= 30
        # Geometric(1/2) lengths: P(L = k) = 2^-(k+1); bins 0..3 and >= 4.
        assert_distribution(np.minimum(lengths, 4), [0.5, 0.25, 0.125, 0.0625, 0.0625])

    def test_dead_ends_stop(self, spark):
        edges = pd.DataFrame({"src": [0], "dst": [1], "bias": [1]})
        eng = SparkBingoEngine(spark, edges, n_parts=2)
        seg = eng.walk(starts=np.array([0, 0]), length=5, seed=5)
        assert seg.step.max() == 1


class TestDistributedUpdates:
    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "streaming"])
    def test_updates_match_ground_truth(self, spark, small_edges, batched):
        plan = make_update_plan(small_edges, batch_size=80, n_batches=3,
                                mode="mixed", seed=31)
        eng = SparkBingoEngine(spark, plan.initial, n_parts=4)
        for b in plan.batches:
            eng.apply_updates(b, batched=batched)
        truth = apply_updates(plan.initial, plan.batches)
        got = eng.edges().astype({"src": np.int64, "dst": np.int64})
        pd.testing.assert_frame_equal(got, truth, check_dtype=False)
        for pid in range(eng.n_parts):
            eng.store_of(pid).check_invariants()

    def test_untouched_partitions_keep_state(self, spark):
        edges = pd.DataFrame(
            {"src": [0, 1, 2, 3], "dst": [1, 2, 3, 0], "bias": [1, 1, 1, 1]}
        )
        eng = SparkBingoEngine(spark, edges, n_parts=4)
        before = dict(eng._state)
        batch = pd.DataFrame({"op": [1], "src": [0], "dst": [9], "bias": [2]})
        eng.apply_updates(batch)
        from repro.graphs.partition import partition_of

        touched = int(partition_of(np.array([0]), 4)[0])
        for pid, blob in before.items():
            if pid != touched:
                assert eng._state[pid] is blob

    def test_distribution_after_updates_matches_local(self, spark, small_edges):
        plan = make_update_plan(small_edges, batch_size=60, n_batches=2,
                                mode="mixed", seed=32)
        eng = SparkBingoEngine(spark, plan.initial, n_parts=4)
        local = BingoStore(plan.initial)
        for b in plan.batches:
            eng.apply_updates(b)
            local.apply_batch(b)
        pd.testing.assert_frame_equal(
            eng.edges().astype({"src": np.int64, "dst": np.int64}),
            local.edges().astype({"src": np.int64, "dst": np.int64}),
            check_dtype=False,
        )

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "streaming"])
    def test_rejected_update_leaves_state_unchanged(self, spark, batched):
        # Vertex 0 has λ = 10, so 1e18·λ does not fit int64; vertex 1's
        # valid insert lands in another partition's task.
        edges = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0], "bias": [0.3, 2.0, 1.5]})
        eng = SparkBingoEngine(spark, edges, n_parts=4, float_bias=True)
        before = dict(eng._state)
        batch = pd.DataFrame({"op": [1, 1], "src": [1, 0], "dst": [0, 2],
                              "bias": [1.25, 1e18]})
        assert len(set(partition_of(batch["src"].to_numpy(), 4))) == 2
        with pytest.raises(PythonException, match="does not fit int64"):
            eng.apply_updates(batch, batched=batched)
        assert eng._state.keys() == before.keys()
        assert all(eng._state[pid] is blob for pid, blob in before.items())
        pd.testing.assert_frame_equal(
            eng.edges().astype({"src": np.int64, "dst": np.int64}),
            edges.sort_values(["src", "dst"]).reset_index(drop=True),
            check_dtype=False,
        )


class TestStateLayout:
    """Each partition's state is a pickled {vertex: pickled row} map; a task
    unpickles and re-pickles only the rows it reads or updates."""

    def test_memory_matches_local_partition_stores(self, spark, small_edges):
        plan = make_update_plan(small_edges, batch_size=80, n_batches=3,
                                mode="mixed", seed=33)
        eng = SparkBingoEngine(spark, plan.initial, n_parts=4)
        local = {pid: BingoStore(part)
                 for pid, part in split_by_partition(plan.initial, "src", 4)}
        for b in plan.batches:
            eng.apply_updates(b)
            for pid, part in split_by_partition(b, "src", 4):
                local[pid].apply_batch(part)
        want = [sum(x) for x in zip(*(st.memory_bytes() for st in local.values()))]
        assert list(eng.memory_bytes()) == want

    def test_only_source_rows_are_repickled(self, spark, small_edges):
        plan = make_update_plan(small_edges, batch_size=80, n_batches=1,
                                mode="mixed", seed=34)
        eng = SparkBingoEngine(spark, plan.initial, n_parts=4)
        before = {pid: pickle.loads(blob) for pid, blob in eng._state.items()}
        batch = plan.batches[0]
        eng.apply_updates(batch)
        srcs = set(batch["src"].tolist())
        changed = 0
        for pid, blob in eng._state.items():
            rows = pickle.loads(blob)
            old = before.get(pid, {})
            assert set(old) <= set(rows)
            for u, row in old.items():
                if u in srcs:
                    changed += row != rows[u]
                else:
                    assert row == rows[u], f"row {u} re-pickled"
        assert changed > 0

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "streaming"])
    def test_float_engine_creates_new_sources(self, spark, batched):
        edges = pd.DataFrame({
            "src": [0, 0, 1, 2, 3],
            "dst": [1, 2, 2, 3, 0],
            "bias": [0.5, 1.25, 3.0, 0.07, 2.2],
        })
        # New sources 10..15 land in every partition; 1e9 used to overflow.
        batch = pd.DataFrame({
            "op": [1, 1, 1, 1, 1, 1, 1, -1],
            "src": [10, 10, 11, 12, 13, 14, 15, 0],
            "dst": [0, 1, 2, 3, 0, 1, 2, 1],
            "bias": [1e9, 0.5, 0.3, 2.75, 0.01, 7.5, 1.0, 0.0],
        })
        eng = SparkBingoEngine(spark, edges, n_parts=3, float_bias=True)
        eng.apply_updates(batch, batched=batched)
        local = BingoStore(edges, float_bias=True)
        (local.apply_batch if batched else local.apply_stream)(batch)
        pd.testing.assert_frame_equal(
            eng.edges().astype({"src": np.int64, "dst": np.int64}),
            local.edges().astype({"src": np.int64, "dst": np.int64}),
            check_dtype=False,
        )
        assert set(partition_of(np.arange(10, 16), 3)) == {0, 1, 2}
        for pid in eng._state:
            store = eng.store_of(pid)
            store.check_invariants()
            for u in range(10, 16):
                if store.vertex(u) is not None:
                    assert store.vertex(u).lam < 1e4


def _group_jobs(spark, group: str, run, n_jobs: int) -> tuple:
    """Run ``run()`` under job group ``group``; return its result and
    ``(stage count, task count of the first stage)`` for each of the
    group's jobs. Waits until the status tracker reports ``n_jobs``
    succeeded jobs, because Spark posts job events to it asynchronously."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        result = run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    deadline = time.monotonic() + 30
    while True:
        jobs = [tracker.getJobInfo(j) for j in tracker.getJobIdsForGroup(group)]
        done = [j for j in jobs if j is not None and j.status == "SUCCEEDED"]
        if len(done) >= n_jobs or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    return result, [
        (len(j.stageIds), tracker.getStageInfo(j.stageIds[0]).numTasks)
        for j in sorted(jobs, key=lambda j: j.jobId)
    ]


class TestParallelRounds:
    """A Spark round ships one row per partition that has work and runs
    mapInPandas over them: one job with one stage (no shuffle) of one task
    per such partition, so the partitions run in parallel. With a
    groupBy("pid") shuffle each round had a shuffle stage, and adaptive
    execution merged the result stage into a single task."""

    def test_update_is_one_stage_of_one_task_per_partition(self, spark):
        # Sources 0, 1, 2 live in partitions 0, 3, 2 of 4.
        edges = pd.DataFrame({"src": [0, 1, 2, 4], "dst": [1, 2, 4, 0], "bias": [1, 2, 3, 4]})
        eng = SparkBingoEngine(spark, edges, n_parts=4)
        batch = pd.DataFrame({"op": [1, 1, 1], "src": [0, 1, 2], "dst": [9, 9, 9],
                              "bias": [1, 1, 1]})
        k = len(set(partition_of(batch["src"].to_numpy(), 4)))
        assert k == 3
        tasks = min(k, spark.sparkContext.defaultParallelism)
        _, jobs = _group_jobs(spark, "test-update-round", lambda: eng.apply_updates(batch), 1)
        assert jobs == [(1, tasks)]

    def test_walk_runs_one_job_per_round(self, spark):
        # Every hop of the cycle 0 -> 1 -> 2 -> 4 -> 0 crosses partitions,
        # so a walk of length r needs r rounds; three walkers keep three
        # partitions busy in every round.
        edges = pd.DataFrame({"src": [0, 1, 2, 4], "dst": [1, 2, 4, 0], "bias": [1, 1, 1, 1]})
        assert len(set(partition_of(edges["src"].to_numpy(), 4))) == 4
        eng = SparkBingoEngine(spark, edges, n_parts=4)
        length = 3
        tasks = min(3, spark.sparkContext.defaultParallelism)
        seg, jobs = _group_jobs(spark, "test-walk-rounds", lambda: eng.walk(
            starts=np.array([0, 1, 2]), length=length, seed=8), length)
        assert jobs == [(1, tasks)] * length
        assert len(seg) == 3 * (length + 1)


class TestMorePartitionsThanCores:
    """With n_parts above the core count several partitions' rows share a
    mapInPandas batch; the task runs them in turn."""

    def test_matches_local_store(self, spark, small_edges):
        n_parts = 8  # above local[*]'s default parallelism on up to 7 cores
        plan = make_update_plan(small_edges, batch_size=80, n_batches=4,
                                mode="mixed", seed=35)
        eng = SparkBingoEngine(spark, plan.initial, n_parts=n_parts)
        local = BingoStore(plan.initial)
        for i, b in enumerate(plan.batches):
            batched = i % 2 == 0
            eng.apply_updates(b, batched=batched)
            (local.apply_batch if batched else local.apply_stream)(b)
        pd.testing.assert_frame_equal(
            eng.edges().astype({"src": np.int64, "dst": np.int64}),
            local.edges().astype({"src": np.int64, "dst": np.int64}),
            check_dtype=False,
        )
        assert set(eng._state) == set(range(n_parts))
        for pid in eng._state:
            eng.store_of(pid).check_invariants()
        starts = eng.vertices()[:60]
        seg = eng.walk(starts=starts, length=6, seed=9)
        assert set(seg[seg.step == 0].walker) == set(range(60))
        for _, grp in seg.groupby("walker"):
            vs = grp.vertex.tolist()
            for a, b in zip(vs[:-1], vs[1:]):
                assert local.has_edge(a, b), f"edge ({a},{b}) not in graph"
