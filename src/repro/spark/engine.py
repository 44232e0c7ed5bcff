"""Distributed BINGO engine on Spark (paper §9.1 scale-out design).

The paper scales BINGO to multiple GPUs with 1-D vertex partitioning and
moves *walkers*, never sampling structures, between devices. This module
maps device → Spark partition:

- each partition's vertices are carried as one ``pid → blob`` entry of
  the driver's state map (the "graph + metadata stay on the device"
  rule); the blob is a pickled ``{vertex id: pickled BingoVertex}`` map,
  so a task unpickles only the vertex rows it reads, into an otherwise
  empty ``BingoStore``;
- every Spark round (the build, an update call, a walk round) ships one
  ``(pid, pickled work)`` row per partition that has work and runs
  ``mapInPandas`` over those rows: the plan has no shuffle, and each row
  is its own Spark partition, so all partitions' tasks run in parallel,
  as all devices update and sample at the same time;
- graph updates are applied incrementally in their owning partition
  (batched §5.2 path or streaming §4.2 path) to the rows of the batch's
  source vertices; a task returns only those rows, pickled again, and
  the driver merges them into the partition's map;
- walks advance in rounds: a task steps every walker whose current
  vertex it owns *for as long as the walk stays local*, loading each
  vertex's row the first time a walker stands on it, then emits the
  walker for the next round (walker forwarding).

Second-order (node2vec) walks need remote adjacency membership checks
(KnightKing answers them with walker messaging); they are supported by
the local engine only — see DESIGN.md layering notes. This engine covers
the first-order kernels (deepwalk / ppr / simple sampling).
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.store import BingoStore
from ..graphs.partition import partition_of, split_by_partition

_WORK_SCHEMA = "pid long, work binary"
_ROWS_SCHEMA = "pid long, rows binary"
_SEGMENT_SCHEMA = "walker long, step long, vertex long, tail boolean"
_NO_EDGES = pd.DataFrame({"src": [], "dst": [], "bias": []})


def _open(blob, kw) -> tuple[BingoStore, dict]:
    """A partition's store with no rows loaded yet, and the partition's
    ``{vertex: pickled row}`` map (empty when ``blob`` is None)."""
    return BingoStore(_NO_EDGES, **kw), ({} if blob is None else pickle.loads(blob))


def _load(store: BingoStore, rows: dict, vertices) -> None:
    """Unpickle the rows of ``vertices`` (Python ints) that ``store`` has
    not loaded yet."""
    have = store.adj.rows
    for u in vertices:
        if u not in have and u in rows:
            have[u] = pickle.loads(rows[u])


def _dump_rows(store: BingoStore) -> bytes:
    """The pickled ``{vertex: pickled row}`` map of the rows ``store``
    holds: a whole partition after a build, the changed rows after an
    update."""
    return pickle.dumps({u: pickle.dumps(v) for u, v in store.adj.rows.items()})


class SparkBingoEngine:
    """1-D partitioned BINGO over a session-scoped SparkSession."""

    def __init__(
        self,
        spark: SparkSession,
        edges: pd.DataFrame,
        *,
        n_parts: int = 4,
        adaptive: bool = True,
        float_bias: bool = False,
    ) -> None:
        self.spark = spark
        self.n_parts = n_parts
        self._kw = dict(adaptive=adaptive, float_bias=float_bias)
        edges = edges[["src", "dst", "bias"]]
        kw = self._kw

        def build(pid, part):
            return pd.DataFrame({"pid": [pid], "rows": [_dump_rows(BingoStore(part, **kw))]})

        res = self._round(dict(split_by_partition(edges, "src", n_parts)), build, _ROWS_SCHEMA)
        self._state: dict[int, bytes] = dict(zip(res["pid"].tolist(), res["rows"]))
        self._vertices = np.sort(edges["src"].unique())

    def _round(self, work: dict, task, schema: str) -> pd.DataFrame:
        """One Spark round: ``task(pid, work[pid])`` for every partition with
        work, each returning a frame of ``schema``; their rows, concatenated.

        The driver ships one ``(pid, pickled work)`` row per partition and
        runs ``mapInPandas`` over them. The plan has no shuffle, and while
        there are no more rows than the session's default parallelism each
        row is its own Spark partition, so the partitions' tasks run in
        parallel; a task that receives several rows runs them in turn.
        ``task`` is pickled here, as the plan is built, so each round's
        tasks see the values it closes over at this call."""
        rows = pd.DataFrame({
            "pid": np.fromiter(work, dtype=np.int64, count=len(work)),
            "work": [pickle.dumps(w) for w in work.values()],
        })

        def run(batches):
            for batch in batches:
                for pid, w in zip(batch["pid"].tolist(), batch["work"]):
                    yield task(pid, pickle.loads(w))

        return (
            self.spark.createDataFrame(rows, _WORK_SCHEMA)
            .mapInPandas(run, schema)
            .toPandas()
        )

    # -- driver-side views ----------------------------------------------------

    def vertices(self) -> np.ndarray:
        return self._vertices

    def store_of(self, pid: int) -> BingoStore:
        """One partition's store with every row loaded (tests / inspection)."""
        store, rows = _open(self._state[pid], self._kw)
        _load(store, rows, rows)
        return store

    def edges(self) -> pd.DataFrame:
        frames = [self.store_of(pid).edges() for pid in self._state]
        frames = [f for f in frames if len(f)]
        if not frames:
            return _NO_EDGES.copy()
        return (
            pd.concat(frames, ignore_index=True)
            .sort_values(["src", "dst"])
            .reset_index(drop=True)
        )

    def memory_bytes(self) -> tuple[int, int]:
        g = s = 0
        for pid in self._state:
            gg, ss = self.store_of(pid).memory_bytes()
            g += gg
            s += ss
        return g, s

    # -- updates ---------------------------------------------------------------

    def apply_updates(self, batch: pd.DataFrame, *, batched: bool = True) -> None:
        """Route one update batch to its owning partitions and apply it
        there (batched=True → §5.2 path, else the §4.2 streaming path).

        A task loads only the rows of its batch's source vertices and
        returns just those rows, pickled again; the driver merges them into
        the partition's map. Partitions that receive no updates keep their
        previous state blob (the inter-group space of untouched vertices is
        not rebuilt). If any task raises, no partition's state changes."""
        batch = batch[["op", "src", "dst", "bias"]]
        bc = self.spark.sparkContext.broadcast(self._state)
        kw = self._kw

        def update(pid, part):
            store, rows = _open(bc.value.get(pid), kw)
            _load(store, rows, set(part["src"].tolist()))
            if batched:
                store.apply_batch(part)
            else:
                store.apply_stream(part)
            return pd.DataFrame({"pid": [pid], "rows": [_dump_rows(store)]})

        try:
            res = self._round(
                dict(split_by_partition(batch, "src", self.n_parts)), update, _ROWS_SCHEMA
            )
        finally:
            bc.unpersist()
        for pid, changed in zip(res["pid"].tolist(), res["rows"]):
            rows = pickle.loads(self._state[pid]) if pid in self._state else {}
            rows.update(pickle.loads(changed))
            self._state[pid] = pickle.dumps(rows)
        # Keep the driver-side vertex census current for walk starts.
        ins = batch[batch["op"] == 1]["src"].unique()
        self._vertices = np.union1d(self._vertices, ins.astype(np.int64))

    # -- walks -----------------------------------------------------------------

    def walk(
        self,
        *,
        starts,
        length: int = 80,
        seed: int = 0,
        stop_prob: float | None = None,
        max_rounds: int | None = None,
    ) -> pd.DataFrame:
        """First-order walks with walker forwarding.

        Returns a segment frame (walker, step, vertex) covering every
        visited position; reconstruct paths by pivoting on (walker, step).
        Each Spark round advances walkers until they leave their current
        partition, die at a dead end, hit the stop coin, or finish.
        """
        starts = np.asarray(starts, dtype=np.int64)
        walkers = pd.DataFrame(
            {
                "walker": np.arange(len(starts), dtype=np.int64),
                "step": np.zeros(len(starts), dtype=np.int64),
                "vertex": starts,
            }
        )
        segments = [walkers]
        bc = self.spark.sparkContext.broadcast(self._state)
        n_parts = self.n_parts
        kw = self._kw
        rounds = max_rounds if max_rounds is not None else length

        def advance(pid, part):
            """Step the partition's walkers while they stay local. Emits one
            row per move, then one tail row per walker that crossed into
            another partition and walks on in the next round."""
            store, rows = _open(bc.value.get(pid), kw)
            cur = part["vertex"].to_numpy().copy()
            step = part["step"].to_numpy().copy()
            wid = part["walker"].to_numpy()
            alive = np.ones(len(part), dtype=bool)
            moves = []  # (walker, step, vertex) arrays, one triple per step
            rng = np.random.default_rng((seed, rnd, pid))
            local = np.ones(len(part), dtype=bool)
            while True:
                act = alive & local & (step < length)
                if not act.any():
                    break
                idx = np.nonzero(act)[0]
                if stop_prob is not None:
                    keep = rng.random(len(idx)) >= stop_prob
                    alive[idx[~keep]] = False
                    idx = idx[keep]
                    if len(idx) == 0:
                        continue
                _load(store, rows, set(cur[idx].tolist()))
                nxt = store.sample_next(rng, cur[idx])
                dead = nxt < 0
                alive[idx[dead]] = False
                live = idx[~dead]
                cur[live] = nxt[~dead]
                step[live] += 1
                moves.append((wid[live], step[live], cur[live]))
                # Walkers that crossed partitions wait for the next round.
                local[live] = (
                    partition_of(cur[live], n_parts) == pid
                )
            fwd = alive & (step < length)
            moves.append((wid[fwd], step[fwd], cur[fwd]))
            walker, stp, vertex = (np.concatenate(col) for col in zip(*moves))
            tail = np.arange(len(walker)) >= len(walker) - fwd.sum()
            return pd.DataFrame(
                {"walker": walker, "step": stp, "vertex": vertex, "tail": tail}
            )

        try:
            # ``_round`` pickles ``advance`` as each round's plan is built,
            # so every round's tasks see that round's ``rnd`` and draw a
            # fresh random stream.
            for rnd in range(rounds):
                if walkers.empty:
                    break
                work = dict(split_by_partition(walkers, "vertex", n_parts))
                res = self._round(work, advance, _SEGMENT_SCHEMA)
                tail = res.pop("tail").to_numpy()
                segments.append(res[~tail])
                # Walker order fixes the order in which a task's walkers
                # draw from its random stream.
                walkers = res[tail].sort_values("walker")
        finally:
            bc.unpersist()
        return (
            pd.concat(segments, ignore_index=True)
            .sort_values(["walker", "step"])
            .reset_index(drop=True)
        )
