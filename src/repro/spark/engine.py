"""Distributed BINGO engine on Spark (paper §9.1 scale-out design).

The paper scales BINGO to multiple GPUs with 1-D vertex partitioning and
moves *walkers*, never sampling structures, between devices. This module
maps device → Spark partition:

- each partition's vertices are carried as one ``(pid, blob)`` row of
  the state DataFrame (the "graph + metadata stay on the device" rule);
  the blob is a pickled ``{vertex id: pickled BingoVertex}`` map, so a
  task unpickles only the vertex rows it reads, into an otherwise empty
  ``BingoStore``;
- graph updates are routed to their owning partition with
  ``applyInPandas`` and applied incrementally there (batched §5.2 path
  or streaming §4.2 path) to the rows of the batch's source vertices;
  only those rows are pickled again;
- walks advance in rounds: an ``applyInPandas`` task steps every walker
  whose current vertex it owns *for as long as the walk stays local*,
  loading each vertex's row the first time a walker stands on it, then
  emits the walker for the next round (walker forwarding).

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
from ..graphs.partition import partition_of

_STATE_SCHEMA = "pid long, blob binary"
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


def _pack(store: BingoStore, rows: dict) -> bytes:
    """Re-pickle the rows ``store`` holds into ``rows`` and pickle the map;
    rows that were never loaded keep their bytes."""
    rows.update((u, pickle.dumps(v)) for u, v in store.adj.rows.items())
    return pickle.dumps(rows)


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
        pdf = edges[["src", "dst", "bias"]].copy()
        pdf["pid"] = partition_of(pdf["src"].to_numpy(), n_parts)
        kw = self._kw

        def build(key, part):
            store = BingoStore(part[["src", "dst", "bias"]], **kw)
            return pd.DataFrame({"pid": [key[0]], "blob": [_pack(store, {})]})

        rows = (
            self.spark.createDataFrame(pdf)
            .groupBy("pid")
            .applyInPandas(build, _STATE_SCHEMA)
            .collect()
        )
        self._state: dict[int, bytes] = {int(r["pid"]): r["blob"] for r in rows}
        self._vertices = np.sort(pdf["src"].unique())

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

        A task loads and re-pickles only the rows of its batch's source
        vertices; partitions that receive no updates keep their previous
        state blob (the inter-group space of untouched vertices is not
        rebuilt)."""
        pdf = batch[["op", "src", "dst", "bias"]].copy()
        pdf["ord"] = np.arange(len(pdf), dtype=np.int64)  # preserve stream order
        pdf["pid"] = partition_of(pdf["src"].to_numpy(), self.n_parts)
        bc = self.spark.sparkContext.broadcast(self._state)
        kw = self._kw

        def update(key, part):
            pid = int(key[0])
            store, rows = _open(bc.value.get(pid), kw)
            _load(store, rows, set(part["src"].tolist()))
            part = part.sort_values("ord")
            if batched:
                store.apply_batch(part)
            else:
                store.apply_stream(part)
            return pd.DataFrame({"pid": [pid], "blob": [_pack(store, rows)]})

        rows = (
            self.spark.createDataFrame(pdf)
            .groupBy("pid")
            .applyInPandas(update, _STATE_SCHEMA)
            .collect()
        )
        try:
            for r in rows:
                self._state[int(r["pid"])] = r["blob"]
        finally:
            bc.unpersist()
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

        def advance(key, part):
            """Step the partition's walkers while they stay local. Emits one
            row per move, then one tail row per walker that crossed into
            another partition and walks on in the next round."""
            pid = int(key[0])
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
            # applyInPandas pickles ``advance`` when each round's plan is
            # built, so every round's tasks see that round's ``rnd`` and
            # draw a fresh random stream.
            for rnd in range(rounds):
                if walkers.empty:
                    break
                pdf = walkers.assign(
                    pid=partition_of(walkers["vertex"].to_numpy(), self.n_parts)
                )
                res = (
                    self.spark.createDataFrame(pdf)
                    .groupBy("pid")
                    .applyInPandas(advance, _SEGMENT_SCHEMA)
                    .toPandas()
                )
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
