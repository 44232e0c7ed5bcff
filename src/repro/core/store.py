"""Graph-wide BINGO store: one ``BingoVertex`` per vertex (paper §6
"treats each vertex as an individual object").

The store is the engine-facing surface shared by BINGO and the SOTA
simulators: vectorized next-hop sampling for a batch of walkers,
streaming and batched update ingestion, adjacency queries for
second-order (node2vec) rejection tests, and memory accounting.

The adjacency layout is owned by ``repro.graphs.dynamic_graph``: the
store holds an ``Adjacency`` whose rows are ``BingoVertex`` objects, so
edge queries, the edge list and the streaming path are the substrate's.
"""
from __future__ import annotations

from collections import Counter
from functools import partial

import numpy as np
import pandas as pd

from ..graphs.dynamic_graph import Adjacency
from ..graphs.updates import OP_DELETE, OP_INSERT
from .batched import apply_vertex_batch
from .bingo_vertex import BingoVertex, check_biases, checked_lambda
from .grouping import iter_vertex_groups


def resolve_net_effects(has_edge, batch: pd.DataFrame):
    """Collapse an in-order update batch to net per-edge effects (§5.2).

    The paper allows re-inserting a just-deleted edge within a batch via
    timestamps; processing events in order and keeping only each edge's
    final state is equivalent once the whole batch is applied atomically
    before the next walk round (§6 implementation detail ii).

    Returns ``(inserts, deletes)``: dicts keyed by src of [(dst, bias)]
    / [dst] lists. Raises on deleting an edge that is absent at that
    point of the stream, mirroring a real engine's integrity check.
    """
    state: dict = {}  # (src, dst) -> (present_now, bias)
    for op, src, dst, bias in zip(batch["op"], batch["src"], batch["dst"], batch["bias"]):
        key = (int(src), int(dst))
        present, _ = state.get(key, (None, None))
        if present is None:
            present = has_edge(int(src), int(dst))
        if op == OP_INSERT:
            if present:
                raise KeyError(f"insert of existing edge {key}")
            state[key] = (True, bias)
        elif op == OP_DELETE:
            if not present:
                raise KeyError(f"delete of missing edge {key}")
            state[key] = (False, None)
        else:
            raise ValueError(f"unknown op {op}")
    inserts: dict = {}
    deletes: dict = {}
    for (src, dst), (present, bias) in state.items():
        was = has_edge(src, dst)
        if present and not was:
            inserts.setdefault(src, []).append((dst, bias))
        elif not present and was:
            deletes.setdefault(src, []).append(dst)
        # present == was: the batch's net effect on this edge is nil
        # (insert+delete round trip) — nothing to apply.
    return inserts, deletes


class BingoStore:
    """Per-vertex BINGO structures over a whole (dynamic) graph."""

    name = "bingo"

    def __init__(
        self,
        edges: pd.DataFrame,
        *,
        adaptive: bool = True,
        float_bias: bool = False,
        alpha: float = 40.0,
        beta: float = 10.0,
    ) -> None:
        self.float_bias = float_bias
        self.adj = Adjacency.from_edges(edges, partial(
            BingoVertex, adaptive=adaptive, float_bias=float_bias, alpha=alpha, beta=beta,
        ))

    # -- queries -------------------------------------------------------------

    def vertex(self, u: int) -> BingoVertex | None:
        return self.adj.rows.get(int(u))

    def vertices(self) -> np.ndarray:
        return self.adj.vertices()

    def out_degree(self, u: int) -> int:
        return self.adj.out_degree(u)

    def has_edge(self, u: int, dst: int) -> bool:
        return self.adj.has_edge(u, dst)

    def num_edges(self) -> int:
        return self.adj.num_edges()

    def edges(self) -> pd.DataFrame:
        """Materialize the current edge list (oracle-side ground truth)."""
        return self.adj.edges()

    # -- sampling ------------------------------------------------------------

    def sample_next(self, rng: np.random.Generator, cur: np.ndarray) -> np.ndarray:
        """Next-hop for each walker at ``cur`` (-1 marks a dead end).

        Walkers at the same vertex are drawn in one vectorized call —
        the CPU analog of BINGO's per-vertex GPU kernels — with a scalar
        fast path for singly-occupied vertices.
        """
        cur = np.asarray(cur, dtype=np.int64)
        out = np.full(len(cur), -1, dtype=np.int64)
        get = self.adj.rows.get
        for u, idx in iter_vertex_groups(cur):
            v = get(u)
            if v is None or v.degree == 0:
                continue
            if len(idx) == 1:
                out[idx[0]] = v.sample_dst_one(rng)
            else:
                out[idx] = v.sample_dst(rng, len(idx))
        return out

    # -- updates -------------------------------------------------------------

    def apply_stream(self, batch: pd.DataFrame) -> None:
        """Streaming path (§4.2): one structure update per event, in order."""
        self.adj.apply(batch)

    def apply_batch(self, batch: pd.DataFrame) -> None:
        """Batched path (§5.2): group by vertex, insert→delete→one rebuild.

        The whole batch is checked (ops, edge existence, biases, and in
        float mode that each ``bias·λ`` fits int64) before any vertex
        changes, so a rejected batch leaves the store as it was.
        """
        check_biases(batch["bias"].to_numpy()[batch["op"].to_numpy() == OP_INSERT],
                     self.float_bias)
        inserts, deletes = resolve_net_effects(self.has_edge, batch)
        if self.float_bias:
            for u, ins in inserts.items():
                v = self.vertex(u)
                checked_lambda([b for _, b in ins], None if v is None else v.lam)
        for u in set(inserts) | set(deletes):
            apply_vertex_batch(
                self.adj.row(u), inserts.get(u, []), deletes.get(u, [])
            )

    # -- accounting ----------------------------------------------------------

    def memory_bytes(self) -> tuple[int, int]:
        """(graph bytes, sampling-structure bytes) across all vertices."""
        s = sum(v.structure_nbytes for v in self.adj.rows.values())
        return self.adj.nbytes, s

    def conversion_stats(self) -> tuple[Counter, Counter]:
        """Aggregated (conversions, touches) counters — Table 4's raw data."""
        conv: Counter = Counter()
        touch: Counter = Counter()
        for v in self.adj.rows.values():
            conv.update(v.conversions)
            touch.update(v.touches)
        return conv, touch

    def group_kind_histogram(self) -> Counter:
        """Current group-representation census (Fig. 11(e) style)."""
        hist: Counter = Counter()
        for v in self.adj.rows.values():
            hist.update(v.group_kinds().values())
        return hist

    def check_invariants(self) -> None:
        for v in self.adj.rows.values():
            v.check_invariants()
