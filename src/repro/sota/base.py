"""Shared scaffolding of the simulated SOTA comparators (paper §6.2).

KnightKing, gSampler, and FlowWalker only support static (or streaming-
reload) graphs, so the paper "reload[s] or reconstruct[s] the
corresponding structure after each round of updates". Every comparator
here follows that protocol: a Hornet-style dynamic adjacency absorbs the
update batch cheaply, then ``rebuild()`` reconstructs the engine's
per-vertex sampling structures from scratch — the O(E)-per-round cost
BINGO's incremental updates avoid.

All comparators expose the same engine surface as ``BingoStore``
(sample_next / has_edge / vertices / memory_bytes), so the one walk
engine drives every framework in Table 3.
"""
from __future__ import annotations

import abc

import numpy as np
import pandas as pd

from ..graphs.dynamic_graph import Adjacency


class StaticRebuildStore(abc.ABC):
    """Base class: adjacency + rebuild-from-scratch sampling structures."""

    name = "static"

    def __init__(self, edges: pd.DataFrame) -> None:
        self.adj = Adjacency.from_edges(edges)
        self.rebuild()

    # -- update protocol -----------------------------------------------------

    def apply_round(self, batch: pd.DataFrame) -> None:
        """Absorb one update batch, then reconstruct sampling structures
        (the per-round reload these systems require)."""
        self.adj.apply(batch)
        self.rebuild()

    @abc.abstractmethod
    def rebuild(self) -> None:
        """Reconstruct every per-vertex sampling structure from scratch."""

    # -- engine surface ------------------------------------------------------

    def vertices(self) -> np.ndarray:
        return self.adj.vertices()

    def has_edge(self, u: int, dst: int) -> bool:
        return self.adj.has_edge(u, dst)

    def out_degree(self, u: int) -> int:
        return self.adj.out_degree(u)

    def num_edges(self) -> int:
        return self.adj.num_edges()

    def edges(self) -> pd.DataFrame:
        return self.adj.edges()

    @abc.abstractmethod
    def sample_next(self, rng: np.random.Generator, cur: np.ndarray) -> np.ndarray:
        """Next-hop per walker; -1 for dead ends."""

    @abc.abstractmethod
    def structure_nbytes(self) -> int:
        """Bytes of the sampling structures (excluding the adjacency)."""

    def memory_bytes(self) -> tuple[int, int]:
        return self.adj.nbytes, self.structure_nbytes()


def per_vertex_sample(store_tables: dict, fallback, rng, cur: np.ndarray,
                      draw, draw_one=None) -> np.ndarray:
    """Group walkers by current vertex and draw each group in one call.

    ``draw(table, rng, m)`` returns m neighbor *indices* for one vertex's
    table; ``draw_one(table, rng)`` is the scalar fast path (defaults to
    a size-1 ``draw``); ``fallback(u)`` maps a vertex to (dsts view) for
    index→id translation. Vertices without a table or without out-edges
    yield -1. Uses the same sort-based dispatch kernel as ``BingoStore``
    so dispatch overhead cancels out of the Table 3 comparison.
    """
    from ..core.grouping import iter_vertex_groups

    cur = np.asarray(cur, dtype=np.int64)
    out = np.full(len(cur), -1, dtype=np.int64)
    for u, idx in iter_vertex_groups(cur):
        table = store_tables.get(u)
        if table is None:
            continue
        dsts = fallback(u)
        if len(dsts) == 0:
            continue
        if len(idx) == 1 and draw_one is not None:
            out[idx[0]] = dsts[draw_one(table, rng)]
        else:
            out[idx] = dsts[draw(table, rng, len(idx))]
    return out
