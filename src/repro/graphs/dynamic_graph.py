"""Dynamic adjacency substrate (paper §9.1: Hornet-style dynamic arrays).

This module owns the adjacency layout of every store in the repo. A
``VertexAdj`` row holds one vertex's out-edges as a pair of dynamic
arrays (destinations, biases) plus an O(1) dst→index locate map; an
insert appends and a delete swaps the tail edge into the freed slot,
both O(1) amortized. ``Adjacency`` maps vertex ids to rows.

BINGO and the SOTA comparators share this substrate and differ only in
the sampling structure on top of it: the comparators keep plain rows and
rebuild their structures after each update round, while ``BingoStore``
uses ``BingoVertex`` rows, a subclass that keeps its radix groups in
step with every row insert and delete.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .dynarray import DynArray
from .updates import OP_DELETE, OP_INSERT

_POS_ENTRY_BYTES = 16


class VertexAdj:
    """One vertex's out-edges: ``dst`` and ``bias`` dynamic arrays and the
    ``pos`` map from a destination id to its index in them."""

    __slots__ = ("dst", "bias", "pos")

    def __init__(self, dsts, biases, bias_dtype=np.float64):
        self.dst = DynArray.from_values(dsts, dtype=np.int64)
        self.bias = DynArray.from_values(biases, dtype=bias_dtype)
        if len(self.bias) != len(self.dst):
            raise ValueError("dsts and biases length mismatch")
        self.pos = {int(v): i for i, v in enumerate(self.dst.view())}
        if len(self.pos) != len(self.dst):
            raise ValueError("duplicate destination in neighbor list")

    @property
    def degree(self) -> int:
        return len(self.dst)

    def has_edge(self, dst: int) -> bool:
        return int(dst) in self.pos

    def insert(self, dst: int, bias) -> int:
        """Append the edge to ``dst``; returns its index."""
        dst = int(dst)
        if dst in self.pos:
            raise KeyError(f"edge to {dst} already present")
        idx = self.dst.append(dst)
        self.bias.append(bias)
        self.pos[dst] = idx
        return idx

    def delete(self, dst: int) -> int:
        """Remove the edge to ``dst`` by moving the tail edge into its
        slot; returns that slot's index."""
        idx = self.pos.pop(int(dst), None)
        if idx is None:
            raise KeyError(f"no edge to {dst}")
        moved = self.dst.pop_swap(idx)
        self.bias.pop_swap(idx)
        if moved is not None:
            self.pos[int(moved)] = idx
        return idx

    @property
    def graph_nbytes(self) -> int:
        """Adjacency bytes: neighbor ids + biases + locate map."""
        return self.dst.nbytes + self.bias.nbytes + _POS_ENTRY_BYTES * len(self.pos)


class Adjacency:
    """Vertex-indexed dynamic adjacency with O(1) updates.

    ``make_row(dsts, biases)`` builds a vertex's row; ``rows`` maps each
    vertex id to its row (rows may be empty after deletes).
    """

    def __init__(self, make_row=VertexAdj) -> None:
        self.rows: dict[int, VertexAdj] = {}
        self.make_row = make_row

    @classmethod
    def from_edges(cls, edges: pd.DataFrame, make_row=VertexAdj) -> "Adjacency":
        adj = cls(make_row)
        src = edges["src"].to_numpy()
        order = np.argsort(src, kind="stable")
        src = src[order]
        dst = edges["dst"].to_numpy()[order]
        bias = edges["bias"].to_numpy()[order]
        uniq, starts = np.unique(src, return_index=True)
        bounds = np.append(starts, len(src))
        for i, u in enumerate(uniq):
            lo, hi = bounds[i], bounds[i + 1]
            adj.rows[int(u)] = make_row(dst[lo:hi], bias[lo:hi])
        return adj

    def row(self, u: int) -> VertexAdj:
        """The row of ``u``, created empty on first use."""
        v = self.rows.get(int(u))
        if v is None:
            v = self.rows[int(u)] = self.make_row([], [])
        return v

    def insert(self, src: int, dst: int, bias) -> None:
        created = int(src) not in self.rows
        try:
            self.row(src).insert(dst, bias)
        except BaseException:
            if created:  # a rejected insert leaves no empty row behind
                del self.rows[int(src)]
            raise

    def delete(self, src: int, dst: int) -> None:
        v = self.rows.get(int(src))
        if v is None:
            raise KeyError(f"edge ({src},{dst}) not present")
        v.delete(dst)

    def apply(self, batch: pd.DataFrame) -> None:
        """Apply one in-order update batch (columns op/src/dst/bias)."""
        for op, src, dst, bias in zip(
            batch["op"], batch["src"], batch["dst"], batch["bias"]
        ):
            if op == OP_INSERT:
                self.insert(int(src), int(dst), bias)
            elif op == OP_DELETE:
                self.delete(int(src), int(dst))
            else:
                raise ValueError(f"unknown op {op}")

    # -- queries -------------------------------------------------------------

    def vertices(self) -> np.ndarray:
        """Vertex ids with at least one out-edge (walker start points)."""
        return np.array(
            sorted(u for u, v in self.rows.items() if len(v.dst) > 0), dtype=np.int64
        )

    def items(self):
        """Yield (vertex, dst view, bias view) for non-empty vertices."""
        for u, v in self.rows.items():
            if len(v.dst):
                yield u, v.dst.view(), v.bias.view()

    def neighbors(self, u: int):
        v = self.rows.get(int(u))
        if v is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        return v.dst.view(), v.bias.view()

    def out_degree(self, u: int) -> int:
        v = self.rows.get(int(u))
        return 0 if v is None else len(v.dst)

    def has_edge(self, u: int, dst: int) -> bool:
        v = self.rows.get(int(u))
        return v is not None and int(dst) in v.pos

    def num_edges(self) -> int:
        return sum(len(v.dst) for v in self.rows.values())

    def edges(self) -> pd.DataFrame:
        """Materialize the current edge list, sorted by (src, dst)."""
        rows = []
        for u, dsts, biases in self.items():
            rows.append(pd.DataFrame({
                "src": np.full(len(dsts), u, dtype=np.int64),
                "dst": dsts.copy(),
                "bias": biases.copy(),
            }))
        if not rows:
            return pd.DataFrame({"src": [], "dst": [], "bias": []})
        return (
            pd.concat(rows, ignore_index=True)
            .sort_values(["src", "dst"])
            .reset_index(drop=True)
        )

    @property
    def nbytes(self) -> int:
        return sum(v.graph_nbytes for v in self.rows.values())
