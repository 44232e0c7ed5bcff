"""Output checks against the pandas oracle.

The oracle edge set of a round is ``graphs.updates.apply_updates`` over
the initial edges and every batch applied so far. A walk step passes
when its (from, to) pair is an edge of that round's oracle; a walker may
stop before its full length only at a vertex with no out-edge there.
These checks test edge validity only, not the distribution or the
independence of the draws.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.graphs.updates import apply_updates


def edge_keys(src, dst) -> np.ndarray:
    return np.asarray(src, dtype=np.int64) * (1 << 32) + np.asarray(dst, dtype=np.int64)


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(sorted_keys, keys)
    pos[pos == len(sorted_keys)] = 0
    return (sorted_keys[pos] == keys) if len(sorted_keys) else np.zeros(len(keys), bool)


class Oracle:
    """Edge set after the batches applied so far, indexed for lookups."""

    def __init__(self, initial: pd.DataFrame) -> None:
        self.edges = (
            initial[["src", "dst", "bias"]]
            .sort_values(["src", "dst"])
            .reset_index(drop=True)
        )
        self._index()

    def apply(self, batch: pd.DataFrame) -> None:
        self.edges = apply_updates(self.edges, [batch])
        self._index()

    def _index(self) -> None:
        src = self.edges["src"].to_numpy(np.int64)
        self._keys = np.sort(edge_keys(src, self.edges["dst"].to_numpy(np.int64)))
        self._sources = np.unique(src)

    def has_edges(self, src, dst) -> np.ndarray:
        return _contains(self._keys, edge_keys(src, dst))

    def has_out_edges(self, vertices) -> np.ndarray:
        return _contains(self._sources, np.asarray(vertices, dtype=np.int64))


def check_paths(oracle: Oracle, paths: np.ndarray) -> tuple[int, int]:
    """Check a local ``WalkResult.paths`` array (-1 padded, no stop coin).

    Returns ``(walker_steps, failures)``. A failure is a step that is not
    an oracle edge, a step taken after a termination, a missing start,
    or a walker that stopped early at a vertex that still has out-edges.
    """
    length = paths.shape[1] - 1
    a, b = paths[:, :-1], paths[:, 1:]
    stepped = b >= 0
    failures = int((stepped & (a < 0)).sum()) + int((paths[:, 0] < 0).sum())
    ok = stepped & (a >= 0)
    failures += int((~oracle.has_edges(a[ok], b[ok])).sum())
    lengths = stepped.sum(axis=1)
    early = np.nonzero((lengths < length) & (paths[:, 0] >= 0))[0]
    failures += int(oracle.has_out_edges(paths[early, lengths[early]]).sum())
    return int(stepped.sum()), failures


def check_segments(oracle: Oracle, seg: pd.DataFrame, starts, length: int) -> tuple[int, int]:
    """Check a Spark ``walk`` segment frame (walker, step, vertex).

    Returns ``(walker_steps, failures)``: every walker starts at its start
    vertex at step 0, steps are consecutive, each step is an oracle edge,
    and a walker ends before ``length`` only at a vertex with no out-edge.
    """
    seg = seg.sort_values(["walker", "step"])
    w = seg["walker"].to_numpy(np.int64)
    s = seg["step"].to_numpy(np.int64)
    v = seg["vertex"].to_numpy(np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    same = w[1:] == w[:-1]
    failures = int((same & (s[1:] != s[:-1] + 1)).sum())
    failures += int((~oracle.has_edges(v[:-1][same], v[1:][same])).sum())
    first = np.r_[True, ~same] if len(w) else np.zeros(0, bool)
    last = np.r_[~same, True] if len(w) else np.zeros(0, bool)
    fw = w[first]
    known = (fw >= 0) & (fw < len(starts))
    failures += int((~known).sum())
    failures += int(((s[first][known] != 0) | (v[first][known] != starts[fw[known]])).sum())
    failures += len(starts) - int(known.sum())
    early = s[last] < length
    failures += int(oracle.has_out_edges(v[last][early]).sum())
    return int(same.sum()), failures


def edge_mismatches(actual: pd.DataFrame, expected: pd.DataFrame) -> int:
    """Number of (src, dst, bias) rows in one edge set but not the other."""
    def norm(df):
        return pd.DataFrame({
            "src": df["src"].to_numpy(np.int64),
            "dst": df["dst"].to_numpy(np.int64),
            "bias": df["bias"].to_numpy(np.float64),
        })

    a, e = norm(actual), norm(expected)
    m = a.merge(e, how="outer", on=["src", "dst", "bias"], indicator=True)
    return int((m["_merge"] != "both").sum())
