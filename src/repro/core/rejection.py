"""Rejection sampling (paper §2.3, Fig. 2(d)).

Pick a candidate uniformly, accept with probability w_i / max(w);
expected cost O(d * max(w) / Σw) per draw. Insertion is an O(1) append
(the max is updated monotonically); deletion follows Table 1's O(d)
cost because without an inverted index the max may need a rescan.
"""
from __future__ import annotations

import numpy as np

from ..graphs.dynarray import DynArray
from .sampler_api import VertexSampler

_MAX_ROUNDS = 10_000


def rejection_draw(rng: np.random.Generator, weights: np.ndarray, max_w: float,
                   size: int) -> np.ndarray:
    """Vectorized rejection loop over a weight vector.

    ``max_w`` may be any upper bound >= true max — correctness holds,
    only the acceptance rate suffers (this is exactly how a stale max
    behaves in the real structure).
    """
    d = len(weights)
    out = np.empty(size, dtype=np.int64)
    pending = np.arange(size)
    for _ in range(_MAX_ROUNDS):
        if len(pending) == 0:
            return out
        cand = (rng.random(len(pending)) * d).astype(np.int64)
        accept = rng.random(len(pending)) * max_w < weights[cand]
        out[pending[accept]] = cand[accept]
        pending = pending[~accept]
    raise RuntimeError("rejection sampling failed to converge; check weights")


class RejectionSampler(VertexSampler):
    name = "rejection"

    def __init__(self, biases) -> None:
        w = np.asarray(biases, dtype=np.float64)
        if (w < 0).any():
            raise ValueError("biases must be non-negative")
        if len(w) and w.max() <= 0:
            raise ValueError("at least one positive bias required")
        self._w = DynArray(dtype=np.float64)
        self._w.extend(w)
        self._max = float(w.max(initial=0.0))
        self._total = float(w.sum())

    @property
    def degree(self) -> int:
        return len(self._w)

    @property
    def total_weight(self) -> float:
        return self._total

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rejection_draw(rng, self._w.view(), self._max, size)

    def insert(self, bias) -> int:
        b = float(bias)
        self._w.append(b)
        self._max = max(self._max, b)
        self._total += b
        return len(self._w) - 1

    def delete(self, index: int) -> None:
        """Swap-delete; O(d) when the deleted bias was the max (rescan)."""
        if not 0 <= index < len(self._w):
            raise IndexError(index)
        gone = float(self._w[index])
        self._w.pop_swap(index)
        self._total -= gone
        if gone >= self._max:
            view = self._w.view()
            self._max = float(view.max(initial=0.0))

    def weight_of(self, index: int) -> float:
        return float(self._w[index])

    @property
    def nbytes(self) -> int:
        return self._w.nbytes
