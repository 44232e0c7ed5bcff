"""Parallel batched graph updates (paper §5.2).

The batched path groups all update requests of one vertex together and
performs, in order: **insert → delete → rebuild**, with exactly one
group-reclassification + inter-table rebuild per vertex per batch
(instead of one per op on the streaming path — the source of the
~1000x batched-vs-streamed gap in Fig. 12).

The key kernel is the **two-phase parallel delete-and-swap**
(Fig. 10(b)): when deleting N entries of a compact array concurrently,
a naive swap may fill a doomed slot with a tail element that is *itself*
doomed. Phase (i) deletes the doomed elements that sit inside the tail
window of size N (they simply fall off at truncation); the γ deletions
handled there guarantee the remaining N-γ tail elements survive, so
phase (ii) can use them to fill the N-γ doomed slots in the front.
``plan_two_phase_delete`` computes that plan; callers apply it to any
set of parallel arrays.
"""
from __future__ import annotations

import numpy as np

from . import bits
from .bingo_vertex import BingoVertex


def plan_two_phase_delete(d: int, delete_indices) -> tuple[np.ndarray, np.ndarray, int]:
    """Plan the §5.2 two-phase deletion of ``delete_indices`` from a
    compact array of length ``d``.

    Returns ``(slots, fillers, new_d)``: assign ``arr[slots] = arr[fillers]``
    then truncate to ``new_d``. Guarantees: ``fillers`` are all >= new_d
    (tail window), none of them is deleted, and ``len(fillers) == len(slots)``
    = N - γ where γ is the number of doomed entries already in the tail.
    """
    idxs = np.unique(np.asarray(delete_indices, dtype=np.int64))
    if len(idxs) != len(np.asarray(delete_indices)):
        raise ValueError("duplicate delete indices")
    if len(idxs) == 0:
        return idxs, idxs, d
    if idxs[0] < 0 or idxs[-1] >= d:
        raise IndexError("delete index out of range")
    n = len(idxs)
    new_d = d - n
    slots = idxs[idxs < new_d]                      # doomed entries in front
    tail = np.arange(new_d, d, dtype=np.int64)      # phase (i) window
    fillers = tail[~np.isin(tail, idxs)]            # survivors of phase (i)
    assert len(fillers) == len(slots)
    return slots, fillers, new_d


def batched_delete(v: BingoVertex, dsts) -> None:
    """Delete many edges of one vertex with the two-phase plan.

    Group-structure removal stays O(1) per (edge, touched group) via the
    inverted indices; the adjacency compaction runs as one vectorized
    two-phase move instead of per-edge swaps. Caller finalizes.
    """
    if len(dsts) == 0:
        return
    idxs = np.array([v.pos.pop(int(dst)) for dst in dsts], dtype=np.int64)
    for idx in idxs:
        ip = int(v._ints[idx])
        frac = float(v._fracs[idx])
        for k in bits.bit_positions(ip):
            v._group_delete(k, int(idx))
        if frac > 0:
            v._decimal.delete(int(idx))
            if v._decimal.size == 0:
                v._decimal = None
    slots, fillers, new_d = plan_two_phase_delete(v.degree, idxs)
    # Rename surviving tail elements (fillers) to their new front slots in
    # every group that references them — the batched analog of the
    # streaming path's single swap renaming.
    for p, f in zip(slots.tolist(), fillers.tolist()):
        mip = int(v._ints[f])
        mfrac = float(v._fracs[f])
        for k in bits.bit_positions(mip):
            v._groups[k].replace_index(f, p)
        if mfrac > 0:
            v._decimal.replace_index(f, p)
        v.pos[int(v.dst[f])] = p
    for arr in (v.dst, v.bias, v._ints, v._fracs):
        buf = arr.view()
        buf[slots] = buf[fillers]
        arr.truncate(new_d)


def apply_vertex_batch(v: BingoVertex, inserts, deletes) -> None:
    """§5.2 per-vertex batch: all inserts, then all deletes (two-phase),
    then ONE rebuild (reclassify + inter-group table).

    ``inserts`` is a sequence of (dst, bias); ``deletes`` a sequence of
    dst ids. The caller (store) has already resolved same-edge conflicts
    into net effects per the paper's timestamp rule.
    """
    v.settle_lambda([bias for _, bias in inserts])
    for dst, bias in inserts:
        v._insert_edge(int(dst), bias)
    batched_delete(v, list(deletes))
    v._finalize_update()
