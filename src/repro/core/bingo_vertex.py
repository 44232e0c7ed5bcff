"""Per-vertex BINGO sampling structure (paper §4, §5.1).

``BingoVertex`` is an adjacency row of the graph substrate
(``repro.graphs.dynamic_graph.VertexAdj``, which owns the neighbor-id
and bias arrays and the dst→index map) extended with the vertex's radix
groups keyed by bit position, the optional decimal group of the
floating-point scheme, and the inter-group alias table. Its ``insert``
and ``delete`` override the row's to keep those structures in step, so
``Adjacency.apply`` streams updates into it like into any row. It
implements:

- hierarchical O(1) sampling (inter-group alias → intra-group unbiased,
  Eq. 5-7);
- O(K) streaming insert (§4.2): append to each touched group, rebuild
  the K-entry inter-group alias table;
- O(K) streaming delete (§4.2): inverted-index locate + delete-and-swap
  in each touched group, plus adjacency swap with index renaming
  propagated via ``replace_index``;
- adaptive group representations (§5.1) with on-the-fly reclassification
  and conversion counters (the raw data behind the paper's Table 4);
- floating-point biases via the λ amortization factor (§4.3).

With ``adaptive=False`` every group uses the regular representation —
the paper's "BS" baseline from Figures 11/13.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from ..graphs.dynamic_graph import VertexAdj
from ..graphs.dynarray import DynArray
from . import bits
from .alias import AliasTable
from .groups import (
    ALPHA,
    BETA,
    KIND_DECIMAL,
    KIND_DENSE,
    KIND_ONE,
    classify,
    make_group,
    DecimalGroup,
)

#: Sentinel key for the decimal group in the inter-group key list.
DECIMAL_KEY = -1

#: A scaled bias ``bias·λ`` must stay below 2^63 for its integer part to
#: fit the int64 array that the radix groups are built from.
_SCALED_LIMIT = 2.0 ** 63


def check_biases(biases, float_bias: bool) -> np.ndarray:
    """``biases`` as a vertex's bias array: float64, or int64 in integer
    mode. Raises ``ValueError`` unless every bias is positive and finite,
    and an integer in integer mode."""
    given = np.asarray(biases)
    if not (np.isfinite(given) & (given > 0)).all():
        raise ValueError("biases must be positive")
    if float_bias:
        return given.astype(np.float64)
    raw = given.astype(np.int64)
    if (raw != given).any():
        raise ValueError("integer-bias vertex got a non-integer bias")
    return raw


def checked_lambda(biases, lam: float | None) -> float | None:
    """The λ a float vertex uses to insert ``biases``: ``lam``, or when it
    is None (no λ chosen yet) the λ chosen from ``biases``. Raises
    ``ValueError`` unless every ``bias·λ`` has an integer part that fits
    int64, before anything is stored."""
    b = np.asarray(biases, dtype=np.float64)
    # λ >= 1, so a bias past the limit never fits; ruling it out first
    # also keeps choose_lambda's int64 cast in range.
    if lam is None and (b < _SCALED_LIMIT).all():
        lam = bits.choose_lambda(b)
    scale = 1.0 if lam is None else lam
    if not (b * scale < _SCALED_LIMIT).all():
        raise ValueError(f"bias·λ does not fit int64 (λ = {scale:g})")
    return lam


class BingoVertex(VertexAdj):
    """BINGO sampling space for a single vertex."""

    def __init__(
        self,
        dsts,
        biases,
        *,
        adaptive: bool = True,
        alpha: float = ALPHA,
        beta: float = BETA,
        float_bias: bool = False,
        lam: float | None = None,
    ) -> None:
        raw = check_biases(biases, float_bias)
        super().__init__(dsts, raw, raw.dtype)
        self.adaptive = adaptive
        self.alpha = alpha
        self.beta = beta
        self.float_bias = float_bias
        self.conversions: Counter = Counter()   # (from_kind, to_kind) -> count
        self.touches: Counter = Counter()       # kind -> update ops touching it

        if float_bias:
            # An empty vertex has no bias to choose λ from: it stays None
            # until its first insert brings one.
            if len(raw):
                lam = checked_lambda(raw, lam)
            self.lam = lam
            ints, fracs = bits.float_split(raw, 1.0 if lam is None else lam)
        else:
            self.lam = 1.0
            ints = raw
            fracs = np.zeros(len(raw), dtype=np.float64)
        self._ints = DynArray.from_values(ints, dtype=np.int64)
        self._fracs = DynArray.from_values(fracs, dtype=np.float64)

        self._groups: dict = {}
        self._decimal: DecimalGroup | None = None
        self._inter: AliasTable | None = None
        self._inter_keys: list = []
        self._build_groups()

    # -- construction -------------------------------------------------------

    def _classify(self, size: int) -> str:
        if not self.adaptive:
            return "regular"
        return classify(size, self.degree, alpha=self.alpha, beta=self.beta)

    def _build_groups(self) -> None:
        """(Re)build all groups from the current bias arrays — O(d·K)."""
        self._groups.clear()
        self._decimal = None
        ints = self._ints.view()
        d = len(ints)
        if d == 0:
            self._rebuild_inter()
            return
        K = bits.num_bits(int(ints.max(initial=0)))
        for k in range(K):
            members = bits.group_members(ints, k)
            if len(members):
                self._groups[k] = make_group(
                    self._classify(len(members)), k, members, d
                )
        fr = self._fracs.view()
        dec = np.nonzero(fr > 0)[0]
        if len(dec):
            self._decimal = DecimalGroup(dec, fr[dec])
        self._rebuild_inter()

    def _rebuild_inter(self) -> None:
        """Rebuild the K-entry inter-group alias table (Eq. 5) — O(K)."""
        keys = sorted(self._groups)
        weights = [self._groups[k].weight() for k in keys]
        if self._decimal is not None and self._decimal.size:
            keys.append(DECIMAL_KEY)
            weights.append(self._decimal.weight())
        self._inter_keys = keys
        self._inter = AliasTable(weights) if keys else None

    # -- views / accessors ---------------------------------------------------

    def neighbors_view(self) -> np.ndarray:
        return self.dst.view()

    def int_bias_view(self) -> np.ndarray:
        """Integer-part biases — what dense-group rejection tests against."""
        return self._ints.view()

    def raw_bias_view(self) -> np.ndarray:
        return self.bias.view()

    def index_of(self, dst: int) -> int:
        return self.pos[int(dst)]

    def weight_of(self, index: int) -> float:
        """Effective (λ-scaled) sampling weight of adjacency index."""
        return float(self._ints[index]) + float(self._fracs[index])

    @property
    def total_weight(self) -> float:
        g = sum(grp.weight() for grp in self._groups.values())
        if self._decimal is not None:
            g += self._decimal.weight()
        return g

    def group(self, k: int):
        """The group at radix position k, or None (test/bench accessor)."""
        if k == DECIMAL_KEY:
            return self._decimal
        return self._groups.get(k)

    def group_kinds(self) -> dict:
        out = {k: g.kind for k, g in self._groups.items()}
        if self._decimal is not None:
            out[DECIMAL_KEY] = KIND_DECIMAL
        return out

    # -- sampling (Eq. 5-7) --------------------------------------------------

    def sample_one(self, rng: np.random.Generator) -> int:
        """Scalar hierarchical draw: inter-group alias pick, then one
        intra-group draw — the O(1) per-step cost a single walker pays."""
        if self._inter is None:
            raise ValueError("sampling from an empty vertex")
        key = self._inter_keys[self._inter.sample_one(rng)]
        grp = self._decimal if key == DECIMAL_KEY else self._groups[key]
        return grp.sample_one(rng, self)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Hierarchical sampling; returns adjacency indices in [0, d).

        Stage (i) draws all walkers' groups from the inter-group alias
        table in one vectorized call; stage (ii) resolves each selected
        group's walkers together, with the unbiased (uniform member
        pick) case inlined — the per-group loop is over at most K+1
        groups, mirroring the warp-per-group GPU kernel.
        """
        if self._inter is None:
            raise ValueError("sampling from an empty vertex")
        if size == 1:
            return np.array([self.sample_one(rng)], dtype=np.int64)
        sel = self._inter.sample(rng, size)
        order = np.argsort(sel, kind="stable")
        n_keys = len(self._inter_keys)
        bounds = np.searchsorted(sel[order], np.arange(n_keys + 1))
        u = rng.random(size)
        out = np.empty(size, dtype=np.int64)
        for gi in range(n_keys):
            lo, hi = bounds[gi], bounds[gi + 1]
            if lo == hi:
                continue
            sl = order[lo:hi]
            key = self._inter_keys[gi]
            grp = self._decimal if key == DECIMAL_KEY else self._groups[key]
            kind = grp.kind
            if kind == "regular" or kind == "sparse":
                m = grp.members
                out[sl] = m._buf[(u[sl] * m._n).astype(np.int64)]
            elif kind == "one_element":
                out[sl] = grp.idx
            else:  # dense / decimal: rejection needs its own loop
                out[sl] = grp.sample(rng, hi - lo, self)
        return out

    def sample_dst(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Hierarchical sampling; returns neighbor (destination) ids."""
        return self.dst.view()[self.sample(rng, size)]

    def sample_dst_one(self, rng: np.random.Generator) -> int:
        return int(self.dst._buf[self.sample_one(rng)])

    def probabilities(self) -> np.ndarray:
        """Exact per-index transition probabilities (test helper)."""
        w = self._ints.view() + self._fracs.view()
        return w / w.sum()

    # -- streaming updates (§4.2) -------------------------------------------

    def settle_lambda(self, biases) -> None:
        """Choose λ from ``biases`` if this vertex has none yet, i.e. a
        float vertex created empty, so its first insert meets the §4.4
        decimal-mass bound (``choose_lambda([])`` would climb to the cap)."""
        if self.lam is None and len(biases):
            self.lam = bits.choose_lambda(biases)

    def _split_bias(self, bias) -> tuple[int, float]:
        if self.float_bias:
            self.lam = checked_lambda([bias], self.lam)
            scaled = float(bias) * self.lam
            ip = int(np.floor(scaled))
            return ip, scaled - ip
        b = int(bias)
        if b != bias:
            raise ValueError("integer-bias vertex got a non-integer bias")
        return b, 0.0

    def _group_insert(self, k: int, idx: int) -> None:
        g = self._groups.get(k)
        if g is None:
            self._groups[k] = make_group(self._classify(1), k, [idx], self.degree)
            return
        self.touches[g.kind] += 1
        if g.kind == KIND_ONE:
            # One-element groups cannot grow in place (§5.2): re-derive the
            # representation for size 2 and re-create the group.
            new_kind = self._classify(2)
            self.conversions[(KIND_ONE, new_kind)] += 1
            self._groups[k] = make_group(new_kind, k, [g.idx, idx], self.degree)
        else:
            g.insert(idx)

    def _group_delete(self, k: int, idx: int) -> None:
        g = self._groups[k]
        self.touches[g.kind] += 1
        g.delete(idx)
        if g.kind == KIND_ONE or g.size == 0:
            del self._groups[k]

    def _reclassify_all(self) -> None:
        """Convert any group whose Eq. 9 class changed (conversion source
        data for Table 4). Non-adaptive mode keeps everything regular."""
        if not self.adaptive or self.degree == 0:
            return
        ints = self._ints.view()
        for k, g in list(self._groups.items()):
            desired = self._classify(g.size)
            if desired == g.kind:
                continue
            members = (
                bits.group_members(ints, k)
                if g.kind == KIND_DENSE
                else g.members_array()
            )
            self.conversions[(g.kind, desired)] += 1
            self._groups[k] = make_group(desired, k, members, self.degree)

    def _insert_edge(self, dst: int, bias) -> int:
        """Intra-group part of insertion; caller must ``_finalize_update``."""
        if bias <= 0:
            raise ValueError("bias must be positive")
        ip, frac = self._split_bias(bias)
        idx = super().insert(dst, bias)
        self._ints.append(ip)
        self._fracs.append(frac)
        for k in bits.bit_positions(ip):
            self._group_insert(k, idx)
        if frac > 0:
            if self._decimal is None:
                self._decimal = DecimalGroup([], [])
            self._decimal.insert(idx, frac)
        return idx

    def _delete_edge(self, dst: int) -> None:
        """Intra-group part of deletion; caller must ``_finalize_update``."""
        idx = super().delete(dst)
        ip = int(self._ints[idx])
        frac = float(self._fracs[idx])
        for k in bits.bit_positions(ip):
            self._group_delete(k, idx)
        if frac > 0:
            self._decimal.delete(idx)
            if self._decimal.size == 0:
                self._decimal = None
        self._ints.pop_swap(idx)
        self._fracs.pop_swap(idx)
        last = self.degree  # the row already moved its tail edge here
        if idx < last:  # tail element renamed last -> idx
            mip = int(self._ints[idx])
            mfrac = float(self._fracs[idx])
            for k in bits.bit_positions(mip):
                self._groups[k].replace_index(last, idx)
            if mfrac > 0:
                self._decimal.replace_index(last, idx)

    def _finalize_update(self) -> None:
        """Reclassify + rebuild the inter-group table — once per streaming
        op, or once per *batch* on the batched path (§5.2's single rebuild)."""
        self._reclassify_all()
        self._rebuild_inter()

    def insert(self, dst: int, bias) -> int:
        """Streaming edge insertion (§4.2) — O(K) plus rare conversions."""
        idx = self._insert_edge(dst, bias)
        self._finalize_update()
        return idx

    def delete(self, dst: int) -> None:
        """Streaming edge deletion (§4.2): inverted-index locate,
        delete-and-swap per touched group, adjacency swap + renaming."""
        self._delete_edge(dst)
        self._finalize_update()

    def update_bias(self, dst: int, bias) -> None:
        """Edge-bias update, composed of delete + insert as §4.2 allows."""
        self.delete(dst)
        self.insert(dst, bias)

    # -- memory accounting (§4.4, Fig. 11, Table 3) --------------------------

    @property
    def structure_nbytes(self) -> int:
        """Sampling-structure bytes: groups + inverted indices + inter table
        + the λ-split arrays (float mode only adds the fraction array)."""
        n = sum(g.nbytes for g in self._groups.values())
        if self._decimal is not None:
            n += self._decimal.nbytes
        if self._inter is not None:
            n += self._inter.nbytes + 8 * len(self._inter_keys)
        n += self._ints.nbytes
        if self.float_bias:
            n += self._fracs.nbytes
        return n

    @property
    def nbytes(self) -> int:
        return self.graph_nbytes + self.structure_nbytes

    # -- invariants (tests) --------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the structure matches a from-scratch reconstruction."""
        ints = self._ints.view()
        d = self.degree
        assert len(self.bias) == len(self._ints) == len(self._fracs) == d
        assert len(self.pos) == d
        for i, dst in enumerate(self.dst.view().tolist()):
            assert self.pos.get(dst) == i, f"slot {i} (dst {dst}) not in pos"
        K = bits.num_bits(int(ints.max(initial=0))) if d else 0
        for k in range(K):
            expect = bits.group_members(ints, k)
            g = self._groups.get(k)
            if len(expect) == 0:
                assert g is None, f"group 2^{k} should not exist"
                continue
            assert g is not None, f"group 2^{k} missing"
            assert g.size == len(expect), f"group 2^{k} size mismatch"
            if self.adaptive:
                assert g.kind == self._classify(g.size), f"group 2^{k} kind stale"
            if g.kind != KIND_DENSE:
                np.testing.assert_array_equal(g.members_array(), expect)
        fr = self._fracs.view()
        dec = np.nonzero(fr > 0)[0]
        if len(dec) == 0:
            assert self._decimal is None
        else:
            assert self._decimal is not None
            np.testing.assert_array_equal(self._decimal.members_array(), dec)
            assert abs(self._decimal.weight() - fr[dec].sum()) < 1e-9 * max(1, d)
        # Inter-group weights match Eq. 4 recomputed from scratch.
        if d:
            W = bits.group_weights(ints)
            for key, g in self._groups.items():
                assert g.weight() == W[key], f"W(p_{key}) mismatch"
