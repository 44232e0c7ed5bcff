"""Parallel batched updates (paper §5.2): the two-phase delete-and-swap
kernel and the per-vertex insert→delete→rebuild batch path."""
import numpy as np
import pandas as pd
import pytest

from repro.core import BingoStore, BingoVertex
from repro.core.bits import bit_positions
from repro.core.batched import apply_vertex_batch, batched_delete, plan_two_phase_delete
from repro.core.store import resolve_net_effects
from repro.graphs.updates import make_update_plan, apply_updates
from repro.synth_data import graph_edges
from tests.util import assert_distribution, rng


class TestTwoPhasePlan:
    def test_empty(self):
        slots, fillers, nd = plan_two_phase_delete(5, [])
        assert len(slots) == 0 and len(fillers) == 0 and nd == 5

    def test_all_front(self):
        slots, fillers, nd = plan_two_phase_delete(6, [0, 1])
        np.testing.assert_array_equal(slots, [0, 1])
        np.testing.assert_array_equal(fillers, [4, 5])
        assert nd == 4

    def test_all_tail_gamma_equals_n(self):
        # Phase (i) handles every doomed element; no fills needed.
        slots, fillers, nd = plan_two_phase_delete(6, [4, 5])
        assert len(slots) == 0 and len(fillers) == 0 and nd == 4

    def test_paper_fig10b_mix(self):
        # Doomed front slot must NOT be filled by a doomed tail element.
        slots, fillers, nd = plan_two_phase_delete(10, [0, 9, 5, 7])
        np.testing.assert_array_equal(slots, [0, 5])
        np.testing.assert_array_equal(fillers, [6, 8])
        assert nd == 6

    def test_fillers_never_deleted(self):
        g = rng(1)
        for _ in range(50):
            d = int(g.integers(2, 40))
            n = int(g.integers(1, d))
            dels = g.choice(d, size=n, replace=False)
            slots, fillers, nd = plan_two_phase_delete(d, dels)
            assert nd == d - n
            assert len(slots) == len(fillers)
            assert not np.isin(fillers, dels).any()
            assert (fillers >= nd).all()
            assert (slots < nd).all()

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            plan_two_phase_delete(5, [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            plan_two_phase_delete(5, [5])

    def test_delete_everything(self):
        slots, fillers, nd = plan_two_phase_delete(4, [0, 1, 2, 3])
        assert nd == 0 and len(slots) == 0

    def test_apply_semantics_match_sequential(self):
        # Applying the plan to an array equals any order of pop_swap-free
        # multiset deletion.
        g = rng(2)
        for _ in range(30):
            d = int(g.integers(2, 30))
            arr = g.integers(0, 1000, d)
            n = int(g.integers(1, d))
            dels = g.choice(d, size=n, replace=False)
            slots, fillers, nd = plan_two_phase_delete(d, dels)
            out = arr.copy()
            out[slots] = out[fillers]
            survivors = sorted(np.delete(arr, dels).tolist())
            assert sorted(out[:nd].tolist()) == survivors


class TestBatchedVertexOps:
    def test_batched_delete_matches_streaming(self):
        g = rng(3)
        biases = g.integers(1, 256, 30)
        dsts = np.arange(30) + 10
        v_batch = BingoVertex(dsts, biases)
        v_stream = BingoVertex(dsts, biases)
        victims = [int(d) for d in g.choice(dsts, size=12, replace=False)]
        batched_delete(v_batch, victims)
        v_batch._finalize_update()
        for d in victims:
            v_stream.delete(d)
        v_batch.check_invariants()
        assert v_batch.degree == v_stream.degree
        assert sorted(v_batch.neighbors_view()) == sorted(v_stream.neighbors_view())
        assert v_batch.total_weight == v_stream.total_weight

    def test_apply_vertex_batch_insert_then_delete(self):
        v = BingoVertex([1, 2, 3], [4, 5, 6])
        apply_vertex_batch(v, [(7, 8), (9, 2)], [1, 3])
        v.check_invariants()
        assert sorted(v.neighbors_view()) == [2, 7, 9]
        assert v.total_weight == 15

    def test_single_rebuild_distribution(self):
        g = rng(4)
        biases = g.integers(1, 64, 20)
        v = BingoVertex(np.arange(20), biases)
        apply_vertex_batch(v, [(100, 32), (101, 7)], [0, 5, 19])
        v.check_invariants()
        dsts = sorted(int(x) for x in v.neighbors_view())
        probs = np.array([v.weight_of(v.index_of(d)) for d in dsts], dtype=float)
        draws = v.sample_dst(rng(5), 60_000)
        remap = {d: i for i, d in enumerate(dsts)}
        mapped = np.array([remap[int(x)] for x in draws])
        assert_distribution(mapped, probs / probs.sum())

    def test_float_vertex_batch(self):
        v = BingoVertex([1, 2, 3], [0.5, 1.5, 2.5], float_bias=True, lam=100.0)
        apply_vertex_batch(v, [(4, 0.25)], [2])
        v.check_invariants()
        assert sorted(v.neighbors_view()) == [1, 3, 4]


class TestNetEffects:
    def test_plain_insert_delete(self):
        batch = pd.DataFrame(
            {"op": [1, -1], "src": [0, 1], "dst": [5, 6], "bias": [2, 0]}
        )
        present = {(1, 6)}
        ins, dels = resolve_net_effects(lambda u, v: (u, v) in present, batch)
        assert ins == {0: [(5, 2)]}
        assert dels == {1: [6]}

    def test_insert_then_delete_cancels(self):
        batch = pd.DataFrame(
            {"op": [1, -1], "src": [0, 0], "dst": [5, 5], "bias": [2, 0]}
        )
        ins, dels = resolve_net_effects(lambda u, v: False, batch)
        assert ins == {} and dels == {}

    def test_delete_then_reinsert_becomes_update(self):
        batch = pd.DataFrame(
            {"op": [-1, 1], "src": [0, 0], "dst": [5, 5], "bias": [0, 9]}
        )
        # Edge was present: net effect is nil presence-wise; our semantics
        # treat it as no net change (bias updates need explicit support).
        ins, dels = resolve_net_effects(lambda u, v: True, batch)
        assert dels == {}

    def test_double_insert_rejected(self):
        batch = pd.DataFrame(
            {"op": [1, 1], "src": [0, 0], "dst": [5, 5], "bias": [2, 2]}
        )
        with pytest.raises(KeyError):
            resolve_net_effects(lambda u, v: False, batch)

    def test_delete_missing_rejected(self):
        batch = pd.DataFrame({"op": [-1], "src": [0], "dst": [5], "bias": [0]})
        with pytest.raises(KeyError):
            resolve_net_effects(lambda u, v: False, batch)


class TestAtomicBatch:
    """A rejected batch raises before any vertex changes. apply_batch used
    to validate biases per vertex, so the events of vertices it reached
    before the bad one stayed applied."""

    @pytest.mark.parametrize("float_bias, bad", [
        (False, (1, 1, 2, -1)),    # negative bias
        (False, (1, 1, 2, 1.5)),   # non-integer bias in integer mode
        (True, (1, 1, 2, 0.0)),    # zero bias
        (False, (7, 1, 2, 1)),     # unknown op
    ], ids=["negative", "non-integer", "zero-float", "unknown-op"])
    def test_rejected_batch_leaves_store_unchanged(self, float_bias, bad):
        store = BingoStore(
            pd.DataFrame({"src": [0, 1], "dst": [1, 0], "bias": [2, 3]}),
            float_bias=float_bias,
        )
        before = store.edges()
        batch = pd.DataFrame([(1, 0, 2, 3), bad], columns=["op", "src", "dst", "bias"])
        with pytest.raises(ValueError):
            store.apply_batch(batch)
        pd.testing.assert_frame_equal(store.edges(), before)
        store.check_invariants()


class TestScaledBiasFits:
    """In float mode a bias is stored as int64 ``floor(bias·λ)`` plus a
    fraction. An insert whose ``bias·λ`` did not fit int64 raised
    ``OverflowError`` after the row had taken the edge, leaving a vertex of
    degree 2 with one integer part; it must raise before any change."""

    @staticmethod
    def store():
        # λ = 10 for the 0.3 bias.
        return BingoStore(pd.DataFrame({"src": [0, 1], "dst": [1, 0], "bias": [0.3, 2.0]}),
                          float_bias=True)

    @staticmethod
    def assert_unchanged(store, edges, mem):
        pd.testing.assert_frame_equal(store.edges(), edges)
        assert store.memory_bytes() == mem
        v = store.vertex(0)
        assert v.degree == len(v._ints) == 1
        assert not store.has_edge(0, 2)
        store.check_invariants()

    @pytest.mark.parametrize("apply", ["apply_batch", "apply_stream"])
    def test_rejected_before_any_change(self, apply):
        store = self.store()
        assert store.vertex(0).lam == 10.0
        edges, mem = store.edges(), store.memory_bytes()
        batch = pd.DataFrame({"op": [1], "src": [0], "dst": [2], "bias": [1e18]})
        with pytest.raises(ValueError, match="int64"):
            getattr(store, apply)(batch)
        self.assert_unchanged(store, edges, mem)

    def test_batch_is_atomic(self):
        # Vertex 1's insert comes first and is valid; it must not apply.
        store = self.store()
        edges, mem = store.edges(), store.memory_bytes()
        batch = pd.DataFrame({"op": [1, 1], "src": [1, 0], "dst": [2, 2],
                              "bias": [1.5, 1e18]})
        with pytest.raises(ValueError, match="int64"):
            store.apply_batch(batch)
        self.assert_unchanged(store, edges, mem)

    def test_new_source_checked_with_its_own_lambda(self):
        # A new source takes λ = 1 from its inserts, so 1e18 fits and
        # 1e19 (> 2^63) does not; the rejected batch creates no vertex.
        store = self.store()
        store.apply_batch(pd.DataFrame({"op": [1], "src": [5], "dst": [0], "bias": [1e18]}))
        assert store.vertex(5).lam == 1.0
        store.check_invariants()
        with pytest.raises(ValueError, match="int64"):
            store.apply_batch(pd.DataFrame({"op": [1], "src": [6], "dst": [0],
                                            "bias": [1e19]}))
        assert store.vertex(6) is None

    def test_stream_to_new_source_leaves_no_row(self):
        store = self.store()
        edges, mem = store.edges(), store.memory_bytes()
        with pytest.raises(ValueError, match="int64"):
            store.apply_stream(pd.DataFrame({"op": [1], "src": [7], "dst": [0],
                                             "bias": [1e19]}))
        assert store.vertex(7) is None
        self.assert_unchanged(store, edges, mem)

    def test_build_rejects_unfit_bias(self):
        with pytest.raises(ValueError, match="int64"):
            BingoVertex([1], [1e19], float_bias=True)


class TestNewFloatVertex:
    """A source vertex that a batch creates on a float store takes λ from
    the biases the batch brings. It used to get λ = 1e10, and a 1e9 bias
    overflowed int64 after the empty row had been created."""

    def test_large_bias_on_new_source(self):
        store = BingoStore(
            pd.DataFrame({"src": [0], "dst": [1], "bias": [0.5]}), float_bias=True,
        )
        batch = pd.DataFrame({"op": [1, 1], "src": [5, 5], "dst": [0, 1],
                              "bias": [1e9, 2.5]})
        store.apply_batch(batch)
        store.check_invariants()
        v = store.vertex(5)
        assert v.lam == 1.0
        # Groups: the bits of 10**9 and of int(2.5) = 2, and the decimal 0.5.
        assert set(v.group_kinds()) == set(bit_positions(10**9)) | {1, -1}
        pd.testing.assert_frame_equal(
            store.edges(), apply_updates(pd.DataFrame(
                {"src": [0], "dst": [1], "bias": [0.5]}), [batch]),
            check_dtype=False,
        )
        draws = v.sample(rng(11), 200_000)
        assert (draws == 1).mean() < 1e-4  # 2.5 / (1e9 + 2.5)

    def test_lambda_meets_bound_for_batch_biases(self):
        store = BingoStore(
            pd.DataFrame({"src": [0], "dst": [1], "bias": [0.5]}), float_bias=True,
        )
        biases = [0.31, 0.77, 0.05, 1.29]
        store.apply_batch(pd.DataFrame({"op": 1, "src": 3, "dst": [10, 11, 12, 13],
                                        "bias": biases}))
        v = store.vertex(3)
        v.check_invariants()
        dec = v.group(-1)
        assert (0.0 if dec is None else dec.weight()) / v.total_weight < 1 / v.degree
        assert v.lam < 1e4
        draws = v.sample(rng(12), 80_000)
        assert_distribution(draws, np.array(biases) / sum(biases))


@pytest.mark.parametrize("mode", ["insertion", "deletion", "mixed"])
class TestStoreEquivalence:
    """Batched path == streaming path == pandas ground truth, per §6.1
    update workloads on a lite graph."""

    def test_paths_agree(self, mode):
        edges = graph_edges("AM").head(4000)
        plan = make_update_plan(edges, batch_size=100, n_batches=3, mode=mode, seed=5)
        st_s = BingoStore(plan.initial)
        st_b = BingoStore(plan.initial)
        for b in plan.batches:
            st_s.apply_stream(b)
            st_b.apply_batch(b)
        st_s.check_invariants()
        st_b.check_invariants()
        truth = apply_updates(plan.initial, plan.batches)
        for st in (st_s, st_b):
            got = st.edges()
            pd.testing.assert_frame_equal(
                got.astype({"src": np.int64, "dst": np.int64}),
                truth.astype({"src": np.int64, "dst": np.int64}),
                check_dtype=False,
            )
