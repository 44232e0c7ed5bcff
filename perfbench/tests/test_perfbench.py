"""Tests of the benchmark itself: the oracle checks catch corrupted
output, the update cycle is valid, each workload runs at tiny scale with
no failure and reports exactly the metrics BENCHMARK.json names, and the
deterministic counts repeat for a seed.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

import workloads
from checks import Oracle, check_paths, check_segments, edge_mismatches
from repro.core.store import BingoStore
from repro.graphs.updates import apply_updates
from tracing import Tracer, local_targets

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# 0 -> 1 -> 2 -> 3 (dead end), 0 -> 2, 1 -> 0
EDGES = pd.DataFrame({"src": [0, 0, 1, 1, 2], "dst": [1, 2, 2, 0, 3],
                      "bias": [1, 2, 3, 4, 5]})


def test_check_paths_accepts_valid_and_flags_corruption():
    oracle = Oracle(EDGES)
    paths = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, -1, -1]])
    assert check_paths(oracle, paths) == (7, 0)

    bad = paths.copy()
    bad[0, 2] = 3                       # 1 -> 3 is not an edge
    assert check_paths(oracle, bad)[1] >= 1

    gap = paths.copy()
    gap[2, 3] = 1                       # a step after the walker ended
    assert check_paths(oracle, gap)[1] >= 1

    early = np.array([[0, 1, -1, -1]])  # stopped at 1, which has out-edges
    assert check_paths(oracle, early) == (1, 1)


def test_check_paths_uses_the_rounds_edge_set():
    oracle = Oracle(EDGES)
    paths = np.array([[0, 1, 2, 3]])
    oracle.apply(pd.DataFrame({"op": [-1], "src": [1], "dst": [2], "bias": [3]}))
    assert check_paths(oracle, paths)[1] == 1


def test_check_segments_flags_corruption():
    oracle = Oracle(EDGES)
    starts = [0, 2]
    seg = pd.DataFrame({"walker": [0, 0, 0, 1, 1], "step": [0, 1, 2, 0, 1],
                        "vertex": [0, 1, 2, 2, 3]})
    assert check_segments(oracle, seg, starts, length=2) == (3, 0)

    wrong_edge = seg.assign(vertex=[0, 1, 3, 2, 3])
    assert check_segments(oracle, wrong_edge, starts, 2)[1] >= 1
    wrong_start = seg.assign(vertex=[1, 2, 3, 2, 3])
    assert check_segments(oracle, wrong_start, starts, 2)[1] >= 1
    skipped = seg.assign(step=[0, 1, 3, 0, 1])
    assert check_segments(oracle, skipped, starts, 3)[1] >= 1
    missing_walker = seg[seg["walker"] == 0]
    assert check_segments(oracle, missing_walker, starts, 2)[1] >= 1


def test_edge_mismatches_flags_a_wrong_final_edge_set():
    assert edge_mismatches(EDGES.sample(frac=1, random_state=0), EDGES) == 0
    assert edge_mismatches(EDGES.iloc[1:], EDGES) == 1
    assert edge_mismatches(EDGES.assign(bias=[1, 2, 3, 4, 6]), EDGES) == 2


def test_update_cycle_returns_to_the_initial_graph():
    wl = replace(workloads.WORKLOADS["lj-ingest"], graph="AM", batch_size=200)
    inputs = workloads.make_inputs(wl, seed=3)
    cycle = [inputs.batch(r) for r in range(2 * workloads.N_BATCHES)]
    store = BingoStore(inputs.initial)
    for b in cycle:
        store.apply_batch(b)            # raises on any invalid event
    assert edge_mismatches(store.edges(), inputs.initial) == 0
    assert edge_mismatches(apply_updates(inputs.initial, cycle), inputs.initial) == 0
    assert inputs.batch(2 * workloads.N_BATCHES).equals(inputs.batch(0))


def test_ref_s_scales_by_the_calibrations_around_a_call():
    ref = workloads.CAL_REF_S
    assert workloads.ref_s(2.0, ref, ref) == pytest.approx(2.0)
    # a host running at half speed doubles the wall time and the calibration
    assert workloads.ref_s(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert workloads.ref_s(3.0, ref, 2 * ref) == pytest.approx(2.0)
    assert workloads.calibrate() > 0 and workloads.calibrate_all_cpus() > 0


def test_tracer_restores_the_engine():
    from repro.core.store import BingoStore as S

    before = S.__dict__["sample_next"]
    tracer = Tracer()
    with tracer.installed(local_targets()):
        assert S.__dict__["sample_next"] is not before
        store = S(EDGES)
        store.sample_next(np.random.default_rng(0), np.array([0, 0, 1]))
    assert S.__dict__["sample_next"] is before
    assert tracer.get("store.sample_next", 3) == 3
    assert tracer.get("vertex.sample_dst") + tracer.get("vertex.sample_dst_one") == 2


TINY = {
    "tw-walk": dict(graph="GO", batch_size=50, walkers=32, length=5,
                    node2vec_walkers=16, node2vec_length=5),
    "lj-ingest": dict(graph="GO", batch_size=200, walkers=64, setup_repeats=2),
    "spark-go": dict(graph="AM", batch_size=50, walkers=16, setup_repeats=1),
}


def _tiny_run(name, seed, trace, tmp_path):
    wl = replace(workloads.WORKLOADS[name], **TINY[name])
    return workloads.run(wl, seed, 0.0, trace, root=ROOT, scratch=tmp_path)


@pytest.mark.parametrize("name", ["tw-walk", "lj-ingest", "spark-go"])
def test_tiny_smoke_run(name, tmp_path):
    rec = _tiny_run(name, 5, True, tmp_path)
    assert rec["failed"] == 0 and rec["attempted"] > 0
    assert len(rec["rounds"]) == workloads.MIN_ROUNDS
    assert set(rec["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(rec["end_to_end_wall"]) == set(rec["end_to_end"])
    assert set(rec["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name_, (value, unit) in {**rec["end_to_end"], **rec["per_layer"]}.items():
        assert units[name_] == unit
        assert np.isfinite(value)
    assert all(v[0] > 0 for v in rec["end_to_end"].values())
    spans = rec["spans"]
    assert spans and all(s[5] == 1 for s in spans)   # only round 1 is traced
    if name == "spark-go":
        assert rec["per_layer"]["spark.walk.rounds"][0] >= 1
        assert rec["counts"]["state_bytes"] > 0
    else:
        assert rec["per_layer"]["store.sample_next.walkers"][0] > 0
        assert rec["per_layer"]["batched.apply_vertex_batch.calls"][0] > 0


def test_counts_repeat_for_a_seed(tmp_path):
    a = _tiny_run("tw-walk", 7, True, tmp_path)["counts"]
    b = _tiny_run("tw-walk", 7, True, tmp_path)["counts"]
    assert a == b
    assert a["node2vec_steps"] > 0 and a["node2vec_draws"] >= a["node2vec_steps"]


def test_cli_fails_without_the_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tw-walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
