"""The benchmark's workloads and their closed round loop.

Each workload runs in one process as a closed loop: a round applies one
update batch, then runs that round's walks, and the next round starts
when the last walk returns. The update plan and the walker draws come
from ``--seed``; generating inputs and checking outputs against the
oracle are not timed.

Update batches come from ``make_update_plan`` (mixed mode, the paper's
10 batches). After the 10 forward batches the loop applies their
inverses in reverse order (each delete re-inserts the edge with its
bias, each insert is deleted again) and then starts forward again, so a
run of any length keeps the graph near its initial size.
"""
from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

import numpy as np
import pandas as pd

from repro.core.store import BingoStore
from repro.graphs.updates import make_update_plan
from repro.synth_data import graph_edges
from repro.walk import deepwalk, node2vec, simple_sampling

from checks import Oracle, check_paths, check_segments, edge_mismatches
from tracing import Tracer, local_targets, spark_targets

#: Rounds every run makes, whatever ``--seconds`` says; the deterministic
#: counts are taken after these rounds.
MIN_ROUNDS = 2
#: The seed to re-check a claim on, besides the seeds it was made on.
RECHECK_SEED = 2
#: Update batches per plan (the paper's 10 x BATCHSIZE events, §6.1).
N_BATCHES = 10
#: Spark partitions (the 1-D vertex partitioning's device count).
N_PARTS = 4

_perf = time.perf_counter

#: ``calibrate()``'s time, in seconds, at the reference speed every
#: gated time is scaled to (about its time on an idle 4-vCPU x86-64 VM).
CAL_REF_S = 0.010
_CAL_IDX = np.random.default_rng(0).permutation(1 << 18)
_CAL_BIG = np.random.default_rng(1).integers(0, 1 << 22, size=1 << 22, dtype=np.int32)


def _cal_once() -> float:
    t0 = _perf()
    d = {}                                  # interpreter: dict and list work
    for i in range(20_000):
        d[i] = (i * 40503) & 1023
    lst = [d[i] + 1 for i in range(0, 20_000, 2)]
    lst.sort()
    a = _CAL_IDX[_CAL_IDX]                  # numpy: gather and scatter-add
    np.add.at(np.zeros(1024), a & 1023, 1.0)
    _CAL_BIG[_CAL_BIG[:200_000]]            # memory: random reads over 16 MB
    return _perf() - t0


def calibrate() -> float:
    """Seconds this process takes, right now, for a fixed piece of
    interpreter, numpy and memory work that does not touch the engine
    (the best of three tries, so a cold cache or one interrupt does not
    count).

    The host is shared: the same code runs up to 40% slower for seconds
    to minutes at a time. Each gated time is taken between two of these
    calls and multiplied by ``CAL_REF_S`` over their mean, which cancels
    that drift and keeps any change in the engine's own time.
    """
    return min(_cal_once() for _ in range(3))


def calibrate_all_cpus() -> float:
    """``calibrate()`` on each allowed CPU in turn, averaged: the speed that
    counts for work spread over every CPU, as Spark's is."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def ref_s(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` scaled to the reference speed by the calibrations
    taken just before and just after it."""
    return seconds * CAL_REF_S * 2 / (cal_before + cal_after)


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload. ``walk_app`` is the first-order kernel
    (``deepwalk``, or ``simple`` for one-hop sampling); node2vec runs
    after it when ``node2vec_walkers`` is set."""

    name: str
    engine: str                 # "local" (BingoStore) or "spark"
    graph: str                  # synth_data.GRAPH_SPECS key
    batch_size: int
    walkers: int
    length: int
    walk_app: str = "deepwalk"
    node2vec_walkers: int = 0
    node2vec_length: int = 80
    setup_repeats: int = 3


#: BENCHMARK.json lists the gated workloads and why each exists;
#: tw-walk is run by hand (perfbench/README.md says why it is not gated).
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "tw-walk", "local", "TW", batch_size=1000, walkers=1024, length=80,
            node2vec_walkers=512, node2vec_length=80,
            # One build takes 8-16 s at 1.04M edges (4-core x86-64 VM);
            # repeating it would not fit the run budget, so setup_s is
            # that single build here.
            setup_repeats=1,
        ),
        Workload(
            "lj-ingest", "local", "LJ", batch_size=5000, walkers=1024, length=1,
            walk_app="simple", node2vec_walkers=256, node2vec_length=5,
        ),
        Workload(
            "spark-go", "spark", "GO", batch_size=500, walkers=256, length=2,
            setup_repeats=7,
        ),
    ]
}


# -- inputs --------------------------------------------------------------------


def _inverse(batch: pd.DataFrame) -> pd.DataFrame:
    inv = batch.iloc[::-1].reset_index(drop=True)
    inv["op"] = -inv["op"]
    return inv


@dataclass
class Inputs:
    initial: pd.DataFrame
    forward: list
    backward: list = field(init=False)

    def __post_init__(self) -> None:
        self.backward = [_inverse(b) for b in reversed(self.forward)]

    def batch(self, r: int) -> pd.DataFrame:
        k = r % (2 * len(self.forward))
        n = len(self.forward)
        return self.forward[k] if k < n else self.backward[k - n]


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """The graph is the fixed lite dataset (``graph_edges``' own default
    seed, as in the paper tables); ``seed`` draws the split into initial
    edges and updates, the update order, and (in ``run``) the walkers."""
    edges = graph_edges(wl.graph)
    plan = make_update_plan(
        edges, batch_size=wl.batch_size, n_batches=N_BATCHES,
        mode="mixed", seed=seed,
    )
    return Inputs(plan.initial, plan.batches)


# -- engines -------------------------------------------------------------------


def _kind_counts(counter) -> dict:
    return {"->".join(k) if isinstance(k, tuple) else str(k): int(v)
            for k, v in sorted(counter.items())}


class LocalEngine:
    """``BingoStore`` driven through the ``repro.walk`` app kernels."""

    master = None
    calibrate = staticmethod(calibrate)  # a round runs on one CPU

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.store = None

    def build(self, initial: pd.DataFrame) -> None:
        self.store = None  # free the previous build before timing the next
        t0 = _perf()
        store = BingoStore(initial)
        self.setup_s = _perf() - t0
        self.store = store

    def update(self, batch: pd.DataFrame) -> None:
        self.store.apply_batch(batch)

    def walks(self, rng, r: int, seed: int):
        """Yield ``(kind, call, check)`` for each walk of round ``r``."""
        wl, store = self.wl, self.store
        if wl.walk_app == "simple":
            call = lambda: simple_sampling(store, rng, walkers=wl.walkers)  # noqa: E731
        else:
            call = lambda: deepwalk(store, rng, walkers=wl.walkers, length=wl.length)  # noqa: E731
        yield "deepwalk", call, lambda res, oracle: check_paths(oracle, res.paths)
        if wl.node2vec_walkers:
            yield (
                "node2vec",
                lambda: node2vec(store, rng, walkers=wl.node2vec_walkers,
                                 length=wl.node2vec_length),
                lambda res, oracle: check_paths(oracle, res.paths),
            )

    def conversions(self) -> int:
        return sum(self.store.conversion_stats()[0].values())

    def round_counts(self, r: int) -> dict:
        return {}

    def counts(self) -> dict:
        conv, _ = self.store.conversion_stats()
        return {
            "conversions": _kind_counts(conv),
            "group_kinds": _kind_counts(self.store.group_kind_histogram()),
            "memory_bytes": int(sum(self.store.memory_bytes())),
        }

    def edges(self) -> pd.DataFrame:
        return self.store.edges()

    def memory_bytes(self) -> int:
        return int(sum(self.store.memory_bytes()))

    def trace_targets(self):
        return local_targets()

    def close(self) -> None:
        self.store = None


def _proc_stat(pid) -> list[str] | None:
    """Fields after the command name in /proc/<pid>/stat, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid: int) -> list[int]:
    """Direct children of ``pid`` (Linux /proc; empty elsewhere)."""
    try:
        names = [n for n in os.listdir("/proc") if n.isdigit()]
    except OSError:
        return []
    return [int(n) for n in names if (st := _proc_stat(n)) and int(st[1]) == pid]


def _alive(pid: int) -> bool:
    """Running and not a zombie."""
    st = _proc_stat(pid)
    return st is not None and st[0] != "Z"


class SparkEngine:
    """``SparkBingoEngine`` on a local master with at most ``nproc`` task
    slots. The JVM, its Python workers and all scratch files stay inside
    ``scratch``; ``close`` stops them and waits until they have ended."""

    calibrate = staticmethod(calibrate_all_cpus)

    def __init__(self, wl: Workload, root: Path, scratch: Path) -> None:
        self.wl = wl
        self.engine = None
        self._saved_env = dict(os.environ)
        self._saved_tempdir = tempfile.tempdir
        slots = min(N_PARTS, len(os.sched_getaffinity(0)))
        self.master = f"local[{slots}]"
        tmp = scratch / "tmp"
        for d in (tmp, scratch / "local"):
            d.mkdir(parents=True, exist_ok=True)
        src = str(root / "src")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        os.environ["PYSPARK_PYTHON"] = sys.executable
        os.environ["TMPDIR"] = str(tmp)
        os.environ["SPARK_LOCAL_DIRS"] = str(scratch / "local")
        # Also reaches the launcher JVM that spark-submit starts first.
        os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
        os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join([
            "--master", self.master,
            "--driver-memory", "1g",
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", "spark.ui.showConsoleProgress=false",
            "--conf", f"spark.sql.warehouse.dir={scratch / 'warehouse'}",
            "pyspark-shell",
        ])
        tempfile.tempdir = str(tmp)
        from pyspark.sql import SparkSession

        t0 = _perf()
        # Same session settings as the test fixture (conftest.py).
        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        # Start the Python workers before anything is timed.
        warm = pd.DataFrame({"pid": np.arange(N_PARTS, dtype=np.int64)})
        (self.spark.createDataFrame(warm).groupBy("pid")
         .applyInPandas(lambda key, part: part, "pid long").collect())
        self.start_s = _perf() - t0
        self._before: dict = {}

    def build(self, initial: pd.DataFrame) -> None:
        from repro.spark.engine import SparkBingoEngine

        self.engine = None
        t0 = _perf()
        engine = SparkBingoEngine(self.spark, initial, n_parts=N_PARTS)
        self.setup_s = _perf() - t0
        self.engine = engine

    def update(self, batch: pd.DataFrame) -> None:
        self._before = dict(self.engine._state)
        self.engine.apply_updates(batch)

    def walks(self, rng, r: int, seed: int):
        wl, engine = self.wl, self.engine
        verts = engine.vertices()
        starts = rng.choice(verts, size=min(wl.walkers, len(verts)), replace=False)
        self.spark.sparkContext.setJobGroup(f"walk-{r}", "perfbench walk")
        yield (
            "deepwalk",
            lambda: engine.walk(starts=starts, length=wl.length, seed=seed * 1_000_003 + r),
            lambda seg, oracle: check_segments(oracle, seg, starts, wl.length),
        )

    def conversions(self) -> int:
        return 0  # the stores live in the executors between rounds

    def _state_bytes(self) -> int:
        # ``_state`` is the engine's driver-side {pid: pickled store} map,
        # the payload every update and walk round broadcasts; read only.
        return sum(len(b) for b in self.engine._state.values())

    def round_counts(self, r: int) -> dict:
        tracker = self.spark.sparkContext.statusTracker()
        state = self.engine._state
        return {
            "jobs": len(tracker.getJobIdsForGroup(f"walk-{r}")),
            "state_bytes": self._state_bytes(),
            "collected_bytes": sum(
                len(b) for pid, b in state.items() if self._before.get(pid) is not b
            ),
        }

    def counts(self) -> dict:
        conv = {}
        kinds = {}
        for pid in sorted(self.engine._state):
            store = self.engine.store_of(pid)
            for k, v in store.conversion_stats()[0].items():
                conv[k] = conv.get(k, 0) + v
            for k, v in store.group_kind_histogram().items():
                kinds[k] = kinds.get(k, 0) + v
        return {
            "conversions": _kind_counts(conv),
            "group_kinds": _kind_counts(kinds),
            "memory_bytes": self.memory_bytes(),
            "state_bytes": self._state_bytes(),
        }

    def edges(self) -> pd.DataFrame:
        return self.engine.edges()

    def memory_bytes(self) -> int:
        return int(sum(self.engine.memory_bytes()))

    def trace_targets(self):
        return spark_targets()

    def close(self) -> None:
        """Stop the session and the JVM, then wait for the JVM and its
        Python workers to end."""
        from pyspark import SparkContext

        self.engine = None
        gateway = SparkContext._gateway
        proc = getattr(gateway, "proc", None)
        workers = []
        if proc is not None:
            workers = [c for p in _children(proc.pid) for c in [p, *_children(p)]]
        try:
            self.spark.stop()
        finally:
            if gateway is not None:
                gateway.shutdown()
            if proc is not None:
                proc.stdin.close()
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            deadline = time.monotonic() + 30
            for pid in workers:
                while _alive(pid) and time.monotonic() < deadline:
                    time.sleep(0.1)
                if _alive(pid):
                    with suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
            SparkContext._gateway = None
            SparkContext._jvm = None
            os.environ.clear()
            os.environ.update(self._saved_env)
            tempfile.tempdir = self._saved_tempdir


@contextmanager
def open_engine(wl: Workload, root: Path, scratch: Path):
    engine = SparkEngine(wl, root, scratch) if wl.engine == "spark" else LocalEngine(wl)
    try:
        yield engine
    finally:
        engine.close()


# -- the round loop ------------------------------------------------------------


def _round(engine, oracle, batch, rng, r, seed, tracer, targets) -> dict:
    """One round. Every timed call sits between two ``calibrate()`` calls;
    ``*_s`` are wall seconds and ``*_ref_s`` the same scaled by ``ref_s``."""
    rec = {"round": r, "traced": tracer is not None, "events": len(batch),
           "walks": {}, "steps": 0, "failures": 0}
    if tracer is not None:
        tracer.round = r
        conv0 = engine.conversions()
    cal = [engine.calibrate()]
    with tracer.installed(targets) if tracer is not None else nullcontext():
        t0 = _perf()
        engine.update(batch)
        rec["update_s"] = _perf() - t0
        cal.append(engine.calibrate())
        rec["update_ref_s"] = ref_s(rec["update_s"], *cal[-2:])
        oracle.apply(batch)
        for kind, call, check in engine.walks(rng, r, seed):
            t0 = _perf()
            res = call()
            dt = _perf() - t0
            cal.append(engine.calibrate())
            steps, failures = check(res, oracle)
            rec["walks"][kind] = {"s": dt, "ref_s": ref_s(dt, *cal[-2:]), "steps": steps}
            rec["steps"] += steps
            rec["failures"] += failures
    rec["cal_s"] = cal
    for key in ("s", "ref_s"):
        rec[f"round_{key}"] = rec[f"update_{key}"] + sum(w[key] for w in rec["walks"].values())
    if tracer is not None:
        rec["conversions"] = engine.conversions() - conv0
        rec.update(engine.round_counts(r))
    return rec


def _median(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def end_to_end(rounds, setup, memory_bytes, key="ref_s") -> dict:
    """End-to-end metrics, from untraced rounds only. Times are scaled to
    the reference speed (``key="ref_s"``); ``key="s"`` gives them as wall
    seconds."""
    rs = [x for x in rounds if not x["traced"]]
    dw = [x["walks"]["deepwalk"] for x in rs]
    return {
        "setup_s": (_median(b[key] for b in setup), "s"),
        "round_s": (_median(x[f"round_{key}"] for x in rs), "s"),
        "update_events_per_s": (_median(x["events"] / x[f"update_{key}"] for x in rs), "1/s"),
        "deepwalk_steps_per_s": (_median(w["steps"] / w[key] for w in dw), "1/s"),
        "memory_mb": (memory_bytes / (1 << 20), "MB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, rounds) -> dict:
    """Per-layer metrics over the traced rounds; a layer the workload does
    not run reads 0. Counts and seconds are per round unless the unit
    says otherwise."""
    traced = [x for x in rounds if x["traced"]]
    untraced = [x for x in rounds if not x["traced"]]
    n = max(1, len(traced))
    g = tracer.get

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(key):
        return ratio(sum(x.get(key, 0) for x in traced), n)

    selfs = tracer.layer_self_s()
    draws = g("vertex.sample_dst", 3) + g("vertex.sample_dst_one")
    n2v_steps = g("node2vec:walk.random_walk", 3)
    walk_rounds = g("spark.walk:spark.createDataFrame")
    overhead = ratio(_median(x["round_ref_s"] for x in traced),
                     _median(x["round_ref_s"] for x in untraced))
    return {
        "store.sample_next.calls": (g("store.sample_next") / n, "calls/round"),
        "store.sample_next.walkers": (g("store.sample_next", 3) / n, "walkers/round"),
        "store.sample_next.us_per_walker": (
            1e6 * ratio(g("store.sample_next", 1), g("store.sample_next", 3)), "us"),
        "store.sample_next.dispatch_us": (
            1e6 * ratio(g("store.sample_next", 2), g("store.sample_next", 3)), "us/walker"),
        "store.apply_batch.us_per_event": (
            1e6 * ratio(g("store.apply_batch", 1), g("store.apply_batch", 3)), "us"),
        "store.resolve_net_effects.s": (g("store.resolve_net_effects", 1) / n, "s/round"),
        "store.has_edge.calls": (g("store.has_edge") / n, "calls/round"),
        "store.has_edge.us_per_call": (
            1e6 * ratio(g("store.has_edge", 1), g("store.has_edge")), "us"),
        "store.self_s": (selfs.get("store", 0.0) / n, "s/round"),
        "vertex.sample_dst.calls": (g("vertex.sample_dst") / n, "calls/round"),
        "vertex.sample_dst_one.calls": (g("vertex.sample_dst_one") / n, "calls/round"),
        "vertex.sample.us_per_draw": (
            1e6 * ratio(g("vertex.sample_dst", 1) + g("vertex.sample_dst_one", 1), draws),
            "us"),
        "vertex.self_s": (selfs.get("vertex", 0.0) / n, "s/round"),
        "batched.apply_vertex_batch.calls": (
            g("batched.apply_vertex_batch") / n, "calls/round"),
        "batched.apply_vertex_batch.us_per_vertex": (
            1e6 * ratio(g("batched.apply_vertex_batch", 1), g("batched.apply_vertex_batch")),
            "us"),
        "batched.events_per_vertex": (
            ratio(g("batched.apply_vertex_batch", 3), g("batched.apply_vertex_batch")),
            "events"),
        "batched.conversions": (mean("conversions"), "count/round"),
        "batched.self_s": (selfs.get("batched", 0.0) / n, "s/round"),
        "walk.random_walk.self_s": (g("walk.random_walk", 2) / n, "s/round"),
        "walk.node2vec.steps": (n2v_steps / n, "steps/round"),
        "walk.node2vec.steps_per_s": (
            ratio(n2v_steps, g("node2vec:walk.random_walk", 1)), "1/s"),
        "walk.node2vec.trials_per_step": (
            ratio(g("node2vec:store.sample_next", 3), n2v_steps), "draws/step"),
        "walk.node2vec.has_edge_per_step": (
            ratio(g("node2vec:store.has_edge"), n2v_steps), "calls/step"),
        "spark.apply_updates.s": (g("spark.apply_updates", 1) / n, "s/round"),
        "spark.apply_updates.collected_bytes": (mean("collected_bytes"), "B/round"),
        "spark.state_bytes": (mean("state_bytes"), "B"),
        "spark.walk.s": (g("spark.walk", 1) / n, "s/round"),
        "spark.walk.rounds": (ratio(walk_rounds, g("spark.walk")), "rounds/walk"),
        "spark.walk.jobs": (ratio(sum(x.get("jobs", 0) for x in traced), g("spark.walk")),
                            "jobs/walk"),
        "spark.walk.s_per_round": (ratio(g("spark.walk", 1), walk_rounds), "s"),
        "spark.walk.segment_rows": (ratio(g("spark.walk", 3), g("spark.walk")), "rows/walk"),
        "spark.self_s": (selfs.get("spark", 0.0) / n, "s/round"),
        "trace.overhead_pct": (100.0 * (overhead - 1.0) if overhead else 0.0, "%"),
    }


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: Path, seed: int, master) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "spark_master": master,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pd.__version__,
        "pyspark": version("pyspark"),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "seed": seed,
        "recheck_seed": RECHECK_SEED,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _trace_counts(tracer: Tracer | None) -> dict:
    if tracer is None:
        return {}
    g = tracer.get
    return {
        "node2vec_draws": g("node2vec:store.sample_next", 3),
        "node2vec_steps": g("node2vec:walk.random_walk", 3),
        "node2vec_has_edge": g("node2vec:store.has_edge"),
        "spark_walk_rounds": g("spark.walk:spark.createDataFrame"),
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path,
        scratch: Path) -> dict:
    """Run one workload; returns the full record (metrics, rounds, counts,
    environment and, when traced, spans).

    With ``trace`` the odd rounds run with the tracer installed and the
    even ones without, so the run measures its own tracing overhead.
    """
    inputs = make_inputs(wl, seed)
    rng = np.random.default_rng([seed, 1])
    tracer = Tracer() if trace else None
    with open_engine(wl, root, scratch) as engine:
        setup = []
        for _ in range(wl.setup_repeats):
            gc.collect()
            cal0 = engine.calibrate()
            engine.build(inputs.initial)
            cal1 = engine.calibrate()
            setup.append({"s": engine.setup_s, "ref_s": ref_s(engine.setup_s, cal0, cal1),
                          "cal_s": [cal0, cal1]})
        targets = engine.trace_targets() if trace else None
        oracle = Oracle(inputs.initial)
        rounds, counts = [], {}
        measured = 0.0
        cpus = sorted(os.sched_getaffinity(0))
        try:
            while len(rounds) < MIN_ROUNDS or measured < seconds:
                r = len(rounds)
                on = tracer if trace and r % 2 == 1 else None
                # Each round starts from an empty collector (so a round pays for
                # the garbage it makes, not for earlier untimed work), and local
                # rounds rotate over the allowed CPUs, whose speeds differ from
                # moment to moment on a shared host.
                if wl.engine == "local":
                    os.sched_setaffinity(0, {cpus[r % len(cpus)]})
                gc.collect()
                rec = _round(engine, oracle, inputs.batch(r), rng, r, seed, on, targets)
                rounds.append(rec)
                measured += rec["round_s"]
                if r == MIN_ROUNDS - 1:
                    # Deterministic for a seed: the first MIN_ROUNDS rounds do
                    # not depend on timing, and round 1 is the traced one.
                    counts = {"after_rounds": MIN_ROUNDS, **engine.counts(),
                              **_trace_counts(tracer)}
        finally:
            os.sched_setaffinity(0, cpus)
        final_failures = edge_mismatches(engine.edges(), oracle.edges)
        memory = engine.memory_bytes()
        env = environment(root, seed, engine.master)
        spark_start_s = getattr(engine, "start_s", None)
    attempted = sum(x["events"] + x["steps"] for x in rounds)
    failed = sum(x["failures"] for x in rounds) + final_failures
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "environment": env,
        "spark_start_s": spark_start_s,
        "setup_s": setup,
        "rounds": rounds,
        "counts": counts,
        "attempted": attempted,
        "failed": failed,
        "final_edge_mismatches": final_failures,
        "failed_frac": failed / attempted,
        "end_to_end": end_to_end(rounds, setup, memory),
        "end_to_end_wall": end_to_end(rounds, setup, memory, key="s"),
    }
    if tracer is not None:
        record["per_layer"] = per_layer(tracer, rounds)
        record["layer_self_s"] = tracer.layer_self_s()
        record["stats"] = tracer.stats
        record["spans"] = tracer.spans
    return record


def write_record(record: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (
        f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    )
    path.write_text(json.dumps(record, default=float))
    return path
