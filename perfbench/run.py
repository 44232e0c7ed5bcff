"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload tw-walk --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the engine from ``src/``.
It prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones (untraced); with
``--trace 1`` they are the per-layer ones. The full record (environment,
rounds, deterministic counts and, when traced, spans) is written to
``perfbench/out/``. The exit code is 0 only when every output checked
against the oracle was correct.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _pin_threads() -> None:
    """One BLAS/OpenMP thread, so the load stays within ``nproc``; set
    before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _fmt(name, value, unit) -> str:
    return f"{name:44s} {value:>16.6g} {unit}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no engine sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    rec = workloads.run(wl, args.seed, args.seconds, bool(args.trace),
                        root=ROOT, scratch=OUT / "spark")
    path = workloads.write_record(rec, OUT)

    rounds = rec["rounds"]
    print(json.dumps({"environment": rec["environment"]}))
    print(json.dumps({"counts": rec["counts"]}))
    print(f"workload {wl.name}: {len(rounds)} rounds "
          f"({sum(not x['traced'] for x in rounds)} untraced), "
          f"setup repeats {len(rec['setup_s'])}, record {path.relative_to(ROOT)}")
    if rec["spark_start_s"] is not None:
        print(_fmt("spark_start_s (session + workers, not gated)",
                   rec["spark_start_s"], "s"))
    shown = dict(rec["end_to_end"])
    if args.trace:
        shown.update(rec["per_layer"])
    for name, (value, unit) in shown.items():
        print(_fmt(name, value, unit))
    for name, (value, unit) in rec["end_to_end_wall"].items():
        if unit in ("s", "1/s"):
            print(_fmt(f"{name} (wall clock, not gated)", value, unit))
    print(_fmt("failed_frac", rec["failed_frac"], f"of {rec['attempted']} ops"))
    reported = rec["per_layer"] if args.trace else rec["end_to_end"]
    correct = rec["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
