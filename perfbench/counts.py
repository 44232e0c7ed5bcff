"""Regenerate ``perfbench/counts.json``: the deterministic counts of each
workload after its first ``MIN_ROUNDS`` rounds, for the main seed and the
re-check seed, so a later change can cite them exactly.

    python3 perfbench/counts.py

Counts (group conversions, group-kind census, memory bytes, node2vec
draws and has_edge calls, Spark rounds and state bytes) depend only on
the code and the seed, never on timing.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

from run import OUT, ROOT, _pin_threads


def main() -> int:
    _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    seeds = [1, workloads.RECHECK_SEED]
    out: dict = {}
    for name, wl in workloads.WORKLOADS.items():
        for seed in seeds:
            rec = workloads.run(replace(wl, setup_repeats=1), seed, 0.0, True,
                                root=ROOT, scratch=OUT / "spark")
            if rec["failed"]:
                print(f"{name} seed {seed}: {rec['failed']} failed checks", file=sys.stderr)
                return 1
            out.setdefault(name, {})[str(seed)] = rec["counts"]
            print(name, seed, json.dumps(rec["counts"]), flush=True)
    path = Path(__file__).resolve().parent / "counts.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
