"""Self-check: per-layer counts do not depend on the string hash seed.

    python3 bench/determinism.py

Runs the traced benchmark on seed 1 twice per workload, under PYTHONHASHSEED=1 and
PYTHONHASHSEED=2, one run after the other, and compares every per-layer
metric whose unit is `count`.  Counts are per-request means over whole
repeats of the seed's first block, so they repeat exactly when the program
is deterministic.  Exits 1 and names the metrics that differ otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("learn-route", "normalize-route", "demos")
SEED = 1
# each traced phase must complete whole blocks, so it needs about twice the
# longest block (~6 s traced on normalize-route)
SECONDS = 24


def counts(workload: str, hash_seed: str) -> dict[str, float]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: incorrect answers under PYTHONHASHSEED={hash_seed}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    bad = 0
    for w in WORKLOADS:
        a = counts(w, "1")
        b = counts(w, "2")
        diff = sorted(k for k in a if a[k] != b.get(k))
        bad += len(diff)
        print(f"{w}: {len(a)} counts, {'identical' if not diff else 'differ: ' + ', '.join(diff)}")
        for k in diff:
            print(f"  {k}: {a[k]} vs {b.get(k)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
