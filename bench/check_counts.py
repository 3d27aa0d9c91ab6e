"""Deterministic-count self-check: run the traced benchmark twice at one seed
and require every count it reports (the metrics with unit ``count`` or
``bytes``: calls, tables, yielded, items, perms_found, perms_scanned, exit
codes, catalog bytes) to be exactly equal.

    python3 bench/check_counts.py --workload NAME [--seed N] [--seconds S]

Exits 0 when every count repeats, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def counts(workload: str, seed: int, seconds: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] in ("count", "bytes")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    first = counts(args.workload, args.seed, args.seconds)
    second = counts(args.workload, args.seed, args.seconds)
    differ = sorted(k for k in first if first[k] != second.get(k))
    for name in sorted(first):
        mark = "DIFFERS" if name in differ else "same"
        print(f"{name:<50} {first[name]:>12} {second.get(name)!s:>12} {mark}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
