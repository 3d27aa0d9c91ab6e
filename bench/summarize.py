"""Summarize untraced runs: for each workload and each end-to-end or
wall-clock metric, the median over seeds, the quartiles, and the spread
(quartile distance over median), read from the records that bench/run.py
writes to bench/out/.

    python3 bench/summarize.py [--out FILE]

Prints one JSON document; --out also writes it to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize() -> dict:
    values: dict = defaultdict(lambda: defaultdict(list))
    seeds: dict = defaultdict(list)
    facts: dict = {}
    for path in sorted(OUT.glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        workload = record["workload"]
        seeds[workload].append(record["seed"])
        facts = {k: record[k] for k in ("python", "nproc", "workers", "commit", "seconds")}
        for name, metric in {**record["metrics"], **record.get("wall_clock", {})}.items():
            values[workload][name].append(metric["value"])
    out: dict = {"machine": facts, "workloads": {}}
    for workload, metrics in values.items():
        rows = {}
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0}
        out["workloads"][workload] = {"seeds": sorted(seeds[workload]), "metrics": rows}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the summary to this file")
    args = parser.parse_args()
    text = json.dumps(summarize(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
