"""Benchmark harness for the dimonoids library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: classify-n3, enumerate-n4, suite-n6, cli-mix (see README.md).

--trace 0 measures the end-to-end metrics: passes of the workload run back
to back for S seconds, with fresh-process set-up probes and calibration
samples spread among them.  --trace 1 alternates untraced and traced
in-process passes for S seconds and reports the per-layer metrics from the
spans.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A fuller record, with the
machine facts and the failure causes, is written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("classify-n3", "enumerate-n4", "suite-n6", "cli-mix")
SETUP_REPEATS = 9
# setup_s is reported in seconds at a fixed reference speed of the machine:
# each set-up probe is divided by the calibration sample taken just before it,
# and the median ratio is multiplied by this typical pystart
PYSTART_REF_S = 0.070
PROBE_REPEATS = 5

clock = time.perf_counter


def pctl(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail(values: list[float]) -> tuple[int, float]:
    """The highest percentile, from p90 down to p50, with at least ten samples
    beyond it; a tail read from fewer samples is mostly noise."""
    for q in range(90, 50, -1):
        v = pctl(values, q)
        if sum(1 for x in values if x > v) >= 10:
            return q, v
    return 50, statistics.median(values)


def run_child(argv: list[str], env: dict[str, str]) -> str:
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout


def setup_sample(workload: str, seed: int, env: dict[str, str]) -> float:
    """Import plus input generation, in a fresh process."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    return float(run_child(argv, env))


def process_probes(env: dict[str, str]) -> tuple[float, float]:
    """Median wall ms of an empty interpreter and of one importing
    dimonoids.cli, alternated so that drift hits both alike."""
    empty, loaded = [], []
    for _ in range(PROBE_REPEATS):
        for argv, out in (([sys.executable, "-c", "pass"], empty),
                          ([sys.executable, "-c", "import dimonoids.cli"], loaded)):
            t = clock()
            run_child(argv, env)
            out.append((clock() - t) * 1000)
    return statistics.median(empty), statistics.median(loaded)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def commit() -> str:
    try:
        return run_child(["git", "rev-parse", "HEAD"], dict(os.environ)).strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def timed_run(wl, inputs, seconds: float, rec, env, workload: str, seed: int):
    """End-to-end metrics.  Times are gated in units of one bare interpreter
    start (pystart): wall time divided by the geometric mean of the run's
    calibration samples.  setup_s is calibrated probe by probe and given in
    seconds at the reference speed PYSTART_REF_S.  The wall-clock figures
    are printed and recorded beside them."""
    # set-up probes are spread over the run, between requests, so that they
    # meet the same machine conditions as the passes.  A pass starts only if
    # one more is expected to end within the run, so that a run lasts about
    # as long whatever the machine's speed.
    rec.setup_probe = lambda: setup_sample(workload, seed, env)
    rec.setup_every_s = seconds / SETUP_REPEATS
    rec.setup_repeats = SETUP_REPEATS
    passes, pass_checks = [], []
    start = clock()
    out = None
    while not passes or clock() + statistics.median(passes) < start + seconds:
        spent0, attempted0, failed0 = rec.spent_s, rec.attempted, rec.failed()
        t = clock()
        out = wl.run_pass(inputs, rec)
        passes.append(clock() - t - (rec.spent_s - spent0))
        pass_checks.append((rec.failed() - failed0, rec.attempted - attempted0))
    rec.finish_setup_probes()
    setup = rec.setup_samples
    setup_cal = statistics.median(a / c for a, c in zip(setup, rec.setup_cal))
    attempted0, failed0 = rec.attempted, rec.failed()
    wl.check_run(inputs, out, rec)
    # ok_ratio is read from one pass, the worst, plus the run's cross-checks,
    # so that one more failed check moves it by the same share however many
    # passes fit in the run
    worst_failed, pass_attempted = max(pass_checks)
    ok_failed = worst_failed + rec.failed() - failed0
    ok_attempted = pass_attempted + rec.attempted - attempted0

    cal = statistics.geometric_mean(rec.cal_samples)
    req = rec.request_sample()
    job = statistics.median(passes)
    p50 = statistics.median(req)
    q, high = tail(req)
    beyond = sum(1 for v in req if v > high)
    failed = rec.failed()
    n = f"n={len(req)} requests" + (
        f" (a uniform sample of {rec.request_count})" if rec.request_count > len(req) else "")
    metrics = {
        "setup_s": (setup_cal * PYSTART_REF_S, "s",
                    f"median of {len(setup)} fresh-process set-ups, each over the "
                    f"calibration before it, x {PYSTART_REF_S} s"),
        "job_cal": (job / cal, "pystart", f"median of {len(passes)} passes"),
        "request_cal_p50": (p50 / cal, "pystart", n),
        "request_cal_tail": (high / cal, "pystart", f"p{q}, {n}, {beyond} beyond"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "max of self and children"),
        "ok_ratio": (1 - ok_failed / ok_attempted, "ratio",
                     f"failed {ok_failed}/{ok_attempted} in the worst pass and the cross-checks"),
    }
    wall = {
        "setup_wall_s": (statistics.median(setup), "s",
                         f"median of {len(setup)} fresh-process set-ups"),
        "cal_ms": (cal * 1000, "ms",
                   f"geometric mean of {len(rec.cal_samples)} calibration samples"),
        "job_s": (job, "s", f"median of {len(passes)} passes"),
        "request_ms_p50": (p50 * 1000, "ms", n),
        "request_ms_p90": (pctl(req, 90) * 1000, "ms", n),
        "failed_ratio": (failed / rec.attempted, "ratio", f"{failed}/{rec.attempted}"),
    }
    notes = {"setup_s": setup, "setup_cal_s": rec.setup_cal, "pass_s": passes,
             "cal_s": rec.cal_samples}
    if len(req) <= 2000:
        notes["request_s"] = list(req)
    return metrics, wall, notes


COUNT_FIELDS = ("calls", "items", "hits", "perms_found", "perms_scanned")


def traced_run(wl, inputs, seconds: float, rec, env, spans_path):
    import spans
    import workloads

    untraced_rec = workloads.Record()
    untraced, traced, summaries = [], [], []
    deadline = clock() + seconds
    out = None
    while not traced or clock() < deadline:
        spent0 = untraced_rec.spent_s
        t = clock()
        out = wl.run_pass(inputs, untraced_rec, in_process=True)
        untraced.append(clock() - t - (untraced_rec.spent_s - spent0))
        tracer = spans.Tracer()
        tracer.install()
        try:
            spent0 = rec.spent_s
            t = clock()
            wl.run_pass(inputs, rec, in_process=True)
            traced.append(clock() - t - (rec.spent_s - spent0))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        if len(summaries) == 1:
            tracer.write(spans_path)
    wl.check_run(inputs, out, rec)

    first = summaries[0]
    counts_repeat = all(
        {k: s.get(name, {}).get(k) for k in COUNT_FIELDS}
        == {k: first[name].get(k) for k in COUNT_FIELDS}
        for s in summaries for name in first)
    rec.check(counts_repeat, "traced passes differ in their deterministic counts")
    main_ms = [v * 1000 for v in untraced_rec.main_s]
    cli_passes = len(untraced)
    rec.merge(untraced_rec)

    def count(name, field="calls"):
        return first.get(name, {}).get(field, 0)

    def med(name, field):
        return statistics.median(s.get(name, {}).get(field, 0.0) for s in summaries)

    axioms_calls = count("dimonoid.axioms_ok")
    interpreter_ms, import_ms = process_probes(env)
    m = {
        "tables.is_associative.calls": (count("tables.is_associative"), "count"),
        "tables.is_associative.self_s": (med("tables.is_associative", "self_s"), "s"),
        "dimonoid.axioms_ok.calls": (axioms_calls, "count"),
        "dimonoid.axioms_ok.self_s": (med("dimonoid.axioms_ok", "self_s"), "s"),
        "dimonoid.axioms_ok.hit_ratio": (
            count("dimonoid.axioms_ok", "hits") / axioms_calls if axioms_calls else 0.0,
            "ratio"),
        "dimonoid.pair.calls": (count("dimonoid.pair"), "count"),
        "dimonoid.pair.self_s": (med("dimonoid.pair", "self_s"), "s"),
        "dimonoid.di_flags.self_s": (med("dimonoid.di_flags", "self_s"), "s"),
        "dimonoid.halo.self_s": (med("dimonoid.halo", "self_s"), "s"),
        "families.family_sweep.self_s": (med("families.family_sweep", "self_s"), "s"),
        "constructions.cases.self_s": (med("constructions.cases", "self_s"), "s"),
        "constructions.cases.items": (count("constructions.cases", "items"), "count"),
        "morphisms.automorphisms.calls": (count("morphisms.automorphisms"), "count"),
        "morphisms.automorphisms.self_s": (med("morphisms.automorphisms", "self_s"), "s"),
        "morphisms.automorphisms.perms_found": (
            count("morphisms.automorphisms", "perms_found"), "count"),
        "morphisms.canonical_key.calls": (count("morphisms.canonical_key"), "count"),
        "morphisms.canonical_key.self_s": (med("morphisms.canonical_key", "self_s"), "s"),
        "morphisms.canonical_key.perms_scanned": (
            count("morphisms.canonical_key", "perms_scanned"), "count"),
        "catalog.enumerate_semigroups.tables": (
            count("catalog.enumerate_semigroups", "items"), "count"),
        "catalog.enumerate_semigroups.s": (med("catalog.enumerate_semigroups", "s"), "s"),
        "catalog.enumerate_dimonoids_backtracking.yielded": (
            count("catalog.enumerate_dimonoids_backtracking", "items"), "count"),
        "catalog.enumerate_dimonoids_backtracking.s": (
            med("catalog.enumerate_dimonoids_backtracking", "s"), "s"),
        "catalog.classify.w1_s": (0.0, "s"),
        "catalog.classify.w2_s": (0.0, "s"),
        "catalog.pool_speedup": (0.0, "ratio"),
        "catalog.dumps_catalog.s": (med("catalog.dumps_catalog", "s"), "s"),
        "catalog.loads_catalog.s": (med("catalog.loads_catalog", "s"), "s"),
        "catalog.catalog.bytes": (0, "bytes"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (import_ms - interpreter_ms, "ms"),
        "cli.main_ms_p50": (statistics.median(main_ms) if main_ms else 0.0, "ms"),
        "cli.main_ms_p90": (pctl(main_ms, 90) if main_ms else 0.0, "ms"),
        "cli.exit3.count": (untraced_rec.exit3 // cli_passes, "count"),
        # per request sequence: wrong answers or crashes, and all failed
        # requests (refusals of valid input and acceptances of invalid input too)
        "cli.wrong.count": (untraced_rec.wrong // cli_passes if main_ms else 0, "count"),
        "cli.failed.count": (untraced_rec.failed() // cli_passes if main_ms else 0, "count"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced),
                                 "ratio"),
    }
    for name, value in wl.layer_extras(inputs).items():
        m[name] = (value, m[name][1])

    per_pass = []
    for summary, total in zip(summaries, traced):
        by_layer: dict[str, float] = {}
        for name, row in summary.items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + row["self_s"]
        by_layer["harness"] = total - sum(by_layer.values())
        per_pass.append(by_layer)
    layers = {layer: statistics.median(p.get(layer, 0.0) for p in per_pass)
              for layer in per_pass[0]}
    notes = {"traced passes": len(traced), "untraced passes": len(untraced),
             "layer self_s (median per traced pass)": layers}
    return {k: (v, u, "") for k, (v, u) in m.items()}, {}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dimonoids" / "__init__.py").is_file():
        print(f"bench: no dimonoids package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    os.environ["DIMONOID_WORKERS"] = str(workloads.WORKERS)
    env = workloads.child_env()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rec = workloads.Record()
    if args.trace:
        metrics, wall, notes = traced_run(wl, inputs, args.seconds, rec, env,
                                    OUT / f"{stem}.spans.jsonl.gz")
    else:
        metrics, wall, notes = timed_run(wl, inputs, args.seconds, rec, env,
                                   args.workload, args.seed)

    failed = rec.failed()
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "workers": workloads.WORKERS, "commit": commit(),
    }
    print(" ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<50} {value:>14.6f} {unit:<6} {note}")
    if wall:
        print("  wall clock (printed, not gated):")
    for name, (value, unit, note) in wall.items():
        print(f"  {name:<50} {value:>14.6f} {unit:<6} {note}")
    for key, value in notes.items():
        if not isinstance(value, list):
            print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    print(f"  failed {failed} of {rec.attempted} checks; wrong answers or crashes: {rec.wrong}")
    for cause, count in sorted(rec.failures.items()):
        print(f"    {count:>4} x {cause}")

    result = {
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**facts, **result, "notes": notes, "failures": dict(rec.failures),
                   "wall_clock": {k: {"value": v, "unit": u} for k, (v, u, _) in wall.items()}},
                  fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
