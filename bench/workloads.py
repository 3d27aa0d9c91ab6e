"""The benchmark's four workloads.

Each workload has a ``setup(seed)`` that builds its inputs, a ``run_pass``
that does one measured pass and checks its outputs, and a ``check_run`` that
makes the slower cross-checks once per run.  Every check feeds the run's
``Record``; a failed check is counted, never raised.

``run_pass(..., in_process=True)`` is the variant the traced run uses: it keeps
all work inside this process, where spans can be recorded (``classify`` runs
with one worker instead of a forked pool; ``cli-mix`` calls
``dimonoids.cli.main`` instead of starting a process per request).
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable, Optional

from dimonoids import catalog, cli, constructions, dimonoid, families, morphisms, tables

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# every process the benchmark starts, and every classify pool, stays within
# the machine's cores; the caller's DIMONOID_WORKERS is never inherited
WORKERS = max(1, min(2, os.cpu_count() or 1))
REQUEST_TIMEOUT_S = 60
CALIBRATE_EVERY_S = 1.0
# request latencies are kept in a sample of fixed size, allocated up front, so
# that the harness's own memory does not grow with the number of passes and
# peak_rss_mb does not rise when the program gets faster
REQUEST_SAMPLE = 20000


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["DIMONOID_WORKERS"] = str(WORKERS)
    env["PYTHONPATH"] = str(SRC)
    return env


def calibrate() -> float:
    """The machine's current speed: the geometric mean of the wall seconds of
    three bare interpreter starts (``python -c pass``).  Of the references
    tried, it tracked the speed swings of the CLI requests and of the library
    passes most closely.  Single starts often fall into two modes about 1.5x
    apart, so a mean follows the mix of modes more smoothly than a median."""
    times = []
    for _ in range(3):
        t = clock()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True)
        times.append(clock() - t)
    return statistics.geometric_mean(times)


class Record:
    """Timings and check outcomes of one run (or one pass of it).

    Calibration samples are taken between requests all through the run; their
    geometric mean is the run's unit of time, in which the machine's swings in
    speed cancel.  Set-up probes, when ``setup_probe`` is set, are spread over
    the run in the same way, each right after a calibration sample."""

    def __init__(self):
        self.requests = array("d", bytes(8 * REQUEST_SAMPLE))
        self.request_count = 0
        self._sampler = random.Random(0)
        self.main_s: list[float] = []      # in-process dimonoids.cli.main calls
        self.attempted = 0
        self.failures: Counter = Counter()
        self.wrong = 0
        self.exit3 = 0
        self.cal_samples: list[float] = []
        self.setup_probe: Optional[Callable[[], float]] = None
        self.setup_every_s = float("inf")
        self.setup_repeats = 0
        self.setup_samples: list[float] = []   # seconds
        self.setup_cal: list[float] = []       # the calibration sample before each
        self.spent_s = 0.0                     # time spent in calibration and probes
        self._cal_at = self._setup_at = float("-inf")

    def tick(self) -> None:
        """Take a calibration sample if the last one is older than
        CALIBRATE_EVERY_S, and a set-up probe after it if one is due.  Call
        between requests, never inside a timed region."""
        now = clock()
        probe = self.setup_due(now)
        if probe or now - self._cal_at >= CALIBRATE_EVERY_S:
            self.cal_samples.append(calibrate())
            self._cal_at = clock()
            if probe:
                self.setup_samples.append(self.setup_probe())
                self.setup_cal.append(self.cal_samples[-1])
                self._setup_at = now + self.setup_every_s
            self.spent_s += clock() - now

    def setup_due(self, now: float) -> bool:
        return (self.setup_probe is not None and now >= self._setup_at
                and len(self.setup_samples) < self.setup_repeats)

    def finish_setup_probes(self) -> None:
        """Take the set-up probes the passes left no time for."""
        while self.setup_probe is not None and len(self.setup_samples) < self.setup_repeats:
            self.cal_samples.append(calibrate())
            self.setup_samples.append(self.setup_probe())
            self.setup_cal.append(self.cal_samples[-1])

    def add_request(self, seconds: float) -> None:
        """Keep a uniform sample of at most REQUEST_SAMPLE latencies
        (reservoir sampling); below that size every latency is kept."""
        i = self.request_count
        self.request_count += 1
        if i >= REQUEST_SAMPLE:
            i = self._sampler.randrange(self.request_count)
            if i >= REQUEST_SAMPLE:
                return
        self.requests[i] = seconds

    def request_sample(self) -> array:
        return self.requests[:min(self.request_count, REQUEST_SAMPLE)]

    def failed(self) -> int:
        return sum(self.failures.values())

    def timed(self, fn, *args):
        """Call fn as one request and keep its wall time."""
        self.tick()
        t = clock()
        result = fn(*args)
        self.add_request(clock() - t)
        return result

    def check(self, ok: bool, cause: str, wrong: bool = True) -> None:
        """Count one checked outcome.  wrong=False marks a failure that is not
        a wrong answer: a refusal of valid input or acceptance of invalid
        input."""
        self.attempted += 1
        if not ok:
            self.failures[cause] += 1
            self.wrong += wrong

    def merge(self, other: "Record") -> None:
        """Fold in the check outcomes of another record (not its latencies)."""
        self.main_s += other.main_s
        self.attempted += other.attempted
        self.failures.update(other.failures)
        self.wrong += other.wrong
        self.exit3 += other.exit3


def relabel(d, perm: tuple[int, ...]):
    """Transport a dimonoid along perm: new(p(x), p(y)) = p(old(x, y)).
    Written here, not taken from the library, so the expected answer of an
    isomorphism query is known independently of the code under test."""
    n = d.n
    out = []
    for t in (d.left.entries, d.right.entries):
        e = [0] * (n * n)
        for x in range(n):
            for y in range(n):
                e[perm[x] * n + perm[y]] = perm[t[x * n + y]]
        out.append(tables.OpTable(n, tuple(e)))
    return dimonoid.pair(*out)


def entries_key(d) -> tuple:
    return (d.left.entries, d.right.entries)


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(n), n))


def _wall(fn, *args) -> float:
    t = clock()
    fn(*args)
    return clock() - t


def labeled(entries) -> int:
    return sum(e.labeled_count for e in entries)


class Workload:
    name = ""

    def check_run(self, inputs, out, rec: Record) -> None:
        """Cross-checks made once per run, after the passes."""

    def layer_extras(self, inputs) -> dict[str, float]:
        """Per-layer metrics measured outside the traced passes."""
        return {}


# ---------------------------------------------------------------------------
# classify-n3


class ClassifyN3(Workload):
    """classify(3) under iso at 1 and N workers and under iso_and_duality at N
    workers, then a catalog dumps/loads round trip."""

    name = "classify-n3"
    PROBES = 20
    POOL_REPEATS = 5

    def setup(self, seed: int):
        rng = random.Random(seed)
        return [(rng.randrange(52), random_perm(rng, 3)) for _ in range(self.PROBES)]

    def run_pass(self, probes, rec: Record, in_process: bool = False):
        workers = 1 if in_process else WORKERS
        e1 = rec.timed(catalog.classify, 3, "iso", 1)
        en = rec.timed(catalog.classify, 3, "iso", workers)
        ed = rec.timed(catalog.classify, 3, "iso_and_duality", workers)
        rec.tick()
        t = clock()
        text = catalog.dumps_catalog(en)
        back = catalog.loads_catalog(text)
        rec.add_request(clock() - t)

        rec.check(len(e1) == 52 and labeled(e1) == 267,
                  "classify iso: not 52 classes / 267 labeled")
        rec.check(catalog.dumps_catalog(e1) == text,
                  f"classify iso: catalog bytes differ between 1 and {workers} workers")
        rec.check(len(ed) == 35 and labeled(ed) == 267,
                  "classify iso_and_duality: not 35 classes / 267 labeled")
        rec.check(back == en and catalog.dumps_catalog(back) == text,
                  "catalog round trip changed the catalog")
        return e1

    def layer_extras(self, probes) -> dict[str, float]:
        """Untraced classify(3) timings at 1 and N workers: the data for
        keeping or deleting the pool."""
        w1, wn = [], []
        for _ in range(self.POOL_REPEATS):
            w1.append(_wall(catalog.classify, 3, "iso", 1))
            wn.append(_wall(catalog.classify, 3, "iso", WORKERS))
        text = catalog.dumps_catalog(catalog.classify(3))
        return {
            "catalog.classify.w1_s": statistics.median(w1),
            "catalog.classify.w2_s": statistics.median(wn),
            "catalog.pool_speedup": statistics.median(w1) / statistics.median(wn),
            "catalog.catalog.bytes": len(text.encode("utf-8")),
        }

    def check_run(self, probes, cat, rec: Record) -> None:
        # second route: count labeled dimonoids per canonical key on the
        # backtracking enumerator and compare with the catalog's n!/|Aut|
        per_key = Counter(morphisms.canonical_key(d)
                          for d in catalog.enumerate_dimonoids_backtracking(3))
        rec.check(sum(per_key.values()) == 267,
                  "backtracking route: not 267 labeled dimonoids")
        rec.check(all(per_key[entries_key(e.canonical)] == e.labeled_count for e in cat),
                  "backtracking route disagrees with catalog labeled counts")
        for index, perm in probes:
            entry = cat[index]
            copy = relabel(entry.canonical, perm)
            rec.check(morphisms.canonical_key(copy) == entries_key(entry.canonical)
                      and morphisms.automorphisms(copy).order == entry.aut_order,
                      "relabeled class representative changes canonical key or |Aut|")


# ---------------------------------------------------------------------------
# enumerate-n4


class EnumerateN4(Workload):
    """The order-4 stream: every labeled dimonoid by backtracking, its
    canonical key, then |Aut| of each class representative."""

    name = "enumerate-n4"
    PROBES = 20
    LABELED, CLASSES, SEMIGROUPS = 15277, 734, 3492

    def setup(self, seed: int):
        rng = random.Random(seed)
        semigroups = frozenset(t.entries for t in catalog.enumerate_semigroups(4))
        probes = [(rng.randrange(self.CLASSES), random_perm(rng, 4))
                  for _ in range(self.PROBES)]
        return semigroups, probes

    def run_pass(self, inputs, rec: Record, in_process: bool = False):
        semigroups, _ = inputs
        per_key: Counter = Counter()
        trivial = set()
        stream = catalog.enumerate_dimonoids_backtracking(4, max_n=4)
        while True:
            rec.tick()
            t = clock()
            d = next(stream, None)
            if d is None:
                break
            key = morphisms.canonical_key(d)
            rec.add_request(clock() - t)
            per_key[key] += 1
            if d.left == d.right:
                trivial.add(d.left.entries)
        reps = [dimonoid.pair(tables.OpTable(4, kl), tables.OpTable(4, kr))
                for kl, kr in sorted(per_key)]
        orders = [morphisms.automorphisms(r).order for r in reps]

        rec.check(sum(per_key.values()) == self.LABELED,
                  f"stream: not {self.LABELED} labeled dimonoids")
        rec.check(len(reps) == self.CLASSES, f"not {self.CLASSES} classes")
        # orbit-stabilizer, class by class: labeled copies = 4!/|Aut|
        rec.check(all(per_key[entries_key(r)] == 24 // o for r, o in zip(reps, orders)),
                  "a class's labeled count differs from 4!/|Aut|")
        # the trivial dimonoids pair(s, s) are exactly the semigroups
        rec.check(len(trivial) == self.SEMIGROUPS and trivial == semigroups,
                  "trivial dimonoids differ from the enumerated semigroups")
        return reps, orders

    def check_run(self, inputs, out, rec: Record) -> None:
        _, probes = inputs
        reps, orders = out
        for index, perm in probes:
            i = index % len(reps)
            copy = relabel(reps[i], perm)
            rec.check(morphisms.canonical_key(copy) == entries_key(reps[i])
                      and morphisms.automorphisms(copy).order == orders[i],
                      "relabeled class representative changes canonical key or |Aut|")


# ---------------------------------------------------------------------------
# suite-n6


class SuiteN6(Workload):
    """run_theorem_suite(6), every record passing."""

    name = "suite-n6"
    PROBES = 8
    RECORDS = 25

    def setup(self, seed: int):
        rng = random.Random(seed)
        # every case is built, whatever the seed draws, so that set-up does
        # the same work for every seed
        pool = {(name, n): [c for c in constructions.cases(name, n) if c.aut_spec is not None]
                for name in constructions.CONSTRUCTION_NAMES for n in range(2, 7)}
        probes = []
        while len(probes) < self.PROBES:
            name = rng.choice(constructions.CONSTRUCTION_NAMES)
            found = pool[name, rng.randint(2, 6)]
            if found:
                case = rng.choice(found)
                probes.append((case, random_perm(rng, case.dimonoid.n)))
        return probes

    def run_pass(self, probes, rec: Record, in_process: bool = False):
        report = rec.timed(catalog.run_theorem_suite, 6)
        rec.check(len(report.records) == self.RECORDS,
                  f"suite: not {self.RECORDS} records")
        for r in report.records:
            rec.check(r.passed, f"suite record {r.id} failed")
        return report

    def check_run(self, probes, report, rec: Record) -> None:
        # relabeled construction cases keep their asserted |Aut| and halo size
        for case, perm in probes:
            copy = relabel(case.dimonoid, perm)
            ok = (copy.is_dimonoid
                  and morphisms.automorphisms(copy).order == case.aut_spec.order
                  and (case.expected_halo is None
                       or len(dimonoid.halo(copy)) == len(case.expected_halo)))
            rec.check(ok, f"relabeled {case.name} changes |Aut| or halo size")


# ---------------------------------------------------------------------------
# cli-mix


@dataclass
class Request:
    kind: str
    n: Optional[int]                # carrier size; None for invalid input
    argv: list[str]
    code: int                       # expected exit code
    out: Optional[dict] = None      # expected stdout document, when code is 0 or 1
    order: Optional[int] = None     # |Aut| known from the construction, for aut


def _doc(structure) -> str:
    return json.dumps(structure.to_json(), separators=(",", ":"))


# Construction cases grouped by carrier size.  Above carrier 6 only the
# constructions with at most 128 cases at that size are drawn from, so that
# set-up does not build a thousand tables to pick one.  All of them are built
# up front, so that set-up does the same work for every seed.
_ZERO_EXTENDED = {"lo_tilde0*ro_tilde0", "lo*ro+0", "lo_tilde0*o_fixed"}
_SMALL_AT_7_8 = {"lo_tilde0*ro_tilde0", "lob*rob", "lo*ro+0", "lob*o_fixed",
                 "lo_tilde0*o_fixed"}


class _Cases:
    CARRIERS = range(2, 9)

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cache: dict[tuple[str, int], list] = {}
        for carrier in self.CARRIERS:
            for name in self._names(carrier):
                base = self._base(name, carrier)
                if base >= 1:
                    self.cache[name, base] = [c for c in constructions.cases(name, base)
                                              if c.aut_spec is not None]

    @staticmethod
    def _names(carrier: int) -> list[str]:
        return [name for name in constructions.CONSTRUCTION_NAMES
                if carrier <= 6 or name in _SMALL_AT_7_8]

    @staticmethod
    def _base(name: str, carrier: int) -> int:
        return carrier - 1 if name in _ZERO_EXTENDED else carrier

    def pick(self, carrier: int, max_order: Optional[int] = None):
        names = self._names(carrier)
        while True:
            name = self.rng.choice(names)
            base = self._base(name, carrier)
            if base < 1:
                continue
            found = [c for c in self.cache[name, base]
                     if max_order is None or c.aut_spec.order <= max_order]
            if found:
                return self.rng.choice(found)


def _family_params(rng: random.Random, n: int):
    fam = rng.choice([f for f in families.FAMILIES
                      if n >= 2 or f not in ("LOB", "ROB")])
    subset = frozenset(x for x in range(n) if rng.random() < 0.5)
    if fam == "O":
        return families.make_params(fam, n, zero=rng.randrange(n))
    if fam == "O_A":
        zero = rng.randrange(n)
        return families.make_params(fam, n, A=subset - {zero}, zero=zero)
    if fam in ("LO_tilde0", "RO_tilde0"):
        return families.make_params(fam, n, A=subset)
    if fam in ("LOB", "ROB"):
        a, c = rng.sample(range(n), 2)
        return families.make_params(fam, n, a=a, c=c)
    if fam in ("LO_arrow", "RO_arrow"):
        a = rng.randrange(n)
        return families.make_params(fam, n, A=subset | {a}, a=a)
    return families.make_params(fam, n)


def _build_argv(params) -> list[str]:
    argv = ["build", "--family", params.family, "--n", str(params.n)]
    if params.A is not None:
        argv += ["--A", ",".join(map(str, sorted(params.A)))]
    for flag in ("a", "c", "zero"):
        if getattr(params, flag) is not None:
            argv += [f"--{flag}", str(getattr(params, flag))]
    return argv


def _non_dimonoid(rng: random.Random, n: int):
    """The transposed left-zero/right-zero pair, which breaks the first axiom,
    under a random relabeling."""
    flip = dimonoid.naive_flip(dimonoid.pair(families.left_zero_sg(n),
                                             families.right_zero_sg(n)))
    return relabel(flip, random_perm(rng, n))


def _malformed(rng: random.Random) -> list[Request]:
    """One request of each kind of invalid input; each must exit 3."""
    n = rng.randint(2, 5)
    base = json.loads(_doc(_non_dimonoid(rng, n)))
    a = rng.randrange(n)

    def doc(**changes) -> str:
        return json.dumps(dict(base, **changes))

    spec = [
        ("truncated", ["verify", "--json", doc()[:-1]]),
        ("missing-key", ["props", "--json", json.dumps({"n": n, "left": base["left"]})]),
        ("short-rows", ["halo", "--json", doc(left=base["left"][:-1])]),
        ("out-of-range", ["dual", "--json", doc(right=[[n] * n] * n)]),
        ("string-n", ["aut", "--json", doc(n=str(n))]),
        ("bool-n", ["verify", "--json",
                    json.dumps({"n": True, "left": [[0]], "right": [[0]]})]),
        ("unknown-family", ["build", "--family", "LX", "--n", str(n)]),
        ("equal-a-c", ["build", "--family", "LOB", "--n", str(n),
                       "--a", str(a), "--c", str(a)]),
        ("aut-non-dimonoid", ["aut", "--json", doc()]),
        ("halo-non-dimonoid", ["halo", "--json", doc()]),
        ("iso-negative-entry", ["iso", doc(), doc(left=[[-1] * n] * n)]),
    ]
    return [Request(f"malformed:{kind}", None, argv, 3) for kind, argv in spec]


class CliMix(Workload):
    """A closed loop, one client: a seeded sequence of single-structure
    requests, each a fresh `dimonoids` process."""

    name = "cli-mix"
    # requests per kind in one sequence; 110 in all, so that p90 has eleven
    # samples beyond it (aut: 10 drawn + 2 at the bound)
    BUILD, VERIFY_OK, VERIFY_FAIL, PROPS, HALO, DUAL = 15, 10, 6, 12, 12, 10
    AUT_CARRIERS = (2, 3, 4, 5, 5, 6, 6, 7, 7, 8)
    ISO_CARRIERS = (2, 3, 4, 5, 5, 4, 3, 6, 6, 7, 7, 8, 8, 6)
    NONISO_CARRIERS = (3, 4, 5, 5, 6, 7, 8, 6)

    def setup(self, seed: int) -> list[Request]:
        rng = random.Random(seed)
        pool = _Cases(rng)
        reqs: list[Request] = []

        for _ in range(self.BUILD):
            params = _family_params(rng, rng.randint(1, 8))
            reqs.append(Request("build", params.n, _build_argv(params), 0,
                                families.build(params).to_json()))
        for _ in range(self.VERIFY_OK):
            carrier = rng.randint(2, 6)
            d = relabel(pool.pick(carrier).dimonoid, random_perm(rng, carrier))
            reqs.append(Request("verify", d.n, ["verify", "--json", _doc(d)], 0,
                                d.axiom_status.to_json()))
        for _ in range(self.VERIFY_FAIL):
            d = _non_dimonoid(rng, rng.randint(2, 8))
            reqs.append(Request("verify-fail", d.n, ["verify", "--json", _doc(d)], 1,
                                d.axiom_status.to_json()))

        def structure(carrier):
            # a third are bare family tables, read as trivial dimonoids
            if rng.random() < 1 / 3:
                return families.build(_family_params(rng, carrier))
            return pool.pick(carrier).dimonoid

        for kind, count in (("props", self.PROPS), ("halo", self.HALO),
                            ("dual", self.DUAL)):
            for _ in range(count):
                s = structure(rng.randint(2, 6))
                d = morphisms.as_ditable(s)
                argv = [kind, "--json", _doc(s)]
                if kind == "props":
                    out = dimonoid.di_flags(d).to_json()
                elif kind == "halo":
                    out = {"halo": sorted(dimonoid.halo(d))}
                elif rng.random() < 0.5:
                    argv.append("--naive")
                    out = dimonoid.naive_flip(d).to_json()
                else:
                    out = dimonoid.dual_dimonoid(d).to_json()
                reqs.append(Request(kind, d.n, argv, 0, out))

        # |Aut| sets the cost of an aut request (every automorphism is
        # printed), so the drawn ones stay at |Aut| <= 6! and the two that
        # reach the n = 8 bound, |Aut| = 7!, are in every sequence
        for carrier in self.AUT_CARRIERS:
            case = pool.pick(carrier, max_order=720)
            d = relabel(case.dimonoid, random_perm(rng, carrier))
            reqs.append(Request("aut", carrier, ["aut", "--json", _doc(d)], 0,
                                morphisms.automorphisms(d).to_json(),
                                order=case.aut_spec.order))
        heavy = (relabel(constructions.lo_ro_plus_zero(7), random_perm(rng, 8)),
                 families.null_sg(8, rng.randrange(8)))
        for s in heavy:
            reqs.append(Request("aut", 8, ["aut", "--json", _doc(s)], 0,
                                morphisms.automorphisms(s).to_json(), order=5040))

        for carrier in self.ISO_CARRIERS:
            # a relabeling by an automorphism would give the same document; a
            # group of at most half of all n! relabelings leaves some that do not
            d = pool.pick(carrier, max_order=factorial(carrier) // 2).dimonoid
            while True:
                copy = relabel(d, random_perm(rng, carrier))
                if entries_key(copy) != entries_key(d):
                    break
            reqs.append(Request("iso-relabeled", carrier, ["iso", _doc(d), _doc(copy)],
                                0, {"isomorphic": True}))

        for carrier in self.NONISO_CARRIERS:
            # different |Aut| (known from the constructions) rules out isomorphism
            a = pool.pick(carrier)
            b = pool.pick(carrier)
            while b.aut_spec.order == a.aut_spec.order:
                b = pool.pick(carrier)
            copy = relabel(b.dimonoid, random_perm(rng, carrier))
            reqs.append(Request("iso-nonisomorphic", carrier,
                                ["iso", _doc(a.dimonoid), _doc(copy)],
                                1, {"isomorphic": False}))

        reqs += _malformed(rng)
        rng.shuffle(reqs)
        return reqs

    def run_pass(self, reqs: list[Request], rec: Record, in_process: bool = False):
        env = child_env()
        for req in reqs:
            rec.tick()
            if in_process:
                dt, code, out, err = _call_main(req.argv)
                rec.main_s.append(dt)
            else:
                dt, code, out, err = _call_process(req.argv, env)
            rec.add_request(dt)
            rec.exit3 += code == 3
            ok, cause, wrong = judge(req, code, out, err)
            rec.check(ok, cause, wrong)
        return None



def _call_process(argv: list[str], env: dict[str, str]):
    t = clock()
    try:
        proc = subprocess.run([sys.executable, "-m", "dimonoids.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REQUEST_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        code, out, err = None, "", "timeout"
    return clock() - t, code, out, err


def _call_main(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    t = clock()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            # main maps library errors to exit 3; anything else is a crash
            code = None
            traceback.print_exc(file=err)
    return clock() - t, code, out.getvalue(), err.getvalue()


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _error_code(err: str) -> Optional[str]:
    """The code of the CLI's error document, the last line of stderr."""
    lines = err.strip().splitlines()
    doc = _parse(lines[-1]) if lines else None
    if isinstance(doc, dict) and isinstance(doc.get("error"), dict):
        return doc["error"].get("code")
    return None


def judge(req: Request, code, out: str, err: str) -> tuple[bool, str, bool]:
    """(ok, cause, wrong) for one response.  wrong is False for a refusal
    (exit 3 on valid input) or an acceptance of invalid input; every other
    failure is a wrong answer or a crash."""
    error_code = _error_code(err)
    where = req.kind if req.n is None else f"{req.kind} n={req.n}"
    if code == req.code:
        if code == 3:
            return (error_code is not None, f"{where}: exit 3 without an error document",
                    True)
        doc = _parse(out)
        ok = doc == req.out and (req.order is None or doc.get("order") == req.order)
        return ok, f"{where}: wrong output", True
    if code == 3 and error_code is not None:
        return False, f"{where}: refused ({error_code})", False
    if req.code == 3 and code in (0, 1):
        return False, f"{where}: accepted invalid input (exit {code})", False
    return False, f"{where}: exit {code}, expected {req.code}", True


WORKLOADS = {w.name: w for w in (ClassifyN3(), EnumerateN4(), SuiteN6(), CliMix())}
