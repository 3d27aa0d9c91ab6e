"""Span tracer for the benchmark's traced run.

The tracer replaces, for the duration of one traced pass, every name under
which a ``dimonoids`` module binds a traced public function (for example
``dimonoids.catalog.pair`` and ``dimonoids.dimonoid.pair`` both point at the
same wrapper).  Each call becomes a span ``[name, start, end, parent]`` kept in
memory; a generator function becomes one span per ``next()`` call, so its time
is measured across the calls that drive it.  Nothing under ``src/`` changes.

Self time of a span is its duration minus the duration of its direct children.
Calls are synchronous, so children never overlap and that difference is the
time the span's own code ran.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from math import factorial

import dimonoids.cli  # noqa: F401  (loaded so its bindings are patched too)

clock = time.perf_counter


# Counter hooks receive (counters, span name, call args, result) after each
# call; a generator function counts its items instead.
def _hit(counters, name, args, result):
    counters[name + ".hits"] += bool(result)


def _perms_found(counters, name, args, result):
    counters[name + ".perms_found"] += result.order


def _perms_scanned(counters, name, args, result):
    counters[name + ".perms_scanned"] += factorial(args[0].n)


# span name -> (module, attribute, is a generator function, counter hook)
TRACED = {
    "tables.is_associative": ("dimonoids.tables", "is_associative", False, None),
    "tables.element_roles": ("dimonoids.tables", "element_roles", False, None),
    "tables.semigroup_class": ("dimonoids.tables", "semigroup_class", False, None),
    "families.build": ("dimonoids.families", "build", False, None),
    "families.family_sweep": ("dimonoids.families", "family_sweep", True, None),
    "dimonoid.pair": ("dimonoids.dimonoid", "pair", False, None),
    "dimonoid.axioms_ok": ("dimonoids.dimonoid", "axioms_ok", False, _hit),
    "dimonoid.di_flags": ("dimonoids.dimonoid", "di_flags", False, None),
    "dimonoid.halo": ("dimonoids.dimonoid", "halo", False, None),
    "morphisms.automorphisms": ("dimonoids.morphisms", "automorphisms", False,
                                _perms_found),
    "morphisms.canonical_key": ("dimonoids.morphisms", "canonical_key", False,
                                _perms_scanned),
    "morphisms.are_isomorphic": ("dimonoids.morphisms", "are_isomorphic", False, None),
    "constructions.cases": ("dimonoids.constructions", "cases", True, None),
    "catalog.enumerate_semigroups": ("dimonoids.catalog", "enumerate_semigroups",
                                     True, None),
    "catalog.enumerate_dimonoids_backtracking": (
        "dimonoids.catalog", "enumerate_dimonoids_backtracking", True, None),
    "catalog.classify": ("dimonoids.catalog", "classify", False, None),
    "catalog.dumps_catalog": ("dimonoids.catalog", "dumps_catalog", False, None),
    "catalog.loads_catalog": ("dimonoids.catalog", "loads_catalog", False, None),
    "catalog.run_theorem_suite": ("dimonoids.catalog", "run_theorem_suite", False, None),
    "cli.main": ("dimonoids.cli", "main", False, None),
}


class _TracedIter:
    """Iterator proxy that records one span per ``next()`` call."""

    def __init__(self, tracer: "Tracer", name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        span = tracer.open(self._name)
        try:
            item = next(self._inner)
        finally:
            tracer.close(span)
        tracer.counters[self._name + ".items"] += 1
        return item


class Tracer:
    """In-memory spans plus per-name counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self._stack.pop()
        self.spans[i][2] = clock()

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn, is_gen: bool, hook):
        tracer = self
        if is_gen:
            def wrapper(*args, **kwargs):
                return _TracedIter(tracer, name, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                if hook is not None:
                    hook(tracer.counters, name, args, result)
                return result
        return wrapper

    def install(self) -> None:
        """Point every dimonoids binding of each traced function at its wrapper."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "dimonoids" or key.startswith("dimonoids."))]
        for name, (modname, attr, is_gen, hook) in TRACED.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, is_gen, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds, plus the
        counters recorded under that name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        for key, value in self.counters.items():
            name, _, counter = key.rpartition(".")
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})[counter] = value
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                     parent]) + "\n")
