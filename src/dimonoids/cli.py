"""Command-line front end.

Subcommands: build, verify, props, halo, aut, dual, iso, classify, suite.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success or a true
analytical outcome, 1 a false analytical outcome (not isomorphic, axioms fail,
shape mismatch, suite failures), 2 usage errors, 3 invalid input.  A
reader that closes stdout early ends the run with exit 1 and no error
document.

Each process runs one subcommand, so this module imports only the table and
dimonoid layers up front; a subcommand handler imports the rest of what it
runs (`families` for build, `morphisms` for aut and iso, `catalog` for
classify and suite).  Every record of the package is a NamedTuple or the
slotted DiTable, so no subcommand generates record classes at import time or
loads `inspect`.  Every structure input is read as a DiTable by
`_load_structure` (a single table as the trivial dimonoid on it), and every
JSON input is decoded by `_parse_json`, so a document nested too deeply to
decode exits 3 like any other malformed one, as does one holding a key its
reader does not know.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional

from .dimonoid import (
    DiTable,
    as_ditable,
    di_flags,
    dual_dimonoid,
    halo,
    naive_flip,
)
from .errors import DimonoidError, FormatError
from .tables import OpTable

if TYPE_CHECKING:
    from .morphisms import SymmetricProductSpec


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dimonoids",
        description="construct, verify, analyze and classify finite dimonoids",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("build", help="build a family table")
    p.add_argument("--family", help="family name, e.g. LO, LOB, O_A, LO_arrow")
    p.add_argument("--n", type=int)
    p.add_argument("--A", help="comma-separated indices, e.g. 0,1")
    p.add_argument("--a", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--zero", type=int)
    p.add_argument("--json", dest="inline", help="inline FamilyParams document")
    add_format(p)

    for name, help_ in (
        ("verify", "check the axioms of a table pair"),
        ("props", "predicate flags of a dimonoid"),
        ("halo", "bar-units of a dimonoid"),
        ("dual", "dual dimonoid (or naive two-sided flip)"),
        ("aut", "automorphism group"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", nargs="?", help="JSON file; omit when using --json")
        p.add_argument("--json", dest="inline", help="inline JSON document")
        if name == "dual":
            p.add_argument("--naive", action="store_true",
                           help="transpose both tables instead of dualizing")
        if name == "aut":
            p.add_argument("--spec", help="expected shape, e.g. 'fixed=0,1;blocks=2,3|4'")
        add_format(p)

    p = sub.add_parser("iso", help="isomorphism test for two structures")
    p.add_argument("file_a", help="JSON file, or an inline document starting with '{'")
    p.add_argument("file_b", help="JSON file, or an inline document starting with '{'")
    add_format(p)

    p = sub.add_parser("classify", help="catalog of isomorphism classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--quotient", choices=("iso", "iso-dual"), default="iso")
    p.add_argument("--out", help="write the catalog here instead of stdout")

    p = sub.add_parser("suite", help="run the structural-theorem verification sweep")
    p.add_argument("--n-max", type=int, required=True)
    add_format(p)

    return top


def _emit(doc: dict, fmt: str, table_text: Optional[Callable[[], str]] = None) -> None:
    """Print the document, or under --format table the text table_text
    renders; the text is rendered only then."""
    if fmt == "json" or table_text is None:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(table_text())


def _fail(code: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "message": message}}),
          file=sys.stderr)


def _parse_json(text: str):
    """Decode one JSON input; nesting too deep to decode is invalid input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise FormatError("JSON input is nested too deeply") from None


def _load_structure(path: Optional[str], inline: Optional[str]) -> DiTable:
    """Read one input document; a single table is taken as the trivial
    dimonoid on it.  The readers refuse a key they do not know, so a document
    holding both a "table" and "left"/"right" is refused, not read as the
    table alone."""
    if inline is None and path is None:
        raise DimonoidError("no input: pass a file or --json")
    if inline is not None:
        text = inline
    elif path.lstrip().startswith("{"):
        text = path
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    doc = _parse_json(text)
    if isinstance(doc, dict) and "table" in doc:
        return as_ditable(OpTable.from_json(doc))
    return DiTable.from_json(doc)


def _grid(title: str, rows: list[list[int]]) -> list[str]:
    n = len(rows)
    width = max(1, len(str(n - 1)))
    head = f"{title:>{width}} | " + " ".join(f"{y:>{width}}" for y in range(n))
    sep = "-" * len(head)
    body = [f"{x:>{width}} | " + " ".join(f"{v:>{width}}" for v in rows[x])
            for x in range(n)]
    return [head, sep, *body]


def _render_ditable(d: DiTable) -> str:
    left = _grid("⊣", d.left.rows())
    right = _grid("⊢", d.right.rows())
    gap = "    "
    return "\n".join(a + gap + b for a, b in zip(left, right))


def _render_optable(t: OpTable) -> str:
    return "\n".join(_grid("*", t.rows()))


def _parse_index_set(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(int(v) for v in text.split(","))


def _parse_spec(text: str) -> SymmetricProductSpec:
    from .morphisms import SymmetricProductSpec

    fixed: frozenset[int] = frozenset()
    blocks: list[frozenset[int]] = []
    named: set[str] = set()
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("fixed", "blocks"):
            raise DimonoidError(f"bad spec fragment {part!r}")
        if key in named:
            raise DimonoidError(f"spec names the part {key!r} twice")
        named.add(key)
        if key == "fixed":
            fixed = _parse_index_set(value)
        else:
            blocks = [_parse_index_set(b) for b in value.split("|") if b.strip()]
    return SymmetricProductSpec.of(fixed, blocks)


def _cmd_build(args) -> int:
    from .families import FamilyParams, build, make_params

    if args.inline is not None:
        params = FamilyParams.from_json(_parse_json(args.inline))
    else:
        if args.family is None or args.n is None:
            raise DimonoidError("build needs --family and --n (or --json)")
        params = make_params(args.family, args.n,
                             None if args.A is None else _parse_index_set(args.A),
                             args.a, args.c, args.zero)
    table = build(params)
    _emit(table.to_json(), args.format, lambda: _render_optable(table))
    return 0


def _cmd_verify(args) -> int:
    d = _load_structure(args.file, args.inline)
    report = d.axiom_status
    _emit(report.to_json(), args.format, lambda: _render_ditable(d) + "\n" + "\n".join(
        f"{name}: " + ("ok" if w is None else f"witness {w}")
        for name, w in report._asdict().items()))
    return 0 if report.all_ok else 1


def _cmd_props(args) -> int:
    d = _load_structure(args.file, args.inline)
    flags = di_flags(d)
    _emit(flags.to_json(), args.format,
          lambda: "\n".join(f"{k}: {v}" for k, v in flags.to_json().items()))
    return 0


def _cmd_halo(args) -> int:
    d = _load_structure(args.file, args.inline)
    h = sorted(halo(d))
    _emit({"halo": h}, args.format, lambda: "halo: {" + ", ".join(map(str, h)) + "}")
    return 0


def _cmd_dual(args) -> int:
    d = _load_structure(args.file, args.inline)
    out = naive_flip(d) if args.naive else dual_dimonoid(d)
    _emit(out.to_json(), args.format, lambda: _render_ditable(out))
    return 0


def _cmd_aut(args) -> int:
    from .morphisms import automorphisms, matches_symmetric_product

    d = _load_structure(args.file, args.inline)
    auts = automorphisms(d)
    result = {"order": auts.order}
    if args.spec is not None:
        result["matches_spec"] = matches_symmetric_product(auts, _parse_spec(args.spec))
    if args.format == "json":
        # only the JSON document lists the members of the group
        print(auts.to_json_text(**result))
    else:
        print("\n".join(f"{k}: {v}" for k, v in result.items()))
    return 0 if result.get("matches_spec", True) else 1


def _cmd_iso(args) -> int:
    from .morphisms import are_isomorphic

    a = _load_structure(args.file_a, None)
    b = _load_structure(args.file_b, None)
    ok = are_isomorphic(a, b)
    _emit({"isomorphic": ok}, args.format, lambda: "true" if ok else "false")
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    from .catalog import classify, dumps_catalog

    quotient = "iso" if args.quotient == "iso" else "iso_and_duality"
    entries = classify(args.n, quotient=quotient)
    text = dumps_catalog(entries)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"classes: {len(entries)}, labeled: "
          f"{sum(e.labeled_count for e in entries)}", file=sys.stderr)
    return 0


def _cmd_suite(args) -> int:
    from .catalog import run_theorem_suite

    report = run_theorem_suite(args.n_max)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    return 0 if report.passed else 1


_COMMANDS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "props": _cmd_props,
    "halo": _cmd_halo,
    "dual": _cmd_dual,
    "aut": _cmd_aut,
    "iso": _cmd_iso,
    "classify": _cmd_classify,
    "suite": _cmd_suite,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage to the error stream
        return int(exc.code) if exc.code else 0
    try:
        code = _COMMANDS[args.command](args)
        # a reader that closed stdout early is seen here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # not an input error, so no error document: what is left of stdout,
        # flushed again as the interpreter exits, goes to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except DimonoidError as exc:
        _fail(type(exc).__name__, str(exc))
        return 3
    except (json.JSONDecodeError, OSError, KeyError, TypeError, ValueError) as exc:
        _fail(type(exc).__name__, str(exc))
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
