"""tests/reference.py is the second route of the checks it serves only while
it shares no code with the engines they check."""

import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.py")
# the engines the reference routes are checked against
ENGINES = {"_fill", "_labeled_semigroups", "_semigroup_leaders", "_right_tables",
           "_leader_right_tables", "_iso_catalog", "_IsoSearch", "_left_minimizers",
           "_symmetric_group", "_normal_form", "automorphisms", "canonical_key",
           "enumerate_dimonoids_backtracking", "dumps_catalog", "_line_template"}


def engine_reads(source):
    """Every engine the source imports, reads as an attribute or names in a
    string (as getattr would), every star import, and every import of
    enumerate_semigroups by name, which would bind the stream at import
    instead of reading it at call time."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names
                      if a.name in ENGINES or a.name in ("*", "enumerate_semigroups")]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if ENGINES & set(a.name.split("."))]
        elif isinstance(node, ast.Attribute) and node.attr in ENGINES:
            found.append(node.attr)
        elif isinstance(node, ast.Constant) and node.value in ENGINES:
            found.append(node.value)
    return found


def test_reference_routes_read_no_engine():
    assert engine_reads(REFERENCE.read_text(encoding="utf-8")) == []


def test_engine_guard_sees_every_way_in():
    for source in ("from dimonoids.catalog import _fill",
                   "from dimonoids import automorphisms as aut",
                   "from dimonoids.morphisms import *",
                   "from dimonoids.catalog import enumerate_semigroups",
                   "import dimonoids.morphisms\ndimonoids.morphisms.canonical_key",
                   "getattr(catalog, '_right_tables')"):
        assert engine_reads(source), source
    assert engine_reads("import dimonoids.catalog as catalog\n"
                        "catalog.enumerate_semigroups(3, 3)") == []
