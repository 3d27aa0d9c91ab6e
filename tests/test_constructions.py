"""The construction table: its names in order, the order and content of every
case, the relabeling orbits of the parameters, and the size checks of `cases`
and `all_cases`."""

import hashlib

import pytest

from dimonoids import CONSTRUCTION_NAMES, EmptyCarrier, SizeMismatch, all_cases, cases
from dimonoids.constructions import _normal_form
from reference import parameter_orbit

# SHA-256 over `_case_record` of every case of `all_cases(6)`, one line each,
# in yield order: construction by construction, n = 1..6 within each.
CASES_N6_SHA256 = "263f25ac8122b8ab3a9c296553f52d2ad1d71a0d522ff822bbbe92c53c629491"


def _case_record(case) -> str:
    spec = case.aut_spec
    return repr((
        case.name,
        [(k, sorted(v) if isinstance(v, frozenset) else v) for k, v in case.params.items()],
        case.dimonoid.left.entries,
        case.dimonoid.right.entries,
        None if case.expected_halo is None else sorted(case.expected_halo),
        None if spec is None else (sorted(spec.fixed), [sorted(b) for b in spec.blocks]),
        case.expected_abelian,
        case.expected_commutative,
        case.expected_rectangular,
        case.describe(),
    ))


def test_construction_names_keep_their_order():
    # the benchmark draws constructions by position in this tuple
    assert CONSTRUCTION_NAMES == (
        "lo_arrow*ro_arrow",
        "lo_tilde0*ro_tilde0",
        "lob*rob",
        "lo*ro+0",
        "lob*o_fixed",
        "lo_tilde0*o_fixed",
        "lo*lo_arrow",
        "lo*ro_arrow",
        "lo_arrow*o",
    )


def test_case_list_is_pinned():
    h = hashlib.sha256()
    count = 0
    for case in all_cases(6):
        h.update(_case_record(case).encode() + b"\n")
        count += 1
    assert count == 1553
    assert h.hexdigest() == CASES_N6_SHA256


def test_cases_check_the_size_first():
    for name in CONSTRUCTION_NAMES:
        for n, error in ((0, EmptyCarrier), (-1, EmptyCarrier), (True, SizeMismatch),
                         ("3", SizeMismatch), (2.0, SizeMismatch)):
            with pytest.raises(error):
                list(cases(name, n))


def test_all_cases_rejects_non_int_bounds():
    for n_max in (True, "3", 2.0, None):
        with pytest.raises(SizeMismatch):
            list(all_cases(n_max))


def test_unknown_construction_is_refused():
    with pytest.raises(ValueError, match="unknown construction"):
        list(cases("lo*nothing", 3))


def test_normal_forms_are_the_relabeling_orbits_of_the_parameters():
    # two cases have equal normal forms iff some permutation of D moves the
    # parameters of one onto the other's
    pairs = 0
    for name in CONSTRUCTION_NAMES:
        for n in range(1, 5):
            found = [(case, _normal_form(case), parameter_orbit(case.params))
                     for case in cases(name, n)]
            pairs += len(found) ** 2
            for r, form_r, orbit_r in found:
                for c, form_c, _ in found:
                    related = tuple(c.params.items()) in orbit_r
                    assert (form_r == form_c) == related, (r.describe(), c.describe())
    assert pairs == 5161
