import pytest
from hypothesis import settings

import dimonoids.catalog as catalog
from dimonoids import classify, enumerate_dimonoids_backtracking, enumerate_semigroups

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts without the per-process lex leaders, right tables
    and iso catalogs of `dimonoids.catalog`, so a test that counts fills sees
    the cold call whatever ran before it."""
    catalog._semigroup_leaders.cache_clear()
    catalog._leader_right_tables.cache_clear()
    catalog._iso_catalog.cache_clear()


@pytest.fixture(scope="session")
def semigroups():
    """All labeled associative tables, by order."""
    return {n: list(enumerate_semigroups(n)) for n in (1, 2, 3)}


@pytest.fixture(scope="session")
def catalogs():
    """Isomorphism-class catalogs, by order."""
    return {n: classify(n) for n in (1, 2, 3)}


@pytest.fixture(scope="session")
def order_four():
    """Every labeled dimonoid of order 4, by the backtracking route."""
    return list(enumerate_dimonoids_backtracking(4, max_n=4))


@pytest.fixture(scope="session")
def classes_four():
    """The 734 isomorphism-class representatives of order 4."""
    return [e.canonical for e in classify(4)]
