import pytest

from dgtrace.catalog import build_catalog, catalog, catalog_entry


@pytest.fixture(scope="session")
def cat():
    return catalog()


@pytest.fixture
def fresh_catalog():
    """A catalog built anew for one test: its algebras have empty memos, so
    the test sees every table, product and HH_0 presentation built cold."""
    return build_catalog()


@pytest.fixture(scope="session")
def a2():
    return catalog_entry("A2").algebra


@pytest.fixture(scope="session")
def a3():
    return catalog_entry("A3").algebra


@pytest.fixture(scope="session")
def m2():
    return catalog_entry("M2").algebra


@pytest.fixture(scope="session")
def kfield():
    return catalog_entry("k").algebra


@pytest.fixture(scope="session")
def kronecker():
    return catalog_entry("Kronecker").algebra
