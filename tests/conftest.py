import pytest

from nc_forge import construction
from nc_forge.sieve import build_tables


@pytest.fixture(scope="session")
def tables_small():
    """Tables to 10^4: enough for the worked examples."""
    return build_tables(10_000)


@pytest.fixture(scope="session")
def tables_1e6():
    return build_tables(10**6)


@pytest.fixture(scope="session")
def tables_1e7():
    return build_tables(10**7)


@pytest.fixture
def family_builds(monkeypatch):
    """The limits build_family builds tables to, one a build, from an empty memo."""
    calls = []
    real = construction.build_tables

    def counted(limit, **kwargs):
        calls.append(limit)
        return real(limit, **kwargs)

    monkeypatch.setattr(construction, "build_tables", counted)
    construction.build_family.cache_clear()
    return calls
