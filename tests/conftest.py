import pytest

from ckforms import criteria
from ckforms.embeddings import product_algebra
from ckforms.realforms import build_real_form


@pytest.fixture(scope="session")
def so23():
    return build_real_form("so(2,3)")


@pytest.fixture(scope="session")
def so24():
    return build_real_form("so(2,4)")


@pytest.fixture(scope="session")
def so34():
    return build_real_form("so(3,4)")


@pytest.fixture(scope="session")
def so44():
    return build_real_form("so(4,4)")


@pytest.fixture(scope="session")
def su22():
    return build_real_form("su(2,2)")


@pytest.fixture(scope="session")
def so44xso24():
    return product_algebra("so(4,4)", "so(2,4)")


@pytest.fixture
def built_fact_algebras(monkeypatch):
    """The algebra of every pair fact that ``criteria`` builds in the test,
    which starts from an empty pair-fact memo."""
    built = []

    class Recorded(criteria._PairFacts):
        def __init__(self, alg, h, l):
            built.append(alg)
            super().__init__(alg, h, l)

    monkeypatch.setattr(criteria, "_PairFacts", Recorded)
    monkeypatch.setattr(criteria, "_pair_cache", {})
    return built
