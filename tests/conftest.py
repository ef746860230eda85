import multiprocessing

import pytest

from stellar import constructions
from stellar.constructions import corpus
from stellar.homology import QQ, FieldSpec


@pytest.fixture(scope="session")
def corp():
    return corpus()


@pytest.fixture
def fresh_corpus(monkeypatch):
    """corpus() and corpus_complex() on a corpus with nothing built yet."""
    c = constructions._Corpus()
    monkeypatch.setattr(constructions, "_CORPUS", c)
    return c


@pytest.fixture(scope="session")
def fields():
    return [QQ, FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(5)]


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts of the ``multiprocessing`` pools started during
    the test, in order."""
    started = []
    real_pool = multiprocessing.Pool

    def spy(processes=None, *args, **kwargs):
        started.append(processes)
        return real_pool(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    return started


@pytest.fixture
def stub_pool_sizes(monkeypatch):
    """The worker counts asked of ``multiprocessing.Pool`` during the test,
    in order, by a stub that maps in this process and starts none."""
    asked = []

    class StubPool:
        def __init__(self, processes=None):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", StubPool)
    return asked
