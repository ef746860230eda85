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
