import numpy as np
import pytest

from qibench import relent
from qibench.validation import random_physical_cov


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_cov():
    """Factory for random physical covariance matrices."""

    def make(rng, modes):
        return random_physical_cov(rng, modes)

    return make


@pytest.fixture
def mp_decompositions(monkeypatch):
    """List that grows by one entry per mp Gibbs decomposition."""
    calls = []
    decompose = relent._mp_gibbs_lndet

    def counting(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(relent, "_mp_gibbs_lndet", counting)
    return calls
