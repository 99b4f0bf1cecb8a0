import numpy as np
import pytest

from qibench import homodyne, relent, special
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
    """List that grows by one entry per mp Gibbs decomposition, starting from an empty mp cache."""
    calls = []
    decompose = relent._mp_gibbs_lndet

    def counting(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(relent, "_mp_cache", {})
    monkeypatch.setattr(relent, "_mp_gibbs_lndet", counting)
    return calls


@pytest.fixture
def pair_terms(monkeypatch):
    """List that grows by three entries per pair whose mean-free mp terms are formed, starting from an empty mp cache."""
    calls = []
    trace = relent._mp_trace_of_product

    def counting(a, b):
        calls.append(None)
        return trace(a, b)

    monkeypatch.setattr(relent, "_mp_cache", {})
    monkeypatch.setattr(relent, "_mp_trace_of_product", counting)
    return calls


@pytest.fixture
def erfc_inv_calls(monkeypatch):
    """List that grows by one entry per call of the public erfc_inv, under every name."""
    calls = []
    inverse = special.erfc_inv

    def counting(y):
        calls.append(y)
        return inverse(y)

    monkeypatch.setattr(special, "erfc_inv", counting)
    monkeypatch.setattr(homodyne, "erfc_inv", counting)
    return calls
