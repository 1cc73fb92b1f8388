"""Shared fixtures: session-scoped hosts so the slow sampling runs once."""

import itertools

import pytest

from hampack import model
from hampack.model import ModelParams, sample_erased_digraph, sample_simple_digraph
from hampack.rng import rng_stream


@pytest.fixture(scope="session")
def sweep_cells():
    """Builds a sweep grid's cells, as run_sweep takes them: one
    ModelParams per (n, c, k) of ns x cs x ks, in grid order."""
    def cells(ns, cs, ks):
        return [ModelParams.make(n, c, k)
                for n, c, k in itertools.product(ns, cs, ks)]
    return cells


def _rejection(params):
    return "rejection"


@pytest.fixture
def rejection_path(monkeypatch):
    """Draw the test's degree vectors by full-vector rejection at every
    point.  Tests that pin a value on a sampled host use it, so that the
    host is the one the value was taken on."""
    monkeypatch.setattr(model, "degree_vector_path", _rejection)


@pytest.fixture(scope="session")
def tiny_params():
    # c=3 keeps the strict-rejection acceptance near e^-6: feasible in seconds
    return ModelParams.make(300, 3.0, 1)


@pytest.fixture(scope="session")
def tiny_host(tiny_params):
    sd, _ = sample_simple_digraph(tiny_params, rng_stream(424242, 0))
    return sd


@pytest.fixture(scope="session")
def host_5k():
    """n=5000, c=50, k=1 erased host: the main packing scale."""
    params = ModelParams.make(5000, 50.0, 1)
    sd, _ = sample_erased_digraph(params, rng_stream(171717, 0))
    return params, sd


@pytest.fixture(scope="session")
def host_k2():
    """n=2000, c=100, k=2 erased host, its degree vectors drawn by
    rejection (test_matching pins phase 1's output on it)."""
    params = ModelParams.make(2000, 100.0, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "degree_vector_path", _rejection)
        sd, _ = sample_erased_digraph(params, rng_stream(171717, 1))
    return params, sd
