import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ldpc_forge import DegreeDistribution
from ldpc_forge.cli import load_claims, load_fixtures

settings.register_profile(
    "pkg",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("pkg")


@pytest.fixture(scope="session")
def fixtures():
    return load_fixtures()


@pytest.fixture(scope="session")
def claims():
    return load_claims()


@pytest.fixture(scope="session")
def rho_x7():
    return DegreeDistribution({8: 1.0})


@pytest.fixture(scope="session")
def rho_mix():
    return DegreeDistribution({7: 0.5330, 8: 0.4670}, published=True)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260825)
