import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from relctrl import build_example
from relctrl.corpus import random_array_spec  # noqa: F401  (imported by the tests)

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture(scope="session")
def watertanks():
    return build_example("watertanks")


@pytest.fixture(scope="session")
def watertanks_ring():
    return build_example("watertanks-ring")


@pytest.fixture(scope="session")
def oscillators_a():
    return build_example("oscillators-a")


@pytest.fixture(scope="session")
def oscillators_b():
    return build_example("oscillators-b")


@pytest.fixture(scope="session")
def counterexample():
    return build_example("counterexample-23")


@pytest.fixture(scope="session")
def chain_ring():
    return build_example("integrator-chain-ring")


def random_unit_incidence(rng, q_max=6, p_max=8) -> np.ndarray:
    """Random q x p matrix whose columns are e_i - e_j."""
    q = int(rng.integers(2, q_max + 1))
    p = int(rng.integers(1, p_max + 1))
    G = np.zeros((q, p))
    for s in range(p):
        i, j = rng.choice(q, size=2, replace=False)
        G[i, s] = 1.0
        G[j, s] = -1.0
    return G


def all_pairs(q):
    return [(k, l) for k in range(1, q + 1) for l in range(1, q + 1) if k != l]
