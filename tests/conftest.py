import random

import pytest
from hypothesis import settings

from discgrad.hamiltonian import (make_crossterm, make_harmonic, make_pendulum)

# the property tests draw the same examples on every run and keep no
# example database, so the suite is deterministic
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def pendulum():
    return make_pendulum()


@pytest.fixture
def harmonic():
    return make_harmonic()


@pytest.fixture
def crossterm():
    return make_crossterm(0.5)


@pytest.fixture
def rng():
    return random.Random(20240817)
