import numpy as np
import pytest

from slicereg import PowerSeries, Quaternion, SphereSample, ball_spec, starlike_spec
from slicereg.counterexample import (BranchedLogFamily, CounterexampleConfig,
                                     log_pair, omega_spec)


@pytest.fixture(scope="session")
def cfg():
    return CounterexampleConfig()


@pytest.fixture(scope="session")
def omega(cfg):
    return omega_spec(cfg)


@pytest.fixture(scope="session")
def sample64(cfg):
    return SphereSample(64, extra=[cfg.axis])


@pytest.fixture(scope="session")
def sample16():
    return SphereSample(16)


@pytest.fixture(scope="session")
def ball():
    return ball_spec(0.0, 1.0)


@pytest.fixture(scope="session")
def star():
    return starlike_spec(0.5)


@pytest.fixture(scope="session")
def logs(cfg):
    return log_pair(cfg)


@pytest.fixture(scope="session")
def log_family(cfg):
    return BranchedLogFamily(cfg)


def random_quaternion(rng, scale=1.0):
    return Quaternion(*(scale * rng.uniform(-1.0, 1.0, size=4)))


def random_unit(rng):
    from slicereg import UnitImaginary
    v = rng.normal(size=3)
    while np.linalg.norm(v) < 1e-6:
        v = rng.normal(size=3)
    return UnitImaginary(*v)


def random_polynomial(rng, max_degree=8, scale=1.0):
    deg = int(rng.integers(1, max_degree + 1))
    return PowerSeries(tuple(random_quaternion(rng, scale)
                             for _ in range(deg + 1)))
