import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def interior_points(rng, count, dim, radius=0.8):
    z = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    scale = np.max(np.abs(z), axis=-1, keepdims=True)
    return radius * rng.uniform(0.1, 1.0, size=(count, 1)) * z / scale


@pytest.fixture
def make_interior_points(rng):
    def _make(count, dim, radius=0.8):
        return interior_points(rng, count, dim, radius)

    return _make
