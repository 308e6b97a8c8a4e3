import numpy as np
import pytest

from hatt import (
    DenseTensor,
    ResourceLimitError,
    brute_force_max,
    dense_limit,
    hadamard_dense,
)


def test_hadamard_identity(rng):
    x = DenseTensor(rng.normal(size=(3, 2, 4)))
    ones = DenseTensor(np.ones((3, 2, 4)))
    assert np.array_equal(hadamard_dense(x, ones).values, x.values)


def test_hadamard_shape_mismatch():
    with pytest.raises(ValueError):
        hadamard_dense(DenseTensor(np.ones((2, 2))), DenseTensor(np.ones((2, 3))))


def test_dense_cap():
    with dense_limit(10):
        with pytest.raises(ResourceLimitError):
            DenseTensor(np.zeros((3, 4)))
        DenseTensor(np.zeros((2, 5)))  # exactly at the cap is fine


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        DenseTensor(np.array([1.0, np.nan]))


def test_brute_force_max_ones():
    assert brute_force_max(DenseTensor(np.ones((2, 2, 2)))) == (1.0, (1, 1, 1))


def test_brute_force_max_spike():
    values = np.zeros((3, 4))
    values[1, 2] = 5.0
    assert brute_force_max(DenseTensor(values)) == (5.0, (2, 3))


def test_brute_force_max_tie_breaks_first():
    values = np.zeros((2, 2))
    values[0, 1] = values[1, 0] = 7.0
    assert brute_force_max(DenseTensor(values)) == (7.0, (1, 2))
