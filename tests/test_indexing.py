import itertools

import numpy as np
import pytest

from hatt import multi_index


def test_multi_index_all_ones():
    assert multi_index((1, 1), (3, 4)) == 1


def test_multi_index_formula():
    # i_d + (i_{d-1} - 1) n_d + ...
    assert multi_index((2, 3), (3, 4)) == 3 + (2 - 1) * 4


def test_multi_index_roundtrip_exhaustive():
    shape = (2, 3, 2)
    seen = set()
    for idx in itertools.product(*(range(1, n + 1) for n in shape)):
        flat = multi_index(idx, shape)
        # last index fastest: the C-order flat position, plus one
        assert flat == np.ravel_multi_index([i - 1 for i in idx], shape) + 1
        seen.add(flat)
    assert seen == set(range(1, 2 * 3 * 2 + 1))


def test_multi_index_bijective_larger():
    shape = (5, 4, 7, 3)  # prod = 420 <= 1e4
    total = int(np.prod(shape))
    flats = {
        multi_index(idx, shape)
        for idx in itertools.product(*(range(1, n + 1) for n in shape))
    }
    assert flats == set(range(1, total + 1))


def test_multi_index_bounds_error():
    with pytest.raises(IndexError):
        multi_index((0, 1), (3, 4))
    with pytest.raises(IndexError):
        multi_index((1, 5), (3, 4))
    with pytest.raises(IndexError):
        multi_index((1, 1, 1), (3, 4))

