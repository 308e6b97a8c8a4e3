import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hatt import (
    DenseTensor,
    ResourceLimitError,
    brute_force_max,
    core_limit,
    dense_cap,
    dense_limit,
    hadamard_dense,
)
from hatt import limits


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


@pytest.mark.parametrize("limit", (dense_limit, core_limit))
def test_caps_are_whole_numbers_from_one(limit):
    # int() would make 2.5 a cap of 2, and -5 is a cap nothing fits under
    for bad in (2.5, -5, 0, float("inf")):
        with pytest.raises(ValueError, match="cap must be"):
            with limit(bad):
                pass
    with limit(None):
        pass
    with limit(3.0):
        assert (dense_cap() if limit is dense_limit else limits._core_cap) == 3


def test_dense_cap_ignores_the_environment():
    env = dict(os.environ, HATT_DENSE_CAP="abc")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import hatt; print(hatt.dense_cap())"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1000000"


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        DenseTensor(np.array([1.0, np.nan]))
    big = DenseTensor(np.array([1e200, 1.0]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        hadamard_dense(big, big)


def test_construction_copies_the_callers_array():
    values = np.array([1.0, 2.0])
    x = DenseTensor(values)
    values[0] = 5.0  # still the caller's own, writable array
    assert x.values[0] == 1.0 and not x.values.flags.writeable
    assert DenseTensor(np.arange(3)).values.tolist() == [0.0, 1.0, 2.0]
    # a 0-d input is a 1-way tensor of one element
    scalar = DenseTensor(2.5)
    assert scalar.shape == (1,) and scalar.size == 1 and scalar.values.tolist() == [2.5]


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
