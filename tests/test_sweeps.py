"""Property tests of the recompression sweeps over random ragged inputs.

Shapes have 1 to 5 modes of size 1 to 6 and every train its own rank chain,
so targets and sketch ranks are often clamped to what a sweep can realize;
the clamp's TargetRankWarning is expected here and ignored.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatt import (
    ALGORITHMS,
    TTTensor,
    gaussian_tt,
    hadamard_dense,
    hatt,
    left_orthogonality_defect,
    load_tt,
    rand_orth,
    recompress_hadamard,
    save_tt,
    tt_hadamard,
    tt_rounding,
    tt_to_dense,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
pytestmark = pytest.mark.filterwarnings("ignore::hatt.TargetRankWarning")


@st.composite
def trains(draw, count):
    """`count` gaussian TT tensors of one random shape, each with its own
    random rank chain."""
    d = draw(st.integers(1, 5))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(d))
    seed = draw(st.integers(0, 2**31 - 1))
    return [gaussian_tt(shape, (1,) + tuple(draw(st.integers(1, 4)) for _ in range(d - 1))
                        + (1,), seed=seed + j)
            for j in range(count)]


def rel_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def full_rank_sketch(drawn, product):
    """`drawn` cut to the leading rows and columns of its cores so that no
    sketch rank exceeds the product's unfolding rank, which keeps every
    sketched matrix of full column rank once the sweeps clamp the rest.
    Above that rank, QR completes the basis from rounding noise, differently
    in the two sweeps."""
    shape, dense = product.shape, tt_to_dense(product).values
    chain = [1] + [min(drawn.ranks[k], np.linalg.matrix_rank(
        dense.reshape(math.prod(shape[:k]), -1))) for k in range(1, len(shape))] + [1]
    return TTTensor([c.values[:chain[k], :, :chain[k + 1]] for k, c in enumerate(drawn.cores)])


@SETTINGS
@given(trains(3))
def test_hatt_equals_rand_orth_on_the_product(tts):
    y, z, drawn = tts
    product = tt_hadamard(y, z)
    sketch = full_rank_sketch(drawn, product)
    got = hatt(y, z, sketch_tt=sketch)
    want = rand_orth(product, sketch_tt=sketch)
    assert got.ranks == want.ranks
    for a, b in zip(got.cores, want.cores):
        assert rel_gap(a.values, b.values) <= 1e-12


@SETTINGS
@given(trains(2), st.data())
def test_sweeps_return_equal_ranks(tts, data):
    y, z = tts
    targets = (1,) + tuple(data.draw(st.integers(1, 20)) for _ in range(y.d - 1)) + (1,)
    seed = data.draw(st.integers(0, 2**31 - 1))
    product = tt_hadamard(y, z)
    ranks = {hatt(y, z, targets, seed=seed).ranks, rand_orth(product, targets, seed=seed).ranks,
             tt_rounding(product, targets).ranks}
    assert len(ranks) == 1
    (got,) = ranks
    assert all(a <= min(b, t) for a, b, t in zip(got, product.ranks, targets))


@SETTINGS
@given(trains(2), st.integers(0, 2**31 - 1))
def test_full_targets_recover_the_product_left_orthogonally(tts, seed):
    y, z = tts
    dense = hadamard_dense(tt_to_dense(y), tt_to_dense(z)).values
    full = tuple(a * b for a, b in zip(y.ranks, z.ranks))
    for name in ALGORITHMS:
        out, _ = recompress_hadamard(name, y, z, full, seed=seed)
        assert rel_gap(tt_to_dense(out).values, dense) <= 1e-10, name
        assert left_orthogonality_defect(out) <= 1e-10, name


@SETTINGS
@given(trains(1))
def test_save_load_roundtrip_is_bit_exact(tts):
    (x,) = tts
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.tt")
        save_tt(x, path)
        back = load_tt(path)
    assert back.ranks == x.ranks
    assert all(np.array_equal(a.values, b.values) for a, b in zip(back.cores, x.cores))
