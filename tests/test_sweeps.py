"""Property tests of the recompression sweeps over random ragged inputs.

Shapes have 1 to 5 modes of size 1 to 6 and every train its own rank chain,
so targets and sketch ranks are often clamped to what a sweep can realize;
the clamp's TargetRankWarning is expected here and ignored.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatt import (
    ALGORITHMS,
    TTTensor,
    gaussian_tt,
    hadamard_dense,
    hatt,
    left_orthogonality_defect,
    rand_orth,
    recompress_hadamard,
    tt_hadamard,
    tt_rounding,
    tt_svd,
    tt_to_dense,
)
from hatt import recompress
from hatt.recompress import _clamp_targets, _sketch, partial_contraction_rl
from hatt.tt import h_unfold

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


@st.composite
def wide_trains(draw):
    """A train whose ranks exceed what its modes can hold: a gaussian train
    with ranks up to 9 on modes of size 2 to 4, or the Hadamard product of
    two such trains with ranks up to 4."""
    d = draw(st.integers(2, 5))
    shape = tuple(draw(st.integers(2, 4)) for _ in range(d))
    seed = draw(st.integers(0, 2**31 - 1))

    def chain(high):
        return (1,) + tuple(draw(st.integers(1, high)) for _ in range(d - 1)) + (1,)

    if draw(st.booleans()):
        return gaussian_tt(shape, chain(9), seed=seed)
    return tt_hadamard(gaussian_tt(shape, chain(4), seed=seed),
                       gaussian_tt(shape, chain(4), seed=seed + 1))


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


def sketch_conditions(product, sketch):
    """κ(S_k) of every step k of an unslabbed randomized sweep of `product`
    under `sketch` (clamped as the sweeps clamp it), where S_k = C_k W^(k)
    is the sketched core update."""
    sketch = _sketch(product.shape, product.ranks, None, None, sketch)
    m, conditions = np.ones((1, 1)), []
    for core, w in zip(product.cores, partial_contraction_rl(product, sketch)):
        c = (m @ h_unfold(core)).reshape(-1, core.right_rank)
        s = c @ w
        conditions.append(np.linalg.cond(s))
        m = np.linalg.qr(s)[0].T @ c
    return conditions


def assert_cores_close(got, want, conditions):
    """Core k of `got` within 2 eps max_{j <= k} κ(S_j) + 1e-13 of core k
    of `want`, for two sweeps equal in exact arithmetic whose sketched core
    updates have the conditions κ(S_j) (see :func:`sketch_conditions`)."""
    eps = np.finfo(float).eps
    for k, (a, b) in enumerate(zip(got.cores, want.cores)):
        kappa = max(conditions[:k + 1], default=1.0)
        assert rel_gap(a.values, b.values) <= 2 * eps * kappa + 1e-13, (k, kappa)


# κ(S_3) = 2.0e5: hatt's and rand_orth's third cores differ by 5.8e-12 here,
# 0.13 eps κ, above a fixed 1e-12 bound
CONDITIONED = [gaussian_tt((6, 5, 4, 3), ranks, seed=757285346 + j)
               for j, ranks in enumerate(((1, 3, 4, 1, 1), (1, 1, 2, 3, 1), (1, 2, 3, 3, 1)))]


@SETTINGS
@given(trains(3))
@example(CONDITIONED)
def test_hatt_equals_rand_orth_on_the_product(tts):
    y, z, drawn = tts
    product = tt_hadamard(y, z)
    sketch = full_rank_sketch(drawn, product)
    got = hatt(y, z, sketch_tt=sketch)
    want = rand_orth(product, sketch_tt=sketch)
    assert got.ranks == want.ranks
    assert_cores_close(got, want, sketch_conditions(product, sketch))


def sweeps_in_slabs(y, z, sketch, max_terms, budget, min_slab=1):
    """hatt and rand_orth on the product under one sketch, with every sweep
    slab `min_slab` mode slices (budget 0; the last slab of a core is
    shorter where `min_slab` does not divide its mode size) or every core
    update in one slab (budget None)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recompress, "_MIN_SLAB", min_slab)
        mp.setattr(recompress, "_SWEEP_BLOCK", 1 << 60 if budget is None else budget)
        return (hatt(y, z, sketch_tt=sketch, max_terms=max_terms),
                rand_orth(tt_hadamard(y, z), sketch_tt=sketch))


@SETTINGS
@given(trains(3), st.sampled_from((None, 4)))
# the first core update (one row per slice) comes in slabs of one row,
# fewer than the target rank 3 of the first bond
@example([gaussian_tt((4, 3, 5), (1, 3, 2, 1), seed=s) for s in (1, 2, 3)], None)
@example(CONDITIONED, None)
def test_sweeps_agree_across_slabs(tts, max_terms):
    """The TSQR combine over one- and two-slice slabs (mode sizes 3 and 5
    end in a short slab) gives the one-slab sweep's cores, and keeps hatt
    equal to rand_orth (a cap of 4, the largest sketch rank drawn,
    truncates nothing)."""
    y, z, drawn = tts
    product = tt_hadamard(y, z)
    sketch = full_rank_sketch(drawn, product)
    conditions = sketch_conditions(product, sketch)
    whole = sweeps_in_slabs(y, z, sketch, max_terms, None)
    chain = _clamp_targets(sketch.ranks, y.shape, product.ranks)
    for min_slab in (1, 2):
        got, base = sweeps_in_slabs(y, z, sketch, max_terms, 0, min_slab)
        for out, ref in zip((got, base), whole):
            assert out.ranks == chain
            assert left_orthogonality_defect(out) <= 1e-12
            assert_cores_close(out, ref, conditions)
        for a, b in zip(got.cores, base.cores):
            assert rel_gap(a.values, b.values) <= 1e-10


@SETTINGS
@given(trains(3), st.sampled_from((None, 4)))
@example(CONDITIONED, None)
def test_sweep_gaps_follow_the_sketch_conditioning(tts, max_terms):
    """Two sweeps equal in exact arithmetic (hatt and rand_orth on the
    product under one sketch, a slabbed sweep and the one-slab sweep) give
    cores that differ as a QR's Q does under rounding: core k within
    2 eps max_{j <= k} κ(S_j), plus a floor of about 450 eps.  The tensors
    they represent agree to 1e-12."""
    y, z, drawn = tts
    product = tt_hadamard(y, z)
    sketch = full_rank_sketch(drawn, product)
    conditions = sketch_conditions(product, sketch)
    whole = sweeps_in_slabs(y, z, sketch, max_terms, None)
    pairs = [whole]
    for min_slab in (1, 2):
        pairs.extend(zip(sweeps_in_slabs(y, z, sketch, max_terms, 0, min_slab), whole))
    for got, want in pairs:
        assert_cores_close(got, want, conditions)
        assert rel_gap(tt_to_dense(got).values, tt_to_dense(want).values) <= 1e-12


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
@given(wide_trains(), st.data())
def test_tt_rounding_is_tt_svd_beyond_the_feasible_ranks(x, data):
    """Trimming the infeasible bonds changes the representation only: the
    rounded tensor is the sequential truncated SVD of the dense tensor at
    the clamped ranks."""
    targets = (1,) + tuple(data.draw(st.integers(1, 12)) for _ in range(x.d - 1)) + (1,)
    chain = _clamp_targets(targets, x.shape, x.ranks)
    out = tt_rounding(x, targets)
    assert out.ranks == chain
    want = tt_to_dense(tt_svd(tt_to_dense(x), chain)).values
    assert rel_gap(tt_to_dense(out).values, want) <= 1e-8
    assert left_orthogonality_defect(out) <= 1e-12


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
