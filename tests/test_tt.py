import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatt import (
    DenseTensor,
    ResourceLimitError,
    TTCore,
    TTTensor,
    core_limit,
    dense_limit,
    gaussian_tt,
    h_unfold,
    hadamard_dense,
    hatt,
    pkp_cores,
    relative_error,
    tt_add,
    tt_dot,
    tt_hadamard,
    tt_hadamard_dot,
    tt_norm,
    tt_ones,
    tt_scale,
    tt_svd,
    tt_to_dense,
    v_unfold,
)
from conftest import random_chain, random_pair


def dense_from_slices(tt):
    """Brute-force oracle: element = product of core slices."""
    out = np.empty(tt.shape)
    for idx in itertools.product(*(range(1, n + 1) for n in tt.shape)):
        mat = np.eye(1)
        for k, i in enumerate(idx):
            mat = mat @ tt.cores[k].values[:, i - 1, :]
        out[tuple(i - 1 for i in idx)] = mat[0, 0]
    return out


def test_tt_validation():
    with pytest.raises(ValueError):
        TTTensor([np.ones((2, 3, 1))])  # boundary rank
    with pytest.raises(ValueError):
        TTTensor([np.ones((1, 3, 2)), np.ones((3, 3, 1))])  # chain mismatch
    with pytest.raises(ValueError, match="3-way array, got ndim=2"):
        TTCore(np.ones((1, 3)))
    with pytest.raises(ValueError, match="at least one core"):
        TTTensor([])


def test_unfold_shapes_of_core():
    core = TTCore(np.zeros((3, 4, 5)))
    assert h_unfold(core).shape == (3, 20)
    assert v_unfold(core).shape == (12, 5)


def test_pkp_shape():
    y = TTCore(np.ones((2, 3, 4)))
    z = TTCore(np.ones((5, 3, 7)))
    assert pkp_cores(y, z).values.shape == (10, 3, 28)


def test_pkp_all_ones():
    out = pkp_cores(TTCore(np.ones((2, 2, 2))), TTCore(np.ones((3, 2, 2))))
    assert np.all(out.values == 1.0)


def test_pkp_entries_exhaustive(rng):
    y = TTCore(rng.normal(size=(2, 2, 2)))
    z = TTCore(rng.normal(size=(2, 2, 2)))
    out = pkp_cores(y, z)
    for a1, b1, i, a2, b2 in itertools.product(range(1, 3), repeat=5):
        row = (a1 - 1) * 2 + b1
        col = (a2 - 1) * 2 + b2
        assert out.values[row - 1, i - 1, col - 1] == pytest.approx(
            y.values[a1 - 1, i - 1, a2 - 1] * z.values[b1 - 1, i - 1, b2 - 1]
        )


def test_pkp_mode_mismatch():
    with pytest.raises(ValueError):
        pkp_cores(TTCore(np.ones((1, 2, 1))), TTCore(np.ones((1, 3, 1))))


def test_pkp_bound_overflows_but_no_element_does():
    # max|Y| max|Z| is 1e400, but Y's large entries sit in slice 1 and Z's
    # in slice 2 only, so no element of the product exceeds 1e200
    y, z = np.ones((2, 3, 2)), np.ones((2, 3, 2))
    y[:, 0], z[:, 1] = 1e200, 1e200
    out = pkp_cores(TTCore(y), TTCore(z)).values
    assert out.max() == 1e200
    assert np.array_equal(out, np.einsum("aic,bid->abicd", y, z).reshape(4, 3, 4))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ranks=st.tuples(*[st.integers(1, 5)] * 4), n=st.integers(1, 4),
       seed=st.integers(0, 2**31 - 1))
def test_pkp_is_the_einsum_bit_for_bit(ranks, n, seed):
    # ranks of 1 on either side, n = 1 and r != s all occur
    r1, r2, s1, s2 = ranks
    rng = np.random.default_rng(seed)
    y, z = rng.normal(size=(r1, n, r2)), rng.normal(size=(s1, n, s2))
    out = pkp_cores(TTCore(y), TTCore(z)).values
    want = np.einsum("aic,bid->abicd", y, z).reshape(r1 * s1, n, r2 * s2)
    assert np.array_equal(out, want)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pkp_core_cap_raises_before_allocating():
    y = z = TTCore(np.ones((20, 8, 20)))
    output_bytes = 20 * 20 * 8 * 20 * 20 * 8

    def capped():
        with core_limit(1000), pytest.raises(ResourceLimitError):
            pkp_cores(y, z)

    assert traced_peak(capped) < output_bytes / 100


def test_pkp_peak_is_the_output_and_small_operands():
    # besides the output: Z expanded across r2 (1/r1 of the output), one of
    # Y's rows expanded across s2 (n r2 s2 elements), and 64 KiB for numpy's
    # buffers
    rng = np.random.default_rng(5)
    y, z = (TTCore(rng.normal(size=(20, 8, 20))) for _ in range(2))
    output_bytes = 20 * 20 * 8 * 20 * 20 * 8
    bound = output_bytes * (1 + 1 / 20) + 8 * 20 * 20 * 8 + 2**16
    assert traced_peak(lambda: pkp_cores(y, z)) <= bound


def test_tt_to_dense_hand_example():
    tt = TTTensor([np.array([[[1.0], [2.0]]]).reshape(1, 2, 1),
                   np.array([3.0, 4.0]).reshape(1, 2, 1)])
    assert np.array_equal(tt_to_dense(tt).values, [[3.0, 4.0], [6.0, 8.0]])


def test_tt_to_dense_ones():
    assert np.all(tt_to_dense(tt_ones((2, 3, 2))).values == 1.0)


def test_tt_to_dense_matches_slice_product(rng):
    tt = gaussian_tt((3, 2, 4), (1, 2, 3, 1), seed=5)
    assert np.allclose(tt_to_dense(tt).values, dense_from_slices(tt), atol=1e-13)


def test_tt_svd_roundtrip(rng):
    tt = gaussian_tt((4, 4, 4), (1, 3, 3, 1), seed=9)
    dense = tt_to_dense(tt)
    back = tt_svd(dense, rel_tol=1e-12)
    assert back.ranks == (1, 3, 3, 1)
    assert relative_error(back, dense) <= 1e-11


def test_hadamard_with_ones_identity():
    y = gaussian_tt((3, 3, 3), (1, 2, 2, 1), seed=2)
    out = tt_hadamard(y, tt_ones(y.shape))
    assert out.ranks == y.ranks
    assert np.allclose(tt_to_dense(out).values, tt_to_dense(y).values)


def test_hadamard_rank_product():
    y = gaussian_tt((2, 2, 2), (1, 2, 2, 1), seed=3)
    z = gaussian_tt((2, 2, 2), (1, 3, 3, 1), seed=4)
    assert tt_hadamard(y, z).ranks == (1, 6, 6, 1)


def test_hadamard_dense_equivalence(rng):
    for trial in range(4):
        y, z = random_pair(rng, 3, 3, 3)
        left = tt_to_dense(tt_hadamard(y, z)).values
        right = hadamard_dense(tt_to_dense(y), tt_to_dense(z)).values
        denom = np.linalg.norm(right)
        assert np.linalg.norm(left - right) <= 1e-12 * max(denom, 1.0)


def test_pkp_hadamard_consistency_sweep(rng):
    # random shapes/chains with d <= 4, n <= 4, ranks <= 4
    for trial in range(6):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        y, z = random_pair(rng, d, n, 4)
        left = tt_to_dense(tt_hadamard(y, z)).values
        right = hadamard_dense(tt_to_dense(y), tt_to_dense(z)).values
        assert np.linalg.norm(left - right) <= 1e-12 * max(np.linalg.norm(right), 1.0)


def test_dot_nonnegative_and_norm_of_ones():
    y = gaussian_tt((2, 2, 2), (1, 2, 2, 1), seed=6)
    assert tt_dot(y, y) >= 0.0
    assert tt_norm(tt_ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0))


def test_add_rank_sums():
    y = gaussian_tt((4, 4), (1, 2, 1), seed=7)
    z = gaussian_tt((4, 4), (1, 3, 1), seed=8)
    out = tt_add(y, z)
    assert out.ranks == (1, 5, 1)
    assert np.allclose(tt_to_dense(out).values,
                       tt_to_dense(y).values + tt_to_dense(z).values)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_add_is_the_dense_sum_at_every_order(d):
    # one block rule for every core; the chains differ bond by bond
    y = gaussian_tt((3, 4, 2, 3)[:d], (1, 2, 3, 1, 1)[:d] + (1,), seed=d)
    z = gaussian_tt((3, 4, 2, 3)[:d], (1, 3, 1, 2, 1)[:d] + (1,), seed=d + 10)
    out = tt_add(y, z)
    assert out.ranks == (1, 5, 4, 3)[:d] + (1,)
    assert np.allclose(tt_to_dense(out).values,
                       tt_to_dense(y).values + tt_to_dense(z).values, rtol=1e-14, atol=1e-15)


def test_dot_matches_dense(rng):
    y, z = random_pair(rng, 3, 3, 3)
    dense = float(np.sum(tt_to_dense(y).values * tt_to_dense(z).values))
    assert tt_dot(y, z) == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_norm_consistency(rng):
    for trial in range(4):
        d = int(rng.integers(2, 5))
        tt = gaussian_tt((3,) * d, random_chain(rng, d, 4),
                         seed=int(rng.integers(0, 1000)))
        dense_norm = tt_to_dense(tt).norm()
        assert tt_norm(tt) == pytest.approx(dense_norm, rel=1e-10)


def test_scale():
    y = gaussian_tt((3, 3), (1, 2, 1), seed=11)
    assert np.allclose(tt_to_dense(tt_scale(y, -2.5)).values,
                       -2.5 * tt_to_dense(y).values)


def test_add_and_scale_reject_overflow():
    y = gaussian_tt((3, 3), (1, 2, 1), seed=11)
    line = TTTensor([np.full((1, 3, 1), 1e308)])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            tt_scale(tt_scale(y, 1e300), 1e300)
        with pytest.raises(ValueError, match="non-finite"):
            tt_add(line, line)


def test_add_and_scale_overflow_without_a_runtime_warning():
    # both raised numpy's overflow RuntimeWarning before TTCore's error
    y = gaussian_tt((3, 3), (1, 2, 1), seed=11)
    line = TTTensor([np.full((1, 3, 1), 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            tt_scale(tt_scale(y, 1e300), 1e300)
        with pytest.raises(ValueError, match="non-finite"):
            tt_add(line, line)


def test_inner_products_name_an_overflow_of_the_carry():
    # a change of gauge leaves the tensor as it is, but pushes the carry
    # after core 2 past float64; the answer is the balanced one or the
    # named error, never a NaN after numpy's RuntimeWarnings
    balanced = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=1)
    gauged = TTTensor([c.values * f for c, f in zip(balanced.cores, (1, 1e160, 1e-160, 1))])
    y = gaussian_tt((4,) * 4, (1, 2, 2, 2, 1), seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for inner in (lambda g: tt_dot(g, g), lambda g: tt_hadamard_dot(y, g, g)):
            want = inner(balanced)
            try:
                got = inner(gauged)
            except ValueError as err:
                assert "overflows float64" in str(err)
            else:
                assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_tt_norm_past_float64_is_inf_without_a_warning():
    y = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tt_norm(TTTensor([c.values * 1e200 for c in y.cores])) == np.inf


def test_dense_oracles_meet_an_overflow_without_a_warning():
    # cores 3 and 4 at 1e160: the train is finite, its entries (near 1e320)
    # are not.  Each of these warned first; relative_error's dense path
    # returned nan where its TT path returned inf
    x = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=1)
    x = TTTensor(x.cores[:2] + tuple(TTCore(c.values * 1e160) for c in x.cores[2:]))
    ref = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=2)
    big = DenseTensor(np.array([1e200, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            tt_to_dense(x)
        with pytest.raises(ValueError, match="non-finite"):
            hadamard_dense(big, big)
        assert relative_error(x, tt_to_dense(ref)) == np.inf  # the dense path
        with dense_limit(10):
            assert relative_error(x, ref) == np.inf  # the TT path


def test_dense_norms_past_1e154_match_the_tt_path_without_a_warning():
    # finite entries near 1e200 have squares past float64; the dense path
    # warned and returned inf (a large approximant) or nan (a large
    # reference), where the TT path rescales by powers of two
    x = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=1)
    ref = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=2)
    big_x, big_ref = tt_scale(x, 1e200), tt_scale(ref, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with dense_limit(10):
            tt_path = relative_error(big_x, ref)
            assert relative_error(x, big_ref) == pytest.approx(1.0, rel=1e-14)
        assert tt_path == pytest.approx(6.80e199, rel=1e-3)
        assert relative_error(big_x, tt_to_dense(ref)) == pytest.approx(tt_path, rel=1e-14)
        assert relative_error(x, tt_to_dense(big_ref)) == pytest.approx(1.0, rel=1e-14)
        assert tt_to_dense(big_x).norm() == pytest.approx(tt_norm(big_x), rel=1e-14)


def test_tensor_keeps_its_cores_and_checks_their_ranks():
    cores = [TTCore(np.ones((1, 3, 2))), TTCore(np.ones((2, 4, 1)))]
    out = TTTensor(cores)
    assert all(out.cores[k] is core for k, core in enumerate(cores))
    assert out.shape == (3, 4) and out.ranks == (1, 2, 1)
    with pytest.raises(ValueError, match="^rank mismatch between cores 1 and 2: 2 vs 3$"):
        TTTensor([cores[0], TTCore(np.ones((3, 4, 1)))])
    with pytest.raises(ValueError, match="^boundary ranks must be 1$"):
        TTTensor(cores[:1])


def test_relative_error_trivial_cases():
    y = gaussian_tt((3, 3, 3), (1, 2, 2, 1), seed=12)
    assert relative_error(y, y) == pytest.approx(0.0, abs=1e-14)
    assert relative_error(tt_scale(y, 2.0), y) == pytest.approx(1.0, rel=1e-12)


def test_relative_error_dual_path(rng):
    for trial in range(4):
        y, z = random_pair(rng, 3, 3, 3)
        dense = relative_error(y, z)
        with dense_limit(1):  # 27 elements exceed the cap: the TT-difference path
            tt_path = relative_error(y, z)
        assert tt_path == pytest.approx(dense, rel=1e-10, abs=1e-12)


def test_relative_error_dense_path_holds_one_tensor_sized_array():
    # 32768 elements: the approximation's dense values, made the difference
    # in place, are the only array of that size besides the reference
    x = gaussian_tt((8,) * 5, (1, 4, 4, 4, 4, 1), seed=1)
    ref = tt_to_dense(gaussian_tt((8,) * 5, (1, 3, 3, 3, 3, 1), seed=2))
    want = np.linalg.norm(tt_to_dense(x).values - ref.values) / ref.norm()
    assert relative_error(x, ref) == want
    assert traced_peak(lambda: relative_error(x, ref)) < 1.25 * ref.values.nbytes


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 5), n=st.integers(1, 5), rank=st.integers(1, 4),
       seed=st.integers(0, 2**31 - 1), k=st.integers(-300, 300))
def test_tt_norm_is_scale_safe(d, n, rank, seed, k):
    """No square of the norm is formed, so it neither overflows nor falls
    into the subnormals anywhere in the float64 range."""
    y = gaussian_tt((n,) * d, (1,) + (rank,) * (d - 1) + (1,), seed=seed)
    assert tt_norm(tt_scale(y, 10**k)) == pytest.approx(10**k * tt_norm(y), rel=1e-14, abs=0)


@pytest.mark.parametrize("factors, scale", [((1e200, 1e200, 1e-300, 1.0), 1e100),
                                            ((1e-200, 1e-200, 1e300, 1.0), 1e-100)])
def test_tt_norm_survives_partial_contractions_beyond_float64(factors, scale):
    """The first two cores alone contract to about 1e400 (or 1e-400), yet
    the norm itself is representable."""
    y = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=1)
    scaled = TTTensor([core.values * f for core, f in zip(y.cores, factors)])
    assert tt_norm(scaled) == pytest.approx(scale * tt_norm(y), rel=1e-14, abs=0)


@pytest.mark.filterwarnings("ignore::hatt.TargetRankWarning")
def test_relative_error_tt_path_resolves_rounding_level_errors():
    y = gaussian_tt((4,) * 5, (1, 3, 3, 3, 3, 1), seed=1)
    z = gaussian_tt((4,) * 5, (1, 2, 2, 2, 2, 1), seed=2)
    x, ref = hatt(y, z, 6, seed=3), tt_hadamard(y, z)
    dense = relative_error(x, ref)
    with dense_limit(1):
        tt_path = relative_error(x, ref)
    assert tt_path > 0.0
    assert abs(tt_path - dense) <= 1e-15


def test_relative_error_zero_reference():
    zero = TTTensor([np.zeros((1, 2, 1)), np.zeros((1, 2, 1))])
    y = tt_ones((2, 2))
    with pytest.raises(ZeroDivisionError):
        relative_error(y, zero)
    with dense_limit(1), pytest.raises(ZeroDivisionError, match="zero norm"):
        relative_error(y, zero)  # the TT path


def test_dense_cap_on_reconstruction():
    from hatt import ResourceLimitError, dense_limit

    tt = tt_ones((10, 10, 10))
    with dense_limit(100):
        with pytest.raises(ResourceLimitError):
            tt_to_dense(tt)


def test_tt_to_dense_of_high_rank_product_under_cap():
    # 32768 elements behind rank-400 bonds: a left-to-right sweep would
    # carry the trailing rank into a 1.6e6-element intermediate
    from hatt import hilbert_tt

    h = hilbert_tt(5, 8, 20)
    dense = tt_to_dense(h)
    got = tt_to_dense(tt_hadamard(h, h))
    want = hadamard_dense(dense, dense)
    assert np.max(np.abs(got.values - want.values)) <= 1e-14 * np.max(np.abs(want.values))


def test_tt_to_dense_ragged_ranks_match_slices(rng):
    for d in (1, 2, 3, 4):
        shape = tuple(int(n) for n in rng.integers(1, 4, size=d))
        tt = gaussian_tt(shape, random_chain(rng, d, 5), seed=int(rng.integers(0, 1000)))
        assert np.allclose(tt_to_dense(tt).values, dense_from_slices(tt), atol=1e-13)


# --- the finiteness invariant ---------------------------------------------------

NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])


@NON_FINITE
def test_core_rejects_non_finite(bad):
    values = np.ones((1, 3, 2))
    values[0, 1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        TTCore(values)


@NON_FINITE
def test_tensor_from_raw_arrays_rejects_non_finite(bad):
    last = np.ones((2, 3, 1))
    last[1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        TTTensor([np.ones((1, 3, 2)), last])
