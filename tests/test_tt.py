import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatt import (
    TTCore,
    TTTensor,
    dense_limit,
    gaussian_tt,
    h_unfold,
    hadamard_dense,
    hatt,
    load_tt,
    partial_contracted_product,
    pkp_cores,
    relative_error,
    save_tt,
    tt_add,
    tt_dot,
    tt_hadamard,
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
            mat = mat @ tt.cores[k].slice(i)
        out[tuple(i - 1 for i in idx)] = mat[0, 0]
    return out


def test_tt_validation():
    with pytest.raises(ValueError):
        TTTensor([np.ones((2, 3, 1))])  # boundary rank
    with pytest.raises(ValueError):
        TTTensor([np.ones((1, 3, 2)), np.ones((3, 3, 1))])  # chain mismatch


def test_core_slice_one_based():
    core = TTCore(np.arange(12.0).reshape(2, 3, 2))
    assert core.slice(1).shape == (2, 2)
    with pytest.raises(IndexError):
        core.slice(0)
    with pytest.raises(IndexError):
        core.slice(4)


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


def test_tt_to_dense_hand_example():
    tt = TTTensor([np.array([[[1.0], [2.0]]]).reshape(1, 2, 1),
                   np.array([3.0, 4.0]).reshape(1, 2, 1)])
    assert np.array_equal(tt_to_dense(tt).values, [[3.0, 4.0], [6.0, 8.0]])


def test_tt_to_dense_ones():
    assert np.all(tt_to_dense(tt_ones((2, 3, 2))).values == 1.0)


def test_tt_to_dense_matches_slice_product(rng):
    tt = gaussian_tt((3, 2, 4), (1, 2, 3, 1), seed=5)
    assert np.allclose(tt_to_dense(tt).values, dense_from_slices(tt), atol=1e-13)


def test_partial_contracted_product_shape():
    tt = gaussian_tt((2, 3, 4, 2), (1, 2, 3, 2, 1), seed=1)
    out = partial_contracted_product(tt, 2, 3)
    assert out.shape == (2, 3, 4, 2)


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


def test_serialization_roundtrip(tmp_path, rng):
    tt = gaussian_tt((3, 4, 2), (1, 3, 2, 1), seed=14)
    path = tmp_path / "tensor.tt"
    save_tt(tt, path)
    back = load_tt(path)
    assert back.shape == tt.shape and back.ranks == tt.ranks
    for a, b in zip(tt.cores, back.cores):
        assert np.array_equal(a.values, b.values)


def test_serialization_rejects_other_files(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("not a container\n")
    with pytest.raises(ValueError):
        load_tt(path)


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


def test_load_truncated_container(tmp_path):
    tt = gaussian_tt((3, 3, 3, 3), (1, 2, 2, 2, 1), seed=15)
    path = tmp_path / "tensor.tt"
    save_tt(tt, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:40]))
    with pytest.raises(ValueError, match="malformed container"):
        load_tt(path)


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


@NON_FINITE
def test_load_rejects_non_finite(tmp_path, bad):
    tt = gaussian_tt((3, 3), (1, 2, 1), seed=16)
    path = tmp_path / "tensor.tt"
    save_tt(tt, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[-1] = f"{bad}\n"  # the last entry of the last core
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="non-finite"):
        load_tt(path)
