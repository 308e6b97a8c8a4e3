import warnings

import numpy as np
import pytest

from hatt import (
    DenseTensor,
    ResourceLimitError,
    SeparableFunctionSpec,
    TargetRankWarning,
    brute_force_max,
    fourier_tt,
    hadamard_dense,
    hatt,
    hilbert_tt,
    power_iteration_max,
    relative_error,
    separable_dense,
    separable_tt,
    tt_hadamard,
    tt_scale,
    tt_svd,
    tt_to_dense,
)
from hatt.apps import fourier_coefficients
from hatt.limits import dense_limit
from hatt.tt import TTTensor


# --- tt_svd -------------------------------------------------------------------


def test_tt_svd_rank_one_separable(rng):
    a, b, c = (rng.normal(size=4) for _ in range(3))
    dense = DenseTensor(np.einsum("i,j,k->ijk", a, b, c))
    out = tt_svd(dense, rel_tol=1e-12)
    assert out.ranks == (1, 1, 1, 1)
    assert relative_error(out, dense) <= 1e-12
    # a 1-way tensor is its own single core
    (core,) = tt_svd(a, targets=(1, 1)).cores
    assert np.array_equal(core.values, a.reshape(1, -1, 1))


def test_tt_svd_error_bound(rng):
    dense = DenseTensor(rng.normal(size=(4, 4, 4)))
    for tol in (0.5, 0.1, 1e-3):
        out = tt_svd(dense, rel_tol=tol)
        assert relative_error(out, dense) <= tol


def test_tt_svd_target_ranks(rng):
    dense = DenseTensor(rng.normal(size=(4, 4, 4)))
    out = tt_svd(dense, targets=2)
    assert out.ranks == (1, 2, 2, 1)


def test_tt_svd_keeps_only_nonzero_singular_values(rng):
    # a bond keeps no rank past its unfolding's last nonzero singular value
    x = np.zeros((4, 5, 6))
    x[1, 2, 3] = 2.5
    out = tt_svd(x, targets=3)
    assert out.ranks == (1, 1, 1, 1)
    assert np.array_equal(tt_to_dense(out).values, x)
    assert tt_svd(np.zeros((4, 5, 6)), targets=3).ranks == (1, 1, 1, 1)
    # a floating-point outer product's tail singular values are tiny but
    # not zero, so its bonds keep their targets
    a, b, c = (rng.normal(size=n) for n in (4, 5, 6))
    assert tt_svd(np.einsum("i,j,k->ijk", a, b, c), targets=3).ranks == (1, 3, 3, 1)


def test_tt_svd_argument_check(rng):
    dense = DenseTensor(rng.normal(size=(2, 2)))
    with pytest.raises(ValueError):
        tt_svd(dense)
    with pytest.raises(ValueError):
        tt_svd(dense, targets=1, rel_tol=1e-8)


def test_tt_svd_checks_the_rank_chain_of_a_one_way_tensor():
    # a 1-way tensor runs the bond loop zero times; its chain is (1, 1)
    with pytest.raises(ValueError, match="rank chain must have length 2"):
        tt_svd(np.arange(1.0, 5.0), targets=(1, 2, 1))


def test_tt_svd_rejects_scalars_and_negative_tolerances(rng):
    # a 0-d array has no mode to unfold, and a negative rel_tol would keep
    # full rank silently: both are named ValueErrors, not "math domain error"
    with pytest.raises(ValueError, match="at least one mode"):
        tt_svd(np.array(2.0), rel_tol=1e-8)
    with pytest.raises(ValueError, match="rel_tol"):
        tt_svd(rng.normal(size=(2, 3)), rel_tol=-1e-8)


# --- trigonometric series -----------------------------------------------------


def test_fourier_single_harmonic():
    y, z = fourier_tt((4, 4, 4), n_terms=1)
    (a,), (b,) = fourier_coefficients(1)
    n = 4 ** 3
    t = 2 * np.pi * np.arange(1, n + 1) / n
    assert np.allclose(tt_to_dense(y).values.ravel(), a * np.sin(t), atol=1e-12 * a)
    assert np.allclose(tt_to_dense(z).values.ravel(), b * np.cos(t), atol=1e-12 * b)


def test_fourier_low_ranks():
    n_terms = 2
    y, z = fourier_tt((4, 4, 4, 4), n_terms=n_terms, seed=1)
    bound = 2 * n_terms + 2
    assert all(r <= bound for r in y.ranks)
    assert all(r <= bound for r in z.ranks)


def test_fourier_coefficient_range_and_determinism():
    a1, b1 = fourier_coefficients(20, seed=5)
    a2, b2 = fourier_coefficients(20, seed=5)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert np.all((a1 >= 0.1) & (a1 <= 10.1))
    assert np.all((b1 >= 0.1) & (b1 <= 10.1))


def test_fourier_arguments_checked():
    with pytest.raises(ValueError, match="n_terms"):
        fourier_tt((4, 4), n_terms=0)
    with pytest.raises(ValueError, match="n_terms"):
        fourier_coefficients(0)
    with pytest.raises(ValueError, match="mode sizes"):
        fourier_tt((4, 0), n_terms=2)
    with pytest.raises(ValueError, match="at least one mode"):
        fourier_tt((), n_terms=2)
    with dense_limit(4 ** 3 - 1), pytest.raises(ResourceLimitError, match="sampled series"):
        fourier_tt((4, 4, 4), n_terms=2)


def test_fourier_product_pipeline():
    y, z = fourier_tt((8, 8, 8), n_terms=4, seed=2)
    n = 8 ** 3
    t = 2 * np.pi * np.arange(1, n + 1) / n
    a, b = fourier_coefficients(4, seed=2)
    harmonics = np.arange(1, len(a) + 1)
    samples = (np.sin(np.outer(t, harmonics)) @ a) * (np.cos(np.outer(t, harmonics)) @ b)
    product = tt_to_dense(tt_hadamard(y, z)).values.ravel()
    assert np.linalg.norm(product - samples) / np.linalg.norm(samples) <= 1e-10


# --- separable functions ------------------------------------------------------


def test_separable_rank_chain():
    spec = SeparableFunctionSpec("qing", 10, 3)
    assert separable_tt(spec).ranks == (1,) + (10,) * 9 + (1,)


def test_separable_of_one_mode_is_its_term():
    spec = SeparableFunctionSpec("alpine", 1, 5)
    (core,) = separable_tt(spec).cores
    assert np.array_equal(core.values, spec.term(1, spec.grid()).reshape(1, 5, 1))


def test_qing_dense_values():
    spec = SeparableFunctionSpec("qing", 2, 3)
    grid = spec.grid()
    dense = tt_to_dense(separable_tt(spec))
    for i1 in range(3):
        for i2 in range(3):
            expected = (grid[i1] - 1) ** 2 + (grid[i2] - 2) ** 2
            assert dense.values[i1, i2] == pytest.approx(expected, rel=1e-12)


def test_alpine_nonnegative():
    spec = SeparableFunctionSpec("alpine", 3, 5)
    assert np.all(tt_to_dense(separable_tt(spec)).values >= 0.0)


def test_separable_dense_oracle_agreement():
    for kind in ("qing", "alpine"):
        for d in (2, 3, 4):
            spec = SeparableFunctionSpec(kind, d, 6)
            lhs = tt_to_dense(separable_tt(spec)).values
            rhs = separable_dense(spec).values
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("kind", ("qing", "alpine"))
@pytest.mark.parametrize("d, n", ((1, 5), (2, 7), (3, 4), (6, 10)))
def test_separable_dense_is_the_broadcast_sum(kind, d, n):
    """The outer sums add the terms in the order of the direct broadcast
    sum, so the values agree bit for bit."""
    spec = SeparableFunctionSpec(kind, d, n)
    grid = spec.grid()
    direct = np.zeros((n,) * d)
    for i in range(1, d + 1):
        direct = direct + spec.term(i, grid).reshape((n,) + (1,) * (d - i))
    assert np.array_equal(separable_dense(spec).values, direct)


def test_separable_unknown_kind():
    with pytest.raises(ValueError):
        SeparableFunctionSpec("rosenbrock", 3, 4)
    with pytest.raises(ValueError, match="need d >= 1"):
        SeparableFunctionSpec("qing", 0, 4)


# --- Hilbert-type tensor ------------------------------------------------------


def test_hilbert_entries():
    y = hilbert_tt(4, 5, 6)
    interior = y.cores[1]
    assert interior.values[0, 0, 0] == pytest.approx(1.0 / 2.0)
    assert interior.values[1, 2, 3] == pytest.approx(1.0 / 8.0)  # 1/(2+3+4-1)
    for core in y.cores:
        assert np.all((core.values > 0.0) & (core.values <= 1.0))


def test_hilbert_chain():
    assert hilbert_tt(4, 5, 6).ranks == (1, 6, 6, 6, 1)
    with pytest.raises(ValueError, match="must be positive"):
        hilbert_tt(4, 5, 0)


# --- power iteration ----------------------------------------------------------


def test_power_iteration_rank_one_spike():
    # separable rank-1 tensor with a unique maximum
    g = np.array([1.0, 2.0, 3.0, 10.0])
    cores = [g.reshape(1, 4, 1), (g / 10.0).reshape(1, 4, 1), np.ones((1, 4, 1))]
    y = TTTensor(cores)
    exact, _ = brute_force_max(tt_to_dense(y))
    res = power_iteration_max(y, 2, max_iter=100, recompressor="tt-rounding", seed=0)
    assert abs(res.estimate - exact) / exact <= 1e-6
    assert res.iterations_used <= 100
    assert len(res.history) == res.iterations_used


def test_power_iteration_qing_accuracy():
    spec = SeparableFunctionSpec("qing", 4, 10)
    y = separable_tt(spec)
    exact, _ = brute_force_max(separable_dense(spec))
    res = power_iteration_max(y, 5, max_iter=100, recompressor="hatt-2", seed=1)
    assert abs(res.estimate - exact) / exact <= 1e-3


def test_power_iteration_scale_homogeneous():
    spec = SeparableFunctionSpec("qing", 3, 6)
    y = separable_tt(spec)
    res = power_iteration_max(y, 3, max_iter=40, recompressor="tt-rounding", seed=2)
    res_scaled = power_iteration_max(tt_scale(y, 7.0), 3, max_iter=40,
                                     recompressor="tt-rounding", seed=2)
    assert res_scaled.estimate == pytest.approx(7.0 * res.estimate, rel=1e-10)


@pytest.mark.parametrize("alg", ["tt-rounding", "rand-orth", "hatt-1", "hatt-2"])
def test_power_iteration_scale_equivariant_at_1e150(alg):
    # ||y ⊙ v||^2 is near 1e312 here, beyond float64; the iterate's norm is not
    y = separable_tt(SeparableFunctionSpec("qing", 4, 10))
    res = power_iteration_max(y, 4, recompressor=alg, seed=1)
    res_scaled = power_iteration_max(tt_scale(y, 1e150), 4, recompressor=alg, seed=1)
    assert res_scaled.estimate == pytest.approx(1e150 * res.estimate, rel=1e-13)


def test_power_iteration_first_readout_is_the_mean():
    # the iterate starts as the unit-norm constant tensor
    spec = SeparableFunctionSpec("alpine", 3, 8)
    res = power_iteration_max(separable_tt(spec), 4, max_iter=1, recompressor="hatt-2")
    mean = separable_dense(spec).values.mean()
    assert abs(res.history[0] - mean) <= 1e-12 * abs(mean)


@pytest.mark.parametrize("alg", ["hatt-2", "rand-orth"])
def test_power_iteration_clamps_to_the_product_ranks(alg):
    # the iterate's rank grows from 1, so early recompressions clamp; the
    # power iteration expects that and lets no warning escape
    y = separable_tt(SeparableFunctionSpec("qing", 4, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TargetRankWarning)
        power_iteration_max(y, 5, max_iter=5, recompressor=alg)


def test_power_iteration_restores_the_warning_filters():
    # the solve ignores its clamps through one filter for all its
    # iterations, and leaves the caller's filters as they were, also when
    # it raises
    y = separable_tt(SeparableFunctionSpec("qing", 4, 6))
    before = list(warnings.filters)
    power_iteration_max(y, 5, max_iter=5, recompressor="hatt-2")
    assert warnings.filters == before
    with pytest.raises(ArithmeticError, match="zero iterate"):
        power_iteration_max(tt_scale(y, 0.0), 5, max_iter=5, recompressor="hatt-2")
    assert warnings.filters == before


def test_power_iteration_backends_agree():
    spec = SeparableFunctionSpec("qing", 4, 10)
    y = separable_tt(spec)
    estimates = {}
    for alg in ("tt-rounding", "hatt-2"):
        vals = [power_iteration_max(y, 5, max_iter=100, recompressor=alg,
                                    seed=s).estimate for s in range(5)]
        estimates[alg] = np.asarray(vals)
    diff = np.abs(estimates["tt-rounding"] - estimates["hatt-2"])
    assert np.all(diff / np.abs(estimates["tt-rounding"]) <= 1e-6)


def test_power_iteration_unknown_backend():
    y = separable_tt(SeparableFunctionSpec("qing", 2, 4))
    with pytest.raises(ValueError):
        power_iteration_max(y, 2, recompressor="gradient-descent")


def test_power_iteration_needs_an_iteration():
    y = separable_tt(SeparableFunctionSpec("qing", 2, 4))
    with pytest.raises(ValueError, match="max_iter"):
        power_iteration_max(y, 2, max_iter=0)


# --- brute force oracle -------------------------------------------------------


def test_brute_force_agrees_with_power_iteration():
    spec = SeparableFunctionSpec("alpine", 3, 8)
    y = separable_tt(spec)
    exact, _ = brute_force_max(separable_dense(spec))
    res = power_iteration_max(y, 4, max_iter=100, recompressor="rand-orth", seed=3)
    assert abs(res.estimate - exact) / exact <= 1e-3


def test_fourier_recompression_error_decreases_with_rank():
    y, z = fourier_tt((8, 8, 8, 8), n_terms=8, seed=4)
    ref = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
    errs = []
    from hatt import hatt as hatt_sweep

    for ell in (2, 4, 6):
        seed_errs = [relative_error(hatt_sweep(y, z, ell, seed=s), ref)
                     for s in range(5)]
        errs.append(np.mean(seed_errs))
    assert errs[1] <= 1.1 * errs[0]
    assert errs[2] <= 1.1 * errs[1]


def test_fourier_recompression_per_seed_monotone():
    # for a fixed input and seed, growing the target rank never raises the
    # error beyond a 10% noise band
    y, z = fourier_tt((8, 8, 8, 8), n_terms=8, seed=4)
    ref = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
    from hatt import hatt as hatt_sweep

    for seed in range(5):
        errs = [relative_error(hatt_sweep(y, z, ell, seed=seed), ref)
                for ell in (2, 4, 6)]
        for a, b in zip(errs, errs[1:]):
            assert b <= 1.10 * a, (seed, errs)


@pytest.mark.filterwarnings("ignore::hatt.TargetRankWarning")
def test_fourier_error_at_the_dense_cap():
    # 10^6 elements fit the dense cap; the rank-16 reconstruction must not
    # build a larger intermediate on the way
    y, z = fourier_tt((10,) * 6, n_terms=20)
    x = hatt(y, z, 16, seed=0)
    err = relative_error(x, tt_hadamard(y, z))
    assert err <= 1e-6
