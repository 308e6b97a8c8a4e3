import re
import warnings

import numpy as np
import pytest

from hatt import (
    ALGORITHMS,
    FlopLedger,
    TargetRankWarning,
    contract_m_onto_pkp,
    core_limit,
    flop_model,
    gaussian_tt,
    hadamard_dense,
    hatt,
    hpcrl,
    partial_contraction_rl,
    power_iteration_max,
    rand_orth,
    random_tt,
    rank1_decompose,
    recompress_hadamard,
    relative_error,
    left_orthogonality_defect,
    tt_add,
    tt_hadamard,
    tt_ones,
    tt_rounding,
    tt_scale,
    tt_svd,
    tt_to_dense,
    truncated_svd,
    uniform_chain,
)
from hatt import recompress
from hatt.linalg import SVD_COST_FACTOR
from hatt.recompress import normalize_targets
from hatt.tt import TTCore, TTTensor, h_unfold
from hatt.apps import hilbert_tt
from hatt.bench import Scenario
from conftest import random_pair


def counts(ledger):
    return ledger.matmul_flops, ledger.qr_flops, ledger.svd_flops


def sketch_rel_errors(a, b):
    return [
        np.linalg.norm(wa - wb) / max(np.linalg.norm(wa), 1e-300)
        for wa, wb in zip(a, b)
    ]


# --- partial contraction ------------------------------------------------------


def test_partial_contraction_zero_input():
    zero = TTTensor([np.zeros((1, 3, 2)), np.zeros((2, 3, 2)), np.zeros((2, 3, 1))])
    sketch = gaussian_tt((3, 3, 3), (1, 2, 2, 1), seed=0)
    w = partial_contraction_rl(zero, sketch)
    assert all(np.all(m == 0.0) for m in w)


def test_partial_contraction_matches_definition(rng):
    # W^(1) = H<A^{2:3}> H<R^{2:3}>^T computed densely
    a = gaussian_tt((3, 4, 5), (1, 3, 2, 1), seed=1)
    r = gaussian_tt((3, 4, 5), (1, 2, 3, 1), seed=2)
    w = partial_contraction_rl(a, r)
    tail_a = np.tensordot(a.cores[1].values, a.cores[2].values, axes=1).reshape(3, -1)
    tail_r = np.tensordot(r.cores[1].values, r.cores[2].values, axes=1).reshape(2, -1)
    direct = tail_a @ tail_r.T
    assert np.linalg.norm(w[0] - direct) / np.linalg.norm(direct) <= 1e-12


def test_partial_contraction_slice_form_agrees(rng):
    a = gaussian_tt((3, 3, 3, 3), (1, 3, 3, 3, 1), seed=3)
    r = gaussian_tt((3, 3, 3, 3), (1, 2, 2, 2, 1), seed=4)
    w = partial_contraction_rl(a, r)
    # slice recursion: W^(k-1) = sum_i A^(k)(i) W^(k) R^(k)(i)^T, W^(k) = w[k - 1]
    for k in range(a.d - 1, 1, -1):
        acc = np.zeros_like(w[k - 2])
        for i in range(1, 4):
            ai, ri = a.cores[k - 1].values[:, i - 1, :], r.cores[k - 1].values[:, i - 1, :]
            acc += ai @ w[k - 1] @ ri.T
        assert np.max(np.abs(acc - w[k - 2])) <= 1e-13 * max(1.0, np.max(np.abs(w[k - 2])))


# --- rank-1 representations ---------------------------------------------------


def test_rank1_svd_rank_one(rng):
    w = np.outer(rng.normal(size=6), rng.normal(size=3))
    rep = rank1_decompose(w, 3)
    assert len(rep.s) == 1
    assert np.allclose(rep.u @ np.diag(rep.s) @ rep.v.T, w, atol=1e-12)


def test_rank1_decompose_keeps_the_terms_above_1e_10_sigma_1():
    # HaTT-1's term rule: singular values above 1e-10 sigma_1, at most
    # max_terms of them, and at least one (test_rank1_svd_rank_one: a rank-1
    # outer product keeps one)
    assert np.array_equal(rank1_decompose(np.diag([3.0, 2.0, 1e-11]), 3).s, [3.0, 2.0])
    zero = rank1_decompose(np.zeros((3, 2)), 2)
    assert zero.s.tolist() == [0.0] and zero.u.shape == (3, 1) and zero.v.shape == (2, 1)
    x = np.diag([3.0, 2.0, 1.0])
    assert np.array_equal(rank1_decompose(x, 2).s, [3.0, 2.0])
    assert np.array_equal(rank1_decompose(x, 2.0).s, [3.0, 2.0])
    assert len(rank1_decompose(x, 5).s) == 3


@pytest.mark.parametrize("value, match", ((0, ">= 1"), (-1, ">= 1"), (2.5, "whole numbers")))
def test_rank1_decompose_max_terms_are_whole_numbers_from_one(value, match):
    with pytest.raises(ValueError, match=f"max_terms must be {match}"):
        rank1_decompose(np.diag([3.0, 2.0, 1.0]), value)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf), ids=("nan", "inf", "-inf"))
def test_rank1_decompose_names_a_non_finite_input_without_a_warning(bad):
    # numpy's SVD raises LinAlgError on this NaN and, on this inf, does not
    # return; truncated_svd's scan before it names both with one ValueError,
    # charged nothing
    w = np.diag([3.0, 2.0, 1.0])
    w[2, 0] = bad
    ledger = FlopLedger()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^truncated_svd input contains non-finite values$"):
            rank1_decompose(w, 2, ledger)
    assert ledger.total() == 0


def test_rank1_svd_hilbert_truncation():
    # sketches of a Hilbert-type square have fast singular decay
    y = hilbert_tt(4, 5, 8)
    sketch = gaussian_tt(y.shape, (1, 10, 10, 10, 1), seed=5)
    w = hpcrl(y, y, sketch)[1]
    rep = rank1_decompose(w, 5)
    assert len(rep.s) <= 5
    recon = rep.u @ np.diag(rep.s) @ rep.v.T
    from hatt import truncated_svd

    full = truncated_svd(w, target_rank=min(w.shape))
    tail = np.sqrt(np.sum(full.s[len(rep.s):] ** 2))
    assert np.linalg.norm(w - recon) == pytest.approx(tail, rel=1e-8, abs=1e-14)


# --- hpcrl ---------------------------------------------------------------------


def test_hpcrl_direct_matches_materialized(rng):
    for trial in range(5):
        d = int(rng.integers(3, 5))
        y, z = random_pair(rng, d, 3, 4)
        sketch = gaussian_tt(y.shape, tuple([1] + [3] * (d - 1) + [1]),
                             seed=int(rng.integers(0, 1000)))
        ref = partial_contraction_rl(tt_hadamard(y, z), sketch)
        got = hpcrl(y, z, sketch)
        assert max(sketch_rel_errors(ref, got)) <= 1e-12


def test_hpcrl_untruncated_svd_matches(rng):
    y, z = random_pair(rng, 4, 3, 3)
    sketch = gaussian_tt(y.shape, (1, 4, 4, 4, 1), seed=17)
    ref = partial_contraction_rl(tt_hadamard(y, z), sketch)
    got = hpcrl(y, z, sketch, max_terms=4)
    assert max(sketch_rel_errors(ref, got)) <= 1e-11


def test_hpcrl_ones_factor(rng):
    y = gaussian_tt((3, 3, 3), (1, 3, 2, 1), seed=21)
    ones = tt_ones(y.shape)
    sketch = gaussian_tt(y.shape, (1, 2, 2, 1), seed=22)
    got = hpcrl(y, ones, sketch)
    inflated = tt_hadamard(y, ones)  # trivially inflated rank chain
    ref = partial_contraction_rl(inflated, sketch)
    assert max(sketch_rel_errors(ref, got)) <= 1e-13


# --- core update without the product core --------------------------------------


def test_contract_m_scalar_ranks():
    y = np.array([[[2.0], [3.0]]]).reshape(1, 2, 1)
    z = np.array([[[5.0], [7.0]]]).reshape(1, 2, 1)
    m = np.array([[1.0], [4.0]])
    out = contract_m_onto_pkp(m, y, z)
    # slice i equals m * (y_i * z_i)
    assert np.allclose(out[:, 0, 0], [10.0, 40.0])
    assert np.allclose(out[:, 1, 0], [21.0, 84.0])


def test_contract_m_matches_materialized(rng):
    y = rng.normal(size=(2, 4, 3))
    z = rng.normal(size=(2, 4, 2))
    m = rng.normal(size=(5, 4))
    out = contract_m_onto_pkp(m, y, z)
    for i in range(1, 5):
        direct = m @ np.kron(y[:, i - 1, :], z[:, i - 1, :])
        assert np.allclose(out[:, i - 1, :], direct, atol=1e-13)


def test_contract_m_flop_charge():
    ledger = FlopLedger()
    y = np.ones((2, 3, 2))
    z = np.ones((2, 3, 2))
    m = np.ones((2, 4))
    contract_m_onto_pkp(m, y, z, ledger)
    # per-core update cost 2 n r s ell (r + s - 1) at n=3, r=s=ell=2
    assert ledger.matmul_flops == 2 * 3 * 2 * 2 * 2 * (2 + 2 - 1)


# --- tt_rounding ----------------------------------------------------------------


def test_tt_rounding_lossless():
    y, z = (gaussian_tt((3, 3, 3), (1, 2, 2, 1), seed=s) for s in (30, 31))
    a = tt_hadamard(y, z)
    with pytest.warns(TargetRankWarning, match="l_1: 4 -> 3, l_2: 4 -> 3"):
        out = tt_rounding(a, 4)
    assert relative_error(out, tt_to_dense(a)) <= 1e-12
    assert out.ranks == (1, 3, 3, 1)  # feasibility-capped at both bonds


def test_tt_rounding_matches_dense_sequential_truncation(rng):
    a = gaussian_tt((3, 3, 3, 3), (1, 4, 4, 4, 1), seed=33)
    dense = tt_to_dense(a)
    out = tt_rounding(a, 2)
    oracle = tt_svd(dense, targets=2)
    err = relative_error(out, dense)
    err_oracle = relative_error(oracle, dense)
    assert err <= 1.05 * err_oracle


def test_tt_rounding_flops_near_model():
    y = gaussian_tt((10,) * 7, (1, 6, 6, 6, 6, 6, 6, 1), seed=1)
    z = gaussian_tt((10,) * 7, (1, 6, 6, 6, 6, 6, 6, 1), seed=2)
    ledger = FlopLedger()
    tt_rounding(tt_hadamard(y, z), 4, ledger=ledger)
    model = flop_model("tt-rounding", 7, 10, 6, 6, 4)
    assert 0.65 * model <= ledger.total() <= 1.35 * model


def test_tt_rounding_trims_infeasible_bonds_before_orthogonalizing():
    # the product ranks are 400, but bonds 1-4 can hold at most 8, 64, 64, 8;
    # QR-factoring the untrimmed 3200 x 400 unfoldings charges 2.97e9 flops
    h = hilbert_tt(5, 8, 20)
    ledger = FlopLedger()
    tt_rounding(tt_hadamard(h, h), 8, ledger=ledger)
    assert ledger.total() <= 0.5e9


@pytest.mark.parametrize("ell, matmul_flops", [(4, 231_312_672), (8, 231_637_056)])
def test_tt_rounding_merges_wide_unfoldings_without_qr(ell, matmul_flops):
    # bonds 1-4 hold 8, 64, 64, 8 of the product ranks 400: the 8 x 400 and
    # 64 x 400 unfoldings merge into their neighbours, each by one GEMM of
    # the shape a QR's R or L would take, so no QR factors them
    h = hilbert_tt(5, 8, 20)
    ledger = FlopLedger()
    tt_rounding(tt_hadamard(h, h), ell, ledger=ledger)
    assert ledger.matmul_flops == matmul_flops
    assert ledger.qr_flops <= 1.0e7


def test_tt_rounding_invalid_targets():
    a = gaussian_tt((3, 3), (1, 2, 1), seed=5)
    with pytest.raises(ValueError):
        tt_rounding(a, (2, 2, 2))  # boundary ranks not 1


# --- rand_orth ------------------------------------------------------------------


def test_rand_orth_exact_recovery():
    a = gaussian_tt((4, 4, 4), (1, 3, 3, 1), seed=40)
    out = rand_orth(a, 3, seed=41)
    assert relative_error(out, tt_to_dense(a)) <= 1e-10


def test_rand_orth_error_versus_rounding(rng):
    a = gaussian_tt((3, 3, 3, 3), (1, 4, 4, 4, 1), seed=42)
    dense = tt_to_dense(a)
    base = relative_error(tt_rounding(a, 2), dense)
    errs = [relative_error(rand_orth(a, 2, seed=s), dense) for s in range(5)]
    assert np.mean(errs) <= 3.0 * base


def test_rand_orth_seed_deterministic():
    a = gaussian_tt((3, 3, 3), (1, 3, 3, 1), seed=43)
    x1 = rand_orth(a, 2, seed=9)
    x2 = rand_orth(a, 2, seed=9)
    for c1, c2 in zip(x1.cores, x2.cores):
        assert np.array_equal(c1.values, c2.values)


def test_rand_orth_requires_seed_or_sketch():
    a = gaussian_tt((3, 3), (1, 2, 1), seed=44)
    with pytest.raises(ValueError):
        rand_orth(a, 2)


# --- hatt -----------------------------------------------------------------------


def test_hatt_no_compression_equals_product(rng):
    y, z = random_pair(rng, 4, 4, 2)
    targets = tuple(a * b for a, b in zip(y.ranks, z.ranks))
    out = hatt(y, z, targets, seed=50)
    ref = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
    assert relative_error(out, ref) <= 1e-10


def test_hatt_error_versus_rounding(rng):
    y = gaussian_tt((4, 4, 4, 4), (1, 3, 3, 3, 1), seed=51)
    z = gaussian_tt((4, 4, 4, 4), (1, 3, 3, 3, 1), seed=52)
    ref = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
    base = relative_error(tt_rounding(tt_hadamard(y, z), 4), ref)
    errs = [relative_error(hatt(y, z, 4, seed=s), ref) for s in range(5)]
    assert np.mean(errs) <= 3.0 * base


# random product ranks can fall below the sketch's, which clamps it
@pytest.mark.filterwarnings("ignore::hatt.TargetRankWarning")
def test_hatt_equals_rand_orth_with_shared_sketch(rng):
    for trial in range(3):
        y, z = random_pair(rng, 4, 3, 3)
        targets = (1, 3, 3, 3, 1)
        sketch = gaussian_tt(y.shape, targets, seed=60 + trial)
        via_hatt = hatt(y, z, sketch_tt=sketch)
        via_baseline = rand_orth(tt_hadamard(y, z), sketch_tt=sketch)
        err = relative_error(via_hatt, via_baseline)
        assert err <= 1e-11


def test_caller_sketch_is_fitted_to_the_product():
    y = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=62)
    sketch = gaussian_tt(y.shape, (1, 4, 16, 4, 1), seed=63)  # l_2 = 16 > r s = 9
    with pytest.warns(TargetRankWarning, match="l_2: 16 -> 9") as from_hatt:
        via_hatt = hatt(y, y, sketch_tt=sketch)
    with pytest.warns(TargetRankWarning, match="l_2: 16 -> 9") as from_baseline:
        via_baseline = rand_orth(tt_hadamard(y, y), sketch_tt=sketch)
    assert {w.filename for w in [*from_hatt, *from_baseline]} == {__file__}
    assert via_hatt.ranks == via_baseline.ranks == (1, 4, 9, 4, 1)
    assert relative_error(via_hatt, via_baseline) <= 1e-11
    with pytest.raises(ValueError, match="sketch tensor shape"):
        hatt(y, y, sketch_tt=gaussian_tt((4, 4, 4, 5), (1, 2, 2, 2, 1), seed=64))


def test_hatt_clamps_excessive_targets():
    y = gaussian_tt((4, 4, 4), (1, 2, 2, 1), seed=70)
    z = gaussian_tt((4, 4, 4), (1, 2, 2, 1), seed=71)
    with pytest.warns(TargetRankWarning):
        out = hatt(y, z, 9, seed=72)  # 9 > r s = 4
    assert max(out.ranks) <= 4


@pytest.mark.parametrize("shape, rank, target, want", [
    ((5,) * 4, 2, 6, (1, 4, 4, 4, 1)),  # no sweep exceeds the product rank 4
    ((4, 4, 4, 2), 3, 9, (1, 4, 8, 2, 1)),  # l_3 <= n_4 and l_2 <= l_3 n_3
])
def test_sweeps_share_one_rank_rule(shape, rank, target, want):
    chain = (1,) + (rank,) * (len(shape) - 1) + (1,)
    y, z = (gaussian_tt(shape, chain, seed=s) for s in (76, 77))
    product = tt_hadamard(y, z)
    with pytest.warns(TargetRankWarning) as record:
        outs = [hatt(y, z, target, seed=78), rand_orth(product, target, seed=78),
                tt_rounding(product, target)]
    assert [out.ranks for out in outs] == [want] * 3
    assert len(record) == 3 and {w.filename for w in record} == {__file__}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clamp_warning_names_the_caller_of_recompress_hadamard(algorithm):
    # the clamp runs three or four calls deep in the package; the warning
    # still names this line
    y = random_tt((4,) * 3, (1, 2, 2, 1), "gaussian", 1)
    with pytest.warns(TargetRankWarning) as record:
        recompress_hadamard(algorithm, y, y, 100, seed=0)
    assert len(record) == 1 and record[0].filename == __file__


def test_hatt_avoids_product_cores():
    # cap forbids any product-core allocation; hatt still completes
    y = gaussian_tt((5,) * 5, (1, 8, 8, 8, 8, 1), seed=73)
    z = gaussian_tt((5,) * 5, (1, 8, 8, 8, 8, 1), seed=74)
    cap = 8 * 8 * 5 * 8 * 8 - 1  # below any interior product core
    with core_limit(cap):
        with pytest.raises(Exception):
            tt_hadamard(y, z)
        out = hatt(y, z, 4, seed=75)
    assert out.ranks == (1, 4, 4, 4, 4, 1)


@pytest.mark.filterwarnings("ignore::hatt.TargetRankWarning")
def test_left_orthogonality_after_each_sweep(rng):
    y, z = random_pair(rng, 4, 3, 3)
    a = tt_hadamard(y, z)
    for out in (
        tt_rounding(a, 3),
        rand_orth(a, 3, seed=80),
        hatt(y, z, 3, seed=80),
        hatt(y, z, 3, max_terms=3, seed=80),
    ):
        assert left_orthogonality_defect(out) <= 1e-10


# --- flop model -----------------------------------------------------------------


def test_flop_model_reference_values():
    assert flop_model("tt-rounding", 7, 10, 2, 2, 2) == 27200
    assert flop_model("rand-orth", 7, 10, 2, 2, 2) == 11200
    assert flop_model("hatt-2", 7, 10, 2, 2, 2) == 11200
    # hatt-1 keeps min(max_terms, ell) terms per sketch, ell when uncapped
    for max_terms in (None, 5):
        assert flop_model("hatt-1", 7, 10, 2, 2, 2, max_terms=max_terms) == 12320
    assert flop_model("hatt-1", 7, 10, 2, 2, 2, max_terms=1) == 9920


@pytest.mark.parametrize("d", (1, 2))
def test_flop_model_predicts_nothing_without_interior_cores(d):
    # the model counts the d - 2 interior cores only, so d = 1 must not
    # predict negative flops
    for name in ALGORITHMS:
        assert flop_model(name, d, 5, 1, 1, 2) == 0


def test_flop_model_ratio_grows_with_rank():
    lo = flop_model("rand-orth", 7, 10, 10, 10, 20) / flop_model("hatt-2", 7, 10, 10, 10, 20)
    hi = flop_model("rand-orth", 7, 10, 40, 40, 20) / flop_model("hatt-2", 7, 10, 40, 40, 20)
    assert hi > lo


def test_flop_model_unknown_algorithm():
    with pytest.raises(ValueError):
        flop_model("unknown", 5, 5, 5, 5, 5)
    with pytest.raises(ValueError, match="must be positive"):
        flop_model("hatt-2", 5, 5, 0, 5, 5)
    with pytest.raises(ValueError, match="unknown algorithm"):
        flop_model("HATT_2", 5, 8, 6, 6, 4)  # a name no entry point runs


def test_flop_measurements_match_model():
    for r in (6, 10):
        for ell in (4, 8):
            y = gaussian_tt((10,) * 7, (1,) + (r,) * 6 + (1,), seed=1)
            z = gaussian_tt((10,) * 7, (1,) + (r,) * 6 + (1,), seed=2)
            for name in ("rand-orth", "hatt-2"):
                _, rep = recompress_hadamard(name, y, z, ell, seed=3)
                model = flop_model(name, 7, 10, r, r, ell)
                ratio = rep.flops_measured.matmul_flops / model
                assert 0.65 <= ratio <= 1.35, (name, r, ell, ratio)


def test_flop_model_counts_the_tsqr_combine(monkeypatch):
    # with one mode slice per sweep slab, each core update of this cell
    # spans 12 slabs; without the combine GEMMs the model would miss about
    # a third of hatt's matmul flops
    monkeypatch.setattr(recompress, "_SWEEP_BLOCK", 0)
    monkeypatch.setattr(recompress, "_MIN_SLAB", 1)
    d, n, r, ell = 5, 12, 4, 6
    assert recompress._slab_size(n, ell * r * r, recompress._SWEEP_BLOCK) == 1
    combine = (d - 2) * recompress._combine_flops(n, r * r, ell)
    y = gaussian_tt((n,) * d, (1,) + (r,) * (d - 1) + (1,), seed=1)
    z = gaussian_tt((n,) * d, (1,) + (r,) * (d - 1) + (1,), seed=2)
    for name in ("hatt-2", "hatt-1", "rand-orth"):
        _, rep = recompress_hadamard(name, y, z, ell, seed=3, max_terms=3)
        assert rep.flops_predicted == flop_model(name, d, n, r, r, ell, max_terms=3)
        ratio = rep.flops_measured.matmul_flops / rep.flops_predicted
        assert 0.65 <= ratio <= 1.35, (name, ratio)
        if name != "rand-orth":
            assert rep.flops_measured.matmul_flops > 1.35 * (rep.flops_predicted - combine)


# the direct call each algorithm name stands for
DIRECT_CALLS = {
    "tt-rounding": lambda y, z, t, seed: tt_rounding(tt_hadamard(y, z), t),
    "rand-orth": lambda y, z, t, seed: rand_orth(tt_hadamard(y, z), t, seed=seed),
    "hatt-1": lambda y, z, t, seed: hatt(y, z, t, max_terms=2, seed=seed),
    "hatt-2": lambda y, z, t, seed: hatt(y, z, t, seed=seed),
}


@pytest.mark.parametrize("name", ALGORITHMS)
def test_recompressor_table(name):
    y = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=1)
    z = gaussian_tt((4,) * 4, (1, 2, 2, 2, 1), seed=2)
    out, rep = recompress_hadamard(name, y, z, 3, seed=5, max_terms=2)
    want = DIRECT_CALLS[name](y, z, 3, 5)
    assert out.ranks == want.ranks
    assert all(np.array_equal(a.values, b.values) for a, b in zip(out.cores, want.cores))
    assert rep.flops_predicted == flop_model(name, 4, 4, 3, 2, 3, max_terms=2)
    # an unknown name is the same ValueError from every entry point
    bad = name.upper()
    message = re.escape(f"unknown algorithm {bad!r}")
    with pytest.raises(ValueError, match=message):
        recompress_hadamard(bad, y, z, 3, seed=5)
    with pytest.raises(ValueError, match=message):
        power_iteration_max(y, 2, recompressor=bad)
    with pytest.raises(ValueError, match=message):
        flop_model(bad, 4, 4, 3, 2, 3)
    with pytest.raises(ValueError, match=message):
        Scenario("custom", algorithms=(bad,))


def test_hatt1_without_a_cap_is_capped_at_the_target_rank():
    # a sketch W^(k) has at most ell columns, so no cap >= ell truncates it
    y = gaussian_tt((5,) * 5, (1, 4, 3, 4, 3, 1), seed=1)
    z = gaussian_tt((5,) * 5, (1, 3, 4, 2, 4, 1), seed=2)
    ell = 4
    out, rep = recompress_hadamard("hatt-1", y, z, ell, seed=7, max_terms=None)
    for cap in (ell, ell + 5):
        ledger = FlopLedger()
        want = hatt(y, z, ell, max_terms=cap, seed=7, ledger=ledger)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(out.cores, want.cores))
        assert counts(rep.flops_measured) == counts(ledger)


def test_max_terms_below_one_is_a_value_error():
    y = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=1)
    z = gaussian_tt((4,) * 4, (1, 2, 2, 2, 1), seed=2)
    sketch = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=3)
    for bad in (0, -1, -3):
        with pytest.raises(ValueError, match="max_terms"):
            hpcrl(y, z, sketch, max_terms=bad)
        with pytest.raises(ValueError, match="max_terms"):
            hatt(y, z, 3, max_terms=bad, seed=5)
        with pytest.raises(ValueError, match="max_terms"):
            recompress_hadamard("hatt-1", y, z, 3, seed=5, max_terms=bad)
        # the model refuses the run that hatt-1 refuses
        with pytest.raises(ValueError, match="max_terms"):
            flop_model("hatt-1", 4, 4, 3, 2, 3, max_terms=bad)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_algorithm_refuses_a_bad_cap_or_seed(algorithm):
    # only hatt-1 reads max_terms and tt-rounding draws nothing, but no
    # algorithm runs with a cap or a seed that hatt-1 or a draw refuses
    y = gaussian_tt((3,) * 4, (1, 2, 2, 2, 1), seed=1)
    for bad, match in ((0, ">= 1, got 0"), (-1, ">= 1, got -1"),
                       (2.5, r"whole numbers, got \(2.5,\)")):
        calls = (lambda: recompress_hadamard(algorithm, y, y, 2, seed=0, max_terms=bad),
                 lambda: flop_model(algorithm, 4, 3, 2, 2, 2, max_terms=bad),
                 lambda: power_iteration_max(y, 2, max_iter=1, recompressor=algorithm,
                                             max_terms=bad))
        for call in calls:
            with pytest.raises(ValueError, match=f"^max_terms must be {match}$"):
                call()
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
        recompress_hadamard(algorithm, y, y, 2, seed=-5)
    # a power solve takes no seed as recompress_hadamard does: tt-rounding
    # draws nothing, and a draw refuses it at step 1, before any recompression
    if algorithm == "tt-rounding":
        unseeded, seeded = (power_iteration_max(y, 2, max_iter=3, seed=seed)
                            for seed in (None, 0))
        assert unseeded.history == seeded.history and unseeded.ranks == seeded.ranks
    else:
        ledger = FlopLedger()
        with pytest.raises(ValueError, match=r"^a seed \(or an explicit sketch tensor\) is required$"):
            power_iteration_max(y, 2, max_iter=3, recompressor=algorithm, seed=None,
                                ledger=ledger)
        assert ledger.total() == 0


def test_a_randomized_call_draws_its_sketch_once(monkeypatch):
    # perfbench's tracer times the draw by wrapping recompress.random_tt, so
    # every randomized call draws through that module attribute, once, and a
    # caller-supplied sketch draws nothing
    draws = []

    def counting(*args):
        draws.append(args)
        return random_tt(*args)

    monkeypatch.setattr(recompress, "random_tt", counting)
    y = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=1)
    z = gaussian_tt((4,) * 4, (1, 2, 2, 2, 1), seed=2)
    sketch = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=3)
    calls = [lambda: hatt(y, z, 3, seed=4), lambda: hatt(y, z, 3, max_terms=2, seed=4),
             lambda: rand_orth(tt_hadamard(y, z), 3, seed=4)]
    calls += [lambda alg=alg: recompress_hadamard(alg, y, z, 3, seed=4)
              for alg in ("rand-orth", "hatt-1", "hatt-2")]
    for call in calls:
        draws.clear()
        call()
        assert len(draws) == 1
    draws.clear()
    recompress_hadamard("tt-rounding", y, z, 3)
    hatt(y, z, sketch_tt=sketch)
    hatt(y, z, max_terms=2, sketch_tt=sketch)
    rand_orth(tt_hadamard(y, z), sketch_tt=sketch)
    assert draws == []


def test_hatt1_svds_go_through_the_traced_name(monkeypatch):
    # perfbench's tracer counts SVDs by wrapping recompress.truncated_svd, so
    # HaTT-1's term rule reads its triplets through that module attribute:
    # one SVD for each of W^(d-1), ..., W^(2), none for the 1 x 1 W^(d) and
    # none without a cap
    charges = []

    def counting(x, *args, **kwargs):
        m, n = np.shape(x)
        charges.append(SVD_COST_FACTOR * max(m, n) * min(m, n) ** 2)
        return truncated_svd(x, *args, **kwargs)

    monkeypatch.setattr(recompress, "truncated_svd", counting)
    for d in (2, 3, 5):
        y, z, sketch = (gaussian_tt((4,) * d, uniform_chain(d, r), seed=r) for r in (3, 2, 4))
        for max_terms, calls in ((2, d - 2), (None, 0)):
            charges.clear()
            ledger = FlopLedger()
            hpcrl(y, z, sketch, max_terms, ledger)
            assert len(charges) == calls and sum(charges) == ledger.svd_flops


# --- overflow, and the cores built without a finiteness scan --------------------


@pytest.mark.parametrize("name", ALGORITHMS)
def test_overflowing_product_is_a_named_error(name):
    # both factors at 1e200: the product's entries, near 1e400, do not fit float64
    y, z = (tt_scale(gaussian_tt((6,) * 4, (1, 3, 3, 3, 1), seed=s), 1e200) for s in (1, 2))
    with pytest.raises(ValueError, match="overflow"):
        recompress_hadamard(name, y, z, 3, seed=5)


def scale_last_core(x, c):
    return TTTensor(x.cores[:-1] + (TTCore(x.cores[-1].values * c),))


def test_sweeps_never_return_an_overflowed_core():
    # every product core is finite but the product is near 1e400; a sketch
    # scaled by 1e-200 keeps the sketches finite, so only the last output
    # core, which carries the norm, overflows
    y = tt_scale(gaussian_tt((6,) * 4, (1, 3, 3, 3, 1), seed=1), 1e200)
    z = scale_last_core(gaussian_tt((6,) * 4, (1, 3, 3, 3, 1), seed=2), 1e200)
    sketch = scale_last_core(gaussian_tt((6,) * 4, (1, 3, 3, 3, 1), seed=3), 1e-200)
    for sweep in (lambda: hatt(y, z, sketch_tt=sketch),
                  lambda: rand_orth(tt_hadamard(y, z), sketch_tt=sketch)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="overflow"):
            sweep()


def scale_core(x, k, c):
    return TTTensor(x.cores[:k] + (TTCore(x.cores[k].values * c),) + x.cores[k + 1:])


@pytest.mark.parametrize("max_terms", (None, 2), ids=("hatt-2", "hatt-1"))
@pytest.mark.parametrize("d, k", [(d, k) for d in (1, 2, 4) for k in range(d)])
def test_overflow_at_any_core_is_a_named_error(d, k, max_terms):
    # core k of both factors at 1e200: every factor core is finite, but product
    # core k's entries (near 1e398) are not; the sketch pass meets cores d..2,
    # the sweep core 1, and neither lets numpy warn first
    y, z = (scale_core(gaussian_tt((6,) * d, (1,) + (3,) * (d - 1) + (1,), seed=s), k, 1e200)
            for s in (1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            hatt(y, z, 2, max_terms, seed=5)


@pytest.mark.parametrize("sweep", (lambda a: rand_orth(a, 2, seed=5), lambda a: tt_rounding(a, 2)),
                         ids=("rand_orth", "tt_rounding"))
@pytest.mark.parametrize("shape, ranks, k", [((6,) * 4, (1, 3, 3, 3, 1), 0),
                                             ((4,) * 4, (1, 3, 3, 3, 1), 0),
                                             ((4,) * 4, (1, 3, 3, 3, 1), 1),
                                             ((4,) * 4, (1, 3, 3, 3, 1), 2),
                                             ((2,) * 4, (1, 4, 4, 4, 1), 0),
                                             ((2,) * 4, (1, 4, 4, 4, 1), 1),
                                             ((2,) * 4, (1, 4, 4, 4, 1), 2)],
                         ids=("n6-cores12", "n4-cores12", "n4-cores23", "n4-cores34",
                              "n2r4-cores12", "n2r4-cores23", "n2r4-cores34"))
def test_rand_orth_overflow_is_a_named_error(sweep, shape, ranks, k):
    # cores k and k + 1 at 1e160: the train is finite, its entries (near
    # 1e318) are not.  tt_rounding meets the overflow in a trim merge (at
    # (2,) * 4, ranks 4) or an orthogonalization update; neither may let
    # numpy warn first or reach a kernel's non-finite check
    a = gaussian_tt(shape, ranks, seed=1)
    a = scale_core(scale_core(a, k, 1e160), k + 1, 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows float64"):
            sweep(a)


def test_tt_rounding_overflowing_carry_is_a_named_error():
    # core 1's entries are finite, but its sigma_1 (3e308) is not, so the
    # carry sigma V^T that the last pass pushes into core 2 overflows
    first = np.full((1, 2, 2), 1.5e308)
    middle, last = np.eye(4)[:2].reshape(2, 2, 2), np.eye(2).reshape(2, 2, 1)
    a = TTTensor([first, middle, last])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="core 2 of the recompressed tensor overflows"):
            tt_rounding(a, 2)


def sketch_pass(name, k, rank=3):
    """A sketch pass over trains of one rank whose core k + 1 is at 1e200:
    both factors' for hpcrl, the tensor's and the sketch's for
    partial_contraction_rl.  At rank 1 every sketch is 1 x 1, which hatt-1
    does not decompose."""
    y, z, r = (gaussian_tt((4,) * 4, (1, rank, rank, rank, 1), seed=s) for s in (1, 2, 3))
    big_y, big_z, big_r = (scale_core(x, k, 1e200) for x in (y, z, r))
    if name == "partial_contraction_rl":
        return lambda: partial_contraction_rl(big_y, big_r)
    return lambda: hpcrl(big_y, big_z, r, None if name == "hatt-2" else 2)


@pytest.mark.parametrize("name", ("hatt-2", "hatt-1", "partial_contraction_rl"))
@pytest.mark.parametrize("k", range(4))
def test_a_sketch_pass_names_an_overflow_at_any_core(name, k):
    # entries near 1e400 meet the pass first in W^(k), which it names; both
    # passes warned first and partial_contraction_rl returned inf and NaN.
    # The passes read cores d..2, so an overflow in core 1 is not theirs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if k == 0:
            assert all(np.isfinite(w).all() for w in sketch_pass(name, k)())
        else:
            with pytest.raises(ValueError, match=rf"the sketch W\^\({k}\) overflows float64"):
                sketch_pass(name, k)()


@pytest.mark.parametrize("k", (1, 2, 3))
def test_hatt1_names_an_overflow_of_a_sketch_it_does_not_decompose(k):
    # hatt-1's SVD scan names a sketch it decomposes; these 1 x 1 sketches
    # are their own terms, so hpcrl scans them itself
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"the sketch W\^\({k}\) overflows float64"):
            sketch_pass("hatt-1", k, rank=1)()


def test_tt_rounding_names_a_merge_overflow_at_the_core_a_qr_reads():
    # cores 3 and 4 at 1e160: pass 2 merges core 4 into core 3 (n_4 r_4 = 2 <
    # r_3 = 4), whose entries, near 1e320, overflow; core 3 (n_3 r_3 = 4 < 16)
    # merges on into core 2, and the QR that reads core 2 names it
    a = gaussian_tt((4, 4, 2, 2), (1, 4, 16, 4, 1), seed=1)
    a = scale_core(scale_core(a, 2, 1e160), 3, 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="core 2 of the recompressed tensor overflows"):
            tt_rounding(a, 2)


def test_library_built_cores_are_read_only():
    y = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=1)
    z = gaussian_tt((4,) * 4, (1, 2, 2, 2, 1), seed=2)
    product = tt_hadamard(y, z)
    cores = []
    for x in (hatt(y, z, 3, seed=4), hatt(y, z, 3, max_terms=2, seed=4),
              rand_orth(product, 3, seed=4), tt_rounding(product, 3), product,
              gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=5),
              random_tt((4,) * 4, (1, 3, 3, 3, 1), "uniform", 5), tt_add(y, y),
              tt_scale(y, -2.5)):
        cores.extend(x.cores)
    for core in cores:
        assert not core.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            core.values[0, 0, 0] = 1.0


def test_normalize_targets_forms():
    assert normalize_targets(3, 4) == (1, 3, 3, 3, 1)
    assert normalize_targets((2, 3, 2), 4) == (1, 2, 3, 2, 1)
    assert normalize_targets((1, 2, 3, 2, 1), 4) == (1, 2, 3, 2, 1)
    assert normalize_targets(np.int64(3), 4) == (1, 3, 3, 3, 1)
    assert normalize_targets(np.array(3), 4) == (1, 3, 3, 3, 1)
    with pytest.raises(ValueError):
        normalize_targets((2, 2), 4)
    with pytest.raises(ValueError, match="target ranks are required"):
        normalize_targets(None, 4)
    for fractional in (2.9, (2, 2.5, 2), (2, (2, 3), 2)):
        with pytest.raises(ValueError, match="whole numbers"):
            normalize_targets(fractional, 4)


def test_report_fields(rng):
    y, z = random_pair(rng, 3, 3, 2)
    ref = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
    out, rep = recompress_hadamard("hatt-2", y, z, 2, seed=4)
    assert relative_error(out, ref) >= 0.0
    assert rep.wall_time_s >= 0.0
    assert rep.flops_measured.total() > 0
    assert rep.flops_predicted > 0
    assert all(o <= t for o, t in zip(out.ranks, normalize_targets(2, 3)))


def test_hpcrl_last_core_uses_boundary_pkp(rng):
    # the first step, from W^(d) = 1, contracts the last product core (right
    # rank 1) against the sketch's last core
    y, z = random_pair(rng, 3, 4, 3)
    sketch = gaussian_tt(y.shape, (1, 2, 2, 1), seed=90)
    got = hpcrl(y, z, sketch)
    last = h_unfold(tt_hadamard(y, z).cores[-1])
    direct = last @ h_unfold(sketch.cores[-1]).T
    assert np.allclose(got[-1], direct, atol=1e-13)
