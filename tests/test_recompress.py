import re

import numpy as np
import pytest

from hatt import (
    ALGORITHMS,
    DIRECT,
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
    predicted_flops,
    rand_orth,
    rank1_decompose,
    recompress_hadamard,
    relative_error,
    left_orthogonality_defect,
    svd_variant,
    tt_hadamard,
    tt_ones,
    tt_rounding,
    tt_svd,
    tt_to_dense,
)
from hatt.recompress import normalize_targets
from hatt.tt import TTCore, TTTensor, h_unfold
from hatt.apps import hilbert_tt
from hatt.bench import Scenario
from conftest import random_pair


def sketch_rel_errors(a, b):
    return [
        np.linalg.norm(wa - wb) / max(np.linalg.norm(wa), 1e-300)
        for wa, wb in zip(a.mats, b.mats)
    ]


# --- partial contraction ------------------------------------------------------


def test_partial_contraction_zero_input():
    zero = TTTensor([np.zeros((1, 3, 2)), np.zeros((2, 3, 2)), np.zeros((2, 3, 1))])
    sketch = gaussian_tt((3, 3, 3), (1, 2, 2, 1), seed=0)
    w = partial_contraction_rl(zero, sketch)
    assert all(np.all(m == 0.0) for m in w.mats)


def test_partial_contraction_matches_definition(rng):
    # W^(1) = H<A^{2:3}> H<R^{2:3}>^T computed densely
    a = gaussian_tt((3, 4, 5), (1, 3, 2, 1), seed=1)
    r = gaussian_tt((3, 4, 5), (1, 2, 3, 1), seed=2)
    w = partial_contraction_rl(a, r)
    from hatt import partial_contracted_product

    tail_a = partial_contracted_product(a, 2, 3).reshape(3, -1)
    tail_r = partial_contracted_product(r, 2, 3).reshape(2, -1)
    direct = tail_a @ tail_r.T
    assert np.linalg.norm(w[1] - direct) / np.linalg.norm(direct) <= 1e-12


def test_partial_contraction_slice_form_agrees(rng):
    a = gaussian_tt((3, 3, 3, 3), (1, 3, 3, 3, 1), seed=3)
    r = gaussian_tt((3, 3, 3, 3), (1, 2, 2, 2, 1), seed=4)
    w = partial_contraction_rl(a, r)
    # slice recursion: W^(k-1) = sum_i A^(k)(i) W^(k) R^(k)(i)^T
    for k in range(a.d - 1, 1, -1):
        acc = np.zeros_like(w[k - 1])
        for i in range(1, 4):
            acc += a.cores[k - 1].slice(i) @ w[k] @ r.cores[k - 1].slice(i).T
        assert np.max(np.abs(acc - w[k - 1])) <= 1e-13 * max(1.0, np.max(np.abs(w[k - 1])))


# --- rank-1 representations ---------------------------------------------------


def test_rank1_direct_is_exact(rng):
    w = rng.normal(size=(12, 4))
    rep = rank1_decompose(w, DIRECT)
    assert rep.n_terms == 4
    assert np.array_equal(rep.u @ np.diag(rep.sigma) @ rep.v.T, w)


def test_rank1_svd_rank_one(rng):
    w = np.outer(rng.normal(size=6), rng.normal(size=3))
    rep = rank1_decompose(w, svd_variant())
    assert rep.n_terms == 1


def test_rank1_svd_hilbert_truncation():
    # sketches of a Hilbert-type square have fast singular decay
    y = hilbert_tt(4, 5, 8)
    sketch = gaussian_tt(y.shape, (1, 10, 10, 10, 1), seed=5)
    w = hpcrl(y, y, sketch, DIRECT)[2]
    rep = rank1_decompose(w, svd_variant(max_terms=5))
    assert rep.n_terms <= 5
    recon = rep.u @ np.diag(rep.sigma) @ rep.v.T
    from hatt import truncated_svd

    full = truncated_svd(w, target_rank=min(w.shape))
    tail = np.sqrt(np.sum(full.s[rep.n_terms:] ** 2))
    assert np.linalg.norm(w - recon) == pytest.approx(tail, rel=1e-8, abs=1e-14)


# --- hpcrl ---------------------------------------------------------------------


def test_hpcrl_direct_matches_materialized(rng):
    for trial in range(5):
        d = int(rng.integers(3, 5))
        y, z = random_pair(rng, d, 3, 4)
        sketch = gaussian_tt(y.shape, tuple([1] + [3] * (d - 1) + [1]),
                             seed=int(rng.integers(0, 1000)))
        ref = partial_contraction_rl(tt_hadamard(y, z), sketch)
        got = hpcrl(y, z, sketch, DIRECT)
        assert max(sketch_rel_errors(ref, got)) <= 1e-12


def test_hpcrl_untruncated_svd_matches(rng):
    y, z = random_pair(rng, 4, 3, 3)
    sketch = gaussian_tt(y.shape, (1, 4, 4, 4, 1), seed=17)
    ref = partial_contraction_rl(tt_hadamard(y, z), sketch)
    got = hpcrl(y, z, sketch, svd_variant(rel_tol=0.0))
    assert max(sketch_rel_errors(ref, got)) <= 1e-11


def test_hpcrl_ones_factor(rng):
    y = gaussian_tt((3, 3, 3), (1, 3, 2, 1), seed=21)
    ones = tt_ones(y.shape)
    sketch = gaussian_tt(y.shape, (1, 2, 2, 1), seed=22)
    got = hpcrl(y, ones, sketch, DIRECT)
    inflated = tt_hadamard(y, ones)  # trivially inflated rank chain
    ref = partial_contraction_rl(inflated, sketch)
    assert max(sketch_rel_errors(ref, got)) <= 1e-13


# --- core update without the product core --------------------------------------


def test_contract_m_scalar_ranks():
    y = TTCore(np.array([[[2.0], [3.0]]]).reshape(1, 2, 1))
    z = TTCore(np.array([[[5.0], [7.0]]]).reshape(1, 2, 1))
    m = np.array([[1.0], [4.0]])
    out = contract_m_onto_pkp(m, y, z)
    # slice i equals m * (y_i * z_i)
    assert np.allclose(out.values[:, 0, 0], [10.0, 40.0])
    assert np.allclose(out.values[:, 1, 0], [21.0, 84.0])


def test_contract_m_matches_materialized(rng):
    y = TTCore(rng.normal(size=(2, 4, 3)))
    z = TTCore(rng.normal(size=(2, 4, 2)))
    m = rng.normal(size=(5, 4))
    out = contract_m_onto_pkp(m, y, z)
    for i in range(1, 5):
        direct = m @ np.kron(y.slice(i), z.slice(i))
        assert np.allclose(out.values[:, i - 1, :], direct, atol=1e-13)


def test_contract_m_flop_charge():
    ledger = FlopLedger()
    y = TTCore(np.ones((2, 3, 2)))
    z = TTCore(np.ones((2, 3, 2)))
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
        hatt(y, z, 3, svd_variant(max_terms=3), seed=80),
    ):
        assert left_orthogonality_defect(out) <= 1e-10


# --- flop model -----------------------------------------------------------------


def test_flop_model_reference_values():
    assert flop_model("tt-rounding", 7, 10, 2, 2, 2) == 27200
    assert flop_model("hatt-2", 7, 10, 2, 2, 2) == 11200


def test_flop_model_ratio_grows_with_rank():
    lo = flop_model("rand-orth", 7, 10, 10, 10, 20) / flop_model("hatt-2", 7, 10, 10, 10, 20)
    hi = flop_model("rand-orth", 7, 10, 40, 40, 20) / flop_model("hatt-2", 7, 10, 40, 40, 20)
    assert hi > lo


def test_flop_model_unknown_algorithm():
    with pytest.raises(ValueError):
        flop_model("unknown", 5, 5, 5, 5, 5)
    with pytest.raises(ValueError):
        flop_model("hatt-1", 5, 5, 5, 5, 5)  # n_terms required


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


@pytest.mark.parametrize("r, ell", [(4, 4), (6, 8), (10, 20), (20, 10)])
def test_sketch_flop_models_match_ledgers(r, ell):
    y = gaussian_tt((10,) * 7, (1,) + (r,) * 6 + (1,), seed=1)
    z = gaussian_tt((10,) * 7, (1,) + (r,) * 6 + (1,), seed=2)
    sketch = gaussian_tt((10,) * 7, (1,) + (ell,) * 6 + (1,), seed=3)
    runs = {
        "partial-contraction-rl": lambda led: partial_contraction_rl(tt_hadamard(y, z),
                                                                     sketch, led),
        # every sketch matrix has full column rank ell, so hpcrl-1 keeps ell terms
        "hpcrl-1": lambda led: hpcrl(y, z, sketch, svd_variant(), led),
        "hpcrl-2": lambda led: hpcrl(y, z, sketch, DIRECT, led),
    }
    for name, run in runs.items():
        ledger = FlopLedger()
        run(ledger)
        ratio = ledger.total() / flop_model(name, 7, 10, r, r, ell, n_terms=ell)
        assert 0.65 <= ratio <= 1.35, (name, r, ell, ratio)


# the direct call each algorithm name stands for
DIRECT_CALLS = {
    "tt-rounding": lambda y, z, t, seed: tt_rounding(tt_hadamard(y, z), t),
    "rand-orth": lambda y, z, t, seed: rand_orth(tt_hadamard(y, z), t, seed=seed),
    "hatt-1": lambda y, z, t, seed: hatt(y, z, t, svd_variant(2), seed=seed),
    "hatt-2": lambda y, z, t, seed: hatt(y, z, t, DIRECT, seed=seed),
}


@pytest.mark.parametrize("name", ALGORITHMS)
def test_recompressor_table(name):
    y = gaussian_tt((4,) * 4, (1, 3, 3, 3, 1), seed=1)
    z = gaussian_tt((4,) * 4, (1, 2, 2, 2, 1), seed=2)
    out, rep = recompress_hadamard(name, y, z, 3, seed=5, max_terms=2)
    want = DIRECT_CALLS[name](y, z, 3, 5)
    assert out.ranks == want.ranks
    assert all(np.array_equal(a.values, b.values) for a, b in zip(out.cores, want.cores))
    assert rep.flops_predicted == predicted_flops(name, 4, 4, 3, 2, 3, max_terms=2)
    # an unknown name is the same ValueError from every entry point
    bad = name.upper()
    message = re.escape(f"unknown algorithm {bad!r}")
    with pytest.raises(ValueError, match=message):
        recompress_hadamard(bad, y, z, 3, seed=5)
    with pytest.raises(ValueError, match=message):
        power_iteration_max(y, 2, recompressor=bad)
    with pytest.raises(ValueError, match=message):
        Scenario("custom", algorithms=(bad,))


def test_normalize_targets_forms():
    assert normalize_targets(3, 4) == (1, 3, 3, 3, 1)
    assert normalize_targets((2, 3, 2), 4) == (1, 2, 3, 2, 1)
    assert normalize_targets((1, 2, 3, 2, 1), 4) == (1, 2, 3, 2, 1)
    with pytest.raises(ValueError):
        normalize_targets((2, 2), 4)


def test_report_fields(rng):
    y, z = random_pair(rng, 3, 3, 2)
    ref = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
    out, rep = recompress_hadamard("hatt-2", y, z, 2, seed=4, reference=ref)
    assert rep.algorithm == "hatt-2"
    assert rep.output_ranks == out.ranks
    assert rep.rel_error >= 0.0
    assert rep.wall_time_s >= 0.0
    assert rep.flops_measured.total() > 0
    assert rep.flops_predicted > 0
    assert all(o <= t for o, t in zip(rep.output_ranks, normalize_targets(2, 3)))


def test_hpcrl_last_core_uses_boundary_pkp(rng):
    # the initial sketch comes from the (rank-1-sided) last-core product
    y, z = random_pair(rng, 3, 4, 3)
    sketch = gaussian_tt(y.shape, (1, 2, 2, 1), seed=90)
    got = hpcrl(y, z, sketch, DIRECT)
    last = h_unfold(tt_hadamard(y, z).cores[-1])
    direct = last @ h_unfold(sketch.cores[-1]).T
    assert np.allclose(got[2], direct, atol=1e-13)
