"""Property tests of the Hadamard-avoiding kernels over random ragged inputs.

Each kernel is checked against an oracle that forms what the kernel avoids
(the product cores, the Kronecker slices, the dense tensors) and against
the per-slice loop it replaced, whose flop charges it must repeat exactly.
Cores this small fit one slab of mode slices, so the properties run again
with the slab budget at zero, where every slab has the 4-slice minimum:
mode sizes come from {1, 3, 4, 5, 8, 9}, so 4 and 8 fill every slab and
5 and 9 leave a partial last one.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatt import (
    DIRECT,
    FlopLedger,
    TTCore,
    contract_m_onto_pkp,
    gaussian_tt,
    hatt,
    hpcrl,
    partial_contraction_rl,
    rank1_decompose,
    svd_variant,
    tt_dot,
    tt_hadamard,
    tt_hadamard_dot,
    tt_to_dense,
)
from hatt import recompress
from hatt.linalg import matmul, scale_columns
from hatt.tt import h_unfold

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
MODES = st.sampled_from((1, 3, 4, 5, 8, 9))
RANKS = st.integers(1, 4)
SEEDS = st.integers(0, 2**31 - 1)
VARIANTS = st.sampled_from((DIRECT, svd_variant(rel_tol=0.0)))


@st.composite
def trains(draw, count):
    """`count` gaussian TT tensors of one random shape, each with its own
    random rank chain."""
    d = draw(st.integers(2, 5))
    shape = tuple(draw(MODES) for _ in range(d))
    seed = draw(SEEDS)
    return [gaussian_tt(shape, (1,) + tuple(draw(RANKS) for _ in range(d - 1)) + (1,),
                        seed=seed + j)
            for j in range(count)]


def rel_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# --- the per-slice loops the kernels replaced, kept as references ------------


def loop_hpcrl(y, z, r, variant, ledger):
    d = y.d
    mats = [None] * (d - 1)
    h_last = np.einsum("ai,bi->abi", y.cores[d - 1].values[:, :, 0],
                       z.cores[d - 1].values[:, :, 0]).reshape(-1, y.shape[d - 1])
    mats[d - 2] = matmul(h_last, h_unfold(r.cores[d - 1]).T, ledger)
    for k in range(d - 1, 1, -1):
        yc, zc, rc = y.cores[k - 1], z.cores[k - 1], r.cores[k - 1]
        n = yc.mode_size
        rep = rank1_decompose(mats[k - 1], variant, ledger)
        terms = rep.n_terms
        r1, r2 = yc.left_rank, yc.right_rank
        s1, s2 = zc.left_rank, zc.right_rank
        u_fold = rep.u.T.reshape(terms, r2, s2).transpose(0, 2, 1)
        w_left = np.empty((r1 * s1, n * terms))
        w_right = np.empty((rc.left_rank, n * terms))
        for i in range(1, n + 1):
            block = slice((i - 1) * terms, i * terms)
            if variant.kind == "direct":
                w_right[:, block] = rc.slice(i)
            else:
                w_right[:, block] = matmul(rc.slice(i), rep.v, ledger)
            t = (zc.slice(i) @ u_fold) @ yc.slice(i).T
            w_left[:, block] = t.transpose(0, 2, 1).reshape(terms, r1 * s1).T
            ledger.add_matmul(terms * (s1 * (2 * s2 - 1) * r2 + s1 * (2 * r2 - 1) * r1))
        if variant.kind == "svd":
            w_right = scale_columns(w_right, np.tile(rep.sigma, n), ledger)
        mats[k - 2] = matmul(w_left, w_right.T, ledger)
    return mats


def loop_contract(m, ycore, zcore, ledger):
    r1, s1 = ycore.left_rank, zcore.left_rank
    r2, s2 = ycore.right_rank, zcore.right_rank
    rows = m.shape[0]
    m_fold = m.reshape(rows, r1, s1).transpose(0, 2, 1)
    out = np.empty((rows, ycore.mode_size, r2 * s2))
    for i in range(1, ycore.mode_size + 1):
        t = (zcore.slice(i).T @ m_fold) @ ycore.slice(i)
        out[:, i - 1, :] = t.transpose(0, 2, 1).reshape(rows, r2 * s2)
        ledger.add_matmul(rows * (s2 * (2 * s1 - 1) * r1 + s2 * (2 * r1 - 1) * r2))
    return out


def counts(ledger):
    return ledger.matmul_flops, ledger.qr_flops, ledger.svd_flops


# --- properties ---------------------------------------------------------------


@SETTINGS
@given(trains(3), VARIANTS)
def test_hpcrl_matches_materialized_product_and_loop(tts, variant):
    y, z, sketch = tts
    ledger, loop_ledger = FlopLedger(), FlopLedger()
    got = hpcrl(y, z, sketch, variant, ledger)
    ref = partial_contraction_rl(tt_hadamard(y, z), sketch)
    loop = loop_hpcrl(y, z, sketch, variant, loop_ledger)
    tol = 1e-12 if variant.kind == "direct" else 1e-11
    for w, w_ref, w_loop in zip(got, ref, loop):
        assert rel_gap(w, w_ref) <= tol
        assert rel_gap(w, w_loop) <= 1e-12
    assert counts(ledger) == counts(loop_ledger)


@SETTINGS
@given(st.tuples(RANKS, RANKS, RANKS, RANKS), MODES, st.integers(1, 6), SEEDS)
def test_contract_m_matches_kron_slices_and_loop(ranks, n, rows, seed):
    r1, r2, s1, s2 = ranks
    rng = np.random.default_rng(seed)
    y = TTCore(rng.normal(size=(r1, n, r2)))
    z = TTCore(rng.normal(size=(s1, n, s2)))
    m = rng.normal(size=(rows, r1 * s1))
    ledger, loop_ledger = FlopLedger(), FlopLedger()
    got = contract_m_onto_pkp(m, y, z, ledger).values
    for i in range(1, n + 1):
        want = m @ np.kron(y.slice(i), z.slice(i))
        assert rel_gap(got[:, i - 1, :], want) <= 1e-13
    assert rel_gap(got, loop_contract(m, y, z, loop_ledger)) <= 1e-13
    assert counts(ledger) == counts(loop_ledger)


@SETTINGS
@given(trains(3))
def test_inner_products_match_dense(tts):
    x, y, z = (tt_to_dense(t).values for t in tts)
    for got, terms in ((tt_dot(tts[0], tts[1]), x * y),
                       (tt_hadamard_dot(*tts), x * y * z)):
        assert abs(got - terms.sum()) <= 1e-12 * max(np.abs(terms).sum(), 1e-300)


@pytest.mark.parametrize("prop", (test_hpcrl_matches_materialized_product_and_loop,
                                  test_contract_m_matches_kron_slices_and_loop,
                                  test_inner_products_match_dense),
                         ids=("hpcrl", "contract_m", "inner_products"))
def test_properties_hold_across_several_slabs(prop, monkeypatch):
    monkeypatch.setattr(recompress, "_SLAB_BUDGET", 0)
    core = np.zeros((4, 9, 4))
    assert recompress._slab_size(1, core, core) == 4
    prop()


@pytest.mark.parametrize("variant", (DIRECT, svd_variant(rel_tol=0.0)), ids=("direct", "svd"))
def test_hpcrl_peak_stays_below_one_unslabbed_intermediate(variant):
    # applying every rank-1 term to every slice of a product core at once
    # forms ell x n x (r s) entries, which dominate at these sizes; slabs
    # of at most _SLAB_BUDGET elements keep hpcrl well below one such array
    d, n, r, ell = 4, 128, 8, 8
    y, z = (gaussian_tt((n,) * d, (1,) + (r,) * (d - 1) + (1,), seed=s) for s in (1, 2))
    sketch = gaussian_tt((n,) * d, (1,) + (ell,) * (d - 1) + (1,), seed=3)
    tracemalloc.start()
    try:
        hpcrl(y, z, sketch, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ell * n * r * r * np.dtype(float).itemsize


@pytest.mark.parametrize("variant", (DIRECT, svd_variant()), ids=("direct", "svd"))
@pytest.mark.parametrize("d, n, r, ell", ((4, 128, 8, 8), (6, 32, 12, 6)))
def test_hatt_peak_holds_one_core_update(variant, d, n, r, ell):
    """Besides its output, hatt holds at most one core update (ell x n x
    r s), the sketch matrices W^(k) it has not used yet, one slab's
    intermediate of the kernel, and the sweep's QR: the sketched core and
    LAPACK's working copy of it, (ell n) x ell each.  16 KiB of slack
    covers the small matrices and slab copies."""
    y, z = (gaussian_tt((n,) * d, (1,) + (r,) * (d - 1) + (1,), seed=s) for s in (1, 2))
    tracemalloc.start()
    try:
        out = hatt(y, z, ell, variant, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    core = np.zeros((r, n, r))
    elements = (sum(c.values.size for c in out.cores)
                + ell * n * r * r  # one core update
                + (d - 1) * r * r * ell  # the sketch matrices
                + ell * r * recompress._slab_size(ell, core, core) * r  # one slab
                + 2 * ell * n * ell)  # the QR's input and working copy
    assert peak <= elements * np.dtype(float).itemsize + 16 * 1024
