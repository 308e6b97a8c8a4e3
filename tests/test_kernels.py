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
    FlopLedger,
    SeparableFunctionSpec,
    contract_m_onto_pkp,
    gaussian_tt,
    hatt,
    hilbert_tt,
    hpcrl,
    partial_contraction_rl,
    power_iteration_max,
    rank1_decompose,
    separable_tt,
    tt_dot,
    tt_hadamard,
    tt_hadamard_dot,
    tt_to_dense,
    uniform_chain,
)
from hatt import recompress
from hatt.linalg import SvdResult, matmul, scale_columns, truncated_svd
from hatt.tt import h_unfold, v_unfold

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
MODES = st.sampled_from((1, 3, 4, 5, 8, 9))
RANKS = st.integers(1, 4)
SEEDS = st.integers(0, 2**31 - 1)
# None: the sketch columns; 4: the largest sketch rank RANKS draws, a cap that truncates nothing
MAX_TERMS = st.sampled_from((None, 4))


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


def loop_hpcrl(y, z, r, max_terms, ledger):
    mats = [None] * (y.d - 1)
    w = np.ones((1, 1))  # W^(d); a 1 x 1 sketch is its own rank-1 term
    for k in range(y.d, 1, -1):
        yc, zc, rc = y.cores[k - 1], z.cores[k - 1], r.cores[k - 1]
        n = yc.mode_size
        decompose = max_terms is not None and w.size > 1
        if not decompose:
            ell = w.shape[1]
            rep = SvdResult(w, np.ones(ell), np.eye(ell))
        else:
            rep = rank1_decompose(w, max_terms, ledger)
        terms = len(rep.s)
        r1, r2 = yc.left_rank, yc.right_rank
        s1, s2 = zc.left_rank, zc.right_rank
        u_fold = rep.u.T.reshape(terms, r2, s2).transpose(0, 2, 1)
        w_left = np.empty((r1 * s1, n * terms))
        w_right = np.empty((rc.left_rank, n * terms))
        for i in range(1, n + 1):
            block = slice((i - 1) * terms, i * terms)
            if not decompose:
                w_right[:, block] = rc.values[:, i - 1, :]
            else:
                w_right[:, block] = matmul(rc.values[:, i - 1, :], rep.v, ledger)
            t = (zc.values[:, i - 1, :] @ u_fold) @ yc.values[:, i - 1, :].T
            w_left[:, block] = t.transpose(0, 2, 1).reshape(terms, r1 * s1).T
            ledger.add_matmul(terms * (s1 * (2 * s2 - 1) * r2 + s1 * (2 * r2 - 1) * r1))
        if decompose:
            w_right = scale_columns(w_right, np.tile(rep.s, n), ledger)
        w = mats[k - 2] = matmul(w_left, w_right.T, ledger)
    return mats


def loop_contract(m, y, z, ledger):
    (r1, n, r2), (s1, _, s2) = y.shape, z.shape
    rows = m.shape[0]
    m_fold = m.reshape(rows, r1, s1).transpose(0, 2, 1)
    out = np.empty((rows, n, r2 * s2))
    for i in range(1, n + 1):
        t = (z[:, i - 1, :].T @ m_fold) @ y[:, i - 1, :]
        out[:, i - 1, :] = t.transpose(0, 2, 1).reshape(rows, r2 * s2)
        ledger.add_matmul(rows * (s2 * (2 * s1 - 1) * r1 + s2 * (2 * r1 - 1) * r2))
    return out


def plain_partial_contraction_rl(a, r, ledger):
    """The sketch pass with its fold as the plain ``V<A_k> @ W^(k)``, from
    W^(d) = 1."""
    mats = [None] * (a.d - 1)
    w = np.ones((1, 1))
    for k in range(a.d, 1, -1):
        core = a.cores[k - 1]
        b = matmul(v_unfold(core), w, ledger)
        w = mats[k - 2] = matmul(b.reshape(core.left_rank, -1), h_unfold(r.cores[k - 1]).T,
                                 ledger)
    return mats


def counts(ledger):
    return ledger.matmul_flops, ledger.qr_flops, ledger.svd_flops


# --- properties ---------------------------------------------------------------


@SETTINGS
@given(trains(3), MAX_TERMS)
def test_hpcrl_matches_materialized_product_and_loop(tts, max_terms):
    y, z, sketch = tts
    ledger, loop_ledger = FlopLedger(), FlopLedger()
    got = hpcrl(y, z, sketch, max_terms, ledger)
    ref_ledger, plain_ledger = FlopLedger(), FlopLedger()
    ref = partial_contraction_rl(tt_hadamard(y, z), sketch, ref_ledger)
    plain = plain_partial_contraction_rl(tt_hadamard(y, z), sketch, plain_ledger)
    loop = loop_hpcrl(y, z, sketch, max_terms, loop_ledger)
    tol = 1e-12 if max_terms is None else 1e-11
    for w, w_ref, w_plain, w_loop in zip(got, ref, plain, loop):
        # the sweep forms every sketched block as C_b W, one GEMM on either
        assert w.flags.c_contiguous and w_ref.flags.c_contiguous
        assert rel_gap(w, w_ref) <= tol
        assert rel_gap(w_ref, w_plain) <= 1e-13
        assert rel_gap(w, w_loop) <= 1e-12
    assert counts(ledger) == counts(loop_ledger)
    assert counts(ref_ledger) == counts(plain_ledger)


@SETTINGS
@given(st.tuples(RANKS, RANKS, RANKS, RANKS), MODES, st.integers(1, 6), SEEDS)
def test_contract_m_matches_kron_slices_and_loop(ranks, n, rows, seed):
    r1, r2, s1, s2 = ranks
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(r1, n, r2))
    z = rng.normal(size=(s1, n, s2))
    m = rng.normal(size=(rows, r1 * s1))
    ledger, loop_ledger = FlopLedger(), FlopLedger()
    got = contract_m_onto_pkp(m, y, z, ledger)
    for i in range(1, n + 1):
        want = m @ np.kron(y[:, i - 1, :], z[:, i - 1, :])
        assert rel_gap(got[:, i - 1, :], want) <= 1e-13
    assert rel_gap(got, loop_contract(m, y, z, loop_ledger)) <= 1e-13
    assert counts(ledger) == counts(loop_ledger)


@pytest.mark.parametrize("block", (1, 64, 2**15))
def test_partial_contraction_rl_blocks_repeat_the_plain_fold(block, monkeypatch):
    # rank-400 product cores with 32 slices: the fold runs in blocks of
    # block // ell rows, and of _MIN_SLAB rows at the smallest budget
    monkeypatch.setattr(recompress, "_BLOCK", block)
    y, z = (gaussian_tt((32,) * 4, (1, 20, 20, 20, 1), seed=s) for s in (1, 2))
    a, sketch = tt_hadamard(y, z), gaussian_tt((32,) * 4, (1, 10, 10, 10, 1), seed=3)
    ledger, plain_ledger = FlopLedger(), FlopLedger()
    got = partial_contraction_rl(a, sketch, ledger)
    for w, w_plain in zip(got, plain_partial_contraction_rl(a, sketch, plain_ledger)):
        assert rel_gap(w, w_plain) <= 1e-13
    assert counts(ledger) == counts(plain_ledger)


def test_direct_hpcrl_uses_the_sketch_columns_without_rank1_decompose(monkeypatch):
    y, z, sketch = (gaussian_tt((5,) * 4, (1, 3, 4, 2, 1), seed=s) for s in (1, 2, 3))
    want = hpcrl(y, z, sketch)

    def refuse(*args, **kwargs):
        raise AssertionError("an uncapped hpcrl decomposed a sketch")

    monkeypatch.setattr(recompress, "rank1_decompose", refuse)
    for w, w_want in zip(hpcrl(y, z, sketch), want):
        assert np.array_equal(w, w_want)


def signed_rank1_decompose(w, max_terms, ledger=None):
    """HaTT-1's term rule on truncated_svd: copied triplets with its sign
    convention, which rank1_decompose does without."""
    svd = truncated_svd(w, ledger=ledger)
    keep = max(1, min(max_terms, int(np.sum(svd.s > recompress._RANK1_TOL * svd.s.max()))))
    return SvdResult(svd.u[:, :keep], svd.s[:keep], svd.v[:, :keep])


@pytest.mark.parametrize("ell", (4, 8))
def test_capped_hpcrl_is_bit_identical_to_the_signed_term_rule(ell, monkeypatch):
    # a term u_g sigma_g v_g^T keeps its value when u_g and v_g flip sign
    # together, and negation is exact, so LAPACK's signs change no bit of
    # the sketches; the cells flip some, or this would show nothing
    hilbert = hilbert_tt(5, 8, 20)
    gaussian = [gaussian_tt((6,) * 5, (1, 4, 6, 5, 3, 1), seed=s) for s in (1, 2)]
    flipped = 0
    for y, z in ((hilbert, hilbert), gaussian):
        for seed in range(4):
            sketch = gaussian_tt(y.shape, uniform_chain(y.d, ell), seed=seed)
            ledger, ref_ledger = FlopLedger(), FlopLedger()
            got = hpcrl(y, z, sketch, 5, ledger)
            with monkeypatch.context() as patch:
                patch.setattr(recompress, "rank1_decompose", signed_rank1_decompose)
                ref = hpcrl(y, z, sketch, 5, ref_ledger)
            assert all(np.array_equal(w, w_ref) for w, w_ref in zip(got, ref))
            assert counts(ledger) == counts(ref_ledger)
            for w in got[1:]:
                flipped += np.sum(rank1_decompose(w, 5).u != signed_rank1_decompose(w, 5).u)
    assert flipped > 0


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
    monkeypatch.setattr(recompress, "_BLOCK", 0)
    assert recompress._slab_size(9, 16, recompress._BLOCK) == 4
    prop()


@pytest.mark.parametrize("max_terms", (None, 8), ids=("direct", "svd"))
def test_hpcrl_peak_stays_below_one_unslabbed_intermediate(max_terms):
    # applying every rank-1 term to every slice of a product core at once
    # forms ell x n x (r s) entries, which dominate at these sizes; slabs
    # of at most _BLOCK elements keep hpcrl well below one such array
    d, n, r, ell = 4, 128, 8, 8
    y, z = (gaussian_tt((n,) * d, (1,) + (r,) * (d - 1) + (1,), seed=s) for s in (1, 2))
    sketch = gaussian_tt((n,) * d, (1,) + (ell,) * (d - 1) + (1,), seed=3)
    tracemalloc.start()
    try:
        hpcrl(y, z, sketch, max_terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ell * n * r * r * np.dtype(float).itemsize


# a cap of 8 is at least every ell below, so it truncates nothing
@pytest.mark.parametrize("max_terms", (None, 8), ids=("direct", "svd"))
@pytest.mark.parametrize("d, n, r, ell", ((4, 128, 8, 8), (6, 32, 12, 6)))
def test_hatt_peak_holds_one_core_update(max_terms, d, n, r, ell):
    """Besides its output, hatt holds at most one core update (ell x n x
    r s), the sketch matrices W^(k) it has not used yet, one slab's
    intermediate of the kernel, and the sweep's QR: the sketched core and
    LAPACK's working copy of it, (ell n) x ell each.  16 KiB of slack
    covers the small matrices and slab copies."""
    y, z = (gaussian_tt((n,) * d, (1,) + (r,) * (d - 1) + (1,), seed=s) for s in (1, 2))
    tracemalloc.start()
    try:
        out = hatt(y, z, ell, max_terms, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kernel_step = recompress._slab_size(n, ell * r * r, recompress._BLOCK)
    elements = (sum(c.values.size for c in out.cores)
                + ell * n * r * r  # one core update
                + (d - 1) * r * r * ell  # the sketch matrices
                + ell * r * kernel_step * r  # one slab
                + 2 * ell * n * ell)  # the QR's input and working copy
    assert peak <= elements * np.dtype(float).itemsize + 16 * 1024


@pytest.mark.parametrize("max_terms", (None, 10), ids=("direct", "svd"))
def test_hatt_peak_holds_one_slab_of_a_core_update(max_terms):
    """At n = 32, r = s = 20 and ell = 10 a core update (ell x n x r s, 1 MB)
    spans two slabs of the sweep.  Besides its output, hatt then holds the
    sketch matrices W^(k), one slab of the core update, one slab's
    intermediate of the kernel, and the sweep's QR of one sketched slab
    (its input and LAPACK's working copy); 16 KiB of slack covers the small
    matrices.  A whole core update does not fit in that bound."""
    d, n, r, ell = 6, 32, 20, 10
    y, z = (gaussian_tt((n,) * d, (1,) + (r,) * (d - 1) + (1,), seed=s) for s in (1, 2))
    tracemalloc.start()
    try:
        out = hatt(y, z, ell, max_terms, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    step = recompress._slab_size(n, ell * r * r, recompress._SWEEP_BLOCK)
    assert 2 * step <= n
    kernel_step = recompress._slab_size(n, ell * r * r, recompress._BLOCK)
    elements = (sum(c.values.size for c in out.cores)
                + (d - 1) * r * r * ell  # the sketch matrices
                + ell * step * r * r  # one slab of a core update
                + ell * r * kernel_step * r  # one kernel slab
                + 2 * ell * step * ell)  # the slab QR's input and working copy
    bound = elements * np.dtype(float).itemsize + 16 * 1024
    assert peak <= bound
    assert ell * n * r * r * np.dtype(float).itemsize > bound


def slab_splits(run):
    """The slab lengths into which every kernel call and every sweep step
    that `run` makes splits its mode slices, told apart by the budget they
    pass to the one slab rule."""
    kernel, sweep = set(), set()
    slab_size = recompress._slab_size

    def split(n, step):
        return tuple(min(step, n - i) for i in range(0, n, step))

    def recorded_slab_size(n, slice_elements, budget):
        step = slab_size(n, slice_elements, budget)
        (sweep if budget == recompress._SWEEP_BLOCK else kernel).add(split(n, step))
        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recompress, "_slab_size", recorded_slab_size)
        run()
    return kernel, sweep


@pytest.mark.parametrize("max_terms", (None, 5), ids=("hatt-2", "hatt-1"))
def test_slab_splits_on_the_benchmark_cells(max_terms):
    """The block budgets split the benchmark's cells as they were tuned:
    on the hadamard-large inputs (d=10, n=32, r=s=20, ell=10) kernel slabs
    of 4 slices and interior sweep steps in two slabs of 16; on
    hilbert_tt(5, 8, 20) squared kernel slabs of 5+3 slices at ell=4 and
    4+4 at ell=8, every sweep step whole; at power-iteration size (d=6,
    n=10, ell=8) every core whole.  A single slab, (n,), is a boundary
    core, a first sweep step, or the kernel call on one slab of hpcrl.  The
    boundary kernel calls on the hadamard-large inputs (hpcrl's first step
    and the sweep's first core update, one row each) split 20+12, and
    hpcrl's kernel calls on those slabs are whole."""
    y, z = (gaussian_tt((32,) * 10, uniform_chain(10, 20), seed=s) for s in (1, 2))
    assert slab_splits(lambda: hatt(y, z, 10, max_terms, seed=3)) == (
        {(4,) * 8, (4,) * 4, (4,), (32,), (20, 12), (20,), (12,)}, {(16, 16), (32,)})
    h = hilbert_tt(5, 8, 20)
    assert slab_splits(lambda: hatt(h, h, 4, max_terms, seed=3)) == (
        {(5, 3), (5,), (3,), (8,)}, {(8,)})
    assert slab_splits(lambda: hatt(h, h, 8, max_terms, seed=3)) == (
        {(4, 4), (4,), (8,)}, {(8,)})
    f = separable_tt(SeparableFunctionSpec("qing", 6, 10))
    name = "hatt-2" if max_terms is None else "hatt-1"
    assert slab_splits(lambda: power_iteration_max(f, 8, max_iter=3, recompressor=name,
                                                   max_terms=max_terms)) == ({(10,)}, {(10,)})
