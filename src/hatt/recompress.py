"""TT recompression algorithms and their flop model.

Given a TT tensor (or an implicit Hadamard product of two TT tensors) and a
target rank chain, the algorithms here produce a left-orthogonal TT tensor
with the target ranks:

* :func:`tt_rounding`: deterministic rounding: a left-to-right trim of
  infeasible bonds by exact core merges, right-to-left orthogonalization
  by LQ and merges, then left-to-right truncated-SVD compression;
* :func:`rand_orth`: randomized rounding driven by sketches from
  :func:`partial_contraction_rl` against a random gaussian TT tensor;
* :func:`hatt`: the Hadamard-avoiding variant of rand_orth: it consumes the
  two factors directly, building the sketches with :func:`hpcrl` and updating
  cores with :func:`contract_m_onto_pkp`, so no product core of size
  (r_k s_k) x n x (r_{k+1} s_{k+1}) is ever materialized.

`hatt` comes in two flavours, selected by its `max_terms` argument: an
integer (HaTT-1) re-expresses each sketch by at most that many leading
singular triplets before the recursion step, by the term rule of
:func:`rank1_decompose`; None (HaTT-2) uses the sketch columns as they are.

:func:`flop_model` gives the leading-order operation count of one run of
each algorithm, so measured ledgers can be checked against predictions.
:data:`RECOMPRESSORS` is the one place that maps an algorithm name
(tt-rounding, rand-orth, hatt-1, hatt-2) to the code that runs it.
"""

import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .indexing import positive_whole, whole_numbers
from .linalg import (
    SVD_COST_FACTOR,
    FlopLedger,
    SvdResult,
    _NonFiniteInput,
    econ_qr,
    matmul,
    scale_columns,
    tri_matmul,
    truncated_svd,
)
from .rand_tt import check_rank_chain, check_seed, random_tt, uniform_chain
from .tt import (
    TTCore,
    TTTensor,
    _finite_scalar,
    check_trains,
    h_unfold,
    tt_hadamard,
    v_unfold,
)


class TargetRankWarning(UserWarning):
    """A requested target rank was clamped to a feasible value."""


# singular values at or below this fraction of sigma_1 are dropped from a
# capped (HaTT-1) sketch
_RANK1_TOL = 1e-10


def rank1_decompose(w, max_terms, ledger=None):
    """HaTT-1's term rule: a sketch matrix as its singular triplets above
    _RANK1_TOL sigma_1, at most `max_terms` and at least one; the dropped
    tail is the only approximation in the whole sketch recursion.

    The triplets are :func:`truncated_svd`'s, which also checks, scans and
    charges `w`; it is looked up in this module at call time, so a tracer's
    wrapper sees HaTT-1's SVDs.  They carry LAPACK's signs: a term
    u_g sigma_g v_g^T is unchanged when u_g and v_g flip sign together, and
    negation is exact in floating point, so in :func:`hpcrl` the sign of u_g
    (the kernel's rows) cancels bit for bit against that of v_g (the
    closing R(i) v_g sigma_g).
    """
    max_terms = positive_whole(max_terms, "max_terms")
    svd = truncated_svd(w, ledger=ledger)
    keep = max(1, min(max_terms, int(np.sum(svd.s > _RANK1_TOL * svd.s.max(initial=0.0)))))
    return SvdResult(svd.u[:, :keep], svd.s[:keep], svd.v[:, :keep])


# --- sketches ---------------------------------------------------------------

# Every budgeted block of the package is cut by _slab_size: the kernels'
# slabs (_contract_slabs, hpcrl), partial_contraction_rl's fold blocks and
# the sweep's core-update slabs.  The kernels' and the fold's budget is
# _BLOCK (2^13 elements; 2^15 ran alike, with a higher peak), counted over
# one slab's intermediate or one block of folded rows; small cores take one
# slab per core, so a kernel pays its per-call overhead once per core.
# Large cores keep 4-slice slabs: at 8 slices the tracemalloc peak of hatt-2
# on hilbert_tt(5, 8, 20) squared rises from 0.57 to 0.95 MiB, and the
# 2-slice slabs that the budget alone gives at r = s = 20, ell = 10 were no
# faster there in interleaved timings.
# The sweep's budget is _SWEEP_BLOCK (2^16 elements, 512 KiB), counted over
# one slab of a core update: hadamard-large's core updates (10 x 32 x 400
# elements) split into 2 slabs of 16 slices, and the tracemalloc peak of
# hatt-2 there falls from 1.38 to 0.94 MiB; in one interleaved run of 300
# calls each, 2 slabs took 0.97x the time of one and 4 slabs of 8 slices
# (0.83 MiB) 1.08x.  The Hilbert (at most 25,600 elements) and
# power-iteration (at most 1,280) core updates fit one slab.  The floor
# matters at r = s = 60: one-slice sweep slabs (32 per core) took 1.22x the
# unslabbed time and 4-slice slabs 1.02x (20 calls each), at the same
# 5.76 MiB peak, which hpcrl sets there.
_MIN_SLAB = 4
_BLOCK = 1 << 13
_SWEEP_BLOCK = 1 << 16


def _slab_size(n, slice_elements, budget):
    """Items (mode slices or rows) per block of n items that hold
    `slice_elements` elements each: as many as fit in `budget` elements, at
    least _MIN_SLAB, at most n.  The budget is passed at each call, so a
    patched module constant is seen."""
    return min(n, max(_MIN_SLAB, budget // slice_elements))


def _slabs(step, *arrays):
    """Views of `arrays`, which share their mode axis (axis 1), `step` mode
    slices at a time, one slab's views alive at a time; arrays that fit in
    one slab come back as they are, so a small core pays for no view."""
    n = arrays[0].shape[1]
    if step >= n:
        return (arrays,)
    return ([a[:, i0:i0 + step] for a in arrays] for i0 in range(0, n, step))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is _finite_sketch's error
def partial_contraction_rl(a, r, ledger=None):
    """Right-to-left partial contractions of a TT tensor against a sketch.

    Returns the list [W^(1), ..., W^(d-1)] of C-ordered matrices, so W^(k)
    is item k-1.  W^(k) contracts cores k+1..d of `a` with cores k+1..d of
    `r`; the recursion starts from W^(d) = 1 (the 1 x 1 identity) and runs
    one step per core k = d..2: fold W^(k) into the k-th core of `a` from
    the right (one product against the vertical matricization), then
    contract the mode against the k-th core of `r` (one product against the
    horizontal matricization of `r`).  The temporary folded core exists
    only as a matrix.  The skinny fold ``V<A_k> W^(k)`` is computed as
    ``(W^(k)^T V<A_k>^T)^T`` in row blocks, an orientation OpenBLAS runs
    faster; same ledger charge.  A sketch W^(k) that overflows float64 is
    a ValueError.
    """
    check_trains(a=a, r=r)
    mats = [None] * (a.d - 1)
    w = np.ones((1, 1))
    for k in range(a.d, 1, -1):
        core = a.cores[k - 1]
        v, w_t = v_unfold(core), w.T
        b = np.empty((v.shape[0], w_t.shape[0]))
        step = _slab_size(v.shape[0], w_t.shape[0], _BLOCK)
        for j in range(0, v.shape[0], step):
            b[j:j + step] = matmul(w_t, v[j:j + step].T, ledger).T
        bh = b.reshape(core.left_rank, -1)
        w = mats[k - 2] = _finite_sketch(matmul(bh, h_unfold(r.cores[k - 1]).T, ledger), k - 1)
    return mats


def _finite_sketch(w, k):
    """W^(k) of a sketch pass, scanned where it is made, or its overflow's ValueError."""
    if not np.isfinite(w).all():
        raise ValueError(f"the sketch W^({k}) overflows float64")
    return w


@np.errstate(over="ignore", invalid="ignore")  # an overflow is _finite_sketch's error
def hpcrl(y, z, r, max_terms=None, ledger=None):
    """Sketches of the Hadamard product y ⊙ z without forming its cores.

    Produces exactly the matrices :func:`partial_contraction_rl` would give
    for the materialized product, up to the terms that HaTT-1's rule,
    :func:`rank1_decompose`, drops from each sketch W^(k) when `max_terms`
    is an integer (None: W^(k)'s columns are the rank-1 terms).  Each
    rank-1 term g of W^(k) folds into an r_k x s_k matrix U_g, and the
    product core applied to it is the Kronecker-times-vector trick
    ``Y(i) U_g Z(i)^T``, so the work scales with r + s instead of r * s.
    That is the kernel of :func:`contract_m_onto_pkp` applied to the
    transposed factor cores; each slab of mode slices is then closed
    against the sketch core's slices into W^(k-1).  Slabs keep every
    intermediate a fraction of a factor core.  As in
    :func:`partial_contraction_rl`, the recursion starts from W^(d) = 1 and
    every W^(k) is returned C-ordered; a 1 x 1 sketch is its own rank-1
    term, never decomposed.  A sketch W^(k) that overflows float64 is a
    ValueError: each sketch is scanned where it is made.  HaTT-1's terms
    carry LAPACK's signs, with no convention: a term's sign cancels exactly
    between the kernel's rows and the closing (see :func:`rank1_decompose`),
    so the sketches are bit for bit those of any sign choice.
    """
    check_trains(y=y, z=z, r=r)
    max_terms = None if max_terms is None else positive_whole(max_terms, "max_terms")
    mats = [None] * (y.d - 1)
    w_t = np.ones((1, 1))  # W^(k)^T: the uncapped kernel's rows
    for k in range(y.d, 1, -1):
        yc, zc, rc = y.cores[k - 1].values, z.cores[k - 1].values, r.cores[k - 1].values
        (r1, n, r2), s1, l1 = yc.shape, zc.shape[0], rc.shape[0]
        # right[g, i] is R(i) v_g sigma_g (R(i)'s column g without a cap)
        if max_terms is None or w_t.size == 1:
            u_t, right = w_t, rc
        else:
            svd = rank1_decompose(mats[k - 1], max_terms, ledger)
            u_t, right = svd.u.T, matmul(rc.reshape(l1 * n, -1), svd.v, ledger)
            right = scale_columns(right, svd.s, ledger).reshape(l1, n, len(svd.s))
        terms = u_t.shape[0]
        right = right.transpose(2, 1, 0)
        if ledger is not None:
            ledger.add_matmul(r1 * s1 * (2 * n * terms - 1) * l1)
        # uncapped, u^T is the last step's acc, already contiguous; a
        # contiguous Z^T lets _contract_slabs reshape each slab as a view
        u_t = np.ascontiguousarray(u_t)
        yt, zt = yc.transpose(2, 1, 0), np.ascontiguousarray(zc.transpose(2, 1, 0))
        # W^(k-1) accumulates transposed: one wide GEMM closes each slab,
        # and the first slab's closing product is the accumulator
        acc = None
        # the kernel's elements per slice on the transposed cores
        step = _slab_size(n, terms * max(r1, r2) * s1, _BLOCK)
        for ys, zs, rs in _slabs(step, yt, zt, right):
            # x[g, i] = kron(Y(i), Z(i)) @ u[:, g]
            x = _contract_slabs(u_t, ys, zs, ledger)
            closed = rs.reshape(-1, l1).T @ x.reshape(-1, r1 * s1)
            del x  # one slab's x at a time
            acc = closed if acc is None else np.add(acc, closed, out=acc)
            del closed
        _finite_sketch(acc, k - 1)
        mats[k - 2], w_t = np.ascontiguousarray(acc.T), acc  # one copy per bond
    return mats


# --- core update without the product core -----------------------------------


def _contract_slabs(m, yv, zv, ledger=None):
    """Rows of m times kron(Y(i), Z(i)) for every slice i, as an array of
    shape (rows, n, r2 s2); m has r1 s1 columns (Y index slow).

    The one Kronecker-times-matrix kernel: :func:`contract_m_onto_pkp`
    applies the product core with it from the left, :func:`hpcrl` (on the
    transposed factor cores) from the right.  Besides the output, it holds
    one slab's intermediate at a time: each slab's is released before the
    next slab's GEMM."""
    r1, n, r2 = yv.shape
    s1, _, s2 = zv.shape
    rows = m.shape[0]
    if ledger is not None:
        ledger.add_matmul(n * rows * (s2 * (2 * s1 - 1) * r1 + s2 * (2 * r1 - 1) * r2))
    out = np.empty((rows, n, r2 * s2))
    m_rows = m.reshape(rows * r1, s1)
    # one row of one slice takes at most max(r1, r2) s2 elements in either
    # intermediate
    step = _slab_size(n, rows * max(r1, r2) * s2, _BLOCK)
    for ys, zs, outs in _slabs(step, yv, zv, out):
        nb = ys.shape[1]
        # Z side: p[g, a, i, e] = sum_c m[g, (a, c)] Z(i)[c, e]
        p = (m_rows @ zs.reshape(s1, nb * s2)).reshape(rows, r1, nb, s2)
        # Y side, batched over (g, i): out[g, i] = Y(i)^T p[g, :, i, :]
        np.matmul(ys.transpose(1, 2, 0), p.transpose(0, 2, 1, 3),
                  out=outs.reshape(rows, nb, r2, s2))
        del p
    return out


def contract_m_onto_pkp(m, y, z, ledger=None):
    """Contract an l x (r1 s1) matrix onto the implicit product core.

    `y` and `z` are two cores' arrays (r1 x n x r2, s1 x n x s2), or slabs
    of the same mode slices of them.  Returns the (l, n, r2 s2) array of
    slices ``m @ kron(Y(i), Z(i))``, forming neither the Kronecker slice
    nor the product core: row g of m folds into an r1 x s1 matrix M_g, and
    its product with the Kronecker slice is ``Y(i)^T M_g Z(i)``.  Per slab
    (see :func:`_slab_size`) that is one GEMM, m as an (l r1) x s1 matrix
    against the slab's Z slices as an s1 x (n s2) matrix, then one
    ``np.matmul`` batched over (row, slice) that applies the Y slices and
    writes straight into the output, which is not scanned.
    """
    m = np.asarray(m)
    if y.ndim != 3 or z.ndim != 3:
        raise ValueError(f"core arrays must be 3-way, got shapes {y.shape} and {z.shape}")
    (r1, n, _), (s1, nz, _) = y.shape, z.shape
    if n != nz:
        raise ValueError(f"mode mismatch {n} vs {nz}")
    if m.ndim != 2 or m.shape[1] != r1 * s1:
        raise ValueError(f"matrix columns {m.shape} incompatible with ranks {r1}*{s1}")
    return _contract_slabs(m, y, z, ledger)


def tt_hadamard_dot(x, y, z):
    """Inner product <x, y ⊙ z> without forming the product's cores.

    The carry after core k is the (l_k x r_k s_k) contraction of the first k
    cores of x against those of y ⊙ z; each step applies it to the implicit
    product core like :func:`contract_m_onto_pkp` and closes the mode
    against x's core with one GEMM.
    """
    check_trains(x=x, y=y, z=z)
    c = np.ones((1, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        for cx, cy, cz in zip(x.cores, y.cores, z.cores):
            slabs = _contract_slabs(c, cy.values, cz.values)
            c = v_unfold(cx).T @ slabs.reshape(-1, slabs.shape[2])
    return _finite_scalar(c)


# --- target chains ----------------------------------------------------------


def normalize_targets(targets, d):
    """Accept a scalar, an interior list (length d-1), or a full chain."""
    if targets is None:
        raise ValueError("target ranks are required (or pass an explicit sketch tensor)")
    # a 0-d array is a scalar too; np.ndim would refuse a ragged list opaquely
    if np.isscalar(targets) or getattr(targets, "ndim", None) == 0:
        chain = uniform_chain(d, targets)
    else:
        targets = tuple(targets)
        if len(targets) == d - 1:
            chain = (1,) + targets + (1,)
        else:
            chain = targets
    return check_rank_chain(chain, d)


def _clamp_targets(targets, shape, ranks):
    """The output ranks of every rounding sweep: the one rank rule of the package.

    l_k = min(t_k, ranks[k], l_{k-1} n_k) from left to right, then
    l_k = min(l_k, l_{k+1} n_{k+1}) from right to left, where `ranks` are
    the TT ranks of the tensor being rounded: no sweep returns a rank above
    the tensor's own, or one its neighbouring bonds cannot realize.
    Clamping warns at the first frame outside the package, the caller's.
    """
    d = len(shape)
    out = [1]
    for k in range(1, d):
        out.append(min(targets[k], ranks[k], out[k - 1] * shape[k - 1]))
    out.append(1)
    for k in range(d - 1, 0, -1):
        out[k] = min(out[k], out[k + 1] * shape[k])
    clamped = [(k, targets[k], out[k]) for k in range(1, d) if out[k] != targets[k]]
    if clamped:
        desc = ", ".join(f"l_{k}: {a} -> {b}" for k, a, b in clamped)
        frame, level = sys._getframe(1), 2
        while frame.f_globals.get("__package__") == __package__:
            frame, level = frame.f_back, level + 1
        warnings.warn(f"target ranks clamped to feasible values ({desc})",
                      TargetRankWarning, stacklevel=level)
    return tuple(out)


def _draw_sketch_tensor(shape, targets, seed):
    if seed is None:
        raise ValueError("a seed (or an explicit sketch tensor) is required")
    return random_tt(shape, targets, "gaussian", seed)


def _sketch(shape, ranks, targets, seed, sketch_tt):
    """The sketch tensor of a randomized sweep over a tensor of TT `ranks`.

    Without `sketch_tt`, one is drawn from `seed` at the `targets` clamped
    by :func:`_clamp_targets`.  A caller-supplied `sketch_tt` replaces both
    (giving them too is a ValueError) and must have shape `shape`; its
    ranks are clamped the same way (with a :class:`TargetRankWarning`
    naming the bond), by keeping the leading rows and columns of its cores.
    """
    if sketch_tt is None:
        chain = _clamp_targets(normalize_targets(targets, len(shape)), shape, ranks)
        return _draw_sketch_tensor(shape, chain, seed)
    if targets is not None or seed is not None:
        raise ValueError("give sketch_tt or targets and seed, not both")
    check_trains(sketch_tt=sketch_tt)
    if sketch_tt.shape != tuple(shape):
        raise ValueError(f"sketch tensor shape {sketch_tt.shape} does not match {tuple(shape)}")
    chain = _clamp_targets(sketch_tt.ranks, shape, ranks)
    if chain == sketch_tt.ranks:
        return sketch_tt
    return TTTensor([c.values[:chain[k], :, :chain[k + 1]]
                     for k, c in enumerate(sketch_tt.cores)])


# --- the three sweeps -------------------------------------------------------


def tt_rounding(a, targets, ledger=None):
    """Deterministic TT rounding to a target rank chain, in three passes.

    Pass 1 (left to right) trims: every core whose vertical matricization
    is wide (r_{k-1} n_k < r_k) is multiplied into the next core and becomes
    the identity (r_{k-1} n_k x r_{k-1} n_k, reshaped), so bond k keeps at
    most n_1 ... n_k ranks.  Pass 2 (right to left) makes cores 2..d
    right-orthogonal: every core whose horizontal matricization is tall
    (n_k r_k < r_{k-1}) is multiplied into the previous core and becomes the
    identity, and every other core is LQ-factorized and passes its square
    triangular factor into the previous core.  So every bond ends at most
    min(r_k, n_1 ... n_k, n_{k+1} ... n_d).  The merges are exact changes of
    representation that spare the passes the factorizations whose
    orthogonal factor is square and carries nothing: on hilbert_tt(5, 8, 20)
    squared they cut the product ranks 400 to (8, 64, 64, 8), and the ledger
    charges 0.24e9 (ell = 4) and 0.25e9 (ell = 8) flops where the untrimmed
    passes charge 2.97e9.  Pass 3 (left to right) truncates each vertical
    matricization by SVD at the bond target, keeps U as the new core and
    pushes sigma V^T into the next core (Oseledets, SISC 2011); after
    pass 2 the matricization is the tensor's unfolding up to orthogonal
    factors on both sides, so no QR needs to come first.  Output ranks are
    the targets clamped to the ranks of `a` and to feasible values (with a
    :class:`TargetRankWarning`), and cores 1..d-1 are left-orthogonal.  A
    core that overflows float64, or a merge or carry pushed into it, is a
    ValueError naming the core that the next QR or SVD reads (the last core
    is scanned).
    """
    check_trains(a=a)
    d = a.d
    targets = _clamp_targets(normalize_targets(targets, d), a.shape, a.ranks)
    cores = [c.values for c in a.cores]
    # the QR or SVD that reads core k scans it, so an overflow names the loop's k
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            # left-to-right trim of the bonds wider than their leading modes
            for k in range(1, d):
                r1, n, r2 = cores[k - 1].shape
                if r1 * n >= r2:
                    continue
                nxt = cores[k]
                merged = matmul(cores[k - 1].reshape(r1 * n, r2), nxt.reshape(r2, -1), ledger)
                cores[k] = merged.reshape(r1 * n, *nxt.shape[1:])
                cores[k - 1] = np.eye(r1 * n).reshape(r1, n, r1 * n)
            # right-to-left orthogonalization, merging the cores that trim their bond
            for k in range(d, 1, -1):
                core, prev = cores[k - 1], cores[k - 2]
                (r1, n, r2), (p1, pn, _) = core.shape, prev.shape
                prev_mat = prev.reshape(p1 * pn, r1)
                if n * r2 < r1:
                    updated = matmul(prev_mat, core.reshape(r1, n * r2), ledger)
                    cores[k - 1] = np.eye(n * r2).reshape(n * r2, n, r2)
                else:
                    res = econ_qr(core.reshape(r1, n * r2).T, ledger)
                    updated = tri_matmul(prev_mat, res.r.T, ledger)
                    cores[k - 1] = res.q.T.reshape(r1, n, r2)
                cores[k - 2] = updated.reshape(p1, pn, -1)
            # left-to-right compression
            for k in range(1, d):
                (r1, n, r2), bond, nxt = cores[k - 1].shape, targets[k], cores[k]
                svd = truncated_svd(cores[k - 1].reshape(r1 * n, r2), bond, ledger)
                cores[k - 1] = svd.u.reshape(r1, n, bond)
                carry = scale_columns(svd.v, svd.s, ledger).T
                cores[k] = matmul(carry, nxt.reshape(r2, -1), ledger).reshape(bond, *nxt.shape[1:])
    except _NonFiniteInput:
        raise _core_overflow(k) from None
    return _sweep_result(cores)


def _core_overflow(k):
    return ValueError(f"core {k} of the recompressed tensor overflows float64")


def _sweep_result(cores):
    """The output tensor of a rounding sweep.  Cores 1..d-1 are orthonormal
    factors of matrices that ``econ_qr`` or ``truncated_svd`` found finite;
    only the last core can overflow, so it alone is scanned."""
    if not np.isfinite(cores[-1]).all():
        raise _core_overflow(len(cores))
    return TTTensor([TTCore._trusted(c) for c in cores])


@np.errstate(over="ignore", invalid="ignore")  # econ_qr's scan and _sweep_result name it
def _orthogonalize_sweep(cores, sketches, contract, ledger):
    """Shared left-to-right randomized sweep of :func:`rand_orth` and
    :func:`hatt`.

    `cores[k - 1]` holds the arrays of core k that share its mode axis
    (axis 1): (A_k,) for rand_orth, (Y_k, Z_k) for hatt.  `sketches[k - 1]`
    is the C-ordered sketch matrix W^(k) of bond k, and the sweep takes one
    step per sketch; it sets W^(k) to None once step k has used it.
    `contract(m, *slab, ledger)` must return core k's mode slices in `slab`
    (`cores[k - 1]` cut to those slices by :func:`_slabs`) contracted
    against m, an array of shape (rows(m), slices, right rank); m = 1 (the
    1 x 1 identity) for core 1, so that step is like the others.

    Step k holds its core update C (the contracted core k, as a
    (rows n_k) x r_k matrix) one slab of mode slices at a time, as many as
    :func:`_slab_size` fits in _SWEEP_BLOCK elements; a core update in one
    slab is pulled from the whole arrays, without a slab view.  It forms
    each slab's sketch S_b = C_b W^(k) with one GEMM (a ValueError if S_b
    overflows float64) and folds it into a running QR with a flat-tree TSQR
    combine (Demmel, Grigori, Hoemmen and Langou, SISC 2012): the
    Householder QR of [R; S_b] updates R, multiplies the rows of Q so far
    by its top block and appends its bottom block as slab b's rows, and
    H = Q^T C becomes top^T H + bottom^T C_b.  No Gram matrix and no
    triangular solve are formed.  Each row of Q meets only the top block,
    so Q is kept as the output core, a rows x (slices so far x width)
    matrix that each slab's rows join along the mode axis, and the next
    step contracts against m = H.  If S has full column rank, Q is the Q of
    S's QR up to rounding (R with a nonnegative diagonal is unique); a core
    update in one slab takes one QR and one product, as an unslabbed sweep
    does.  Returns the output tensor; every core except the last has
    orthonormal vertical matricization.
    """
    out = []
    m = np.ones((1, 1))
    for k, arrays in enumerate(cores[:-1]):
        w = sketches[k]
        sketches[k] = None
        rows, n, cols = m.shape[0], arrays[0].shape[1], w.shape[0]
        r = None
        for slab in _slabs(_slab_size(n, rows * cols, _SWEEP_BLOCK), *arrays):
            c = contract(m, *slab, ledger).reshape(-1, cols)
            del slab  # its views, not held through the QR
            s = matmul(c, w, ledger)
            if r is not None:
                t = r.shape[0]
                s = np.vstack((r, s))  # [R; S_b]
            # econ_qr's scan is the sweep's: a non-finite [R; S_b] is an
            # overflow of the sketched update (R carries its norm so far)
            try:
                res = econ_qr(s, ledger=ledger)
            except _NonFiniteInput:
                raise ValueError(f"the sketched update of core {k + 1} overflows float64") from None
            del s
            if r is None:
                q, h = res.q, matmul(res.q.T, c, ledger)
            else:
                top, bottom = res.q[:t], res.q[t:]
                q = np.concatenate((matmul(q.reshape(-1, t), top, ledger).reshape(rows, -1),
                                    bottom.reshape(rows, -1)), axis=1)
                h = matmul(top.T, h, ledger) + matmul(bottom.T, c, ledger)
                del top, bottom  # views that would keep this QR's Q alive
            r = res.r
            # one slab of the core update at a time
            del c, res
        out.append(q.reshape(rows, n, -1))
        m = h
        del w, r  # before the next core update is pulled
    out.append(contract(m, *cores[-1], ledger))
    return _sweep_result(out)


def rand_orth(a, targets=None, seed=None, sketch_tt=None, ledger=None):
    """Randomize-then-orthogonalize rounding of a TT tensor.

    Sketches come from :func:`partial_contraction_rl` against a gaussian TT
    tensor with the target ranks, drawn from `seed` or supplied as
    `sketch_tt` in place of both.  The sweep (:func:`_orthogonalize_sweep`)
    pulls each core update slab by slab, as m times a block of columns of
    the next core's horizontal matricization (a view, not a copy).  If a
    sketched matrix is rank deficient the QR keeps its full width.  Target
    ranks, or `sketch_tt` ranks, above the ranks of `a` or above feasible
    values are clamped with a :class:`TargetRankWarning`.  An overflow is a
    ValueError that the sketch pass raises naming the sketch, or the sweep
    naming the core (each QR's scan, and the last core's).
    """
    check_trains(a=a)
    sketch = _sketch(a.shape, a.ranks, targets, seed, sketch_tt)
    sketches = partial_contraction_rl(a, sketch, ledger)
    return _orthogonalize_sweep([(c.values,) for c in a.cores], sketches, _core_update, ledger)


def _core_update(m, a, ledger):
    """m H<A_k> for a core's array A_k, or a slab of it, shaped (rows(m), slices, r_k)."""
    r1, slices, r2 = a.shape
    return matmul(m, a.reshape(r1, slices * r2), ledger).reshape(-1, slices, r2)


def hatt(y, z, targets=None, max_terms=None, seed=None, sketch_tt=None, ledger=None):
    """Recompress the Hadamard product y ⊙ z without materializing it.

    With `max_terms` None (HaTT-2), identical in exact arithmetic to
    :func:`rand_orth` applied to the materialized product with the same
    sketch tensor; an integer (HaTT-1) re-expresses each sketch by at most
    that many singular triplets (see :func:`hpcrl`).  The sketches come from
    :func:`hpcrl`, and the sweep (:func:`_orthogonalize_sweep`) pulls each
    core update from :func:`contract_m_onto_pkp` one slab of mode slices of
    the factor cores at a time.  The boundary cores take the same steps as
    the others, so no product core is formed, and no core update that spans
    more than one slab is held whole.  An overflow is a ValueError that
    :func:`hpcrl` raises naming the sketch, or the sweep naming the core
    (each QR's scan, and the last core's), as in :func:`rand_orth`.
    Target ranks, or `sketch_tt` ranks (given in place of `targets` and
    `seed`), above the product rank r_k s_k or above feasible values are
    clamped with a :class:`TargetRankWarning`.
    """
    check_trains(y=y, z=z)
    products = tuple(ry * rz for ry, rz in zip(y.ranks, z.ranks))
    sketch = _sketch(y.shape, products, targets, seed, sketch_tt)
    cores = [(cy.values, cz.values) for cy, cz in zip(y.cores, z.cores)]
    sketches = hpcrl(y, z, sketch, max_terms, ledger)
    del sketch
    # looked up here, so a function swapped into this module is seen
    return _orthogonalize_sweep(cores, sketches, contract_m_onto_pkp, ledger)


# --- the algorithm table -----------------------------------------------------
#
# Each runner recompresses y ⊙ z as `(y, z, targets, seed, max_terms, ledger)`.
# The baselines materialize the product inside the runner, so a timed call
# includes that step.  Runners look the sweeps up by module name at call time,
# so a function swapped into this module (a tracer's wrapper) is seen.


def _run_tt_rounding(y, z, targets, seed, max_terms, ledger):
    return tt_rounding(tt_hadamard(y, z), targets, ledger=ledger)


def _run_rand_orth(y, z, targets, seed, max_terms, ledger):
    return rand_orth(tt_hadamard(y, z), targets, seed=seed, ledger=ledger)


def _term_cap(max_terms, ell):
    """The rank-1 terms hatt-1 keeps per sketch at target rank ell: at most
    `max_terms`, and at most ell, the sketch's column bound, so a cap of ell
    (the one None gives) truncates nothing the uncapped SVD keeps.  The cap
    is checked as in :func:`hpcrl` and :func:`rank1_decompose`."""
    return ell if max_terms is None else min(positive_whole(max_terms, "max_terms"), ell)


def _run_hatt1(y, z, targets, seed, max_terms, ledger):
    ell = max(normalize_targets(targets, y.d))
    return hatt(y, z, targets, _term_cap(max_terms, ell), seed=seed, ledger=ledger)


def _run_hatt2(y, z, targets, seed, max_terms, ledger):
    return hatt(y, z, targets, seed=seed, ledger=ledger)


RECOMPRESSORS = {
    "tt-rounding": _run_tt_rounding,
    "rand-orth": _run_rand_orth,
    "hatt-1": _run_hatt1,
    "hatt-2": _run_hatt2,
}
ALGORITHMS = tuple(RECOMPRESSORS)


def _runner(algorithm):
    """The runner of a named algorithm; an unknown name is a ValueError."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    return RECOMPRESSORS[algorithm]


# --- flop model --------------------------------------------------------------


def flop_model(algorithm, d, n, r, s, ell, max_terms=None):
    """Leading-order flop count of one run of `algorithm` that recompresses a
    rank-(r, s) Hadamard product of d-way, mode-n TT tensors to target rank
    ell.

    hatt-1 keeps :func:`_term_cap` rank-1 terms per sketch, and its
    ell^2-order SVD term uses the calibrated bucket constant, so it is
    approximate by nature; the other algorithms ignore `max_terms` but
    refuse the caps that hatt-1 refuses.

    The tt-rounding formula assumes every product rank r s is feasible (at
    most the product of the mode sizes on either side of its bond).  Where
    it is not, :func:`tt_rounding` first trims the bond, and the formula is
    an upper bound: on hilbert_tt(5, 8, 20) squared (ranks 400 where 8, 64,
    64, 8 fit) the ledger is 0.031 of the model at ell = 4 and 0.032 at
    ell = 8.

    The randomized algorithms add, per interior core, the GEMMs of the
    sweep's TSQR combine (see :func:`_combine_flops`).  QRs, whole or per
    slab, are charged to the ledger's qr counter and are not modelled.
    Boundary cores are not modelled either: the count covers the d - 2
    interior cores, so d <= 2 predicts 0.
    """
    _runner(algorithm)
    d, n, r, s, ell = whole_numbers((d, n, r, s, ell), "flop model arguments")
    if min(d, n, r, s, ell) < 1:
        raise ValueError("flop model arguments must be positive")
    terms = _term_cap(max_terms, ell)
    if algorithm == "tt-rounding":
        per_core = n * (5 * r**3 * s**3 + 6 * r**2 * s**2 * ell + 2 * r * s * ell**2)
    elif algorithm == "rand-orth":
        per_core = n * (4 * r**2 * s**2 * ell + 6 * r * s * ell**2)
    elif algorithm == "hatt-2":
        per_core = n * r * s * ell * (4 * r + 4 * s + 6 * ell)
    else:  # hatt-1
        r_hat = (terms + ell) / 2
        per_core = (n * r * s * (r_hat * (4 * r + 4 * s + 4 * ell) + 2 * ell**2)
                    + SVD_COST_FACTOR * r * s * ell**2)
    if algorithm != "tt-rounding":
        per_core += _combine_flops(n, r * s, ell)
    return int(round(max(d - 2, 0) * per_core))


def _combine_flops(n, cols, ell):
    """Leading-order GEMM flops that the TSQR combine of
    :func:`_orthogonalize_sweep` adds to one core update of ell x n x cols
    elements.  Each slab after the first multiplies H (ell x cols) and the
    rows of Q so far (on average ell n / 2 of them) by an ell x ell block;
    a core update in one slab adds nothing."""
    slabs = -(-n // _slab_size(n, ell * cols, _SWEEP_BLOCK))
    return (slabs - 1) * ell**2 * (2 * cols + ell * n)


# --- reporting ---------------------------------------------------------------


@dataclass
class RecompressReport:
    """Per-run record: timing, measured and predicted flops."""

    wall_time_s: float
    flops_measured: FlopLedger
    flops_predicted: int


def recompress_hadamard(algorithm, y, z, targets, seed=None, max_terms=None):
    """Run one recompression of y ⊙ z and report on it.

    The baselines (tt-rounding, rand-orth) materialize the Hadamard product
    first; that step is part of their timed region, mirroring how they would
    actually be used.  `max_terms` caps hatt-1's sketches (None: at the
    target rank); the other algorithms ignore it, but the prediction, made
    before the run, refuses the caps hatt-1 refuses, and a seed is checked.
    """
    run = _runner(algorithm)
    check_trains(y=y, z=z)
    d = y.d
    ell = max(normalize_targets(targets, d))
    predicted = flop_model(algorithm, d, max(y.shape), max(y.ranks), max(z.ranks), ell,
                           max_terms)
    seed = None if seed is None else check_seed(seed)
    ledger = FlopLedger()
    start = time.perf_counter()
    out = run(y, z, targets, seed, max_terms, ledger)
    elapsed = time.perf_counter() - start
    return out, RecompressReport(elapsed, ledger, predicted)
