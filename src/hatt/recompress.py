"""TT recompression algorithms and their flop model.

Given a TT tensor (or an implicit Hadamard product of two TT tensors) and a
target rank chain, the algorithms here produce a left-orthogonal TT tensor
with the target ranks:

* :func:`tt_rounding`: deterministic rounding: a left-to-right QR trim of
  infeasible bonds, right-to-left LQ orthogonalization, then left-to-right
  QR + truncated-SVD compression;
* :func:`rand_orth`: randomized rounding driven by sketches from
  :func:`partial_contraction_rl` against a random gaussian TT tensor;
* :func:`hatt`: the Hadamard-avoiding variant of rand_orth: it consumes the
  two factors directly, building the sketches with :func:`hpcrl` and updating
  cores with :func:`contract_m_onto_pkp`, so no product core of size
  (r_k s_k) x n x (r_{k+1} s_{k+1}) is ever materialized.

`hatt` comes in two flavours selected by a :class:`Rank1Variant`: the
"svd" flavour (HaTT-1) re-expresses each sketch as a truncated rank-1 sum
before the recursion step, the "direct" flavour (HaTT-2) uses the sketch
columns as they are.

:func:`flop_model` gives leading-order operation counts for these algorithms
and their sketch passes, so measured ledgers can be checked against
predictions.  :data:`RECOMPRESSORS` is the one place that maps an algorithm
name (tt-rounding, rand-orth, hatt-1, hatt-2) to the code that runs it.
"""

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SVD_COST_FACTOR,
    FlopLedger,
    econ_qr,
    matmul,
    scale_columns,
    tri_matmul,
    truncated_svd,
)
from .rand_tt import RandomSpec, check_rank_chain, random_tt, uniform_chain
from .tt import (
    TTCore,
    TTTensor,
    h_unfold,
    pkp_cores,
    relative_error,
    tt_hadamard,
    v_unfold,
)


class TargetRankWarning(UserWarning):
    """A requested target rank was clamped to a feasible value."""


@dataclass(frozen=True)
class Rank1Variant:
    """How a sketch matrix is written as a sum of rank-1 terms.

    kind="direct": columns of W themselves (free, l_k terms).
    kind="svd": truncated SVD; keep singular values above rel_tol * sigma_1,
    capped at max_terms.
    """

    kind: str = "direct"
    max_terms: int = None
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.kind not in ("direct", "svd"):
            raise ValueError(f"variant kind must be 'direct' or 'svd', got {self.kind!r}")
        if self.max_terms is not None and self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DIRECT = Rank1Variant("direct")


def svd_variant(max_terms=None, rel_tol=1e-10):
    return Rank1Variant("svd", max_terms, rel_tol)


@dataclass
class Rank1Rep:
    """W ~= u @ diag(sigma) @ v.T with n_terms retained terms."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    n_terms: int


def rank1_decompose(w, variant, ledger=None):
    """Express a sketch matrix as a weighted sum of rank-1 terms.

    The direct variant returns u = w, unit weights and v = I exactly, at zero
    cost.  The svd variant returns the leading singular triplets; the dropped
    tail is the only approximation in the whole sketch recursion.
    """
    w = np.asarray(w)
    if variant.kind == "direct":
        ell = w.shape[1]
        return Rank1Rep(w, np.ones(ell), np.eye(ell), ell)
    res = truncated_svd(w, max_terms=variant.max_terms, ledger=ledger,
                        rank_tol=variant.rel_tol)
    return Rank1Rep(res.u, res.s, res.v, res.n_terms)


# --- sketches ---------------------------------------------------------------

# Mode slices per slab in the Hadamard-avoiding kernels: as many as keep a
# slab's intermediates within _SLAB_BUDGET elements, but at least _MIN_SLAB.
# Small cores then take one slab per core, so a kernel pays its per-call
# overhead once per core.  Large cores keep 4-slice slabs: at 8 slices
# the tracemalloc peak of hatt-2 on hilbert_tt(5, 8, 20) squared rises from
# 0.57 to 0.95 MiB, and the 2-slice slabs that the budget alone gives at
# r = s = 20, ell = 10 were no faster there in interleaved timings.
_SLAB_BUDGET = 8192
_MIN_SLAB = 4


def _slab_size(rows, yv, zv):
    """Mode slices per slab when `rows` rows meet the product of the cores
    yv (r1 x n x r2) and zv (s1 x n x s2); one row of one slice takes at
    most max(r1, r2) s2 elements in either intermediate of
    :func:`_contract_slabs`."""
    n = yv.shape[1]
    width = max(yv.shape[0], yv.shape[2]) * zv.shape[2]
    return min(n, max(_MIN_SLAB, _SLAB_BUDGET // (rows * width)))


def partial_contraction_rl(a, r, ledger=None):
    """Right-to-left partial contractions of a TT tensor against a sketch.

    Returns the list [W^(1), ..., W^(d-1)], so W^(k) is item k-1.  W^(k)
    contracts cores k+1..d of `a` with cores k+1..d of `r`; the recursion
    per core is: fold W^(k) into the k-th core of `a` from the right (one
    product against the vertical matricization), then contract the mode
    against the k-th core of `r` (one product against the horizontal
    matricization of `r`).  The temporary folded core exists only as a
    matrix.
    """
    if a.shape != r.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {r.shape}")
    d = a.d
    if d < 2:
        return []
    mats = [None] * (d - 1)
    mats[d - 2] = matmul(h_unfold(a.cores[d - 1]), h_unfold(r.cores[d - 1]).T, ledger)
    for k in range(d - 1, 1, -1):
        core = a.cores[k - 1]
        b = matmul(v_unfold(core), mats[k - 1], ledger)
        bh = b.reshape(core.left_rank, -1)
        mats[k - 2] = matmul(bh, h_unfold(r.cores[k - 1]).T, ledger)
    return mats


def hpcrl(y, z, r, variant=DIRECT, ledger=None):
    """Sketches of the Hadamard product y ⊙ z without forming its cores.

    Produces exactly the matrices :func:`partial_contraction_rl` would give
    for the materialized product (the rank-1 re-expression step is an
    identity unless the svd variant truncates).  Each rank-1 term g of
    W^(k) folds into an r_k x s_k matrix U_g, and the product core applied
    to it is the Kronecker-times-vector trick ``Y(i) U_g Z(i)^T``, so the
    work scales with r + s instead of r * s.  That is the kernel of
    :func:`contract_m_onto_pkp` applied to the transposed factor cores;
    each slab of mode slices is then closed against the sketch core's
    slices into W^(k-1).  Slabs keep every intermediate a fraction of a
    factor core.
    """
    if y.shape != z.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {z.shape}")
    if y.shape != r.shape:
        raise ValueError(f"shape mismatch against sketch tensor: {y.shape} vs {r.shape}")
    d = y.d
    if d < 2:
        return []
    mats = [None] * (d - 1)
    # the last product core has right rank 1: r_d s_d x n_d entries only
    mats[d - 2] = matmul(h_unfold(pkp_cores(y.cores[d - 1], z.cores[d - 1])),
                         h_unfold(r.cores[d - 1]).T, ledger)
    for k in range(d - 1, 1, -1):
        yc, zc, rc = y.cores[k - 1].values, z.cores[k - 1].values, r.cores[k - 1].values
        r1, n, _ = yc.shape
        s1 = zc.shape[0]
        l1 = rc.shape[0]
        rep = rank1_decompose(mats[k - 1], variant, ledger)
        terms = rep.n_terms
        # right[g, i] is R(i) v_g sigma_g (R(i)'s column g for the direct variant)
        if variant.kind == "direct":
            right = rc
        else:
            right = matmul(rc.reshape(l1 * n, -1), rep.v, ledger)
            right = scale_columns(right, rep.sigma, ledger).reshape(l1, n, terms)
        right = right.transpose(2, 1, 0)
        if ledger is not None:
            ledger.add_matmul(r1 * s1 * (2 * n * terms - 1) * l1)
        u_t = np.ascontiguousarray(rep.u.T)
        yt, zt = yc.transpose(2, 1, 0), zc.transpose(2, 1, 0)
        acc = np.zeros((r1 * s1, l1))
        step = _slab_size(terms, yt, zt)
        for i0 in range(0, n, step):
            blk = slice(i0, min(i0 + step, n))
            # x[g, i] = kron(Y(i), Z(i)) @ rep.u[:, g]
            x = _contract_slabs(u_t, yt[:, blk], zt[:, blk], ledger)
            acc += x.reshape(-1, r1 * s1).T @ right[:, blk].reshape(-1, l1)
            del x  # one slab's x at a time
        mats[k - 2] = acc
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
    s1, s2 = zv.shape[0], zv.shape[2]
    rows = m.shape[0]
    if ledger is not None:
        ledger.add_matmul(n * rows * (s2 * (2 * s1 - 1) * r1 + s2 * (2 * r1 - 1) * r2))
    out = np.empty((rows, n, r2 * s2))
    m_rows = m.reshape(rows * r1, s1)
    step = _slab_size(rows, yv, zv)
    for i0 in range(0, n, step):
        blk = slice(i0, min(i0 + step, n))
        nb = blk.stop - i0
        # Z side: p[g, a, i, e] = sum_c m[g, (a, c)] Z(i)[c, e]
        p = (m_rows @ zv[:, blk].reshape(s1, nb * s2)).reshape(rows, r1, nb, s2)
        # Y side, batched over (g, i): out[g, i] = Y(i)^T p[g, :, i, :]
        np.matmul(yv[:, blk].transpose(1, 2, 0), p.transpose(0, 2, 1, 3),
                  out=out[:, blk].reshape(rows, nb, r2, s2))
        del p
    return out


def contract_m_onto_pkp(m, ycore, zcore, ledger=None):
    """Contract an l x (r1 s1) matrix onto the implicit product core.

    Returns the TT core with slices ``m @ kron(Y(i), Z(i))``; neither the
    Kronecker slice nor the product core is formed.  Row g of m folds into
    an r1 x s1 matrix M_g and its product with the Kronecker slice is
    ``Y(i)^T M_g Z(i)``.  Per slab of mode slices (see :func:`_slab_size`)
    that is one GEMM, m as an (l r1) x s1 matrix against the slab's Z
    slices as an s1 x (n s2) matrix, then one ``np.matmul`` batched over
    (row, slice) that applies the Y slices and writes straight into the
    output core.  The output is not scanned for non-finite values.
    """
    m = np.asarray(m)
    if ycore.mode_size != zcore.mode_size:
        raise ValueError(f"mode mismatch {ycore.mode_size} vs {zcore.mode_size}")
    r1, s1 = ycore.left_rank, zcore.left_rank
    if m.ndim != 2 or m.shape[1] != r1 * s1:
        raise ValueError(f"matrix columns {m.shape} incompatible with ranks {r1}*{s1}")
    return TTCore._trusted(_contract_slabs(m, ycore.values, zcore.values, ledger))


def tt_hadamard_dot(x, y, z):
    """Inner product <x, y ⊙ z> without forming the product's cores.

    The carry after core k is the (l_k x r_k s_k) contraction of the first k
    cores of x against those of y ⊙ z; each step applies it to the implicit
    product core like :func:`contract_m_onto_pkp` and closes the mode
    against x's core with one GEMM.
    """
    if not x.shape == y.shape == z.shape:
        raise ValueError(f"shape mismatch {x.shape}, {y.shape}, {z.shape}")
    c = np.ones((1, 1))
    for cx, cy, cz in zip(x.cores, y.cores, z.cores):
        slabs = _contract_slabs(c, cy.values, cz.values)
        c = v_unfold(cx).T @ slabs.reshape(-1, slabs.shape[2])
    return float(c[0, 0])


# --- target chains ----------------------------------------------------------


def normalize_targets(targets, d):
    """Accept a scalar, an interior list (length d-1), or a full chain."""
    if targets is None:
        raise ValueError("target ranks are required (or pass an explicit sketch tensor)")
    if np.isscalar(targets):
        chain = uniform_chain(d, targets)
    else:
        targets = tuple(int(t) for t in targets)
        if len(targets) == d - 1:
            chain = (1,) + targets + (1,)
        else:
            chain = targets
    return check_rank_chain(chain, d)


def _clamp_targets(targets, shape, ranks, stacklevel=3):
    """The output ranks of every rounding sweep: the one rank rule of the package.

    l_k = min(t_k, ranks[k], l_{k-1} n_k) from left to right, then
    l_k = min(l_k, l_{k+1} n_{k+1}) from right to left, where `ranks` are
    the TT ranks of the tensor being rounded: no sweep returns a rank above
    the tensor's own, or one its neighbouring bonds cannot realize.
    Clamping warns, at `stacklevel` (the caller of the public function by
    default).
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
        warnings.warn(f"target ranks clamped to feasible values ({desc})",
                      TargetRankWarning, stacklevel=stacklevel)
    return tuple(out)


def _fit_sketch(sketch, shape, ranks):
    """A caller-supplied sketch tensor, fitted to the tensor being rounded.

    Its shape must be `shape`.  Its ranks are clamped by
    :func:`_clamp_targets` (with a :class:`TargetRankWarning` naming the
    bond), by keeping the leading rows and columns of the sketch's cores.
    """
    if sketch.shape != tuple(shape):
        raise ValueError(f"sketch tensor shape {sketch.shape} does not match {tuple(shape)}")
    chain = _clamp_targets(sketch.ranks, shape, ranks, stacklevel=5)
    if chain == sketch.ranks:
        return sketch
    return TTTensor([c.values[:chain[k], :, :chain[k + 1]]
                     for k, c in enumerate(sketch.cores)])


def _draw_sketch_tensor(shape, targets, seed):
    if seed is None:
        raise ValueError("a seed (or an explicit sketch tensor) is required")
    return random_tt(RandomSpec(tuple(shape), tuple(targets), "gaussian", int(seed)))


def _sketch(shape, ranks, targets, seed, sketch_tt):
    """The sketch tensor of a randomized sweep over a tensor of TT `ranks`:
    `sketch_tt` fitted to it, or one drawn from `seed` at the clamped
    `targets`."""
    if sketch_tt is not None:
        return _fit_sketch(sketch_tt, shape, ranks)
    chain = _clamp_targets(normalize_targets(targets, len(shape)), shape, ranks, stacklevel=4)
    return _draw_sketch_tensor(shape, chain, seed)


# --- the three sweeps -------------------------------------------------------


def tt_rounding(a, targets, ledger=None):
    """Deterministic TT rounding to a target rank chain, in three passes.

    Pass 1 (left to right) trims: every core whose vertical matricization
    is wide (r_{k-1} n_k < r_k) becomes the square Q of its QR, and R
    (r_{k-1} n_k x r_k) goes into the next core, so bond k keeps at most
    n_1 ... n_k ranks.  It is an exact change of representation, and it
    spares pass 2 the QRs of unfoldings wider than the tensor can use: on
    hilbert_tt(5, 8, 20) squared it cuts the product ranks 400 to
    (8, 64, 400, 400), and the ledger charges 0.26e9 flops where the
    untrimmed passes charge 2.97e9.  Pass 2
    (right to left) makes cores 2..d right-orthogonal via LQ, passing the
    triangular factor into the previous core; its LQ keeps
    min(r_{k-1}, n_k r_k) rows, so every bond ends at most
    min(r_k, n_1 ... n_k, n_{k+1} ... n_d).  Pass 3 (left to right)
    QR-factorizes each vertical matricization, truncates the triangular
    factor by SVD at the bond target, keeps Q @ U as the new core and pushes
    sigma V^T into the next core.  Output ranks are the targets clamped to
    the ranks of `a` and to feasible values (with a
    :class:`TargetRankWarning`), and cores 1..d-1 are left-orthogonal.
    """
    d = a.d
    targets = _clamp_targets(normalize_targets(targets, d), a.shape, a.ranks)
    cores = [c.values for c in a.cores]
    # left-to-right trim of the bonds wider than their leading modes
    for k in range(1, d):
        r1, n, r2 = cores[k - 1].shape
        if r1 * n >= r2:
            continue
        res = econ_qr(cores[k - 1].reshape(r1 * n, r2), ledger=ledger)
        cores[k - 1] = res.q.reshape(r1, n, r1 * n)
        nxt = cores[k]
        cores[k] = matmul(res.r, nxt.reshape(r2, -1), ledger).reshape(r1 * n, *nxt.shape[1:])
    # right-to-left orthogonalization
    for k in range(d, 1, -1):
        core = cores[k - 1]
        r1, n, r2 = core.shape
        res = econ_qr(core.reshape(r1, n * r2).T, ledger=ledger)
        q_rows, l_factor = res.q.T, res.r.T
        new_r1 = q_rows.shape[0]
        cores[k - 1] = q_rows.reshape(new_r1, n, r2)
        prev = cores[k - 2]
        p1, pn, _ = prev.shape
        prev_mat = prev.reshape(p1 * pn, r1)
        if l_factor.shape[0] == l_factor.shape[1]:
            updated = tri_matmul(prev_mat, l_factor, ledger)
        else:
            updated = matmul(prev_mat, l_factor, ledger)
        cores[k - 2] = updated.reshape(p1, pn, new_r1)
    # left-to-right compression
    for k in range(1, d):
        core = cores[k - 1]
        r1, n, r2 = core.shape
        res = econ_qr(core.reshape(r1 * n, r2), ledger=ledger)
        q, rmat = res.q, res.r
        bond = targets[k]
        svd = truncated_svd(rmat, target_rank=bond, ledger=ledger)
        cores[k - 1] = matmul(q, svd.u, ledger).reshape(r1, n, bond)
        carry = scale_columns(svd.v, svd.s, ledger).T
        nxt = cores[k]
        cores[k] = matmul(carry, nxt.reshape(r2, -1), ledger).reshape(
            bond, nxt.shape[1], nxt.shape[2]
        )
    return _sweep_result(cores)


def _sweep_result(cores):
    """The output tensor of a rounding sweep.  Cores 1..d-1 are built from
    orthonormal factors of matrices that ``econ_qr`` found finite; only the
    last core can overflow, so it alone is scanned."""
    if not np.all(np.isfinite(cores[-1])):
        raise ValueError("the recompressed tensor overflows float64")
    return TTTensor([TTCore._trusted(c) for c in cores])


def _orthogonalize_sweep(first_core, sketches, next_core_fn, d, ledger):
    """Shared left-to-right randomized sweep of :func:`rand_orth` and
    :func:`hatt`.

    `sketches[k - 1]` is the sketch matrix W^(k) of bond k.  The sweep
    consumes the list: it sets W^(k) to None once step k has used it, and
    it keeps no reference to `first_core` past step 1, so a caller that
    passes the first core without keeping its own lets the sweep hold one
    core at a time.  `next_core_fn(k, m)` must return the (k+1)-th core
    contracted against m (an array of shape (rows(m), n_{k+1}, tail
    ranks)).  Returns the output cores; every core except the last has
    orthonormal vertical matricization.
    """
    cores = []
    cur = first_core
    del first_core
    for k in range(1, d):
        r1, n, r2 = cur.shape
        cur_mat = cur.reshape(r1 * n, r2)
        sketched = matmul(cur_mat, sketches[k - 1], ledger)
        sketches[k - 1] = None
        q = econ_qr(sketched, ledger=ledger).q
        cores.append(q.reshape(r1, n, q.shape[1]))
        m = matmul(q.T, cur_mat, ledger)
        # drop the current core first, so it never coexists with the next
        del cur, cur_mat, sketched
        cur = next_core_fn(k, m)
    cores.append(cur)
    return _sweep_result(cores)


def rand_orth(a, targets=None, seed=None, sketch_tt=None, ledger=None):
    """Randomize-then-orthogonalize rounding of a TT tensor.

    Sketches come from :func:`partial_contraction_rl` against a gaussian TT
    tensor with the target ranks (drawn from `seed`, or supplied explicitly
    via `sketch_tt`).  If a sketched matrix is rank deficient the QR keeps
    its full width.  Target ranks, or `sketch_tt` ranks, above the ranks of
    `a` or above feasible values are clamped with a
    :class:`TargetRankWarning`.
    """
    d = a.d
    sketch = _sketch(a.shape, a.ranks, targets, seed, sketch_tt)
    sketches = partial_contraction_rl(a, sketch, ledger)

    def next_core(k, m):
        nxt = a.cores[k]
        out = matmul(m, h_unfold(nxt), ledger)
        return out.reshape(m.shape[0], nxt.mode_size, nxt.right_rank)

    return _orthogonalize_sweep(a.cores[0].values, sketches, next_core, d, ledger)


def hatt(y, z, targets=None, variant=DIRECT, seed=None, sketch_tt=None, ledger=None):
    """Recompress the Hadamard product y ⊙ z without materializing it.

    Identical in exact arithmetic to :func:`rand_orth` applied to the
    materialized product with the same sketch tensor; the sketches come from
    :func:`hpcrl` and the core updates from :func:`contract_m_onto_pkp`, so
    the only product cores ever formed are the boundary ones
    (1 x n_1 x r_1 s_1 and r_{d-1} s_{d-1} x n_d x 1).  Target ranks, or `sketch_tt` ranks, above the
    product rank r_k s_k or above feasible values are clamped with a
    :class:`TargetRankWarning`.
    """
    if y.shape != z.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {z.shape}")
    d = y.d
    products = tuple(ry * rz for ry, rz in zip(y.ranks, z.ranks))
    sketch = _sketch(y.shape, products, targets, seed, sketch_tt)
    sketches = hpcrl(y, z, sketch, variant, ledger)
    del sketch

    def next_core(k, m):
        return contract_m_onto_pkp(m, y.cores[k], z.cores[k], ledger).values

    # the first product core goes in unnamed: the sweep drops it after step 1
    return _orthogonalize_sweep(pkp_cores(y.cores[0], z.cores[0]).values, sketches,
                                next_core, d, ledger)


# --- flop model --------------------------------------------------------------

MODEL_ALGORITHMS = (
    "tt-rounding",
    "rand-orth",
    "hatt-1",
    "hatt-2",
    "partial-contraction-rl",
    "hpcrl-1",
    "hpcrl-2",
)


def flop_model(algorithm, d, n, r, s, ell, n_terms=None):
    """Leading-order flop count for recompressing a rank-(r, s) Hadamard
    product of d-way, mode-n TT tensors to target rank ell.

    `n_terms` is the retained rank-1 term count of the svd sketch variant
    (required for hatt-1 / hpcrl-1); their ell^2-order SVD term uses the
    calibrated bucket constant and is approximate by nature.

    The tt-rounding formula assumes every product rank r s is feasible (at
    most the product of the mode sizes on either side of its bond).  Where
    it is not, :func:`tt_rounding` first trims the bond, and the formula is
    an upper bound: on hilbert_tt(5, 8, 20) squared (ranks 400 where 8, 64,
    64, 8 fit) the ledger is 0.033 of the model at ell = 4 and 8.
    """
    if min(d, n, r, s, ell) < 1:
        raise ValueError("flop model arguments must be positive")
    name = algorithm.lower().replace("_", "-")
    if name in ("hatt-1", "hpcrl-1"):
        if n_terms is None:
            raise ValueError(f"{algorithm} needs n_terms (retained rank-1 terms)")
        big_r = int(n_terms)
    if name == "tt-rounding":
        val = (d - 2) * n * (5 * r**3 * s**3 + 6 * r**2 * s**2 * ell + 2 * r * s * ell**2)
    elif name == "rand-orth":
        val = (d - 2) * n * (4 * r**2 * s**2 * ell + 6 * r * s * ell**2)
    elif name == "hatt-2":
        val = (d - 2) * n * r * s * ell * (4 * r + 4 * s + 6 * ell)
    elif name == "hatt-1":
        r_hat = (big_r + ell) / 2
        val = (d - 2) * (
            n * r * s * (r_hat * (4 * r + 4 * s + 4 * ell) + 2 * ell**2)
            + SVD_COST_FACTOR * r * s * ell**2
        )
    elif name == "partial-contraction-rl":
        val = (d - 2) * n * (2 * r * s * ell**2 + 2 * r**2 * s**2 * ell)
    elif name == "hpcrl-1":
        val = (d - 2) * (
            n * big_r * (2 * r**2 * s + 2 * s**2 * r + 2 * r * s * ell + 2 * ell**2 - 2 * r * s)
            - r * s * ell
            + SVD_COST_FACTOR * r * s * ell**2
        )
    elif name == "hpcrl-2":
        val = (d - 2) * (
            n * ell * (2 * r**2 * s + 2 * s**2 * r + 2 * r * s * ell + ell - 2 * r * s)
            - r * s * ell
        )
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {MODEL_ALGORITHMS}")
    return int(round(val))


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


def _run_hatt1(y, z, targets, seed, max_terms, ledger):
    return hatt(y, z, targets, svd_variant(max_terms), seed=seed, ledger=ledger)


def _run_hatt2(y, z, targets, seed, max_terms, ledger):
    return hatt(y, z, targets, DIRECT, seed=seed, ledger=ledger)


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


def predicted_flops(algorithm, d, n, r, s, ell, max_terms=None):
    """:func:`flop_model` for one run of `algorithm` at target rank ell.

    hatt-1 keeps min(max_terms or ell, ell) rank-1 terms per sketch; the
    other algorithms ignore `max_terms`.
    """
    return flop_model(algorithm, d, n, r, s, ell, n_terms=min(max_terms or ell, ell))


# --- reporting ---------------------------------------------------------------


@dataclass
class RecompressReport:
    """Per-run record: ranks, error, timing, measured and predicted flops."""

    algorithm: str
    output_ranks: tuple
    rel_error: float
    wall_time_s: float
    flops_measured: FlopLedger
    flops_predicted: int
    seed: int = None


def recompress_hadamard(algorithm, y, z, targets, seed=None, max_terms=None, reference=None):
    """Run one recompression of y ⊙ z and report on it.

    The baselines (tt-rounding, rand-orth) materialize the Hadamard product
    first; that step is part of their timed region, mirroring how they would
    actually be used.  `reference` (a DenseTensor, or a TT tensor) enables
    the relative-error column; pass None to skip it.
    """
    run = _runner(algorithm)
    ledger = FlopLedger()
    d = y.d
    ell = max(normalize_targets(targets, d))
    start = time.perf_counter()
    out = run(y, z, targets, seed, max_terms, ledger)
    elapsed = time.perf_counter() - start
    predicted = predicted_flops(algorithm, d, max(y.shape), max(y.ranks), max(z.ranks), ell,
                                max_terms)
    err = None if reference is None else relative_error(out, reference)
    return out, RecompressReport(algorithm, out.ranks, err, elapsed, ledger,
                                 predicted, seed)
