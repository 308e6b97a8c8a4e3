"""Experiment generators and the Hadamard power iteration.

Everything here is desk scale by construction: the generators produce TT
tensors small enough for the dense brute-force oracles in :mod:`hatt.dense`
to verify results exactly.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor
from .indexing import check_shape, positive_whole, whole_numbers
from .limits import check_dense
from .linalg import scale_columns, truncated_svd
from .rand_tt import check_rank_chain, check_seed, derive_seed, seed_sequence, uniform_chain
from .recompress import (
    TargetRankWarning,
    _runner,
    normalize_targets,
    tt_hadamard_dot,
)
from .tt import TTCore, TTTensor, check_trains, tt_add, tt_ones, tt_scale

# Not used here: perfbench/tracing.py wraps these names on this module.
from .recompress import hatt, rand_orth, tt_rounding  # noqa: F401
from .tt import tt_dot, tt_hadamard  # noqa: F401


def tt_svd(x, targets=None, rel_tol=None):
    """Convert a dense tensor to TT form by a sequential SVD sweep.

    Exactly one of `targets` (rank chain) or `rel_tol` must be given.  With
    `rel_tol`, each of the d-1 truncations drops a tail of Frobenius norm at
    most rel_tol / sqrt(d-1) * ||x||_F, so the reconstruction error is at
    most rel_tol * ||x||_F.  With `targets`, a bond keeps at most as many
    ranks as its unfolding has nonzero singular values, and at least one.
    A 1-way tensor has no bond: it is its one core.
    """
    if (targets is None) == (rel_tol is None):
        raise ValueError("give exactly one of targets or rel_tol")
    if rel_tol is not None and not rel_tol >= 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol!r}")
    values = x.values if isinstance(x, DenseTensor) else np.asarray(x, dtype=float)
    shape = check_shape(values.shape)
    d = len(shape)
    chain = None if targets is None else normalize_targets(targets, d)
    budget = (None if rel_tol is None
              else rel_tol / math.sqrt(max(d - 1, 1)) * np.linalg.norm(values))
    cores = []
    rank = 1
    rest = values.reshape(rank * shape[0], -1)
    for k in range(1, d):
        svd = truncated_svd(rest)
        if chain is not None:
            keep = max(1, min(chain[k], int(np.count_nonzero(svd.s))))
        else:
            tails = np.sqrt(np.cumsum(svd.s[::-1] ** 2))[::-1]  # tails[j] = ||s[j:]||
            above = np.nonzero(tails > budget)[0]
            keep = int(above[-1]) + 1 if above.size else 1
        cores.append(svd.u[:, :keep].reshape(rank, shape[k - 1], keep))
        rest = scale_columns(svd.v[:, :keep], svd.s[:keep]).T
        rank = keep
        rest = rest.reshape(rank * shape[k], -1)
    cores.append(rest.reshape(rank, shape[d - 1], 1))
    return TTTensor(cores)


# --- trigonometric-series products -------------------------------------------

COEFF_LOW, COEFF_HIGH = 0.1, 10.1
SVD_TOL = 1e-12  # relative reconstruction error of each sampled series in TT form


def fourier_coefficients(n_terms, seed=0):
    """The seeded (a, b) coefficient pair of :func:`fourier_tt`: n_terms
    uniform draws each from [COEFF_LOW, COEFF_HIGH)."""
    n_terms = positive_whole(n_terms, "n_terms")
    rng = np.random.default_rng(seed_sequence(check_seed(seed), 777))
    a = rng.uniform(COEFF_LOW, COEFF_HIGH, size=n_terms)
    b = rng.uniform(COEFF_LOW, COEFF_HIGH, size=n_terms)
    return a, b


def fourier_tt(shape, n_terms=60, seed=0):
    """Sample the sine/cosine series pair, fold, and convert to TT form.

    y(t) = sum_j a_j sin(j t) and z(t) = sum_j b_j cos(j t), j = 1..n_terms,
    are sampled at t_i = 2 pi i / N, i = 1..N with N = prod(shape), then
    folded into d-way tensors by the multi-index convention.  Returns
    (Y, Z); each reconstructs its samples to relative error SVD_TOL.
    """
    shape = check_shape(shape)
    a, b = fourier_coefficients(n_terms, seed)
    n = math.prod(shape)
    check_dense(n, "sampled series")
    t = 2.0 * np.pi * np.arange(1, n + 1) / n
    harmonics = np.arange(1, len(a) + 1)
    y = np.sin(np.outer(t, harmonics)) @ a
    z = np.cos(np.outer(t, harmonics)) @ b
    return tt_svd(y.reshape(shape), rel_tol=SVD_TOL), tt_svd(z.reshape(shape), rel_tol=SVD_TOL)


# --- separable benchmark functions -------------------------------------------

QING_DOMAIN = (-500.0, 500.0)
ALPINE_DOMAIN = (-2.5 * np.pi, 2.5 * np.pi)

FUNCTION_KINDS = ("qing", "alpine")


@dataclass(frozen=True)
class SeparableFunctionSpec:
    """A sum-of-univariate-terms function on a uniform d-way grid.

    qing:   f(x) = sum_i (x_i - i)^2        on [-500, 500]^d
    alpine: f(x) = sum_i |x_i sin x_i + 0.1 x_i|  on [-2.5 pi, 2.5 pi]^d
    """

    kind: str
    d: int
    n: int

    def __post_init__(self):
        if self.kind not in FUNCTION_KINDS:
            raise ValueError(f"kind must be one of {FUNCTION_KINDS}, got {self.kind!r}")
        d, n = whole_numbers((self.d, self.n), "d and n")
        object.__setattr__(self, "d", d)  # the spec is frozen
        object.__setattr__(self, "n", n)
        if self.d < 1 or self.n < 2:
            raise ValueError("need d >= 1 and n >= 2")

    @property
    def domain(self):
        return QING_DOMAIN if self.kind == "qing" else ALPINE_DOMAIN

    def grid(self):
        """n uniform mesh points with spacing (hi - lo) / n, starting at lo."""
        lo, hi = self.domain
        return lo + (hi - lo) * np.arange(self.n) / self.n

    def term(self, i, x):
        """The i-th univariate term (i is 1-based) evaluated on x."""
        x = np.asarray(x, dtype=float)
        if self.kind == "qing":
            return (x - i) ** 2
        return np.abs(x * np.sin(x) + 0.1 * x)


def separable_tt(spec):
    """TT tensor of a separable-sum function on its uniform grid.

    Built as the unrounded sum of d rank-1 terms (term i carries its
    univariate factor on mode i and ones elsewhere), so the rank chain is
    exactly (1, d, ..., d, 1).
    """
    grid, ones = spec.grid(), [TTCore(np.ones((1, spec.n, 1)))] * spec.d
    terms = (TTTensor(ones[:i - 1] + [TTCore(spec.term(i, grid).reshape(1, -1, 1))] + ones[i:])
             for i in range(1, spec.d + 1))
    return functools.reduce(tt_add, terms)


def separable_dense(spec):
    """Dense oracle for :func:`separable_tt` by direct evaluation.

    Element (i_1, ..., i_d) is ((f_1(x_{i_1}) + f_2(x_{i_2})) + ...) +
    f_d(x_{i_d}), built one mode at a time by outer sums, so only the last
    sum is of full size.  The dense cap is checked before any of them.
    """
    check_dense(spec.n ** spec.d)
    grid = spec.grid()
    values = spec.term(1, grid)
    for i in range(2, spec.d + 1):
        values = np.add.outer(values, spec.term(i, grid))
    return DenseTensor._adopt(values)


def hilbert_tt(d, n, r):
    """Hilbert-type TT tensor: core entries 1 / (alpha + i + beta - 1).

    All indices 1-based; boundary cores use rank 1 on their outer side.
    Entries lie in (0, 1] and the sketch matrices it produces have rapidly
    decaying singular values.
    """
    d, n, r = whole_numbers((d, n, r), "d, n and r")
    if min(d, n, r) < 1:
        raise ValueError("d, n, r must be positive")
    ranks = check_rank_chain(uniform_chain(d, r), d)
    cores = []
    for k in range(1, d + 1):
        r1, r2 = ranks[k - 1], ranks[k]
        alpha = np.arange(1, r1 + 1)[:, None, None]
        i = np.arange(1, n + 1)[None, :, None]
        beta = np.arange(1, r2 + 1)[None, None, :]
        cores.append(1.0 / (alpha + i + beta - 1.0))
    return TTTensor(cores)


# --- power iteration for the largest element ---------------------------------

REL_CHANGE_TOL = 1e-12  # relative change of the estimate that ends the iteration

@dataclass
class PowerIterResult:
    estimate: float
    iterations_used: int
    history: list
    ranks: tuple  # rank chain of the last iterate


def power_iteration_max(y, ell, max_iter=100, recompressor="tt-rounding", seed=0,
                        max_terms=None, ledger=None):
    """Estimate the largest element of a nonnegative-dominant TT tensor.

    Iterates v <- recompress(y ⊙ v, ell) / ||...||, starting from the
    unit-norm constant tensor; the estimate is the Rayleigh-style readout
    <v, y ⊙ v> (v has unit norm), which converges to the dominant element
    when it is positive and separated.  The readout and the hatt
    recompressors consume (y, v) directly; the baselines materialize the
    product first.  Stops after `max_iter` iterations or when the estimate's
    relative change is at most REL_CHANGE_TOL.

    Every recompressor returns cores 1..d-1 left-orthogonal, so the norm of
    an iterate is the Frobenius norm of its last core, which is also the
    core that is rescaled.  That norm is taken after dividing by the core's
    largest entry, so it neither overflows nor underflows while it is
    representable, and the estimate scales with y.  A bad `max_terms` is
    refused before the first step, whatever the recompressor.  A `ledger`
    is charged by the recompressions only, not by the readouts.
    """
    check_trains(y=y)
    max_iter = positive_whole(max_iter, "max_iter")
    run = _runner(recompressor)
    max_terms = None if max_terms is None else positive_whole(max_terms, "max_terms")
    chain = normalize_targets(ell, y.d)
    v = tt_scale(tt_ones(y.shape), 1.0 / math.sqrt(y.size))
    history = []
    prev = None
    with warnings.catch_warnings():
        # the iterate starts at rank 1, so early chains are clamped
        warnings.simplefilter("ignore", TargetRankWarning)
        for t in range(1, max_iter + 1):
            w = run(y, v, chain, derive_seed(seed, t), max_terms, ledger)
            estimate = tt_hadamard_dot(v, y, v)
            history.append(estimate)
            last = w.cores[-1].values
            top = np.abs(last).max()
            if top == 0.0:
                raise ArithmeticError("power iteration collapsed to a zero iterate")
            last = last / top
            flat = last.reshape(-1)
            last /= math.sqrt(flat.dot(flat))  # np.linalg.norm(last) without its dispatch
            v = TTTensor(w.cores[:-1] + (TTCore._trusted(last),))
            if prev is not None and abs(estimate - prev) <= REL_CHANGE_TOL * abs(prev):
                return PowerIterResult(estimate, t, history, v.ranks)
            prev = estimate
    return PowerIterResult(history[-1], max_iter, history, v.ranks)
