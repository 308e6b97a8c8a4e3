"""Experiment generators and the Hadamard power iteration.

Everything here is desk scale by construction: the generators produce TT
tensors small enough for the dense brute-force oracles in :mod:`hatt.dense`
to verify results exactly.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor
from .indexing import check_shape
from .limits import check_dense
from .linalg import scale_columns, truncated_svd
from .rand_tt import uniform_chain
from .recompress import (
    TargetRankWarning,
    _runner,
    normalize_targets,
    tt_hadamard_dot,
)
from .tt import TTCore, TTTensor, tt_add, tt_ones, tt_scale

# Not used here: perfbench/tracing.py wraps these names on this module.
from .recompress import hatt, rand_orth, tt_rounding  # noqa: F401
from .tt import tt_dot, tt_hadamard  # noqa: F401


def tt_svd(x, targets=None, rel_tol=None, ledger=None):
    """Convert a dense tensor to TT form by a sequential SVD sweep.

    Exactly one of `targets` (rank chain) or `rel_tol` must be given.  With
    `rel_tol`, each of the d-1 truncations drops a tail of Frobenius norm at
    most rel_tol / sqrt(d-1) * ||x||_F, so the reconstruction error is at
    most rel_tol * ||x||_F.
    """
    if (targets is None) == (rel_tol is None):
        raise ValueError("give exactly one of targets or rel_tol")
    values = x.values if isinstance(x, DenseTensor) else np.asarray(x, dtype=float)
    shape = values.shape
    d = len(shape)
    if d == 1:
        return TTTensor([values.reshape(1, -1, 1)])
    chain = None if targets is None else normalize_targets(targets, d)
    budget = None if rel_tol is None else rel_tol / math.sqrt(d - 1) * np.linalg.norm(values)
    cores = []
    rank = 1
    rest = values.reshape(rank * shape[0], -1)
    for k in range(1, d):
        svd = truncated_svd(rest, ledger=ledger, rank_tol=0.0)
        if chain is not None:
            keep = min(chain[k], svd.n_terms)
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


@dataclass(frozen=True)
class FourierSpec:
    """Sampling recipe for the sine/cosine series pair.

    y(t) = sum_j a_j sin(j t) and z(t) = sum_j b_j cos(j t) are sampled at
    t_i = 2 pi i / N, i = 1..N with N = prod(shape), then folded into d-way
    tensors by the multi-index convention.  The coefficients are seeded
    uniform draws from [COEFF_LOW, COEFF_HIGH).
    """

    shape: tuple
    n_terms: int = 60

    def __post_init__(self):
        object.__setattr__(self, "shape", check_shape(self.shape))
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")

    @property
    def num_samples(self):
        return int(np.prod(self.shape, dtype=np.int64))


def fourier_coefficients(spec, seed=0):
    """The seeded (a, b) coefficient pair of a spec."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(777,)))
    a = rng.uniform(COEFF_LOW, COEFF_HIGH, size=spec.n_terms)
    b = rng.uniform(COEFF_LOW, COEFF_HIGH, size=spec.n_terms)
    return a, b


def fourier_tt(spec, seed=0, ledger=None):
    """Sample the series pair, fold, and convert to TT form.

    Returns (Y, Z); each reconstructs its samples to relative error SVD_TOL.
    """
    a, b = fourier_coefficients(spec, seed)
    n = spec.num_samples
    t = 2.0 * np.pi * np.arange(1, n + 1) / n
    harmonics = np.arange(1, len(a) + 1)
    y = np.sin(np.outer(t, harmonics)) @ a
    z = np.cos(np.outer(t, harmonics)) @ b
    y_tt = tt_svd(DenseTensor(y.reshape(spec.shape)), rel_tol=SVD_TOL, ledger=ledger)
    z_tt = tt_svd(DenseTensor(z.reshape(spec.shape)), rel_tol=SVD_TOL, ledger=ledger)
    return y_tt, z_tt


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
    grid = spec.grid()
    total = None
    for i in range(1, spec.d + 1):
        cores = []
        for mode in range(1, spec.d + 1):
            if mode == i:
                cores.append(spec.term(i, grid).reshape(1, spec.n, 1))
            else:
                cores.append(np.ones((1, spec.n, 1)))
        term = TTTensor(cores)
        total = term if total is None else tt_add(total, term)
    return total


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
    return DenseTensor(values, copy=False)


def hilbert_tt(d, n, r):
    """Hilbert-type TT tensor: core entries 1 / (alpha + i + beta - 1).

    All indices 1-based; boundary cores use rank 1 on their outer side.
    Entries lie in (0, 1] and the sketch matrices it produces have rapidly
    decaying singular values.
    """
    if min(d, n, r) < 1:
        raise ValueError("d, n, r must be positive")
    ranks = uniform_chain(d, r)
    cores = []
    for k in range(1, d + 1):
        r1, r2 = ranks[k - 1], ranks[k]
        alpha = np.arange(1, r1 + 1)[:, None, None]
        i = np.arange(1, n + 1)[None, :, None]
        beta = np.arange(1, r2 + 1)[None, None, :]
        cores.append(1.0 / (alpha + i + beta - 1.0))
    return TTTensor(cores)


# --- power iteration for the largest element ---------------------------------

@dataclass
class PowerIterResult:
    estimate: float
    iterations_used: int
    history: list


def _iteration_seed(seed, t):
    return int(np.random.SeedSequence(entropy=int(seed), spawn_key=(t,)).generate_state(1)[0])


def power_iteration_max(y, ell, max_iter=100, recompressor="tt-rounding", seed=0,
                        max_terms=None, rel_change_tol=1e-12, ledger=None):
    """Estimate the largest element of a nonnegative-dominant TT tensor.

    Iterates v <- recompress(y ⊙ v, ell) / ||...||, starting from the
    unit-norm constant tensor; the estimate is the Rayleigh-style readout
    <v, y ⊙ v> (v has unit norm), which converges to the dominant element
    when it is positive and separated.  The readout and the hatt
    recompressors consume (y, v) directly; the baselines materialize the
    product first.  Stops after `max_iter` iterations or when the estimate's
    relative change drops below `rel_change_tol`.

    Every recompressor returns cores 1..d-1 left-orthogonal, so the norm of
    an iterate is the Frobenius norm of its last core, which is also the
    core that is rescaled.  That norm is taken after dividing by the core's
    largest entry, so it neither overflows nor underflows while it is
    representable, and the estimate scales with y.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    run = _runner(recompressor)
    chain = normalize_targets(ell, y.d)
    v = tt_scale(tt_ones(y.shape), 1.0 / math.sqrt(y.size))
    history = []
    prev = None
    for t in range(1, max_iter + 1):
        with warnings.catch_warnings():
            # the iterate starts at rank 1, so early chains are clamped
            warnings.simplefilter("ignore", TargetRankWarning)
            w = run(y, v, chain, _iteration_seed(seed, t), max_terms, ledger)
        estimate = tt_hadamard_dot(v, y, v)
        history.append(estimate)
        last = w.cores[-1].values
        top = np.max(np.abs(last))
        if top == 0.0:
            raise ArithmeticError("power iteration collapsed to a zero iterate")
        last = last / top
        last /= np.linalg.norm(last)
        v = TTTensor(w.cores[:-1] + (TTCore._trusted(last),))
        if prev is not None and abs(estimate - prev) <= rel_change_tol * abs(prev):
            return PowerIterResult(estimate, t, history)
        prev = estimate
    return PowerIterResult(history[-1], max_iter, history)
