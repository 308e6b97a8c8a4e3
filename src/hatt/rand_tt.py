"""Seeded random TT tensors, and the package's one seed derivation.

Gaussian cores have i.i.d. entries with mean 0 and variance
``1 / (l_{k-1} n_k l_k)`` (so the represented tensor has unit expected
squared norm per entry at any rank chain); uniform cores draw i.i.d. from
[0, 1].

Every seeded stream of the package comes from :func:`seed_sequence`, numpy's
``SeedSequence(seed, spawn_key=keys)``.  One draw is one stream: a single
PCG64 generator seeded from ``seed_sequence(seed)`` fills cores 1..d in
order, one numpy call per core.  Streams are prefix-stable: core k depends
on the seed and on the mode sizes and ranks of cores 1..k only, so trains
that share a seed and their first k cores' shapes share those cores
whatever follows (appending modes reshuffles nothing).  They are not
counter-stable: a change to the shape of core j moves every core after it.
:func:`derive_seed` turns (seed, keys) into one 32-bit seed, as the power
iteration (per step) and ``hatt-bench`` (per input tensor) use.
"""

import math

import numpy as np

from .indexing import check_shape, whole_numbers
from .tt import TTCore, TTTensor

KINDS = ("gaussian", "uniform")


def check_rank_chain(ranks, d):
    """Validate a rank chain (r_0, ..., r_d) of whole numbers, boundary entries 1."""
    chain = whole_numbers(ranks, "ranks")
    if len(chain) != d + 1:
        raise ValueError(f"rank chain must have length {d + 1}, got {len(chain)}")
    if chain[0] != 1 or chain[-1] != 1:
        raise ValueError(f"boundary ranks must be 1, got {chain[0]} and {chain[-1]}")
    if any(r < 1 for r in chain):
        raise ValueError(f"ranks must be positive, got {chain}")
    return chain


def check_seed(seed):
    """`seed` as an int; one that is not a whole number >= 0 is a ValueError."""
    (seed,) = whole_numbers((seed,), "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def seed_sequence(seed, *keys):
    """The SeedSequence of the stream named by `keys` under `seed`, a whole
    number >= 0 that its public callers check with :func:`check_seed`."""
    return np.random.SeedSequence(entropy=seed, spawn_key=keys)


def derive_seed(seed, *keys):
    """A 32-bit seed fixed by `seed` and the small ints `keys`."""
    return int(seed_sequence(check_seed(seed), *keys).generate_state(1)[0])


def random_tt(shape, ranks, kind="gaussian", seed=0):
    """A random TT tensor of `shape` and rank chain `ranks`; `kind` is
    "gaussian" or "uniform", and `seed` fully determines the output: one
    generator draws the cores in order (see the module docstring)."""
    shape = check_shape(shape)
    ranks = check_rank_chain(ranks, len(shape))
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    rng = np.random.default_rng(seed_sequence(check_seed(seed)))
    cores = []
    for k, n in enumerate(shape, start=1):
        l_prev, l_next = ranks[k - 1], ranks[k]
        if kind == "gaussian":
            sigma = 1.0 / math.sqrt(l_prev * n * l_next)
            core = rng.normal(0.0, sigma, size=(l_prev, n, l_next))
        else:
            core = rng.uniform(0.0, 1.0, size=(l_prev, n, l_next))
        # draws are finite by construction, so they skip the finiteness scan
        cores.append(TTCore._trusted(core))
    return TTTensor(cores)


def gaussian_tt(shape, ranks, seed=0):
    return random_tt(shape, ranks, "gaussian", seed)


def uniform_chain(d, r):
    """Rank chain (1, r, ..., r, 1) of length d + 1."""
    return (1,) + (r,) * (d - 1) + (1,)
