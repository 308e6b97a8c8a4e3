"""Seeded random TT tensors.

Gaussian cores have i.i.d. entries with mean 0 and variance
``1 / (l_{k-1} n_k l_k)`` (so the represented tensor has unit expected
squared norm per entry at any rank chain); uniform cores draw i.i.d. from
[0, 1].

Streams are counter-stable: core k consumes numpy's PCG64 seeded from
``SeedSequence(seed, spawn_key=(k,))``, so the same (seed, k) always yields
the same core regardless of the total order d.
"""

from dataclasses import dataclass

import numpy as np

from .indexing import check_shape
from .tt import TTCore, TTTensor

KINDS = ("gaussian", "uniform")


def check_rank_chain(ranks, d):
    """Validate a rank chain (r_0, ..., r_d) with boundary entries 1."""
    chain = tuple(int(r) for r in ranks)
    if len(chain) != d + 1:
        raise ValueError(f"rank chain must have length {d + 1}, got {len(chain)}")
    if chain[0] != 1 or chain[-1] != 1:
        raise ValueError(f"boundary ranks must be 1, got {chain[0]} and {chain[-1]}")
    if any(r < 1 for r in chain):
        raise ValueError(f"ranks must be positive, got {chain}")
    return chain


@dataclass(frozen=True)
class RandomSpec:
    """Recipe for a random TT tensor; the seed fully determines the output."""

    shape: tuple
    ranks: tuple
    kind: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "shape", check_shape(self.shape))
        object.__setattr__(self, "ranks", check_rank_chain(self.ranks, len(self.shape)))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


def _core_rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(k,)))


def random_tt(spec):
    """Generate the TT tensor described by a :class:`RandomSpec`."""
    cores = []
    for k, n in enumerate(spec.shape, start=1):
        l_prev, l_next = spec.ranks[k - 1], spec.ranks[k]
        rng = _core_rng(spec.seed, k)
        if spec.kind == "gaussian":
            sigma = 1.0 / np.sqrt(l_prev * n * l_next)
            core = rng.normal(0.0, sigma, size=(l_prev, n, l_next))
        else:
            core = rng.uniform(0.0, 1.0, size=(l_prev, n, l_next))
        # draws are finite by construction, so they skip the finiteness scan
        cores.append(TTCore._trusted(core))
    return TTTensor(cores)


def gaussian_tt(shape, ranks, seed=0):
    return random_tt(RandomSpec(tuple(shape), tuple(ranks), "gaussian", seed))


def uniform_tt(shape, ranks, seed=0):
    return random_tt(RandomSpec(tuple(shape), tuple(ranks), "uniform", seed))


def uniform_chain(d, r):
    """Rank chain (1, r, ..., r, 1) of length d + 1."""
    return (1,) + (int(r),) * (d - 1) + (1,)
