"""Recompressing a Hadamard product without ever materializing it.

The sketch matrices of the product against a random TT tensor can be built
directly from the two factors (the Kronecker-times-vector trick), and the
orthogonalization sweep can consume the factors as well.  This script shows
that the sketches are identical to the materialized route, that the sweep
produces the same tensor as the baseline given the same randomness, and what
that buys at a rank where materializing hurts.

Run with: python demos/02_hadamard_avoiding_recompression.py
"""

import time
import warnings

import numpy as np

from hatt import (
    ResourceLimitError,
    core_limit,
    gaussian_tt,
    hatt,
    hpcrl,
    partial_contraction_rl,
    rand_orth,
    random_tt,
    relative_error,
    tt_hadamard,
    uniform_chain,
)

warnings.simplefilter("ignore")  # bond-1 feasibility clamps at ell=8, n=6

# --- the sketches agree exactly ------------------------------------------------
shape = (4,) * 4
y = gaussian_tt(shape, (1, 3, 3, 3, 1), seed=10)
z = gaussian_tt(shape, (1, 3, 3, 3, 1), seed=11)
sketch = gaussian_tt(shape, (1, 4, 4, 4, 1), seed=12)

w_factors = hpcrl(y, z, sketch)
w_materialized = partial_contraction_rl(tt_hadamard(y, z), sketch)
worst = max(
    np.linalg.norm(a - b) / np.linalg.norm(a)
    for a, b in zip(w_materialized, w_factors)
)
print(f"sketch matrices, factor route vs materialized route: {worst:.2e}")

# --- same randomness, same output ----------------------------------------------
via_hatt = hatt(y, z, sketch_tt=sketch)
via_baseline = rand_orth(tt_hadamard(y, z), sketch_tt=sketch)
print(f"sweep outputs differ by {relative_error(via_hatt, via_baseline):.2e}")

# --- at larger ranks, avoidance is the difference between running and not ------
shape = (6,) * 5
big_y = random_tt(shape, uniform_chain(5, 40), "uniform", 1)
big_z = random_tt(shape, uniform_chain(5, 40), "uniform", 2)

t0 = time.perf_counter()
out = hatt(big_y, big_z, 8, seed=3)
t_hatt = time.perf_counter() - t0
t0 = time.perf_counter()
rand_orth(tt_hadamard(big_y, big_z), 8, seed=3)
t_base = time.perf_counter() - t0
print(f"r = s = 40: hatt {t_hatt * 1e3:.0f} ms, "
      f"materialize-then-round {t_base * 1e3:.0f} ms "
      f"({t_base / t_hatt:.0f}x)")

# Under an allocation cap that forbids product-sized cores, only the
# Hadamard-avoiding sweep survives.
with core_limit(2_000_000):
    try:
        tt_hadamard(big_y, big_z)
        print("unexpected: product materialized under the cap")
    except ResourceLimitError as exc:
        print(f"baseline route aborts under a core cap: {exc}")
    out = hatt(big_y, big_z, 8, seed=3)
    print("hatt completes under the same cap; output ranks:", out.ranks)
