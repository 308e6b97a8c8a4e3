"""Counted flops versus the closed-form cost model.

Every matrix kernel charges a ledger; the model predicts leading-order
totals per algorithm from (d, n, r, s, ell).  This script tabulates both for
growing ranks and shows the regime where capping each sketch at five SVD
terms (hatt-1, max_terms=5) undercuts using the sketch columns as they are
(hatt-2).

Run with: python demos/03_cost_model.py
"""

import warnings

from hatt import flop_model, gaussian_tt, recompress_hadamard, uniform_chain
from hatt.apps import hilbert_tt

warnings.simplefilter("ignore")  # feasibility clamps at large ell are expected

print(f"{'algorithm':<12} {'r=s':>4} {'ell':>4} {'measured':>12} {'model':>12} {'ratio':>6}")
d, n = 7, 10
for r in (6, 10):
    y = gaussian_tt((n,) * d, uniform_chain(d, r), seed=1)
    z = gaussian_tt((n,) * d, uniform_chain(d, r), seed=2)
    for ell in (4, 8):
        for name in ("tt-rounding", "rand-orth", "hatt-2"):
            _, rep = recompress_hadamard(name, y, z, ell, seed=3)
            measured = rep.flops_measured.total()
            model = flop_model(name, d, n, r, r, ell)
            print(f"{name:<12} {r:>4} {ell:>4} {measured:>12} {model:>12} "
                  f"{measured / model:>6.2f}")

print()
print("hatt-1 / hatt-2 crossover on a Hilbert-type square (fast singular decay):")
print(f"{'ell':>4} {'hatt-1 flops':>13} {'hatt-2 flops':>13} {'cheaper':>8}")
y = hilbert_tt(5, 8, 20)
for ell in (4, 8, 12, 16):
    _, rep1 = recompress_hadamard("hatt-1", y, y, ell, seed=4, max_terms=5)
    _, rep2 = recompress_hadamard("hatt-2", y, y, ell, seed=4)
    m1, m2 = rep1.flops_measured.total(), rep2.flops_measured.total()
    print(f"{ell:>4} {m1:>13} {m2:>13} {'hatt-1' if m1 < m2 else 'hatt-2':>8}")
