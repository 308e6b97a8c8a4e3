"""Finding the largest element of a separable function's grid tensor.

The iteration repeatedly forms the Hadamard product of the tensor with the
current iterate and recompresses it, so the recompression backend is the
knob that decides the cost; the estimate is checked against exhaustive
enumeration, which is only possible at this desk scale.

Run with: python demos/04_power_iteration.py
"""

import time

from hatt.dense import brute_force_max
from hatt.apps import (
    SeparableFunctionSpec,
    power_iteration_max,
    separable_dense,
    separable_tt,
)

for kind in ("qing", "alpine"):
    spec = SeparableFunctionSpec(kind, d=4, n=10)
    y = separable_tt(spec)
    exact, where = brute_force_max(separable_dense(spec))
    print(f"{kind}: rank chain {y.ranks}, exhaustive max {exact:.6f} at {where}")
    for alg in ("tt-rounding", "rand-orth", "hatt-1", "hatt-2"):
        t0 = time.perf_counter()
        res = power_iteration_max(y, ell=5, max_iter=100, recompressor=alg, seed=0)
        elapsed = time.perf_counter() - t0
        rel = abs(res.estimate - exact) / exact
        print(f"  {alg:<12} estimate {res.estimate:14.6f}  rel err {rel:.1e}  "
              f"{res.iterations_used:3d} iterations  {elapsed * 1e3:6.0f} ms")
    print()
