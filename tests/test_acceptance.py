"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line (visible with `pytest -s` or on failure); the
assertions pin the tolerances, instance counts, and runtime budgets.
"""

import time

import numpy as np
import pytest
from scipy import stats

from hatt import (
    DIRECT,
    RandomSpec,
    ResourceLimitError,
    brute_force_max,
    core_limit,
    flop_model,
    gaussian_tt,
    hadamard_dense,
    hatt,
    hpcrl,
    left_orthogonality_defect,
    partial_contraction_rl,
    rand_orth,
    random_tt,
    recompress_hadamard,
    relative_error,
    svd_variant,
    tt_hadamard,
    tt_rounding,
    tt_to_dense,
    uniform_chain,
    uniform_tt,
)
from hatt.apps import (
    SeparableFunctionSpec,
    hilbert_tt,
    power_iteration_max,
    separable_dense,
    separable_tt,
)
from hatt.bench import Scenario, run_scenario

# target ranks above a feasibility bound clamp with a warning; expected here
pytestmark = pytest.mark.filterwarnings("ignore::hatt.TargetRankWarning")

# cells where both algorithms reproduce the reference to working precision
# carry no information about their error ratio
EXACT_FLOOR = 1e-8


def _random_instance(rng, max_rank=4, max_ell=6, d_choices=(3, 4, 5), n_hi=5):
    d = int(rng.choice(d_choices))
    n = int(rng.integers(2, n_hi + 1))
    shape = (n,) * d
    ry = (1,) + tuple(int(rng.integers(1, max_rank + 1)) for _ in range(d - 1)) + (1,)
    rz = (1,) + tuple(int(rng.integers(1, max_rank + 1)) for _ in range(d - 1)) + (1,)
    ells = (1,) + tuple(int(rng.integers(1, max_ell + 1)) for _ in range(d - 1)) + (1,)
    y = gaussian_tt(shape, ry, seed=int(rng.integers(0, 2**31)))
    z = gaussian_tt(shape, rz, seed=int(rng.integers(0, 2**31)))
    sketch = random_tt(RandomSpec(shape, ells, "gaussian", int(rng.integers(0, 2**31))))
    return y, z, sketch


def test_criterion_01_sketch_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_direct = worst_svd = 0.0
    for _ in range(50):
        y, z, sketch = _random_instance(rng)
        ref = partial_contraction_rl(tt_hadamard(y, z), sketch)
        direct = hpcrl(y, z, sketch, DIRECT)
        untruncated = hpcrl(y, z, sketch, svd_variant(rel_tol=0.0))
        for wr, wd, ws in zip(ref, direct, untruncated):
            scale = max(np.linalg.norm(wr), 1e-300)
            worst_direct = max(worst_direct, np.linalg.norm(wr - wd) / scale)
            worst_svd = max(worst_svd, np.linalg.norm(wr - ws) / scale)
    elapsed = time.perf_counter() - start
    assert worst_direct <= 1e-12
    assert worst_svd <= 1e-11
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: sketch identity over 50 instances "
          f"(direct {worst_direct:.2e} <= 1e-12, svd {worst_svd:.2e} <= 1e-11, "
          f"{elapsed:.1f}s)")


def test_criterion_02_algebraic_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        y, z, sketch = _random_instance(rng, max_rank=3, max_ell=5, d_choices=(3, 4))
        via_hatt = hatt(y, z, sketch_tt=sketch)
        via_baseline = rand_orth(tt_hadamard(y, z), sketch_tt=sketch)
        worst = max(worst, relative_error(via_hatt, via_baseline))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-11
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: hatt == rand_orth with shared sketch over 20 "
          f"instances (worst {worst:.2e} <= 1e-11, {elapsed:.1f}s)")


def test_criterion_03_exact_recovery():
    rng = np.random.default_rng(303)
    worst = {name: 0.0 for name in ("tt-rounding", "rand-orth", "hatt-1", "hatt-2")}
    for _ in range(20):
        d = int(rng.choice((3, 4)))
        shape = (4,) * d
        ry = (1,) + tuple(int(rng.integers(1, 3)) for _ in range(d - 1)) + (1,)
        rz = (1,) + tuple(int(rng.integers(1, 3)) for _ in range(d - 1)) + (1,)
        y = gaussian_tt(shape, ry, seed=int(rng.integers(0, 2**31)))
        z = gaussian_tt(shape, rz, seed=int(rng.integers(0, 2**31)))
        targets = tuple(a * b for a, b in zip(ry, rz))
        ref = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
        seed = int(rng.integers(0, 2**31))
        for name in worst:
            _, rep = recompress_hadamard(name, y, z, targets, seed=seed,
                                         reference=ref)
            worst[name] = max(worst[name], rep.rel_error)
    assert all(err <= 1e-10 for err in worst.values()), worst
    summary = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    print(f"\nACCEPTANCE 3 PASS: exact recovery at product ranks over 20 "
          f"instances ({summary}; all <= 1e-10)")


def test_criterion_04_error_parity_example1():
    config = Scenario("example1", algorithms=("tt-rounding", "hatt-2"))
    rows = run_scenario(config)
    sweep = sorted({r.ell for r in rows})
    means = {}
    for alg in config.algorithms:
        means[alg] = [
            float(np.mean([r.rel_error for r in rows
                           if r.algorithm == alg and r.ell == ell]))
            for ell in sweep
        ]
    for ttr, h2, ell in zip(means["tt-rounding"], means["hatt-2"], sweep):
        comparable = h2 <= 3.0 * ttr
        both_exact = max(ttr, h2) <= EXACT_FLOOR
        assert comparable or both_exact, (ell, ttr, h2)
    for series in means.values():
        for a, b in zip(series, series[1:]):
            assert b <= 1.10 * a, series
    pairs = ", ".join(
        f"ell={ell}: {h2 / ttr:.2f}x" if max(ttr, h2) > EXACT_FLOOR else f"ell={ell}: exact"
        for ttr, h2, ell in zip(means["tt-rounding"], means["hatt-2"], sweep)
    )
    print(f"\nACCEPTANCE 4 PASS: example-1 parity within 3x and monotone "
          f"decay over 5 seeds ({pairs})")


def test_criterion_05_flop_model_and_ordering():
    start = time.perf_counter()
    measured = {}
    for r in (6, 10):
        y = gaussian_tt((10,) * 7, uniform_chain(7, r), seed=1)
        z = gaussian_tt((10,) * 7, uniform_chain(7, r), seed=2)
        for ell in (4, 8):
            for name in ("rand-orth", "hatt-2"):
                _, rep = recompress_hadamard(name, y, z, ell, seed=3)
                model = flop_model(name, 7, 10, r, r, ell)
                ratio = rep.flops_measured.matmul_flops / model
                assert 0.65 <= ratio <= 1.35, (name, r, ell, ratio)
                measured[name, r, ell] = rep.flops_measured.matmul_flops
    for ell in (4, 8):
        lo = measured["rand-orth", 6, ell] / measured["hatt-2", 6, ell]
        hi = measured["rand-orth", 10, ell] / measured["hatt-2", 10, ell]
        assert hi > lo, (ell, lo, hi)

    # single wall-clock ordering property at the largest desk-scale cell
    shape = (6,) * 5
    chain = uniform_chain(5, 40)
    y = uniform_tt(shape, chain, seed=11)
    z = uniform_tt(shape, chain, seed=12)
    hatt(y, z, 8, seed=13)  # warm-up
    t_hatt = min(
        _timed(lambda: hatt(y, z, 8, seed=13)) for _ in range(3)
    )
    t_base = min(
        _timed(lambda: rand_orth(tt_hadamard(y, z), 8, seed=13)) for _ in range(3)
    )
    elapsed = time.perf_counter() - start
    assert t_base >= 1.5 * t_hatt, (t_base, t_hatt)
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 PASS: measured flops within 35% of the model, "
          f"ratio grows with rank, and time(hatt-2)={t_hatt * 1e3:.0f}ms vs "
          f"time(rand-orth)={t_base * 1e3:.0f}ms (margin "
          f"{t_base / t_hatt:.1f}x >= 1.5x, {elapsed:.0f}s)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_06_memory_avoidance():
    shape = (6,) * 5
    chain = uniform_chain(5, 40)
    y = uniform_tt(shape, chain, seed=21)
    z = uniform_tt(shape, chain, seed=22)
    cap = 1600 * 6 * 1600 - 1  # below any materialized product core
    with core_limit(cap):
        with pytest.raises(ResourceLimitError):
            tt_rounding(tt_hadamard(y, z), 8)
        with pytest.raises(ResourceLimitError):
            rand_orth(tt_hadamard(y, z), 8, seed=23)
        out = hatt(y, z, 8, seed=23)
    assert max(out.ranks) == 8
    print("\nACCEPTANCE 6 PASS: with the product-core allocation forbidden at "
          "r=s=40, hatt completes while tt-rounding and rand-orth abort")


def test_criterion_07_orthogonality_invariants():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(10):
        y, z, sketch = _random_instance(rng, max_rank=3, max_ell=4, d_choices=(3, 4, 5))
        product = tt_hadamard(y, z)
        seed = int(rng.integers(0, 2**31))
        outputs = [
            tt_rounding(product, 3),
            rand_orth(product, 3, seed=seed),
            hatt(y, z, 3, DIRECT, seed=seed),
            hatt(y, z, 3, svd_variant(max_terms=3), seed=seed),
        ]
        worst = max(worst, max(left_orthogonality_defect(out) for out in outputs))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 7 PASS: left-orthogonal cores 1..d-1 across the "
          f"property sweep (worst defect {worst:.2e} <= 1e-10)")


def test_criterion_08_power_iteration():
    start = time.perf_counter()
    worst = {}
    for kind in ("qing", "alpine"):
        spec = SeparableFunctionSpec(kind, 4, 10)
        y = separable_tt(spec)
        exact, _ = brute_force_max(separable_dense(spec))
        for alg in ("tt-rounding", "rand-orth", "hatt-1", "hatt-2"):
            errs = [
                abs(power_iteration_max(y, 5, max_iter=100, recompressor=alg,
                                        seed=seed).estimate - exact) / exact
                for seed in range(5)
            ]
            worst[kind, alg] = max(errs)
    elapsed = time.perf_counter() - start
    assert all(err <= 1e-3 for err in worst.values()), worst
    assert elapsed < 120.0
    top = max(worst.values())
    print(f"\nACCEPTANCE 8 PASS: power-iteration estimates within 1e-3 of the "
          f"brute-force maximum for every backend (worst {top:.2e}, "
          f"{elapsed:.0f}s)")


def test_criterion_09_hilbert_crossover():
    y = hilbert_tt(5, 8, 20)
    ref = hadamard_dense(tt_to_dense(y), tt_to_dense(y))
    max_terms = 5
    sweep = (4, 8, 12, 16)
    predicted = {}
    for ell in sweep:
        terms = min(max_terms, ell)
        predicted[ell] = (
            flop_model("hatt-1", 5, 8, 20, 20, ell, n_terms=terms),
            flop_model("hatt-2", 5, 8, 20, 20, ell),
        )
    crossover = next(ell for ell in sweep if predicted[ell][0] < predicted[ell][1])
    for ell in sweep:
        _, rep1 = recompress_hadamard("hatt-1", y, y, ell, seed=31,
                                      max_terms=max_terms, reference=ref)
        _, rep2 = recompress_hadamard("hatt-2", y, y, ell, seed=31, reference=ref)
        err1, err2 = rep1.rel_error, rep2.rel_error
        agree = abs(err1 - err2) <= 0.10 * max(err1, err2)
        both_exact = max(err1, err2) <= 1e-12
        assert agree or both_exact, (ell, err1, err2)
        if ell >= crossover:
            assert predicted[ell][0] < predicted[ell][1]
            assert rep1.flops_measured.total() < rep2.flops_measured.total(), ell
    print(f"\nACCEPTANCE 9 PASS: sketch-svd and direct variants agree within "
          f"10% per cell, and beyond the predicted crossover (ell >= "
          f"{crossover}) hatt-1 costs less than hatt-2 in both model and "
          f"measurement")


def test_criterion_10_random_tt_variance():
    sq_sum = 0.0
    count = 0
    for seed in range(200):
        tt = random_tt(RandomSpec((4, 4, 4), (1, 4, 4, 1), "gaussian", seed))
        core = tt.cores[1].values  # interior core: variance 1/(4*4*4)
        sq_sum += float(np.sum(core**2))
        count += core.size
    stat = sq_sum * 64.0
    lo, hi = stats.chi2.ppf([0.005, 0.995], count)
    assert lo <= stat <= hi
    print(f"\nACCEPTANCE 10 PASS: pooled variance over 200 seeded draws inside "
          f"the 99% chi-square band ({lo:.0f} <= {stat:.0f} <= {hi:.0f})")
