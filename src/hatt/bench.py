"""Benchmark scenarios over the recompression algorithms, with CSV output.

Four canned scenarios at desk scale, each sweeping (algorithm, seed) cells:

* ``example1``: Hadamard product of two sampled trigonometric series,
  swept over target ranks;
* ``example2``: products of random uniform TT tensors of growing rank,
  with a core-allocation cap that the product-materializing baselines hit
  and the Hadamard-avoiding sweep does not;
* ``example3``: power iteration for the largest element of separable
  benchmark functions, one cell per recompression backend;
* ``appendixF`` (alias ``hilbert``): sketch-decomposition crossover study
  on a Hilbert-type tensor, comparing the svd and direct sketch variants.

Rows are written in a fixed CSV schema; capped cells are marked (empty
measurement fields, ``capped`` in the ranks column) and do not stop a run.
"""

import csv
import io
import os
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .apps import (
    FourierSpec,
    SeparableFunctionSpec,
    fourier_tt,
    hilbert_tt,
    power_iteration_max,
    separable_dense,
    separable_tt,
)
from .dense import brute_force_max, hadamard_dense
from .limits import ResourceLimitError, core_limit
from .linalg import FlopLedger
from .recompress import (
    ALGORITHMS,
    TargetRankWarning,
    _runner,
    predicted_flops,
    recompress_hadamard,
)
from .rand_tt import gaussian_tt, uniform_chain, uniform_tt
from .tt import load_tt, save_tt, tt_to_dense

CSV_COLUMNS = (
    "scenario", "algorithm", "d", "n", "r", "s", "ell", "seed",
    "rel_error", "wall_time_s", "flops_measured", "flops_predicted",
    "output_ranks",
)

SCENARIOS = ("example1", "example2", "example3", "appendixF", "custom")


@dataclass
class ResultRow:
    """One benchmark cell; a capped cell has empty measurement fields."""

    scenario: str
    algorithm: str
    d: int
    n: int
    r: int
    s: int
    ell: int
    seed: int
    rel_error: float = None
    wall_time_s: float = None
    flops_measured: int = None
    flops_predicted: int = None
    output_ranks: tuple = None

    @property
    def capped(self):
        return self.output_ranks is None

    def to_csv(self):
        def num(x, fmt="{:.17g}"):
            return "" if x is None else fmt.format(x)

        ranks = "capped" if self.output_ranks is None else "-".join(
            str(r) for r in self.output_ranks
        )
        return [
            self.scenario, self.algorithm, str(self.d), str(self.n), str(self.r),
            str(self.s), str(self.ell), str(self.seed), num(self.rel_error),
            num(self.wall_time_s), num(self.flops_measured, "{:d}"),
            num(self.flops_predicted, "{:d}"), ranks,
        ]


def write_csv(rows, target):
    """Write rows to a path or file object; returns the CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.to_csv())
    text = buf.getvalue()
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w") as fh:
            fh.write(text)
    elif target is not None:
        target.write(text)
    return text


@dataclass
class Scenario:
    """A benchmark request: which scenario, over which grid and seeds."""

    name: str
    seeds: tuple = (0, 1, 2, 3, 4)
    algorithms: tuple = ALGORITHMS
    d: int = None
    n: int = None
    ranks: tuple = None
    targets: tuple = None
    max_terms: int = None
    fourier_terms: int = None
    max_iter: int = 100
    dense_cap: int = None
    core_cap: int = None
    out: str = None
    strict: bool = False
    flop_report: bool = False
    fixtures: str = None

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.name!r}; known: {SCENARIOS}")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        self.algorithms = tuple(self.algorithms)
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        for alg in self.algorithms:
            _runner(alg)


def _cell(config, algorithm, y, z, targets, seed, reference, d, n, r, s, ell):
    """Run one (algorithm, seed) cell; a resource-capped cell becomes a marker row."""
    predicted = predicted_flops(algorithm, d, n, r, s, ell, config.max_terms)
    try:
        with warnings.catch_warnings():
            # clamped targets are visible in the output_ranks column
            warnings.simplefilter("ignore", TargetRankWarning)
            _, rep = recompress_hadamard(
                algorithm, y, z, targets, seed=seed, max_terms=config.max_terms,
                reference=reference,
            )
    except ResourceLimitError:
        return ResultRow(config.name, algorithm, d, n, r, s, ell, seed,
                         flops_predicted=predicted)
    return ResultRow(
        config.name, algorithm, d, n, r, s, ell, seed,
        rel_error=rep.rel_error,
        wall_time_s=rep.wall_time_s,
        flops_measured=rep.flops_measured.total(),
        flops_predicted=predicted,
        output_ranks=rep.output_ranks,
    )


def _fixture_pair(config, tag, builder):
    """Build (or reload) a pair of input TT tensors, optionally as files."""
    if config.fixtures:
        os.makedirs(config.fixtures, exist_ok=True)
        py = os.path.join(config.fixtures, f"{tag}_y.tt")
        pz = os.path.join(config.fixtures, f"{tag}_z.tt")
        if os.path.exists(py) and os.path.exists(pz):
            return load_tt(py), load_tt(pz)
        y, z = builder()
        save_tt(y, py)
        save_tt(z, pz)
        return y, z
    return builder()


def run_example1(config):
    """Trigonometric-series Hadamard product swept over target ranks."""
    d = config.d or 5
    n = config.n or 8
    shape = (n,) * d
    terms = config.fourier_terms or 12
    sweep = config.targets or (2, 4, 6, 8, 10, 12)
    spec = FourierSpec(shape, n_terms=terms)
    y, z = _fixture_pair(config, "example1",
                         lambda: fourier_tt(spec, seed=config.seeds[0]))
    reference = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
    r, s = max(y.ranks), max(z.ranks)
    rows = []
    for ell in sweep:
        for alg in config.algorithms:
            for seed in config.seeds:
                rows.append(_cell(config, alg, y, z, int(ell), seed, reference,
                                  d, n, r, s, int(ell)))
    return rows


def run_example2(config):
    """Random uniform TT products of growing rank under a core-allocation cap."""
    d = config.d or 5
    n = config.n or 6
    shape = (n,) * d
    rank_sweep = config.ranks or (10, 20, 30, 40)
    ell = int(config.targets[0]) if config.targets else 8
    cap = config.core_cap if config.core_cap is not None else 2_000_000
    rows = []
    for r in rank_sweep:
        chain = uniform_chain(d, int(r))
        for seed in config.seeds:
            y = uniform_tt(shape, chain, seed=_derive_seed(seed, 1, r))
            z = uniform_tt(shape, chain, seed=_derive_seed(seed, 2, r))
            reference = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
            for alg in config.algorithms:
                with core_limit(cap):
                    rows.append(_cell(config, alg, y, z, ell, seed, reference,
                                      d, n, int(r), int(r), ell))
    return rows


def run_example3(config):
    """Largest-element power iteration on separable benchmark functions.

    Row semantics here: r is the input tensor's maximal rank, s the iterate
    rank bound (= ell), rel_error compares the estimate against the dense
    brute-force maximum, flops cover the whole iteration, and
    flops_predicted is the per-recompression model times iterations used.
    """
    d = config.d or 4
    n = config.n or 10
    ell = int(config.targets[0]) if config.targets else 5
    rows = []
    for kind in ("qing", "alpine"):
        spec = SeparableFunctionSpec(kind, d, n)
        y = separable_tt(spec)
        exact, _ = brute_force_max(separable_dense(spec))
        r = max(y.ranks)
        iterate_chain = uniform_chain(d, ell)
        for alg in config.algorithms:
            for seed in config.seeds:
                ledger = FlopLedger()
                start = time.perf_counter()
                res = power_iteration_max(
                    y, ell, max_iter=config.max_iter, recompressor=alg,
                    seed=seed, max_terms=config.max_terms, ledger=ledger,
                )
                elapsed = time.perf_counter() - start
                per_iter = predicted_flops(alg, d, n, r, ell, ell, config.max_terms)
                rows.append(ResultRow(
                    f"{config.name}-{kind}", alg, d, n, r, ell, ell, seed,
                    rel_error=abs(res.estimate - exact) / abs(exact),
                    wall_time_s=elapsed,
                    flops_measured=ledger.total(),
                    flops_predicted=per_iter * res.iterations_used,
                    output_ranks=iterate_chain,
                ))
    return rows


def run_appendix_hilbert(config):
    """Sketch-variant crossover on a Hilbert-type squared tensor."""
    d = config.d or 5
    n = config.n or 8
    r = int(config.ranks[0]) if config.ranks else 20
    sweep = config.targets or (4, 8, 12, 16)
    max_terms = config.max_terms or 5
    y = hilbert_tt(d, n, r)
    reference = hadamard_dense(tt_to_dense(y), tt_to_dense(y))
    cfg = replace(config, max_terms=max_terms)
    rows = []
    for ell in sweep:
        for alg in ("hatt-1", "hatt-2"):
            for seed in config.seeds:
                rows.append(_cell(cfg, alg, y, y, int(ell), seed, reference,
                                  d, n, r, r, int(ell)))
    return rows


def run_custom(config):
    """Gaussian random inputs over an (r, ell) grid; the generic scenario."""
    d = config.d or 4
    n = config.n or 5
    shape = (n,) * d
    rank_sweep = config.ranks or (3,)
    sweep = config.targets or (2,)
    rows = []
    for r in rank_sweep:
        chain = uniform_chain(d, int(r))
        for seed in config.seeds:
            y = gaussian_tt(shape, chain, seed=_derive_seed(seed, 1, r))
            z = gaussian_tt(shape, chain, seed=_derive_seed(seed, 2, r))
            reference = hadamard_dense(tt_to_dense(y), tt_to_dense(z))
            for ell in sweep:
                for alg in config.algorithms:
                    rows.append(_cell(config, alg, y, z, int(ell), seed,
                                      reference, d, n, int(r), int(r), int(ell)))
    return rows


_RUNNERS = {
    "example1": run_example1,
    "example2": run_example2,
    "example3": run_example3,
    "appendixF": run_appendix_hilbert,
    "custom": run_custom,
}


def run_scenario(config):
    """Dispatch a scenario; returns its rows (CSV writing is the caller's job)."""
    from .limits import dense_limit

    runner = _RUNNERS[config.name]
    if config.dense_cap is not None:
        with dense_limit(config.dense_cap):
            return runner(config)
    return runner(config)


def _derive_seed(seed, tag, extra):
    return int(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(int(tag), int(extra))
    ).generate_state(1)[0])


# --- aggregation --------------------------------------------------------------


def summarize(rows):
    """Mean/std of error and time per (scenario, algorithm, grid) cell.

    Aggregates exactly recompute from the raw rows; speedup compares mean
    wall time against tt-rounding in the same grid cell when present.
    """
    groups = {}
    for row in rows:
        key = (row.scenario, row.algorithm, row.d, row.n, row.r, row.s, row.ell)
        groups.setdefault(key, []).append(row)
    baseline_time = {}
    for key, cell in groups.items():
        if key[1] == "tt-rounding":
            times = [r.wall_time_s for r in cell if r.wall_time_s is not None]
            if times:
                baseline_time[key[:1] + key[2:]] = float(np.mean(times))
    out = []
    for key in sorted(groups):
        cell = groups[key]
        errs = [r.rel_error for r in cell if r.rel_error is not None]
        times = [r.wall_time_s for r in cell if r.wall_time_s is not None]
        entry = {
            "scenario": key[0], "algorithm": key[1], "d": key[2], "n": key[3],
            "r": key[4], "s": key[5], "ell": key[6],
            "cells": len(cell),
            "capped": sum(r.capped for r in cell),
            "err_mean": float(np.mean(errs)) if errs else None,
            "err_std": float(np.std(errs)) if errs else None,
            "time_mean": float(np.mean(times)) if times else None,
            "time_std": float(np.std(times)) if times else None,
        }
        base = baseline_time.get(key[:1] + key[2:])
        entry["speedup_vs_tt_rounding"] = (
            base / entry["time_mean"] if base and entry["time_mean"] else None
        )
        out.append(entry)
    return out


def format_summary(entries):
    lines = [
        f"{'scenario':<14} {'algorithm':<12} {'r':>4} {'ell':>4} "
        f"{'err mean':>12} {'err std':>10} {'time mean':>11} {'speedup':>8}"
    ]
    for e in entries:
        def fmt(x, pat="{:.3e}"):
            return "-" if x is None else pat.format(x)

        lines.append(
            f"{e['scenario']:<14} {e['algorithm']:<12} {e['r']:>4} {e['ell']:>4} "
            f"{fmt(e['err_mean']):>12} {fmt(e['err_std']):>10} "
            f"{fmt(e['time_mean']):>11} {fmt(e['speedup_vs_tt_rounding'], '{:.2f}x'):>8}"
        )
    return "\n".join(lines)


def flop_report(rows):
    """Model-vs-measured flop table for rows that completed."""
    lines = [
        f"{'scenario':<14} {'algorithm':<12} {'r':>4} {'ell':>4} "
        f"{'measured':>14} {'predicted':>14} {'ratio':>7}"
    ]
    seen = set()
    for row in rows:
        key = (row.scenario, row.algorithm, row.r, row.ell)
        if row.capped or key in seen or not row.flops_measured:
            continue
        seen.add(key)
        ratio = row.flops_measured / row.flops_predicted if row.flops_predicted else float("nan")
        lines.append(
            f"{row.scenario:<14} {row.algorithm:<12} {row.r:>4} {row.ell:>4} "
            f"{row.flops_measured:>14} {row.flops_predicted:>14} {ratio:>7.2f}"
        )
    return "\n".join(lines)
