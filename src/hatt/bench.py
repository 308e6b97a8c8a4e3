"""Benchmark scenarios over the recompression algorithms, with CSV output.

Five scenarios at desk scale.  All but example3 build pairs of input TT
tensors and run one grid over them (:func:`_grid`: every target, algorithm
and seed on each pair, against the pair's reference):

* ``example1``: Hadamard product of two sampled trigonometric series,
  swept over target ranks;
* ``example2``: products of random uniform TT tensors of growing rank,
  with a core-allocation cap that the product-materializing baselines hit
  and the Hadamard-avoiding sweep does not;
* ``example3``: power iteration for the largest element of separable
  benchmark functions, one cell per recompression backend;
* ``appendixF`` (alias ``hilbert``): sketch-decomposition crossover study
  on a Hilbert-type tensor, comparing the svd and direct sketch variants;
* ``custom``: gaussian random inputs over an (r, ell) grid.

Rows are written in a fixed CSV schema; capped cells are marked (empty
measurement fields, ``capped`` in the ranks column) and do not stop a run.
"""

import csv
import io
import os
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

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
from .limits import ResourceLimitError, core_limit, dense_cap, dense_limit
from .linalg import FlopLedger
from .recompress import (
    ALGORITHMS,
    TargetRankWarning,
    _runner,
    predicted_flops,
    recompress_hadamard,
)
from .rand_tt import gaussian_tt, uniform_chain, uniform_tt
from .tt import load_tt, relative_error, save_tt, tt_hadamard, tt_to_dense

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

        ranks = "capped" if self.capped else "-".join(map(str, self.output_ranks))
        return [
            self.scenario, self.algorithm,
            *map(str, (self.d, self.n, self.r, self.s, self.ell, self.seed)),
            num(self.rel_error), num(self.wall_time_s), num(self.flops_measured, "{:d}"),
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


# Grid defaults per scenario; a Scenario field left None takes its
# scenario's value (algorithms: all four unless listed here).
_DEFAULTS = {
    "example1": dict(d=5, n=8, targets=(2, 4, 6, 8, 10, 12), fourier_terms=12),
    "example2": dict(d=5, n=6, ranks=(10, 20, 30, 40), targets=(8,), core_cap=2_000_000),
    "example3": dict(d=4, n=10, targets=(5,), max_iter=100),
    "appendixF": dict(d=5, n=8, ranks=(20,), targets=(4, 8, 12, 16), max_terms=5,
                      algorithms=("hatt-1", "hatt-2")),
    "custom": dict(d=4, n=5, ranks=(3,), targets=(2,)),
}

# The options only some scenarios read; any other scenario rejects them.
_READ_BY = {
    "ranks": ("example2", "appendixF", "custom"),
    "fourier_terms": ("example1",),
    "max_iter": ("example3",),
    "fixtures": ("example1", "example2", "appendixF", "custom"),
}


@dataclass
class Scenario:
    """A benchmark request: which scenario, over which grid and seeds."""

    name: str
    seeds: tuple = (0, 1, 2, 3, 4)
    algorithms: tuple = None
    d: int = None
    n: int = None
    ranks: tuple = None
    targets: tuple = None
    max_terms: int = None
    fourier_terms: int = None
    max_iter: int = None
    dense_cap: int = None
    core_cap: int = None
    out: str = None
    strict: bool = False
    flop_report: bool = False
    fixtures: str = None

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.name!r}; known: {SCENARIOS}")
        for field, readers in _READ_BY.items():
            if getattr(self, field) is not None and self.name not in readers:
                raise ValueError(f"{self.name} does not read {field}; "
                                 f"it is read by {', '.join(readers)}")
        for field, value in {"algorithms": ALGORITHMS, **_DEFAULTS[self.name]}.items():
            if getattr(self, field) is None:
                setattr(self, field, value)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds or len(set(self.seeds)) != len(self.seeds) or min(self.seeds) < 0:
            raise ValueError(f"seeds must be distinct integers >= 0, got {self.seeds}")
        self.algorithms = tuple(self.algorithms)
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        for alg in self.algorithms:
            _runner(alg)
        for field in ("d", "n", "ranks", "targets", "max_terms", "fourier_terms", "max_iter"):
            value = getattr(self, field)
            if value is not None and (np.size(value) == 0 or np.min(value) < 1):
                raise ValueError(f"{field} must be >= 1, got {value!r}")
        self.ranks, self.targets = (v if v is None else tuple(int(x) for x in v)
                                    for v in (self.ranks, self.targets))
        if self.name == "example3" and self.n < 2:
            raise ValueError(f"example3 needs n >= 2, got {self.n}")


def _cell(config, algorithm, y, z, ell, seed, reference):
    """Run one (algorithm, target, seed) cell; a resource-capped run becomes a
    marker row, and an error the caps leave no room for an empty rel_error."""
    d, n, r, s = y.d, y.shape[0], max(y.ranks), max(z.ranks)
    head = (config.name, algorithm, d, n, r, s, ell, seed)
    predicted = predicted_flops(algorithm, d, n, r, s, ell, config.max_terms)
    try:
        with warnings.catch_warnings():
            # clamped targets are visible in the output_ranks column
            warnings.simplefilter("ignore", TargetRankWarning)
            out, rep = recompress_hadamard(algorithm, y, z, ell, seed=seed,
                                           max_terms=config.max_terms)
    except ResourceLimitError:
        return ResultRow(*head, flops_predicted=predicted)
    try:
        # the TT path of a TT reference adds it to the output, core by core
        rel_error = None if reference is None else relative_error(out, reference)
    except ResourceLimitError:
        rel_error = None
    return ResultRow(
        *head,
        rel_error=rel_error,
        wall_time_s=rep.wall_time_s,
        flops_measured=rep.flops_measured.total(),
        flops_predicted=predicted,
        output_ranks=rep.output_ranks,
    )


# --- input pairs --------------------------------------------------------------
# Each builder yields (fixture tag, seeds to run on the pair, y, z).


def _example1_pairs(config):
    """The sampled trigonometric-series pair, drawn with the first seed."""
    spec = FourierSpec((config.n,) * config.d, n_terms=config.fourier_terms)
    yield ("example1", config.seeds, *fourier_tt(spec, seed=config.seeds[0]))


def _random_pairs(config, draw):
    """A pair of `draw` tensors per (rank, seed), run at that seed only."""
    shape = (config.n,) * config.d
    for r in config.ranks:
        chain = uniform_chain(config.d, r)
        for seed in config.seeds:
            yield (f"{config.name}_r{r}_seed{seed}", (seed,),
                   *(draw(shape, chain, seed=_derive_seed(seed, side, r)) for side in (1, 2)))


def _hilbert_pairs(config):
    """The Hilbert-type tensor with itself, per rank."""
    for r in config.ranks:
        y = hilbert_tt(config.d, config.n, r)
        yield f"{config.name}_r{r}", config.seeds, y, y


_PAIRS = {
    "example1": _example1_pairs,
    "example2": lambda config: _random_pairs(config, uniform_tt),
    "appendixF": _hilbert_pairs,
    "custom": lambda config: _random_pairs(config, gaussian_tt),
}


def _reference(y, z):
    """The reference of a pair's rows: y ⊙ z dense within the dense cap,
    else as a TT tensor (which :func:`relative_error` compares through the
    TT norm), or None, for an empty rel_error, if a product core exceeds
    the core cap."""
    cap = dense_cap()
    if cap is None or y.size <= cap:
        return hadamard_dense(tt_to_dense(y), tt_to_dense(z))
    try:
        return tt_hadamard(y, z)
    except ResourceLimitError:
        return None


def _grid(config, pairs):
    """Run every target x algorithm x seed cell on each input pair.

    Under ``config.fixtures`` the pair is saved to ``<tag>_y.tt`` and
    ``<tag>_z.tt`` there, or, if saved before, reloaded and compared with
    the pair this run builds, core by core and exactly (``save_tt`` writes
    every value round-trip exact).  A saved pair of another shape, or with
    other values (such as one built with other ``--fourier-terms``), is a
    ValueError naming the file.  Each pair's reference is computed once
    (:func:`_reference`); its rows' d, n, r, s describe the pair as run.
    """
    rows = []
    for tag, seeds, y, z in pairs:
        paths = ([os.path.join(config.fixtures, f"{tag}_{x}.tt") for x in "yz"]
                 if config.fixtures else [])
        if paths and all(map(os.path.exists, paths)):
            for path, built in zip(paths, (y, z)):
                saved = load_tt(path)
                if saved.shape != built.shape:
                    raise ValueError(f"fixture {path} has shape {saved.shape}, "
                                     f"but this run builds shape {built.shape}")
                if not all(np.array_equal(a.values, b.values)
                           for a, b in zip(saved.cores, built.cores)):
                    raise ValueError(f"fixture {path} differs from the tensor this run "
                                     f"builds; use another --fixtures directory")
        else:
            for x, path in zip((y, z), paths):
                os.makedirs(config.fixtures, exist_ok=True)
                save_tt(x, path)
        reference = _reference(y, z)
        for ell in config.targets:
            for alg in config.algorithms:
                for seed in seeds:
                    rows.append(_cell(config, alg, y, z, ell, seed, reference))
    return rows


def _power_rows(config):
    """Largest-element power iteration on separable benchmark functions.

    Row semantics here: r is the input tensor's maximal rank, s the iterate
    rank bound (= ell), rel_error compares the estimate against the dense
    brute-force maximum, flops cover the whole iteration, and
    flops_predicted is the per-recompression model times iterations used.
    """
    d, n = config.d, config.n
    rows = []
    for kind in ("qing", "alpine"):
        spec = SeparableFunctionSpec(kind, d, n)
        y = separable_tt(spec)
        exact, _ = brute_force_max(separable_dense(spec))
        r = max(y.ranks)
        for ell in config.targets:
            for alg in config.algorithms:
                per_iter = predicted_flops(alg, d, n, r, ell, ell, config.max_terms)
                for seed in config.seeds:
                    head = (f"{config.name}-{kind}", alg, d, n, r, ell, ell, seed)
                    ledger = FlopLedger()
                    start = time.perf_counter()
                    try:
                        res = power_iteration_max(
                            y, ell, max_iter=config.max_iter, recompressor=alg,
                            seed=seed, max_terms=config.max_terms, ledger=ledger,
                        )
                    except ResourceLimitError:
                        rows.append(ResultRow(*head))
                        continue
                    rows.append(ResultRow(
                        *head,
                        rel_error=abs(res.estimate - exact) / abs(exact),
                        wall_time_s=time.perf_counter() - start,
                        flops_measured=ledger.total(),
                        flops_predicted=per_iter * res.iterations_used,
                        output_ranks=uniform_chain(d, ell),
                    ))
    return rows


def run_scenario(config):
    """Run a scenario under its dense and core caps; returns its rows (CSV
    writing is the caller's job).  A cap left None keeps the one in force."""
    dense = nullcontext() if config.dense_cap is None else dense_limit(config.dense_cap)
    core = nullcontext() if config.core_cap is None else core_limit(config.core_cap)
    with dense, core:
        if config.name == "example3":
            return _power_rows(config)
        return _grid(config, _PAIRS[config.name](config))


def _derive_seed(seed, tag, extra):
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(tag), int(extra)))
    return int(seq.generate_state(1)[0])


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
