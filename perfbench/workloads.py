"""Inputs, cells and correctness checks of the three workload groups.

A *cell* is one distinct computation: an algorithm on one input with one
target rank and one sketch seed.  Every cell is checked on its first call;
later calls of the same cell must repeat its output and flop counts bit for
bit.  Timing samples are pooled by the cell's *key* (group, algorithm,
target rank), because cells that share a key differ only in the sketch draw.

Groups:

* ``large``: gaussian y, z with d=10, n=32, r=s=20, target 10 (product rank
  400); hatt-2, hatt-1 and rand-orth under one shared sketch seed.
* ``hilbert``: hilbert_tt(5, 8, 20) squared (product rank 400, 32768
  elements) against its dense oracle; targets 4 and 8, all four algorithms,
  hatt-1 with max_terms=5, HILBERT_SKETCHES sketch seeds per target.
* ``power``: power_iteration_max on separable_tt qing and alpine, d=6, n=10,
  target 8, hatt-2 backend, max_iter=100, against brute_force_max.

Inputs that are random (the gaussian factors) and every sketch seed derive
from the workload seed; the Hilbert and separable tensors are fixed by
definition.  Library calls go through module attributes such as
``hatt.recompress.recompress_hadamard`` so that a traced run sees them.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hatt

# The paper's regime has r=s=30 (product rank 900), where one rand-orth call
# takes about 2 s and materializes 1.6 GiB.  A run then held only 7 to 15
# rand-orth calls, too few for a steady figure; at r=s=20 a call takes about
# 0.4 s and 317 MiB.
LARGE_SHAPE = dict(d=10, n=32, r=20, ell=10)
# Fixed call counts for the fast large-group algorithms; rand-orth takes the
# rest of the run.  60 hatt-2 samples put its tail at p75 on every run (p90
# would need 100), so the tail metric keeps one definition.
LARGE_CALLS = {"hatt-2": 60, "hatt-1": 20}
HILBERT_SHAPE = dict(d=5, n=8, r=20)
HILBERT_TARGETS = (4, 8)
HILBERT_MAX_TERMS = 5
# Sketch seeds per Hilbert target: the error of one randomized rounding
# varies about 15x between draws at target 8, so the geometric mean over
# many draws is what keeps the error metrics steady from seed to seed.
HILBERT_SKETCHES = 128
# tt-rounding is deterministic, so it is one cell per target, called at
# least this many times in a run to give its timing enough samples.
ROUNDING_CALLS = 12
POWER_KINDS = ("qing", "alpine")
POWER_SHAPE = dict(d=6, n=10, ell=8, max_iter=100)
# timed solves per kind at least, so that workloads where the power
# iteration only rides along still have enough samples for a steady median
POWER_CALLS = 5

DEFECT_TOL = 1e-10
EQUIVALENCE_TOL = 1e-10
FLOP_MODEL_TOL = 0.35
POWER_TOL = 1e-3
# algorithms whose flop model is a leading-order estimate; the tt-rounding
# model assumes every QR is (r s n) x (r s), which overstates the narrow
# boundary cores of a short train, so it is reported but not gated
FLOP_GATED = ("hatt-2", "hatt-1", "rand-orth")


def derive_seed(seed, *tags):
    """A 32-bit seed fixed by the workload seed and a tuple of small ints."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tags)
    return int(seq.generate_state(1)[0])


@dataclass
class Cell:
    group: str
    algorithm: str
    ell: int
    label: str
    call: Callable
    calls: int = 1  # timed calls every run makes of this cell, at least
    warmup: Callable = None  # cheaper stand-in for the untimed first call
    reference: object = None
    flops: tuple = None
    predicted: int = None
    error: float = None
    failed: bool = False

    @property
    def key(self):
        return f"{self.group}/{self.algorithm}/ell={self.ell}"


# --- set-up ------------------------------------------------------------------


def setup_large(seed):
    d, n, r = LARGE_SHAPE["d"], LARGE_SHAPE["n"], LARGE_SHAPE["r"]
    chain = hatt.rand_tt.uniform_chain(d, r)
    y = hatt.rand_tt.gaussian_tt((n,) * d, chain, seed=derive_seed(seed, 1, 1))
    z = hatt.rand_tt.gaussian_tt((n,) * d, chain, seed=derive_seed(seed, 1, 2))
    return {"y": y, "z": z}


def setup_hilbert(seed):
    h = hatt.apps.hilbert_tt(HILBERT_SHAPE["d"], HILBERT_SHAPE["n"], HILBERT_SHAPE["r"])
    dense = hatt.tt.tt_to_dense(h)
    return {"h": h, "oracle": hatt.dense.hadamard_dense(dense, dense)}


def setup_power(seed):
    out = {}
    for kind in POWER_KINDS:
        spec = hatt.apps.SeparableFunctionSpec(kind, POWER_SHAPE["d"], POWER_SHAPE["n"])
        peak, _ = hatt.dense.brute_force_max(hatt.apps.separable_dense(spec))
        out[kind] = {"f": hatt.apps.separable_tt(spec), "max": peak}
    return out


SETUP = {"large": setup_large, "hilbert": setup_hilbert, "power": setup_power}


# --- cells -------------------------------------------------------------------


def _recompress(algorithm, y, z, ell, seed, max_terms=None):
    def call():
        out, report = hatt.recompress.recompress_hadamard(
            algorithm, y, z, ell, seed=seed, max_terms=max_terms)
        return out, report

    return call


def cells_large(inputs, seed):
    ell = LARGE_SHAPE["ell"]
    sketch = derive_seed(seed, 2, 0)
    y, z = inputs["y"], inputs["z"]
    return [Cell("large", alg, ell, f"large/{alg}", _recompress(alg, y, z, ell, sketch),
                 calls=LARGE_CALLS.get(alg, 1))
            for alg in ("hatt-2", "hatt-1", "rand-orth")]


def cells_hilbert(inputs, seed):
    h = inputs["h"]
    cells = [Cell("hilbert", "tt-rounding", ell, f"hilbert/tt-rounding/ell={ell}",
                  _recompress("tt-rounding", h, h, ell, None), calls=ROUNDING_CALLS)
             for ell in HILBERT_TARGETS]
    # sketch-major order, so a series cycling through its cells alternates
    # between the targets
    for j in range(HILBERT_SKETCHES):
        for ell in HILBERT_TARGETS:
            sketch = derive_seed(seed, 3, ell, j)
            for alg in ("hatt-2", "hatt-1", "rand-orth"):
                call = _recompress(alg, h, h, ell, sketch, HILBERT_MAX_TERMS)
                cells.append(Cell("hilbert", alg, ell, f"hilbert/{alg}/ell={ell}/sketch={j}", call))
    return cells


def cells_power(inputs, seed):
    cells = []
    for k, kind in enumerate(POWER_KINDS):
        f = inputs[kind]["f"]
        sketch = derive_seed(seed, 4, k)

        def call(f=f, sketch=sketch):
            ledger = hatt.linalg.FlopLedger()
            result = hatt.apps.power_iteration_max(
                f, POWER_SHAPE["ell"], max_iter=POWER_SHAPE["max_iter"],
                recompressor="hatt-2", seed=sketch, ledger=ledger)
            return result, ledger

        def warmup(f=f, sketch=sketch):
            hatt.apps.power_iteration_max(f, POWER_SHAPE["ell"], max_iter=3,
                                          recompressor="hatt-2", seed=sketch)

        cells.append(Cell("power", kind, POWER_SHAPE["ell"], f"power/{kind}", call,
                          calls=POWER_CALLS, warmup=warmup))
    return cells


CELLS = {"large": cells_large, "hilbert": cells_hilbert, "power": cells_power}


def trace_round(cells):
    """The cells of one traced round: every cell except all but the first
    two sketch seeds of each Hilbert target."""
    return [c for c in cells if c.group != "hilbert" or c.algorithm == "tt-rounding"
            or c.label.endswith(("/sketch=0", "/sketch=1"))]


# --- checks ------------------------------------------------------------------


def flop_counts(ledger):
    return (ledger.matmul_flops, ledger.qr_flops, ledger.svd_flops)


def same_output(a, b):
    """Bit-for-bit equality of two TT tensors or two power-iteration results."""
    if isinstance(a, hatt.tt.TTTensor):
        return a.ranks == b.ranks and all(
            np.array_equal(ca.values, cb.values) for ca, cb in zip(a.cores, b.cores))
    return (a.estimate, a.iterations_used, a.history) == (b.estimate, b.iterations_used,
                                                          b.history)


def expected_ranks(y, z, ell):
    out = [1]
    for k in range(1, y.d):
        out.append(min(ell, y.ranks[k] * z.ranks[k], out[k - 1] * y.shape[k - 1]))
    return tuple(out + [1])


def check_first(cell, result, inputs):
    """Checks on a cell's first output; returns a list of problems."""
    out, extra = result
    problems = []
    if cell.group == "power":
        target = inputs[cell.algorithm]["max"]
        cell.error = abs(out.estimate - target) / abs(target)
        if not cell.error <= POWER_TOL:
            problems.append(f"estimate {out.estimate!r} off the maximum {target!r} "
                            f"by {cell.error:.3g} relative")
        return problems
    y, z = (inputs["y"], inputs["z"]) if cell.group == "large" else (inputs["h"], inputs["h"])
    want = expected_ranks(y, z, cell.ell)
    if out.ranks != want:
        problems.append(f"ranks {out.ranks}, expected {want}")
    defect = hatt.tt.left_orthogonality_defect(out)
    if not defect <= DEFECT_TOL:
        problems.append(f"left-orthogonality defect {defect:.3g}")
    if cell.algorithm in FLOP_GATED:
        cell.predicted = extra.flops_predicted
        ratio = extra.flops_measured.matmul_flops / extra.flops_predicted
        if not abs(ratio - 1.0) <= FLOP_MODEL_TOL:
            problems.append(f"matmul flops / flop model = {ratio:.3f}")
    if cell.group == "hilbert":
        cell.error = hatt.tt.relative_error(out, inputs["oracle"])
        if not (math.isfinite(cell.error) and cell.error > 0.0):
            problems.append(f"relative error {cell.error!r}")
    return problems


def relative_core_gap(a, b):
    """Largest per-core ||a_k - b_k|| / ||b_k||."""
    return max(float(np.linalg.norm(ca.values - cb.values) / np.linalg.norm(cb.values))
               for ca, cb in zip(a.cores, b.cores))


def check_equivalence(cells):
    """hatt-2 and hatt-1 against rand-orth on the large group (shared sketch);
    returns (cell, problem) pairs."""
    by_alg = {c.algorithm: c for c in cells if c.group == "large" and c.reference is not None}
    if "rand-orth" not in by_alg:
        return []
    problems = []
    for alg in ("hatt-2", "hatt-1"):
        if alg in by_alg:
            gap = relative_core_gap(by_alg[alg].reference, by_alg["rand-orth"].reference)
            if not gap <= EQUIVALENCE_TOL:
                problems.append((by_alg[alg], f"cores differ from rand-orth by {gap:.3g} relative"))
    return problems
