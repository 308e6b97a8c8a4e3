"""Output digest of the benchmark's computations, SHA-256 lines per group.

Run from the repository root:

    PYTHONPATH=src python tests/digest.py > saved.txt
    PYTHONPATH=src python tests/digest.py --against saved.txt

The first form prints every line.  With ``--against FILE`` (the output of
an earlier run, of this tree or another) it prints only the lines that
differ from that file, as ``- name hash`` for the saved line and
``+ name hash`` for this run's, and exits with status 1 if there is any;
a line present on one side only is printed alone.

Each line is ``group/values sha256``, ``group/flops sha256`` or
``group/rows sha256``.  The first hash covers the outputs of every run in
the group: the ranks and float64 bytes of each output core, or a power
iteration's estimate, history, iteration count and ranks.  The second
covers the flop ledger's three counters of those runs (a group that
charges no ledger has no such line).  Two trees that print the same line
compute the same values, or charge the same flops, bit for bit; the two
are kept apart so that a change of bookkeeping shows apart from a change
of values.  The groups follow perfbench's workloads, example 1's Fourier
pair and two ``hatt-bench`` scenarios:

* ``large/hatt-2``, ``large/hatt-1``, ``large/rand-orth``: gaussian factors
  with d=10, n=32, r=s=20 (product rank 400) at target 10, sketch seeds 7-9;
* ``hilbert/tt-rounding``: hilbert_tt(5, 8, 20) squared at targets 4 and 8;
* ``hilbert/hatt-2``, ``hilbert/hatt-1`` (max_terms=5), ``hilbert/rand-orth``:
  the same product and targets, 16 sketch seeds each;
* ``power/qing``, ``power/alpine``: power_iteration_max with the hatt-2
  backend on d=6, n=10 at target 8, 100 iterations;
* ``fourier/tt-svd``: the ranks and cores of fourier_tt((8,)*5, 12, seed=0),
  which tt_svd builds (values only);
* ``fourier/hatt-2``, ``fourier/hatt-1`` (max_terms=5),
  ``fourier/tt-rounding``: that pair's product at target 4, sketch seeds
  0-3;
* ``bench/example1``, ``bench/appendixF``: the CSV rows ``hatt-bench``
  writes for that scenario at seeds 0-1 and its default grid, each without
  its ``wall_time_s`` field (the third kind of line);
* the TT layer, values only: ``tt/add``, tt_add of gaussian pairs with
  ranks 3 and 2 at d = 1, 2 and 4; ``tt/separable``, separable_tt of qing
  and alpine (n=10) at d = 1, 3 and 6; ``tt/svd``, tt_svd of a seeded
  1-way array (at a target and at a tolerance) and of a 3-way one (the
  same); ``tt/relative-error``, relative_error of gaussian pairs through
  its TT path (``dense_limit(1)``); ``tt/inner``, tt_dot, tt_hadamard_dot
  and tt_norm of gaussian trains.

This file has no ``test_`` prefix, so pytest does not collect it.
"""

import argparse
import hashlib
import sys

import numpy as np

from hatt import (
    FlopLedger,
    SeparableFunctionSpec,
    dense_limit,
    fourier_tt,
    gaussian_tt,
    hilbert_tt,
    power_iteration_max,
    recompress_hadamard,
    relative_error,
    separable_tt,
    tt_add,
    tt_dot,
    tt_hadamard_dot,
    tt_norm,
    tt_svd,
    uniform_chain,
)
from hatt.bench import CSV_COLUMNS, Scenario, run_scenario

LARGE_SEEDS = (7, 8, 9)
HILBERT_TARGETS = (4, 8)
HILBERT_SKETCHES = 16
HATT1_MAX_TERMS = 5
FOURIER_SHAPE = (8,) * 5
FOURIER_TERMS = 12
FOURIER_TARGET = 4
FOURIER_SEEDS = range(4)
BENCH_SCENARIOS = ("example1", "appendixF")
BENCH_SEEDS = (0, 1)
TT_ORDERS = (1, 2, 4)
SEPARABLE_ORDERS = (1, 3, 6)


class Digest:
    """The two hashes of one group."""

    def __init__(self):
        self.values, self.flops = hashlib.sha256(), hashlib.sha256()

    def add(self, arrays, ledger=None):
        for a in arrays:
            self.values.update(np.ascontiguousarray(a).tobytes())
        if ledger is not None:
            self.flops.update(np.array([ledger.matmul_flops, ledger.qr_flops, ledger.svd_flops],
                                       dtype=np.int64).tobytes())

    def train(self, x, ledger=None):
        self.add([np.array(x.ranks, dtype=np.int64)] + [c.values for c in x.cores], ledger)

    def recompress(self, algorithm, y, z, ell, seeds, max_terms=None):
        for seed in seeds:
            out, report = recompress_hadamard(algorithm, y, z, ell, seed=seed,
                                              max_terms=max_terms)
            self.train(out, report.flops_measured)

    def lines(self, group):
        return [(f"{group}/values", self.values.hexdigest()),
                (f"{group}/flops", self.flops.hexdigest())]


def groups():
    y, z = (gaussian_tt((32,) * 10, uniform_chain(10, 20), seed=s) for s in (1, 2))
    for alg in ("hatt-2", "hatt-1", "rand-orth"):
        digest = Digest()
        digest.recompress(alg, y, z, 10, LARGE_SEEDS)
        yield from digest.lines(f"large/{alg}")
    h = hilbert_tt(5, 8, 20)
    for alg in ("tt-rounding", "hatt-2", "hatt-1", "rand-orth"):
        seeds = (None,) if alg == "tt-rounding" else range(HILBERT_SKETCHES)
        digest = Digest()
        for ell in HILBERT_TARGETS:
            digest.recompress(alg, h, h, ell, seeds, HATT1_MAX_TERMS)
        yield from digest.lines(f"hilbert/{alg}")
    for k, kind in enumerate(("qing", "alpine")):
        ledger = FlopLedger()
        result = power_iteration_max(separable_tt(SeparableFunctionSpec(kind, 6, 10)), 8,
                                     max_iter=100, recompressor="hatt-2", seed=k, ledger=ledger)
        digest = Digest()
        digest.add([np.array([result.estimate] + result.history),
                    np.array((result.iterations_used,) + result.ranks, dtype=np.int64)], ledger)
        yield from digest.lines(f"power/{kind}")
    pair = fourier_tt(FOURIER_SHAPE, FOURIER_TERMS, seed=0)
    digest = Digest()
    for x in pair:
        digest.train(x)
    yield digest.lines("fourier/tt-svd")[0]  # tt_svd charges no ledger
    for alg in ("hatt-2", "hatt-1", "tt-rounding"):
        seeds = (None,) if alg == "tt-rounding" else FOURIER_SEEDS
        digest = Digest()
        digest.recompress(alg, *pair, FOURIER_TARGET, seeds, HATT1_MAX_TERMS)
        yield from digest.lines(f"fourier/{alg}")
    timed = CSV_COLUMNS.index("wall_time_s")
    for name in BENCH_SCENARIOS:
        rows = hashlib.sha256()
        for row in run_scenario(Scenario(name, seeds=BENCH_SEEDS)):
            fields = row.to_csv()
            del fields[timed]
            rows.update((",".join(fields) + "\n").encode())
        yield f"bench/{name}/rows", rows.hexdigest()
    yield from tt_groups()


def tt_groups():
    """The ``tt/*`` lines: plain TT arithmetic, which charges no ledger."""
    pairs = [[gaussian_tt((5,) * d, uniform_chain(d, r), seed=10 * d + r) for r in (3, 2)]
             for d in TT_ORDERS]
    digest = Digest()
    for y, z in pairs:
        digest.train(tt_add(y, z))
    yield digest.lines("tt/add")[0]
    digest = Digest()
    for kind in ("qing", "alpine"):
        for d in SEPARABLE_ORDERS:
            digest.train(separable_tt(SeparableFunctionSpec(kind, d, 10)))
    yield digest.lines("tt/separable")[0]
    rng = np.random.default_rng(5)
    digest = Digest()
    for x in (rng.normal(size=12), rng.normal(size=(6, 5, 4))):
        digest.train(tt_svd(x, targets=3))
        digest.train(tt_svd(x, rel_tol=0.3))
    yield digest.lines("tt/svd")[0]
    digest = Digest()
    with dense_limit(1):
        digest.add([np.array([relative_error(y, z) for y, z in pairs[1:]])])
    yield digest.lines("tt/relative-error")[0]
    digest = Digest()
    for y, z in pairs:
        digest.add([np.array([tt_dot(y, z), tt_hadamard_dot(y, y, z), tt_hadamard_dot(z, y, z),
                              tt_norm(y), tt_norm(z)])])
    yield digest.lines("tt/inner")[0]


def differences(lines, saved):
    """The diff lines between this run's (name, hash) `lines` and the
    `saved` text of an earlier run, in this run's order, then the saved
    names this run did not print."""
    before = dict(line.split() for line in saved.splitlines() if line.strip())
    out = []
    for name, value in lines:
        old = before.pop(name, None)
        if old != value:
            if old is not None:
                out.append(f"- {name} {old}")
            out.append(f"+ {name} {value}")
    return out + [f"- {name} {value}" for name, value in before.items()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="print only the lines that differ from FILE, a saved run")
    args = parser.parse_args(argv)
    if args.against is None:
        for name, value in groups():
            print(name, value, flush=True)
        return 0
    with open(args.against) as f:
        diff = differences(groups(), f.read())
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
