"""Layered benchmark for Hadamard-product recompression.

Run from the repository root:

    python3 perfbench/run.py --workload hadamard-large --seed 1 --seconds 55 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run; both check every output.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment, sample counts and notes, and the same record (with the spans of
a traced run) is written to ``.perfbench_out/``.  See NOTES.md in this
directory for what each metric means and how the workloads were chosen.
"""

import argparse
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# workload -> groups it runs, the group its recompression timings and peaks
# come from, the share of the timed loop each (group, algorithm) gets, and
# the (group, algorithm) series that feed no timing metric and so are called
# for their checks and errors only (see Bench.measure)
WORKLOADS = {
    "hadamard-large": {
        "groups": ("large", "hilbert", "power"),
        "recompress_from": "large",
        "shares": {("large", "rand-orth"): 0.4, ("power", "qing"): 0.3, ("power", "alpine"): 0.3},
        "checked_only": {("hilbert", "hatt-2"), ("hilbert", "hatt-1"), ("hilbert", "rand-orth")},
    },
    "power-iter": {
        "groups": ("power", "hilbert"),
        "recompress_from": "hilbert",
        "shares": {("power", "qing"): 0.5, ("power", "alpine"): 0.5},
        "checked_only": set(),
    },
}

END_TO_END = {
    "hatt2_s": "s", "hatt2_tail_s": "s", "hatt1_s": "s", "rand_orth_s": "s",
    "tt_rounding_s": "s", "hatt2_peak_mib": "MiB", "rand_orth_peak_mib": "MiB",
    "hatt2_err": "rel", "hatt1_err": "rel", "rand_orth_err": "rel", "tt_rounding_err": "rel",
    "power_iter_s": "s", "power_iter_err": "rel", "setup_s": "s", "pass_frac": "ratio",
}

PER_LAYER = {
    "recompress.sketch_s": "s", "recompress.core_update_s": "s", "recompress.rank1_s": "s",
    "recompress.sweep_self_s": "s", "recompress.flops": "flop",
    "recompress.flop_model_ratio": "ratio",
    "linalg.matmul_s": "s", "linalg.matmul_calls": "count", "linalg.matmul_flops": "flop",
    "linalg.qr_s": "s", "linalg.qr_calls": "count", "linalg.qr_flops": "flop",
    "linalg.svd_s": "s", "linalg.svd_calls": "count", "linalg.svd_flops": "flop",
    "linalg.gflops": "GFLOP/s",
    "tt.materialize_s": "s", "tt.materialize_mib": "MiB", "tt.dot_s": "s",
    "tt.dot_calls": "count", "tt.core_init_s": "s", "tt.core_init_calls": "count",
    "tt.error_s": "s", "rand_tt.draw_s": "s", "rand_tt.draw_calls": "count",
    "apps.power_iter_self_s": "s", "apps.iterations": "count", "dense.oracle_s": "s",
    "trace.overhead_s": "s",
}

SETUP_REPS = 25
# Seconds the reference probe takes at the speed calibrated times are quoted
# at: its median on the 2-vCPU machine NOTES.md describes.
PROBE_REFERENCE_S = 0.0018
# Percentiles above 90 are left out: on a shared 2-vCPU machine they follow
# the neighbours' load (5-seed spread 0.18-0.28 at p95 on the hilbert group).
TAIL_LADDER = (90, 75, 50)
TAIL_BEYOND = 10
# rand_orth_s is the lower quartile, not the median.  The materialized
# product's large fresh arrays stall on the kernel's page faults in some
# calls (0.40 against 0.60 s on the large group), and the share of stalled
# calls changes from run to run: over five seeds the median spread 0.12 and
# the lower quartile 0.04.
RAND_ORTH_PERCENTILE = 25


def limit_blas_threads():
    """Run BLAS on one thread; must run before numpy loads.  Returns nproc.

    With two threads on a 2-vCPU machine, OpenBLAS's worker spins on the
    second vCPU between calls and the timings follow the host's load: on
    hadamard-large the 5-seed spread of hatt2_s was 0.16 with two threads
    and 0.08 with one, of rand_orth_s 0.38 and 0.25.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_package():
    """Import hatt from ROOT/src and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hatt

    if not Path(hatt.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hatt resolved to {hatt.__file__}, outside {src}")
    return hatt


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable"


def environment(np, nproc):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "clock": "time.perf_counter wall clock on a shared machine; end-to-end times are "
                 "calibrated against a reference probe (NOTES.md)",
        "unavailable": "hardware counters and cache control",
        "bytes": "peaks are tracemalloc peaks of the untimed warm-up calls; tt.materialize_mib is "
                 "computed from array sizes",
    }


class Probe:
    """A fixed piece of reference work, timed next to every timed call.

    The shared machine changes speed by up to 1.7x, for seconds to minutes at
    a time, and a whole run can sit in a slow stretch.  A timed call is
    divided by the mean of the probes just before and after it and multiplied
    by PROBE_REFERENCE_S, so it reads as the call's seconds at the reference
    speed.  The probe mixes the kinds of work hatt does: interpreter loops,
    small numpy and LAPACK calls, a BLAS matmul and fresh memory.  Its inputs
    are fixed, so no change to hatt can change its work.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.marks = []  # (start, seconds) of every probe
        self.small = rng.standard_normal((20, 20))
        self.tall = rng.standard_normal((40, 10))
        self.square = rng.standard_normal((150, 150))
        self.last = self.take()

    def work(self):
        np = self.np
        total = 0
        for i in range(5000):
            total += i * i
        for _ in range(10):
            self.small @ self.small
            np.linalg.qr(self.tall)
            np.einsum("ij,jk->ik", self.small, self.small)
        self.square @ self.square
        np.ones(2**19)

    def take(self):
        """Time the work once its data is back in cache: a large call
        before it would otherwise make the probe read slow."""
        self.work()
        start = time.perf_counter()
        self.work()
        self.last = time.perf_counter() - start
        self.marks.append((start, self.last))
        return self.last

    def calibrate(self, before, elapsed):
        """Calibrated seconds of a call made after the probe `before`;
        takes the probe after it."""
        return elapsed * 2 * PROBE_REFERENCE_S / (before + self.take())


def percentile(values, pct):
    """Inclusive `pct` percentile; the 50th is the median."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def gmean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Bench:
    """State of one run: inputs, cells, samples and the check tally."""

    def __init__(self, hatt, workloads, name, seed):
        self.hatt = hatt
        self.w = workloads
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.samples = defaultdict(list)  # calibrated seconds
        self.probe = Probe()
        # (key, start, wall seconds, index of the probe before) per sample
        self.records = []
        self.inputs = None
        self.cells = []

    # --- set-up ---

    def build(self):
        return {g: self.w.SETUP[g](self.seed) for g in self.spec["groups"]}

    def setup(self):
        """Build inputs and oracles SETUP_REPS times; median calibrated and
        median wall-clock seconds."""
        times, wall = [], []
        for _ in range(SETUP_REPS):
            before = self.probe.last
            start = time.perf_counter()
            self.inputs = self.build()
            wall.append(time.perf_counter() - start)
            times.append(self.probe.calibrate(before, wall[-1]))
        self.cells = [c for g in self.spec["groups"]
                      for c in self.w.CELLS[g](self.inputs[g], self.seed)]
        return statistics.median(times), statistics.median(wall)

    # --- calls ---

    def invoke(self, cell):
        """Call a cell; check its output; return seconds or None on failure."""
        try:
            start = time.perf_counter()
            result = cell.call()
            elapsed = time.perf_counter() - start
        except Exception:
            self.fail(cell, traceback.format_exc())
            return None
        out, extra = result
        ledger = extra if isinstance(extra, self.hatt.linalg.FlopLedger) else extra.flops_measured
        flops = self.w.flop_counts(ledger)
        if cell.reference is None:
            try:
                problems = self.w.check_first(cell, result, self.inputs[cell.group])
            except Exception:
                problems = [traceback.format_exc()]
            cell.reference, cell.flops = out, flops
            for p in problems:
                self.fail(cell, p)
        elif not self.w.same_output(out, cell.reference) or flops != cell.flops:
            self.fail(cell, "a repeated call changed the output or the flop counts")
        return elapsed

    def fail(self, cell, problem):
        cell.failed = True
        print(f"[perfbench] {cell.label}: {problem}", file=sys.stderr)

    def warm_up(self, cells, peaks=False):
        """One untimed call per timing key: its first cell's check call, or
        the cell's cheaper warm-up.  With `peaks`, the hatt-2 and rand-orth
        calls of the recompression group run under tracemalloc, and their
        peak MiB (the largest over the group's keys) is returned."""
        out = {"hatt-2": 0.0, "rand-orth": 0.0}
        seen = set()
        for cell in cells:
            if cell.key in seen:
                continue
            seen.add(cell.key)
            traced = (peaks and cell.algorithm in out
                      and cell.group == self.spec["recompress_from"])
            if cell.warmup is not None:
                cell.warmup()
            elif not traced:
                self.invoke(cell)
            else:
                tracemalloc.start()
                try:
                    self.invoke(cell)
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
                out[cell.algorithm] = max(out[cell.algorithm], peak)
        return out

    def measure(self, seconds):
        """Timed calls for `seconds`, interleaving every series.

        A series is one (group, algorithm); it cycles through its cells.
        Each series owes at least one round of its cells (each cell's
        `calls`), paid evenly over the run: a series that has made fewer
        than that share of them by the elapsed fraction of the run goes
        next.  Otherwise the workload's own series share the time by their
        shares.  Calls still owed at the end are made before returning.
        Every call of a timed series sits between two probes; a checked-only
        series is called without them and leaves no sample.
        """
        shares = self.spec["shares"]
        series = defaultdict(list)
        for cell in self.cells:
            series[cell.group, cell.algorithm].append(cell)
        owed = {s: sum(c.calls for c in cells) for s, cells in series.items()}
        done = dict.fromkeys(series, 0)
        spent = dict.fromkeys(series, 0.0)
        start = time.perf_counter()
        while True:
            frac = min((time.perf_counter() - start) / seconds, 1.0)
            behind = [s for s in series if done[s] < owed[s] * frac]
            if behind:
                s = min(behind, key=lambda s: done[s] / owed[s])
            elif frac < 1.0:
                s = min(shares, key=lambda s: spent[s] / shares[s])
            else:
                break
            cell = series[s][done[s] % len(series[s])]
            done[s] += 1
            began = time.perf_counter()
            if s in self.spec["checked_only"]:
                self.invoke(cell)
            else:
                before = self.probe.last
                elapsed = self.invoke(cell)
                calibrated = self.probe.calibrate(before, elapsed or 0.0)
                if elapsed is not None:
                    self.samples[cell.key].append(calibrated)
                    self.records.append((cell.key, began, elapsed, len(self.probe.marks) - 2))
            spent[s] += time.perf_counter() - began

    # --- metrics ---

    def keys(self, group, algorithms):
        return sorted({c.key for c in self.cells
                       if c.group == group and c.algorithm in algorithms})

    def percentile_s(self, samples, pct, group, *algorithms):
        """Geometric mean over the keys of each key's `pct` percentile."""
        return gmean(percentile(samples[k], pct) for k in self.keys(group, algorithms))

    def tail_s(self, samples, group, algorithm):
        """The highest TAIL_LADDER percentile with TAIL_BEYOND samples
        beyond it in every key; returns (seconds, percentile)."""
        keys = self.keys(group, (algorithm,))
        n = min(len(samples[k]) for k in keys)
        pct = next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= TAIL_BEYOND), 50)
        return self.percentile_s(samples, pct, group, algorithm), pct

    def error(self, group, *algorithms):
        return gmean(c.error for c in self.cells
                     if c.group == group and c.algorithm in algorithms)

    def check_equivalence(self):
        for cell, problem in self.w.check_equivalence(self.cells):
            self.fail(cell, problem)

    def tally(self):
        return len(self.cells), sum(c.failed for c in self.cells)


def timings(bench, samples):
    """The timing metrics, from calibrated or from wall-clock samples."""
    src = bench.spec["recompress_from"]
    tail, pct = bench.tail_s(samples, src, "hatt-2")
    return {
        "hatt2_s": bench.percentile_s(samples, 50, src, "hatt-2"),
        "hatt2_tail_s": tail,
        "hatt1_s": bench.percentile_s(samples, 50, src, "hatt-1"),
        "rand_orth_s": bench.percentile_s(samples, RAND_ORTH_PERCENTILE, src, "rand-orth"),
        "tt_rounding_s": bench.percentile_s(samples, 50, "hilbert", "tt-rounding"),
        "power_iter_s": bench.percentile_s(samples, 50, "power", "qing", "alpine"),
    }, pct


def run_untraced(bench, seconds):
    info = {}
    setup_s, setup_wall = bench.setup()
    start = time.perf_counter()
    peaks = bench.warm_up(bench.cells, peaks=True)
    info["warmup_s"] = time.perf_counter() - start
    bench.check_equivalence()
    bench.measure(seconds)

    metrics, pct = timings(bench, bench.samples)
    metrics.update({
        "hatt2_peak_mib": peaks["hatt-2"],
        "rand_orth_peak_mib": peaks["rand-orth"],
        "hatt2_err": bench.error("hilbert", "hatt-2"),
        "hatt1_err": bench.error("hilbert", "hatt-1"),
        "rand_orth_err": bench.error("hilbert", "rand-orth"),
        "tt_rounding_err": bench.error("hilbert", "tt-rounding"),
        "power_iter_err": bench.error("power", "qing", "alpine"),
        "setup_s": setup_s,
    })
    attempted, failed = bench.tally()
    metrics["pass_frac"] = 1.0 - failed / attempted
    info["hatt2_tail_percentile"] = pct
    info["samples"] = {k: len(v) for k, v in sorted(bench.samples.items())}
    wall = defaultdict(list)
    for key, _, elapsed, _ in bench.records:
        wall[key].append(elapsed)
    info["wall_clock_s"] = dict(timings(bench, wall)[0], setup_s=setup_wall)
    info["probe_median_s"] = statistics.median(m[1] for m in bench.probe.marks)
    return metrics, info, {"calibrated": dict(bench.samples), "records": bench.records,
                           "probes": bench.probe.marks}


def run_round(bench, cells, tracer=None):
    """One call of every cell (plus its oracle error); returns wall seconds
    and, when traced, (bench span index, measured seconds) per cell."""
    roots = []
    start = time.perf_counter()
    for cell in cells:
        if tracer is None:
            bench.invoke(cell)
        else:
            with tracer.span(cell.label, "bench"):
                root = len(tracer.spans) - 1
                roots.append((cell, root, bench.invoke(cell)))
        if cell.group == "hilbert":
            bench.hatt.tt.relative_error(cell.reference, bench.inputs["hilbert"]["oracle"])
    return time.perf_counter() - start, roots


def run_traced(bench, seconds):
    from tracing import Tracer, layer_totals

    bench.setup()
    setup_tracer = Tracer()
    setup_tracer.install(bench.hatt)
    try:
        bench.build()
    finally:
        setup_tracer.restore()
    cells = bench.w.trace_round(bench.cells)
    bench.cells = cells
    bench.warm_up(cells)
    for cell in cells:
        if cell.reference is None:
            bench.invoke(cell)
    bench.check_equivalence()

    tracer = Tracer()
    plain, traced, roots = [], [], []
    deadline = time.perf_counter() + seconds
    # stop before a pair of rounds would run past the deadline
    while not traced or time.perf_counter() + plain[-1] + traced[-1] < deadline:
        plain.append(run_round(bench, cells)[0])
        tracer.install(bench.hatt)
        try:
            wall, round_roots = run_round(bench, cells, tracer)
        finally:
            tracer.restore()
        traced.append(wall)
        roots.extend(round_roots)
    rounds = len(traced)

    totals = layer_totals(tracer)
    metrics = {}
    for name in PER_LAYER:
        value = totals[name] / rounds
        metrics[name] = round(value) if name.endswith(("_calls", "_flops")) else value
    busy = sum(totals[f"linalg.{k}_s"] for k in ("matmul", "qr", "svd"))
    work = sum(totals[f"linalg.{k}_flops"] for k in ("matmul", "qr", "svd"))
    metrics["linalg.gflops"] = work / busy / 1e9
    metrics["recompress.flops"] = sum(sum(c.flops) for c in cells)
    gated = [c for c in cells if c.predicted is not None]
    metrics["recompress.flop_model_ratio"] = (sum(c.flops[0] for c in gated)
                                              / sum(c.predicted for c in gated))
    power = [c.reference.iterations_used for c in cells if c.group == "power"]
    metrics["apps.iterations"] = sum(power) / len(power)
    metrics["dense.oracle_s"] = layer_totals(setup_tracer)["dense.oracle_s"]
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead

    # accounting: the layer self times under each traced hatt-2 call of the
    # recompression group add up to its measured time within the overhead
    src = bench.spec["recompress_from"]
    gaps = [elapsed - tracer.subtree_self_time(root) for cell, root, elapsed in roots
            if (cell.group, cell.algorithm) == (src, "hatt-2") and elapsed is not None]
    worst = max((abs(g) for g in gaps), default=0.0)
    if not worst <= abs(overhead):
        bench.fail(next(c for c, _, _ in roots if c.algorithm == "hatt-2"),
                   f"self times miss the measured hatt-2 time by {worst:.3g} s, more than "
                   f"the tracing overhead {overhead:.3g} s")
    info = {"rounds": rounds, "round_s_untraced": plain, "round_s_traced": traced,
            "hatt2_self_time_gap_s": worst, "spans": len(tracer.spans)}
    spans = [[name, layer, start, end, parent] for name, layer, start, end, parent, _
             in tracer.spans]
    return metrics, info, spans


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    nproc = limit_blas_threads()
    try:
        hatt = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the hatt package from src/: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    bench = Bench(hatt, workloads, args.workload, args.seed)
    runner = run_traced if args.trace else run_untraced
    metrics, info, detail = runner(bench, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed = bench.tally()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(np, nproc), "info": info,
              "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump(dict(record, **{"spans" if args.trace else "samples_s": detail}), fh)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
