"""Self-tests of the benchmark itself.

Run from the repository root (takes about two minutes):

    python3 perfbench/selftest.py

Checks that the metric names and units the benchmark prints match
BENCHMARK.json, that one workload seed repeats the error metrics, flop
counts and iteration counts exactly, and that another seed changes the
sketch draws and the random inputs but not their shapes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's own module, imported from HERE)

EXACT_END_TO_END = ("hatt2_err", "hatt1_err", "rand_orth_err", "tt_rounding_err",
                    "power_iter_err", "hatt2_peak_mib", "rand_orth_peak_mib", "pass_frac")
EXACT_PER_LAYER = ("recompress.flops", "recompress.flop_model_ratio", "linalg.matmul_calls",
                   "linalg.matmul_flops", "linalg.qr_calls", "linalg.qr_flops",
                   "linalg.svd_calls", "linalg.svd_flops", "tt.materialize_mib",
                   "tt.dot_calls", "tt.core_init_calls", "rand_tt.draw_calls",
                   "apps.iterations")


def bench(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return result["metrics"]


def check_names(spec, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        printed = {k: v["unit"] for k, v in bench(workload, 1, trace).items()}
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert printed == declared, (section, printed, declared)
    print(f"PASS names and units match BENCHMARK.json ({workload})")


def check_repeatable(workload):
    for trace, names in ((0, EXACT_END_TO_END), (1, EXACT_PER_LAYER)):
        first, second = bench(workload, 7, trace), bench(workload, 7, trace)
        for name in names:
            assert first[name]["value"] == second[name]["value"], (name, first[name],
                                                                     second[name])
    print(f"PASS seed 7 repeats errors, flop counts and iterations exactly ({workload})")


def check_seed_changes_draws():
    run.limit_blas_threads()
    hatt = run.import_package()
    import numpy as np

    import workloads

    a, b = workloads.setup_large(1), workloads.setup_large(2)
    for x, y in ((a["y"], b["y"]), (a["z"], b["z"])):
        assert x.shape == y.shape and x.ranks == y.ranks
        assert not np.array_equal(x.cores[0].values, y.cores[0].values)
    hilbert = workloads.setup_hilbert(0)
    cells = [next(c for c in workloads.cells_hilbert(hilbert, seed) if c.algorithm == "hatt-2")
             for seed in (1, 2)]
    outs = [cell.call()[0] for cell in cells]
    assert outs[0].ranks == outs[1].ranks
    assert not all(np.array_equal(p.values, q.values)
                   for p, q in zip(outs[0].cores, outs[1].cores))
    sketches = [hatt.recompress._draw_sketch_tensor((8,) * 5, (1, 4, 4, 4, 4, 1),
                                                    workloads.derive_seed(seed, 3, 4, 0))
                for seed in (1, 2)]
    assert [c.values.shape for c in sketches[0].cores] == [c.values.shape
                                                            for c in sketches[1].cores]
    assert not np.array_equal(sketches[0].cores[1].values, sketches[1].cores[1].values)
    print("PASS another seed changes sketch draws and random inputs, not shapes")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    check_names(spec, "power-iter")
    check_repeatable("power-iter")
    check_seed_changes_draws()
    return 0


if __name__ == "__main__":
    sys.exit(main())
