import csv
import io

import numpy as np
import pytest

from hatt.bench import (
    CSV_COLUMNS,
    ResultRow,
    Scenario,
    flop_report,
    run_scenario,
    summarize,
    write_csv,
)
from hatt.cli import main


def small_example1(**kw):
    base = dict(name="example1", seeds=(0, 1), targets=(2, 4),
                algorithms=("tt-rounding", "hatt-2"), fourier_terms=4, d=4, n=6)
    base.update(kw)
    return Scenario(**base)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("example9")
    with pytest.raises(ValueError):
        Scenario("example1", seeds=(1, 1))
    with pytest.raises(ValueError):
        Scenario("example1", algorithms=("gradient-descent",))
    with pytest.raises(ValueError, match="at least one algorithm"):
        Scenario("example1", algorithms=())
    # int() would truncate these (seed 1, rank 2, target 2, cap 2), and a
    # fractional d would fail only inside the run
    for name, options in (("custom", dict(seeds=(1.5,))), ("custom", dict(ranks=(2.5,))),
                          ("custom", dict(targets=(2, 2.7))), ("custom", dict(d=3.5)),
                          ("custom", dict(n=float("inf"))), ("custom", dict(max_terms=1.5)),
                          ("custom", dict(dense_cap=2.5)), ("custom", dict(core_cap=1000.5)),
                          ("example1", dict(fourier_terms=4.5)),
                          ("example3", dict(max_iter=float("nan")))):
        with pytest.raises(ValueError, match="must be whole numbers"):
            Scenario(name, **options)
    config = Scenario("custom", seeds=(1.0,), ranks=(np.int64(2),), d=3.0, core_cap=None)
    assert (config.seeds, config.ranks, config.d, config.core_cap) == ((1,), (2,), 3, None)
    assert all(type(v) is int for v in config.seeds + config.ranks + (config.d,))


def test_example1_rows_complete():
    config = small_example1()
    rows = run_scenario(config)
    # every (algorithm, ell, seed) cell is present
    cells = {(r.algorithm, r.ell, r.seed) for r in rows}
    assert len(rows) == 2 * 2 * 2
    for alg in config.algorithms:
        for ell in config.targets:
            for seed in config.seeds:
                assert (alg, ell, seed) in cells
    assert all(r.rel_error is not None and r.rel_error >= 0 for r in rows)
    assert all(not r.capped for r in rows)


def test_example1_csv_roundtrip(tmp_path):
    rows = run_scenario(small_example1())
    path = tmp_path / "out.csv"
    text = write_csv(rows, path)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    with open(path, newline="") as fh:
        back = list(csv.reader(fh))
    assert back == [list(CSV_COLUMNS)] + [row.to_csv() for row in rows]


def test_example2_memory_cap_rows():
    config = Scenario("example2", seeds=(0,), ranks=(4, 12), targets=(3,),
                      d=4, n=5, core_cap=4000)
    rows = run_scenario(config)
    # 12^2 * 5 * 12^2 = 103680 > cap: baselines capped at r=12, hatt fine
    capped = {(r.algorithm, r.r) for r in rows if r.capped}
    completed = {(r.algorithm, r.r) for r in rows if not r.capped}
    assert ("tt-rounding", 12) in capped and ("rand-orth", 12) in capped
    assert ("hatt-1", 12) in completed and ("hatt-2", 12) in completed
    assert ("tt-rounding", 4) in completed
    # capped rows keep the predicted-flops column
    for row in rows:
        if row.capped:
            assert row.flops_predicted is not None and row.rel_error is None


def test_example2_flop_ratio_decreases():
    config = Scenario("example2", seeds=(0,), ranks=(4, 8), targets=(3,),
                      d=4, n=5, core_cap=None)
    rows = run_scenario(config)
    ratio = {}
    for r_val in (4, 8):
        meas = {
            row.algorithm: row.flops_measured
            for row in rows
            if row.r == r_val and not row.capped
        }
        ratio[r_val] = meas["hatt-2"] / meas["rand-orth"]
    assert ratio[8] < ratio[4]


def test_example2_deterministic_modulo_time():
    config = Scenario("example2", seeds=(0, 1), ranks=(4,), targets=(3,),
                      d=4, n=5, algorithms=("tt-rounding", "hatt-2"))
    a = run_scenario(config)
    b = run_scenario(config)

    def strip(rows):
        return [
            (r.scenario, r.algorithm, r.d, r.n, r.r, r.s, r.ell, r.seed,
             r.rel_error, r.flops_measured, r.flops_predicted, r.output_ranks)
            for r in rows
        ]

    assert strip(a) == strip(b)


def test_example3_oracle_error():
    config = Scenario("example3", seeds=(0,), d=3, n=8, targets=(4,),
                      algorithms=("tt-rounding", "hatt-2"), max_iter=100)
    rows = run_scenario(config)
    assert {r.scenario for r in rows} == {"example3-qing", "example3-alpine"}
    assert all(r.rel_error <= 1e-3 for r in rows)


def test_example3_reports_the_iterates_ranks():
    # d=3, n=2 fits ranks (2, 2) only, below the requested 5
    config = Scenario("example3", seeds=(0,), d=3, n=2, targets=(5,),
                      algorithms=("hatt-2",), max_iter=5)
    rows = run_scenario(config)
    assert [row.to_csv()[-1] for row in rows] == ["1-2-2-1"] * 2


def test_appendix_hilbert_rows():
    config = Scenario("appendixF", seeds=(0,), d=4, n=6, ranks=(8,),
                      targets=(3, 5), max_terms=5)
    rows = run_scenario(config)
    algs = {r.algorithm for r in rows}
    assert algs == {"hatt-1", "hatt-2"}
    for ell in (3, 5):
        pair = {r.algorithm: r for r in rows if r.ell == ell}
        assert set(pair) == {"hatt-1", "hatt-2"}


def test_run_custom_grid():
    config = Scenario("custom", seeds=(0,), d=3, n=4, ranks=(2, 3),
                      targets=(2,), algorithms=("hatt-2",))
    rows = run_scenario(config)
    assert {r.r for r in rows} == {2, 3}


def test_summarize_recomputes_exactly():
    rows = run_scenario(small_example1())
    entries = summarize(rows)
    for entry in entries:
        cell = [
            r for r in rows
            if (r.scenario, r.algorithm, r.ell) == (entry["scenario"], entry["algorithm"], entry["ell"])
        ]
        errs = [r.rel_error for r in cell]
        assert entry["err_mean"] == pytest.approx(float(np.mean(errs)))
        assert entry["err_std"] == pytest.approx(float(np.std(errs)))
        assert entry["cells"] == len(cell)
        if entry["algorithm"] != "tt-rounding":
            assert entry["speedup_vs_tt_rounding"] is not None


def test_flop_report_prints_the_first_completed_row_of_each_cell():
    cell, ranks = ("custom", "hatt-2", 4, 5, 3, 3, 2), (1, 2, 2, 2, 1)
    rows = [ResultRow(*cell, 0),  # capped
            ResultRow(*cell, 1, 0.1, 0.5, 0, 100, ranks),  # no measured flops
            ResultRow(*cell, 2, 0.1, 0.5, 150, 100, ranks),
            ResultRow(*cell, 3, 0.1, 0.5, 999, 100, ranks),  # the same cell again
            ResultRow("custom", "tt-rounding", 4, 5, 3, 3, 2, 0, 0.1, 0.5, 80, 0, ranks)]
    header, *lines = flop_report(rows).splitlines()
    assert header.split() == ["scenario", "algorithm", "r", "ell", "measured", "predicted",
                              "ratio"]
    assert [line.split() for line in lines] == [
        ["custom", "hatt-2", "3", "2", "150", "100", "1.50"],
        ["custom", "tt-rounding", "3", "2", "80", "0", "nan"]]


def test_result_row_parse_nan_free(tmp_path):
    row = ResultRow("example2", "tt-rounding", 4, 5, 12, 12, 3, 0,
                    flops_predicted=123)
    assert row.capped
    text = write_csv([row], None)
    assert "nan" not in text.lower()
    header, back = csv.reader(io.StringIO(text))
    assert header == list(CSV_COLUMNS)
    assert back[:8] == ["example2", "tt-rounding", "4", "5", "12", "12", "3", "0"]
    # rel_error, wall_time_s, flops_measured, flops_predicted, output_ranks
    assert back[8:] == ["", "", "", "123", "capped"]


def test_run_scenario_dispatch_and_dense_cap():
    config = Scenario("custom", seeds=(0,), d=3, n=4, ranks=(2,),
                      targets=(2,), algorithms=("hatt-2",), dense_cap=10_000)
    rows = run_scenario(config)
    assert rows and not any(r.capped for r in rows)


def test_pairs_past_the_dense_cap_take_a_tt_reference(tmp_path):
    """custom d=4, n=5 has 625 elements: under a dense cap of 100 every row
    still runs, and its error comes through the TT norm of the difference."""
    argv = ["--scenario", "custom", "--seeds", "0", "--ranks", "2,3"]
    assert main(argv + ["--dense-cap", "100", "--out", str(tmp_path / "capped.csv")]) == 0
    assert main(argv + ["--out", str(tmp_path / "free.csv")]) == 0
    capped, free = (list(csv.DictReader((tmp_path / f"{name}.csv").read_text().splitlines()))
                    for name in ("capped", "free"))
    assert len(capped) == len(free) == 8
    for a, b in zip(capped, free):
        assert a["output_ranks"] == b["output_ranks"] != "capped"
        assert float(a["rel_error"]) == pytest.approx(float(b["rel_error"]), rel=1e-8)


@pytest.mark.parametrize("core_cap", [100, 500])
def test_rel_error_is_empty_past_the_dense_and_core_caps(core_cap):
    """hatt runs under both caps, but its error does not: at 100 the 9 x 5 x 9
    product cores exceed the core cap, at 500 the 11 x 5 x 11 cores of the
    output minus the product do."""
    config = Scenario("custom", seeds=(0,), ranks=(3,), algorithms=("hatt-2",),
                      dense_cap=100, core_cap=core_cap)
    (row,) = run_scenario(config)
    assert row.output_ranks is not None and row.rel_error is None
