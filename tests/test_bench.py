import csv
import io

import numpy as np
import pytest

from hatt.bench import (
    CSV_COLUMNS,
    ResultRow,
    Scenario,
    run_scenario,
    summarize,
    write_csv,
)


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


def test_example1_fixture_files(tmp_path):
    config = small_example1(fixtures=str(tmp_path))
    rows_a = run_scenario(config)
    assert (tmp_path / "example1_y.tt").exists()
    rows_b = run_scenario(config)  # second run loads the fixtures

    def key(rows):
        return [(r.algorithm, r.ell, r.seed, r.rel_error) for r in rows]

    assert key(rows_a) == key(rows_b)
