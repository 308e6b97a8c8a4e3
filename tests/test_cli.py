import csv
from pathlib import Path

import pytest

from hatt.bench import _READ_BY, CSV_COLUMNS, SCENARIOS
from hatt.cli import cli_parse, main


def read_rows(path):
    """The data rows of a written CSV file, after checking its header."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(CSV_COLUMNS)
    return [dict(zip(CSV_COLUMNS, fields)) for fields in rows]


def test_parse_basic():
    config = cli_parse(["--scenario", "example1", "--seeds", "1,2,3"])
    assert config.name == "example1"
    assert config.seeds == (1, 2, 3)


def test_parse_defaults_to_stdout():
    config = cli_parse(["--scenario", "example2"])
    assert config.out is None
    assert config.seeds == (0, 1, 2, 3, 4)


def test_parse_scenario_alias():
    config = cli_parse(["--scenario", "hilbert"])
    assert config.name == "appendixF"


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as err:
        cli_parse(["--scenario", "example1", "--frobnicate"])
    assert err.value.code == 2


def test_unknown_scenario_usage_error():
    with pytest.raises(SystemExit) as err:
        cli_parse(["--scenario", "example7"])
    assert err.value.code == 2


def test_duplicate_seeds_usage_error():
    with pytest.raises(SystemExit) as err:
        cli_parse(["--scenario", "example1", "--seeds", "1,1"])
    assert err.value.code == 2


def test_main_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main([
        "--scenario", "custom", "--seeds", "0", "--algorithms", "hatt-2",
        "--d", "3", "--n", "4", "--ranks", "2", "--targets", "2",
        "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 1 and rows[0]["algorithm"] == "hatt-2"
    summary = capsys.readouterr().err
    assert "hatt-2" in summary


def test_main_stdout_when_no_out(capsys):
    code = main([
        "--scenario", "custom", "--seeds", "0", "--algorithms", "hatt-2",
        "--d", "3", "--n", "4", "--ranks", "2", "--targets", "2",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("scenario,algorithm,")


def test_main_capped_exit_code(tmp_path):
    out = tmp_path / "rows.csv"
    code = main([
        "--scenario", "example2", "--seeds", "0", "--d", "4", "--n", "5",
        "--ranks", "4,12", "--targets", "3", "--core-cap", "4000",
        "--out", str(out),
    ])
    assert code == 3
    rows = read_rows(out)
    assert any(r["output_ranks"] == "capped" for r in rows)


def test_main_strict_exit_code(tmp_path):
    out = tmp_path / "rows.csv"
    code = main([
        "--scenario", "example2", "--seeds", "0", "--d", "4", "--n", "5",
        "--ranks", "4,12", "--targets", "3", "--core-cap", "4000",
        "--strict", "--out", str(out),
    ])
    assert code == 1


def test_main_flop_report(capsys):
    code = main([
        "--scenario", "custom", "--seeds", "0", "--algorithms", "hatt-2",
        "--d", "3", "--n", "4", "--ranks", "2", "--targets", "2",
        "--flop-report",
    ])
    assert code == 0
    assert "predicted" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--scenario", "custom", "--d", "0"],
    ["--scenario", "custom", "--n", "0"],
    ["--scenario", "custom", "--targets", "0"],
    ["--scenario", "custom", "--targets", ""],
    ["--scenario", "custom", "--ranks", "0"],
    ["--scenario", "custom", "--seeds", "-1"],
    ["--scenario", "custom", "--max-terms", "0"],
    ["--scenario", "example3", "--max-iter", "0"],
    ["--scenario", "example3", "--n", "1"],
    ["--scenario", "example1", "--fourier-terms", "0"],
], ids=lambda argv: " ".join(argv[1:]))
def test_bad_grid_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--seeds", "0"] * ("--seeds" not in argv))
    assert err.value.code == 2
    assert ">=" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--scenario", "example1", "--ranks", "3"],
    ["--scenario", "example3", "--ranks", "3"],
    ["--scenario", "custom", "--max-iter", "5"],
    ["--scenario", "example2", "--fourier-terms", "4"],
    ["--scenario", "example3", "--fixtures", "unused"],
], ids=lambda argv: " ".join(argv[1:]))
def test_options_a_scenario_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "does not read" in capsys.readouterr().err


# Per scenario: options, then the (algorithm, r, ell) cells that must
# complete, those that must be capped, and the number of saved input pairs.
OPTION_CASES = {
    "example1": ("--d 3 --n 4 --targets 2,3 --fourier-terms 2 --algorithms hatt-2",
                 {("hatt-2", 4, 2), ("hatt-2", 4, 3)}, set(), 1),
    "example2": ("--d 3 --n 4 --ranks 2 --targets 2,3 --algorithms hatt-2",
                 {("hatt-2", 2, 2), ("hatt-2", 2, 3)}, set(), 1),
    "example3": ("--d 3 --n 5 --targets 2,3 --algorithms tt-rounding,hatt-2 --max-iter 5"
                 " --core-cap 150",
                 {("hatt-2", 3, 2), ("hatt-2", 3, 3)},
                 {("tt-rounding", 3, 2), ("tt-rounding", 3, 3)}, 0),
    "appendixF": ("--d 3 --n 4 --ranks 2,3 --targets 2 --algorithms hatt-2",
                  {("hatt-2", 2, 2), ("hatt-2", 3, 2)}, set(), 2),
    "custom": ("--d 4 --n 5 --ranks 2,12 --targets 3 --core-cap 4000",
               {(alg, 2, 3) for alg in ("tt-rounding", "rand-orth", "hatt-1", "hatt-2")}
               | {("hatt-1", 12, 3), ("hatt-2", 12, 3)},
               {("tt-rounding", 12, 3), ("rand-orth", 12, 3)}, 2),
}


@pytest.mark.parametrize("scenario", list(OPTION_CASES))
def test_every_accepted_option_acts(scenario, tmp_path):
    """Each option a scenario accepts shapes its rows: every target, rank
    and algorithm runs, the core cap marks the materializing baselines (in
    the power iteration too), and --fixtures saves one .tt pair per input
    pair."""
    options, completed, capped, pairs = OPTION_CASES[scenario]
    argv = ["--scenario", scenario, "--seeds", "0", "--out", str(tmp_path / "rows.csv")]
    argv += options.split()
    if pairs:
        argv += ["--fixtures", str(tmp_path / "fx")]
    code = main(argv)
    assert code == (3 if capped else 0)
    rows = read_rows(tmp_path / "rows.csv")
    cells = {(r["algorithm"], int(r["r"]), int(r["ell"])): r["output_ranks"] for r in rows}
    assert {c for c, ranks in cells.items() if ranks != "capped"} == completed
    assert {c for c, ranks in cells.items() if ranks == "capped"} == capped
    assert len(list(tmp_path.glob("fx/*_y.tt"))) == pairs
    assert len(list(tmp_path.glob("fx/*_z.tt"))) == pairs
    if pairs:  # a second run reloads the saved pairs and repeats every row
        assert main(argv) == code
        again = read_rows(tmp_path / "rows.csv")
        for row in rows + again:
            del row["wall_time_s"]
        assert again == rows


def test_readme_option_table_matches_the_scenarios():
    """The README's scenario x option table puts a dash exactly where a
    scenario rejects the option."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in readme.splitlines() if line.startswith(("| option |", "| `--"))]
    header, *options = rows
    assert tuple(header[1:]) == SCENARIOS
    assert len(options) == 12
    for option, *cells in options:
        field = option.strip("`").split()[0].removeprefix("--").replace("-", "_")
        readers = _READ_BY.get(field, SCENARIOS)
        assert [cell != "-" for cell in cells] == [name in readers for name in SCENARIOS], option


def test_fixtures_of_another_shape_are_an_error(tmp_path, capsys):
    """A --fixtures directory saved at d=4 does not stand in for a d=3 run."""
    fixtures = str(tmp_path / "fx")
    base = ["--scenario", "example1", "--seeds", "0", "--targets", "2", "--algorithms",
            "hatt-2", "--fourier-terms", "3", "--n", "4", "--fixtures", fixtures,
            "--out", str(tmp_path / "rows.csv")]
    assert main(base + ["--d", "4"]) == 0
    capsys.readouterr()
    assert main(base + ["--d", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fixture ")
    assert "example1_y.tt has shape (4, 4, 4, 4), but this run builds shape (4, 4, 4)\n" in err


def test_fixtures_of_another_pair_are_an_error(tmp_path, capsys):
    """At n=4 the pairs of 3 and 5 Fourier terms share shape and ranks; the
    saved pair of 3 terms still does not stand in for a 5-term run."""
    fixtures = str(tmp_path / "fx")
    base = ["--scenario", "example1", "--d", "3", "--n", "4", "--seeds", "0", "--targets",
            "2", "--algorithms", "hatt-2", "--fixtures", fixtures,
            "--out", str(tmp_path / "rows.csv")]
    assert main(base + ["--fourier-terms", "3"]) == 0
    capsys.readouterr()
    assert main(base + ["--fourier-terms", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fixture ")
    assert "example1_y.tt differs from the tensor this run builds" in err
