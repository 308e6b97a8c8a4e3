import csv

import pytest

from hatt.bench import CSV_COLUMNS
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
