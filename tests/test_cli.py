import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hatt.bench import _READ_BY, CSV_COLUMNS, SCENARIOS
from hatt import cli
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


def run_module(*args):
    """`python -m hatt` in a subprocess, against the package in src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hatt", *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_the_module_entry_point_runs():
    # the in-process tests call cli.main; this runs __main__.py itself
    proc = run_module("--scenario", "custom", "--seeds", "0", "--algorithms", "hatt-2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert run_module("--scenario", "custom", "--ranks", "0").returncode == 2


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


def test_non_integer_list_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli_parse(["--scenario", "example1", "--seeds", "1,x"])
    assert err.value.code == 2
    assert "expected comma-separated integers, got '1,x'" in capsys.readouterr().err


def refuse_with_value_error(config):
    raise ValueError("the recompressed tensor overflows float64")


@pytest.mark.parametrize("argv, run, code, message", (
    # 8^7 = 2,097,152 sampled points, past the default dense cap
    (["--scenario", "example1", "--d", "7", "--n", "8"], None, 1, "dense cap"),
    (["--scenario", "custom"], refuse_with_value_error, 2, "overflows float64"),
), ids=("resource-limit", "value-error"))
def test_errors_of_the_run_exit_with_their_codes(argv, run, code, message, monkeypatch,
                                                  capsys):
    if run is not None:
        monkeypatch.setattr(cli, "run_scenario", run)
    assert main(argv + ["--seeds", "0"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err


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
    ["--scenario", "custom", "--dense-cap", "-5"],
    ["--scenario", "custom", "--core-cap", "0"],
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
], ids=lambda argv: " ".join(argv[1:]))
def test_options_a_scenario_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "does not read" in capsys.readouterr().err


# Per scenario: options, then the (algorithm, r, ell) cells that must
# complete and those that must be capped.
OPTION_CASES = {
    "example1": ("--d 3 --n 4 --targets 2,3 --fourier-terms 2 --algorithms hatt-2",
                 {("hatt-2", 4, 2), ("hatt-2", 4, 3)}, set()),
    "example2": ("--d 3 --n 4 --ranks 2 --targets 2,3 --algorithms hatt-2",
                 {("hatt-2", 2, 2), ("hatt-2", 2, 3)}, set()),
    "example3": ("--d 3 --n 5 --targets 2,3 --algorithms tt-rounding,hatt-2 --max-iter 5"
                 " --core-cap 150",
                 {("hatt-2", 3, 2), ("hatt-2", 3, 3)},
                 {("tt-rounding", 3, 2), ("tt-rounding", 3, 3)}),
    "appendixF": ("--d 3 --n 4 --ranks 2,3 --targets 2 --algorithms hatt-2",
                  {("hatt-2", 2, 2), ("hatt-2", 3, 2)}, set()),
    "custom": ("--d 4 --n 5 --ranks 2,12 --targets 3 --core-cap 4000",
               {(alg, 2, 3) for alg in ("tt-rounding", "rand-orth", "hatt-1", "hatt-2")}
               | {("hatt-1", 12, 3), ("hatt-2", 12, 3)},
               {("tt-rounding", 12, 3), ("rand-orth", 12, 3)}),
}


@pytest.mark.parametrize("scenario", list(OPTION_CASES))
def test_every_accepted_option_acts(scenario, tmp_path):
    """Each option a scenario accepts shapes its rows: every target, rank
    and algorithm runs, the core cap marks the materializing baselines (in
    the power iteration too), and a second run repeats every row."""
    options, completed, capped = OPTION_CASES[scenario]
    argv = ["--scenario", scenario, "--seeds", "0", "--out", str(tmp_path / "rows.csv")]
    argv += options.split()
    code = main(argv)
    assert code == (3 if capped else 0)
    rows = read_rows(tmp_path / "rows.csv")
    cells = {(r["algorithm"], int(r["r"]), int(r["ell"])): r["output_ranks"] for r in rows}
    assert {c for c, ranks in cells.items() if ranks != "capped"} == completed
    assert {c for c, ranks in cells.items() if ranks == "capped"} == capped
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
    assert len(options) == 11
    for option, *cells in options:
        field = option.strip("`").split()[0].removeprefix("--").replace("-", "_")
        readers = _READ_BY.get(field, SCENARIOS)
        assert [cell != "-" for cell in cells] == [name in readers for name in SCENARIOS], option
