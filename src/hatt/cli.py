"""Command-line benchmark harness.

Runs a scenario, writes the fixed-schema CSV (to --out or stdout) and prints
a per-cell summary with speedups against tt-rounding.  Exit code 0 means
every cell completed, 3 flags resource-capped cells (1 under --strict), and
usage errors, bad grid values and a ValueError of the run (a --fixtures pair
that differs from the one the run builds) included, exit with 2.
"""

import argparse
import sys

from .bench import (
    _DEFAULTS, _READ_BY, SCENARIOS, Scenario, flop_report, format_summary, run_scenario,
    summarize, write_csv,
)
from .limits import ResourceLimitError
from .recompress import ALGORITHMS

_SCENARIO_ALIASES = {"hilbert": "appendixF"}


def _int_list(text):
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _help(text, field):
    """`text`, then the scenarios that read `field` and their defaults for it."""
    readers = ", ".join(_READ_BY.get(field, ("all scenarios",)))
    defaults = ", ".join(
        f"{name} {','.join(map(str, value)) if isinstance(value, tuple) else value}"
        for name, grid in _DEFAULTS.items() if (value := grid.get(field)) is not None
    )
    return f"{text} ({readers}; default {defaults})" if defaults else f"{text} ({readers})"


def build_parser():
    # an option left out stays out of the namespace and takes the Scenario default
    parser = argparse.ArgumentParser(
        prog="hatt-bench", argument_default=argparse.SUPPRESS,
        description="Benchmark TT Hadamard-product recompression algorithms.",
    )
    add = parser.add_argument
    add("--scenario", dest="name", required=True, choices=SCENARIOS,
        type=lambda name: _SCENARIO_ALIASES.get(name, name),
        help="which experiment to run (hilbert is an alias of appendixF)")
    add("--seeds", type=_int_list,
        help="comma-separated distinct seeds >= 0 (all scenarios; default 0,1,2,3,4)")
    add("--algorithms", type=lambda text: tuple(a.strip() for a in text.split(",") if a.strip()),
        help=_help(f"comma-separated subset of {','.join(ALGORITHMS)}, else all", "algorithms"))
    add("--out", help="CSV output path (default: standard output)")
    add("--d", type=int, help=_help("tensor order", "d"))
    add("--n", type=int, help=_help("mode size", "n"))
    add("--ranks", type=_int_list, help=_help("input rank sweep", "ranks"))
    add("--targets", type=_int_list, help=_help("target rank sweep", "targets"))
    add("--max-terms", type=int, help=_help("rank-1 terms kept per sketch by hatt-1", "max_terms"))
    add("--dense-cap", type=int, help=_help("element cap of dense references", "dense_cap"))
    add("--core-cap", type=int, help=_help("element cap of any one TT core", "core_cap"))
    add("--fourier-terms", type=int, help=_help("series terms", "fourier_terms"))
    add("--max-iter", type=int, help=_help("power-iteration cap", "max_iter"))
    add("--flop-report", action="store_true", help="print a measured-vs-predicted flop table")
    add("--strict", action="store_true", help="treat resource-capped cells as fatal (exit 1)")
    add("--fixtures", help=_help("directory to save or reload the input pairs in", "fixtures"))
    return parser


def cli_parse(argv):
    """Parse arguments into a Scenario; raises SystemExit(2) on usage errors."""
    parser = build_parser()
    try:
        return Scenario(**vars(parser.parse_args(argv)))
    except ValueError as exc:
        parser.error(str(exc))


def main(argv=None):
    config = cli_parse(sys.argv[1:] if argv is None else argv)
    try:
        rows = run_scenario(config)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # e.g. a --fixtures pair that differs
        print(f"error: {exc}", file=sys.stderr)
        return 2
    capped = [r for r in rows if r.capped]
    write_csv(rows, config.out or sys.stdout)
    if config.strict and capped:
        print(f"error: {len(capped)} cell(s) hit a resource cap", file=sys.stderr)
        return 1
    print(format_summary(summarize(rows)), file=sys.stderr)
    if config.flop_report:
        print(flop_report(rows), file=sys.stderr)
    if capped:
        print(f"note: {len(capped)} cell(s) hit a resource cap (marked in CSV)",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
