"""Command-line benchmark harness.

Runs the canned scenarios, writes the fixed-schema CSV (to --out or stdout),
and prints a per-cell summary with speedups against tt-rounding.  Exit code
0 means every requested cell completed; 3 flags resource-capped cells (the
run still finishes unless --strict aborts it); argparse reports usage errors
with exit code 2.
"""

import argparse
import sys

from .bench import SCENARIOS, Scenario, flop_report, format_summary, run_scenario, summarize, write_csv
from .limits import ResourceLimitError
from .recompress import ALGORITHMS

_SCENARIO_ALIASES = {"hilbert": "appendixF"}


def _int_list(text):
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hatt-bench",
        description="Benchmark TT Hadamard-product recompression algorithms.",
    )
    parser.add_argument("--scenario", required=True,
                        choices=SCENARIOS + tuple(_SCENARIO_ALIASES),
                        help="which experiment to run")
    parser.add_argument("--seeds", type=_int_list, default=(0, 1, 2, 3, 4),
                        help="comma-separated distinct seeds (default 0,1,2,3,4)")
    parser.add_argument("--algorithms", default=None,
                        help=f"comma-separated subset of {','.join(ALGORITHMS)}")
    parser.add_argument("--out", default=None,
                        help="CSV output path (default: standard output)")
    parser.add_argument("--d", type=int, default=None, help="tensor order")
    parser.add_argument("--n", type=int, default=None, help="mode size")
    parser.add_argument("--ranks", type=_int_list, default=None,
                        help="input rank sweep (scenario-dependent)")
    parser.add_argument("--targets", type=_int_list, default=None,
                        help="target rank sweep (scenario-dependent)")
    parser.add_argument("--max-terms", type=int, default=None,
                        help="retained rank-1 terms for the svd sketch variant")
    parser.add_argument("--dense-cap", type=int, default=None,
                        help="dense element-count cap for oracle reconstructions")
    parser.add_argument("--core-cap", type=int, default=None,
                        help="per-TT-core element-count cap (example2 default: 2000000)")
    parser.add_argument("--fourier-terms", type=int, default=None,
                        help="number of series terms for example1 (default 12)")
    parser.add_argument("--max-iter", type=int, default=100,
                        help="power-iteration cap for example3")
    parser.add_argument("--flop-report", action="store_true",
                        help="print a measured-vs-predicted flop table")
    parser.add_argument("--strict", action="store_true",
                        help="treat resource-capped cells as fatal (exit 1)")
    parser.add_argument("--fixtures", default=None,
                        help="directory for saving/reloading input TT tensors")
    return parser


def cli_parse(argv):
    """Parse arguments into a Scenario; raises SystemExit(2) on usage errors."""
    parser = build_parser()
    args = parser.parse_args(argv)
    name = _SCENARIO_ALIASES.get(args.scenario, args.scenario)
    algorithms = ALGORITHMS if args.algorithms is None else tuple(
        a.strip() for a in args.algorithms.split(",") if a.strip()
    )
    if args.max_terms is not None and args.max_terms < 1:
        parser.error("--max-terms must be >= 1")
    try:
        return Scenario(
            name=name,
            seeds=args.seeds,
            algorithms=algorithms,
            d=args.d,
            n=args.n,
            ranks=args.ranks,
            targets=args.targets,
            max_terms=args.max_terms,
            fourier_terms=args.fourier_terms,
            max_iter=args.max_iter,
            dense_cap=args.dense_cap,
            core_cap=args.core_cap,
            out=args.out,
            strict=args.strict,
            flop_report=args.flop_report,
            fixtures=args.fixtures,
        )
    except ValueError as exc:
        parser.error(str(exc))


def main(argv=None):
    config = cli_parse(sys.argv[1:] if argv is None else argv)
    try:
        rows = run_scenario(config)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    capped = [r for r in rows if r.capped]
    if config.strict and capped:
        write_csv(rows, config.out or sys.stdout)
        print(f"error: {len(capped)} cell(s) hit a resource cap", file=sys.stderr)
        return 1
    write_csv(rows, config.out or sys.stdout)
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
