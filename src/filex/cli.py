"""Command-line front end.

Subcommands: ``run`` (single process run), ``sweep`` (experiment to CSV),
``table`` (Kendall correlation table from CSVs), ``plot`` (CSV to SVG).
Exit codes: 0 success, 1 runtime error, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import report
from .core import MODES, make_stream, run
from .errors import ConfigError, FilexError
from .stats import shannon_entropy_bits
from .sweep import REDUCED_STRIDE, run_experiment

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


@functools.cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filex",
        description="Simulate the finite-lexicon self-reinforcing process and reproduce its entropy sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the process once and print its entropy")
    p_run.add_argument("--config", required=True, help="path to a key=value run config")
    p_run.add_argument("--mode", choices=MODES, help="override the config's sampler mode")

    p_sweep = sub.add_parser("sweep", help="run an experiment and write a records CSV")
    p_sweep.add_argument("--config", required=True, help="path to a key=value experiment config")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--mode", choices=MODES, default="fast")
    p_sweep.add_argument("--preset", choices=("full", "reduced"), default="full",
                         help="reduced keeps every 4th sweep point")
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_sweep.add_argument("--seed", type=int, help="override the config's master_seed")

    p_table = sub.add_parser("table", help="print a correlation table from records CSVs")
    p_table.add_argument("csv", nargs="+", help="records CSV paths")

    p_plot = sub.add_parser("plot", help="render a records CSV as an SVG scatter plot")
    p_plot.add_argument("csv", help="records CSV path")
    p_plot.add_argument("--out", required=True, help="output SVG path")

    return parser


def _cmd_run(args) -> int:
    cfg = report.run_config_from_mapping(report.load_config(args.config))
    mode = args.mode or cfg.mode
    dist = run(cfg.params, make_stream(cfg.seed), mode)
    print(f"entropy_bits={shannon_entropy_bits(dist):.6f}")
    if cfg.show_distribution:
        print("distribution=" + " ".join(format(p, ".17g") for p in dist.probs))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    cfg = report.load_config(args.config)
    spec = report.experiment_config_from_mapping(cfg, seed_override=args.seed)
    stride = REDUCED_STRIDE if args.preset == "reduced" else 1
    records = run_experiment(spec, mode=args.mode, workers=args.workers, stride=stride)
    report.write_records_csv(args.out, spec, records)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def _cmd_table(args) -> int:
    rows = []
    for path in args.csv:
        rows.extend(report.read_records_csv(path))
    table = report.correlation_table_from_rows(rows)
    sys.stdout.write(report.render_correlation_table(table))
    return EXIT_OK


def _cmd_plot(args) -> int:
    rows = report.read_records_csv(args.csv)
    spec = report.plot_spec_from_rows(rows)
    report.write_svg_scatter(args.out, spec)
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep, "table": _cmd_table, "plot": _cmd_plot}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FilexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
