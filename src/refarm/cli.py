"""Command-line front end.

Commands
--------
margin      closed-form supportable loads and interference margins
allocate    solve one allocation instance and dump the solution
sweep-load  throughput and CDMA protection versus CDMA load
sweep-snr   same pipeline versus CDMA receive SNR
trace       per-iteration solver evolution for a light/heavy instance
snapshot    per-subcarrier allocation table for a light/heavy instance
validate    empirical exact-formula SINR versus the asymptotic limits

Every command accepts ``--config PATH`` (INI, see cli_io), repeatable
``--set KEY=VALUE`` overrides, ``--out DIR``, ``--seed`` and ``--quiet``.
All randomness derives from the single seed; rerunning a command with the
same inputs produces byte-identical CSV files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 input/output error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import cli_io
from .errors import ConfigError, InvalidParameterError, NumericalError
from .experiments import (
    DEFAULT_SEED,
    MARGIN_COLUMNS,
    VALIDATION_COLUMNS,
    SweepSpec,
    margin_rows,
    run_allocation,
    run_allocation_snapshot,
    run_convergence_trace,
    run_load_sweep,
    run_sinr_validation,
    run_snr_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="refarm",
        description="Underlay OFDMA/CDMA spectrum-refarming simulator",
    )
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"master seed (default {DEFAULT_SEED})")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable); bare or section-qualified names",
    )
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per grid point")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("margin", "allocate", "sweep-load", "sweep-snr", "validate"):
        sub.add_parser(name)
    for name in ("trace", "snapshot"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--regime", choices=("light", "heavy"), default="heavy")
    return parser


def _sweep_spec(settings, parameter, args, grid=None):
    return SweepSpec(
        parameter=parameter,
        grid=np.asarray(grid if grid is not None else settings.grid),
        receiver=settings.receiver,
        base=settings.system,
        trials=args.trials or settings.trials,
        seed=args.seed,
        channel_model=settings.channel_model,
        solver=settings.solver,
    )


def _cmd_margin(settings, args, out):
    path = out / "margin.csv"
    cli_io.emit_csv(margin_rows(settings.system), MARGIN_COLUMNS, path)
    return [path]


def _cmd_allocate(settings, args, out):
    snapshot, summary = run_allocation(
        settings.system, settings.receiver, settings.channel_model, args.seed, settings.solver
    )
    alloc_path = out / "allocation.csv"
    summary_path = out / "allocation_summary.csv"
    cli_io.emit_csv(snapshot.rows, snapshot.columns, alloc_path)
    cli_io.emit_csv([summary], list(summary), summary_path)
    return [alloc_path, summary_path]


def _cmd_sweep_load(settings, args, out):
    spec = _sweep_spec(settings, "alpha", args)
    result = run_load_sweep(spec)
    path = out / "sweep_load.csv"
    cli_io.emit_csv(result.rows, result.columns, path)
    return [path]


def _cmd_sweep_snr(settings, args, out):
    grid = settings.grid if settings.sweep_parameter == "receive_snr_db" else cli_io.DEFAULT_GRIDS["receive_snr_db"]
    spec = _sweep_spec(settings, "receive_snr_db", args, grid=grid)
    result = run_snr_sweep(spec)
    path = out / "sweep_snr.csv"
    cli_io.emit_csv(result.rows, result.columns, path)
    return [path]


def _cmd_regime(settings, args, out):
    run = run_convergence_trace if args.command == "trace" else run_allocation_snapshot
    result = run(settings.system, args.regime, settings.receiver, args.seed, settings.solver)
    path = out / f"{args.command}_{args.regime}.csv"
    cli_io.emit_csv(result.rows, result.columns, path)
    return [path]


def _cmd_validate(settings, args, out):
    rows = run_sinr_validation(
        settings.system,
        trials=args.trials or settings.trials,
        seed=args.seed,
    )
    path = out / "validation.csv"
    cli_io.emit_csv(rows, VALIDATION_COLUMNS, path)
    return [path]


_COMMANDS = {
    "margin": _cmd_margin,
    "allocate": _cmd_allocate,
    "sweep-load": _cmd_sweep_load,
    "sweep-snr": _cmd_sweep_snr,
    "trace": _cmd_regime,
    "snapshot": _cmd_regime,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = cli_io.parse_config(args.config, args.overrides)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        cli_io.emit_resolved_config(settings, out / "resolved_config.ini")
        paths = _COMMANDS[args.command](settings, args, out)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if not args.quiet:
        for path in paths:
            print(path)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
