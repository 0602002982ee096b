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
    parser.add_argument(
        "--trials", type=int, help="Monte Carlo trials per grid point, as a last --set sweep.trials=N"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("margin", "allocate", "sweep-load", "sweep-snr", "validate"):
        sub.add_parser(name)
    for name in ("trace", "snapshot"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--regime", choices=("light", "heavy"), default="heavy")
    return parser


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


def _cmd_sweep(settings, args, out):
    # The runners are looked up per call, so a wrapper put on them sees it.
    if args.command == "sweep-load":
        parameter, run, name = "alpha", run_load_sweep, "sweep_load.csv"
    else:
        parameter, run, name = "receive_snr_db", run_snr_sweep, "sweep_snr.csv"
    # The configured grid belongs to the configured sweep parameter; the
    # other command sweeps its parameter's default grid.
    if settings.sweep_parameter == parameter:
        grid = settings.grid
    else:
        grid = cli_io.DEFAULT_GRIDS[parameter]
    spec = SweepSpec(
        parameter=parameter,
        grid=np.asarray(grid),
        receiver=settings.receiver,
        base=settings.system,
        trials=settings.trials,
        seed=args.seed,
        channel_model=settings.channel_model,
        solver=settings.solver,
    )
    result = run(spec)
    path = out / name
    cli_io.emit_csv(result.rows, result.columns, path)
    return [path]


def _cmd_regime(settings, args, out):
    run = run_convergence_trace if args.command == "trace" else run_allocation_snapshot
    result = run(settings.system, args.regime, settings.receiver, args.seed, settings.solver)
    path = out / f"{args.command}_{args.regime}.csv"
    cli_io.emit_csv(result.rows, result.columns, path)
    return [path]


def _cmd_validate(settings, args, out):
    rows = run_sinr_validation(settings.system, trials=settings.trials, seed=args.seed)
    path = out / "validation.csv"
    cli_io.emit_csv(rows, VALIDATION_COLUMNS, path)
    return [path]


_COMMANDS = {
    "margin": _cmd_margin,
    "allocate": _cmd_allocate,
    "sweep-load": _cmd_sweep,
    "sweep-snr": _cmd_sweep,
    "trace": _cmd_regime,
    "snapshot": _cmd_regime,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # --trials is the last override, so it wins and is recorded in
    # resolved_config.ini like any other key.
    if args.trials is not None:
        args.overrides.append(f"sweep.trials={args.trials}")
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
