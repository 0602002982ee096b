import csv
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import refarm
from refarm import ConfigError, InvalidParameterError, SystemConfig, db_to_linear
from refarm import cli_io, experiments
from refarm.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from refarm.cli_io import DEFAULT_GRIDS, emit_csv, format_value, parse_config


def test_empty_file_yields_default_operating_point(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    settings = parse_config(path)
    cfg = settings.system
    assert cfg.n_subcarriers == 256
    assert cfg.multipath_taps == 32
    assert cfg.alpha == 0.2
    assert cfg.cdma_users == 51
    assert cfg.ofdma_users == 2
    assert cfg.q == pytest.approx(db_to_linear(20.0))
    assert cfg.beta_star == pytest.approx(db_to_linear(2.0))
    assert cfg.power_caps == tuple([pytest.approx(1000.0)] * 2)
    assert settings.receiver == "mf"
    assert settings.trials == 200


def test_no_file_equals_empty_file(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    assert parse_config(path) == parse_config(None)


def test_overrides_are_applied():
    settings = parse_config(None, ["alpha=0.4", "receiver=mmse", "sweep.trials=7"])
    assert settings.system.alpha == 0.4
    assert settings.receiver == "mmse"
    assert settings.trials == 7


# One non-default value per config key.  Each must change what
# parse_config returns, so a key that nothing reads fails the suite.
_NON_DEFAULT_VALUES = {
    "system.subcarriers": "128",
    "system.alpha": "0.3",
    "system.cdma_users": "40",
    "system.ofdma_users": "3",
    "system.multipath": "16",
    "system.receive_snr_db": "15",
    "system.target_sinr_db": "3",
    "system.noise_power": "2",
    "system.power_cap_db": "25",
    "system.receiver": "mmse",
    "system.channel_model": "flat",
    "sweep.grid": "0.1,0.2",
    "sweep.trials": "50",
    "solver.max_iterations": "100",
    "solver.gap_tolerance": "1e-4",
}


def test_non_default_table_covers_every_config_key():
    keys = [f"{section}.{key}" for section, keys in cli_io._SECTIONS.items() for key in keys]
    assert sorted(keys) == sorted(_NON_DEFAULT_VALUES)
    # A bare name resolves to the first section that has it.
    bare = [key.split(".")[1] for key in keys]
    assert len(set(bare)) == len(bare)


@pytest.mark.parametrize("key", _NON_DEFAULT_VALUES)
def test_every_config_key_changes_the_run_settings(key):
    # RunSettings compares without ``raw``, the resolved text of every key.
    changed = parse_config(None, [f"{key}={_NON_DEFAULT_VALUES[key]}"])
    assert changed != parse_config(None)


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="nn"):
        parse_config(None, ["nn=256"])


def test_unknown_key_in_file(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\nnn = 256\n")
    with pytest.raises(ConfigError, match="nn"):
        parse_config(path)


def test_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[net]\nalpha = 0.2\n")
    with pytest.raises(ConfigError, match="net"):
        parse_config(path)


def test_invariant_violation_is_named():
    with pytest.raises(ConfigError, match="multipath"):
        parse_config(None, ["multipath=512"])


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("key", ["alpha", "q", "sigma2", "beta_star"])
def test_system_config_refuses_non_finite_levels_by_name(key, value):
    # Library callers do not pass the CLI's own checks; alpha = inf used to
    # escape as an OverflowError from rounding the user count.
    with pytest.raises(InvalidParameterError, match=f"invariant violated: .*{key}"):
        SystemConfig(**{key: value})


@pytest.mark.parametrize("n, taps", [(16, 2), (64, 8), (256, 32), (4, 1)])
def test_tap_count_defaults_to_an_eighth_of_the_band(n, taps):
    # The library and the CLI derive the same count.
    assert SystemConfig(n_subcarriers=n).multipath_taps == taps
    assert parse_config(None, [f"subcarriers={n}"]).system.multipath_taps == taps
    assert SystemConfig().replace(n_subcarriers=n).multipath_taps == taps


def test_replace_keeps_a_given_tap_count():
    cfg = SystemConfig(n_subcarriers=64, multipath_taps=4)
    assert cfg.replace(alpha=0.5).multipath_taps == 4
    assert cfg.replace(n_subcarriers=128, multipath_taps=4).multipath_taps == 4
    assert cfg.replace(n_subcarriers=128).multipath_taps == 16


def test_grid_parsing_forms():
    settings = parse_config(None, ["sweep.grid=0.1:0.5:0.2"])
    assert settings.grid == pytest.approx((0.1, 0.3, 0.5))
    settings = parse_config(None, ["sweep.grid=1,2,4"])
    assert settings.grid == (1.0, 2.0, 4.0)
    with pytest.raises(ConfigError):
        parse_config(None, ["sweep.grid=4,2,1"])


def test_resolved_config_round_trips(tmp_path):
    first = parse_config(None, ["alpha=0.35", "receiver=mmse", "power_cap_db=27,29"])
    out = tmp_path / "resolved.ini"
    from refarm.cli_io import emit_resolved_config

    emit_resolved_config(first, out)
    second = parse_config(out)
    assert first == second


def test_format_value_12_significant_digits():
    assert format_value(42.09573444801932) == "42.095734448"  # %.12g trims trailing zeros
    assert format_value(1.0 / 3.0) == "0.333333333333"
    assert format_value(True) == "true"
    assert format_value(7) == "7"


def test_emit_csv_is_byte_stable(tmp_path):
    rows = [{"a": 1.0 / 3.0, "b": True}, {"a": 2.0, "b": False}]
    paths = [tmp_path / "one.csv", tmp_path / "two.csv"]
    for path in paths:
        emit_csv(rows, ["a", "b"], path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_text().splitlines()[0] == "a,b"


def test_margin_command_row_value(tmp_path):
    out = tmp_path / "run"
    code = main(["--out", str(out), "--quiet", "margin"])
    assert code == EXIT_OK
    text = (out / "margin.csv").read_text()
    assert "42.0957" in text
    header = text.splitlines()[0].split(",")
    mf_row = dict(zip(header, text.splitlines()[1].split(",")))
    assert mf_row["receiver"] == "mf"
    assert float(mf_row["margin"]) == pytest.approx(42.09573444801932, rel=1e-10)
    assert (out / "resolved_config.ini").exists()


def test_margin_command_infeasible_row(tmp_path):
    out = tmp_path / "run"
    code = main(["--out", str(out), "--quiet", "--set", "alpha=0.7", "margin"])
    assert code == EXIT_OK
    lines = (out / "margin.csv").read_text().splitlines()
    header = lines[0].split(",")
    mf_row = dict(zip(header, lines[1].split(",")))
    assert mf_row["feasible"] == "false"
    assert float(mf_row["margin"]) == 0.0


def test_margin_outputs_byte_identical_across_runs(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["--out", str(out), "--quiet", "margin"]) == EXIT_OK
    assert (outs[0] / "margin.csv").read_bytes() == (outs[1] / "margin.csv").read_bytes()


def test_bad_config_exit_code(tmp_path):
    assert main(["--out", str(tmp_path), "--set", "nn=1", "margin"]) == EXIT_CONFIG


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = blocker / "sub"  # mkdir under a regular file fails
    assert main(["--out", str(out), "--quiet", "margin"]) == EXIT_IO


TINY = [
    "--set", "subcarriers=16",
    "--set", "multipath=2",
    "--set", "power_cap_db=20",
    "--set", "solver.max_iterations=300",
]


def test_allocate_command(tmp_path):
    out = tmp_path / "run"
    code = main(["--out", str(out), "--quiet", *TINY, "allocate"])
    assert code == EXIT_OK
    alloc_lines = (out / "allocation.csv").read_text().splitlines()
    assert alloc_lines[0].startswith("subcarrier,owner,power,received_power,gain_1,gain_2")
    assert len(alloc_lines) == 17
    summary = (out / "allocation_summary.csv").read_text().splitlines()
    header = summary[0].split(",")
    row = dict(zip(header, summary[1].split(",")))
    assert float(row["throughput"]) > 0
    assert row["feasible"] == "true"


def test_sweep_load_command_deterministic(tmp_path):
    args = [
        "--quiet", *TINY,
        "--set", "sweep.grid=0.1,0.3",
        "--trials", "3",
        "sweep-load",
    ]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["--out", str(out), *args]) == EXIT_OK
    assert (outs[0] / "sweep_load.csv").read_bytes() == (outs[1] / "sweep_load.csv").read_bytes()
    header = (outs[0] / "sweep_load.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "alpha"


@pytest.mark.parametrize("command", ["sweep-load", "sweep-snr", "validate"])
def test_trials_flag_below_one_exits_2_naming_trials(tmp_path, capsys, command):
    assert main(["--out", str(tmp_path), "--trials", "0", command]) == EXIT_CONFIG
    assert "trials" in capsys.readouterr().err


def test_load_too_large_to_simulate_exits_2_before_any_draw(tmp_path, capsys, monkeypatch):
    # alpha = 1e5 asks for 25.6 M users, a 48 GiB code matrix.  On one CPU
    # every draw would run in this process, where it fails at once.
    def no_draw(*args):
        raise AssertionError("a trial drew its spreading codes")

    monkeypatch.setattr(experiments, "gen_spreading_codes", no_draw)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    out = tmp_path / "run"
    args = ["--out", str(out), "--set", "alpha=1e5", "--trials", "100", "validate"]
    assert main(args) == EXIT_CONFIG
    assert "cdma_users = 25600000" in capsys.readouterr().err
    assert not (out / "validation.csv").exists()
    for command in ("margin", "allocate"):
        assert main(["--out", str(out), "--quiet", "--set", "alpha=1e5", command]) == EXIT_OK


@pytest.mark.parametrize(
    "command",
    [["margin"], ["allocate"], ["sweep-load"], ["sweep-snr"], ["trace"], ["snapshot"], ["validate"]],
    ids=lambda command: command[0],
)
def test_negative_seed_exits_2_naming_seed_before_writing(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert main(["--out", str(out), "--seed", "-1", *command]) == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_trials_flag_is_recorded_in_the_resolved_config(tmp_path):
    # --trials wins over the configured count, and resolved_config.ini
    # records it, so rerunning from that file reproduces the CSV.
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    args = ["--quiet", *TINY, "--set", "sweep.grid=0.1,0.3", "--set", "sweep.trials=7"]
    assert main(["--out", str(first), *args, "--trials", "3", "sweep-load"]) == EXIT_OK
    config = first / "resolved_config.ini"
    assert "trials = 3" in config.read_text().splitlines()
    assert main(["--out", str(rerun), "--quiet", "--config", str(config), "sweep-load"]) == EXIT_OK
    assert (rerun / "sweep_load.csv").read_bytes() == (first / "sweep_load.csv").read_bytes()


def _first_column(path):
    return [float(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]


def test_configured_grid_is_what_sweep_snr_sweeps(tmp_path):
    out = tmp_path / "run"
    args = ["--set", "grid=4:8:2", "--trials", "1", "sweep-snr"]
    assert main(["--out", str(out), "--quiet", *TINY, *args]) == EXIT_OK
    assert (out / "sweep_snr.csv").read_text().startswith("receive_snr_db,")
    assert _first_column(out / "sweep_snr.csv") == [4.0, 6.0, 8.0]


def test_sweep_parameter_key_exits_2_naming_it(tmp_path, capsys):
    # The sweep command decides what it sweeps.
    args = ["--out", str(tmp_path), "--set", "sweep.parameter=alpha", "sweep-load"]
    assert main(args) == EXIT_CONFIG
    assert "sweep.parameter" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, csv, parameter",
    [("sweep-load", "sweep_load.csv", "alpha"),
     ("sweep-snr", "sweep_snr.csv", "receive_snr_db")],
    ids=["sweep-load", "sweep-snr"],
)
def test_empty_grid_sweeps_the_commands_default_grid(tmp_path, command, csv, parameter):
    out = tmp_path / "run"
    args = ["--set", "sweep.grid=", "--trials", "1", command]
    assert main(["--out", str(out), "--quiet", *TINY, *args]) == EXIT_OK
    assert (out / csv).read_text().startswith(f"{parameter},")
    assert _first_column(out / csv) == pytest.approx(DEFAULT_GRIDS[parameter], rel=1e-11)
    assert "grid = " in (out / "resolved_config.ini").read_text().splitlines()


def test_rerun_from_a_sweep_snr_resolved_config_reproduces_its_csv(tmp_path):
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    args = ["--quiet", *TINY, "--set", "receiver=mmse", "--trials", "2"]
    assert main(["--out", str(first), *args, "sweep-snr"]) == EXIT_OK
    config = first / "resolved_config.ini"
    assert "grid = " in config.read_text().splitlines()  # no alpha grid recorded
    assert main(["--out", str(rerun), "--quiet", "--config", str(config), "sweep-snr"]) == EXIT_OK
    assert (rerun / "sweep_snr.csv").read_bytes() == (first / "sweep_snr.csv").read_bytes()
    assert (rerun / "resolved_config.ini").read_bytes() == config.read_bytes()


def test_trace_and_snapshot_commands(tmp_path):
    out = tmp_path / "run"
    assert main(["--out", str(out), "--quiet", *TINY, "trace", "--regime", "heavy"]) == EXIT_OK
    assert main(["--out", str(out), "--quiet", *TINY, "snapshot", "--regime", "light"]) == EXIT_OK
    trace_header = (out / "trace_heavy.csv").read_text().splitlines()[0]
    assert trace_header.split(",")[:3] == ["iteration", "duality_gap", "delta"]
    snap_header = (out / "snapshot_light.csv").read_text().splitlines()[0]
    assert snap_header.split(",")[:2] == ["subcarrier", "owner"]


def test_validate_command(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["--out", str(out), "--quiet", *TINY, "--trials", "100", "validate"]
    )
    assert code == EXIT_OK
    lines = (out / "validation.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 2 receivers x 2 models


@pytest.mark.parametrize(
    "command",
    [["allocate"], ["sweep-load"], ["trace", "--regime", "heavy"], ["snapshot", "--regime", "light"]],
    ids=["allocate", "sweep-load", "trace", "snapshot"],
)
def test_no_ofdma_users(tmp_path, command):
    out = tmp_path / "run"
    args = [
        "--out", str(out), "--quiet", *TINY,
        "--set", "ofdma_users=0",
        "--set", "sweep.grid=0.1,0.3",
        "--trials", "3",
        *command,
    ]
    assert main(args) == EXIT_OK
    paths = list(out.glob("*.csv"))
    assert paths
    for path in paths:
        cells = [cell for line in path.read_text().splitlines() for cell in line.split(",")]
        assert "None" not in cells


@pytest.mark.parametrize(
    "text, name",
    [
        ("[system]\ncp_length = 31\n", "cp_length"),
        ("[system]\nbandwidth_hz = 5e6\n", "bandwidth_hz"),
        ("[sweep]\nparameter = alpha\n", "parameter"),
        ("[solver]\nmax_iterations = 0\n", "max_iterations"),
        ("[solver]\ngap_tolerance = 0\n", "gap_tolerance"),
        ("[solver]\nstep_scale = 0.1\n", "step_scale"),
        ("[solver]\ndelta_init = 0.01\n", "delta_init"),
        ("[solver]\nlambda_init = 0.1\n", "lambda_init"),
        ("[system]\nalpha = nan\n", "alpha"),
        ("[system]\nalpha = 1e308\n", "alpha"),
        ("[system]\nreceive_snr_db = inf\n", "receive_snr_db"),
        ("[system]\nnoise_power = inf\n", "noise_power"),
        ("[sweep]\ngrid = 0.05,nan\n", "grid"),
        ("[sweep]\ngrid = 0:1e12:1\n", "grid"),
        ("[sweep]\ngrid = 0:1e7:1\n", "grid"),
        ("[sweep]\ngrid = 0:nan:1\n", "grid"),
        ("[sweep]\ngrid = " + ",".join(["0.1"] * 1001) + "\n", "grid"),
    ],
    ids=[
        "cp_length", "bandwidth_hz", "parameter", "max_iterations", "gap_tolerance",
        "step_scale", "delta_init", "lambda_init",
        "alpha-nan", "alpha-1e308", "receive_snr_db-inf", "noise_power-inf", "grid-nan",
        "grid-1e12-points", "grid-1e7-points", "grid-range-nan", "grid-1001-values",
    ],
)
def test_rejected_config_exits_2_naming_the_key(tmp_path, capsys, text, name):
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "run"), "margin"]) == EXIT_CONFIG
    assert name in capsys.readouterr().err


def _run_python(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(refarm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout.split()


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds about 0.4 s to every start and scipy.linalg about
    # 0.25 s; only the SLSQP test oracle and the MMSE solves need them, and
    # each imports its own.  numpy.random (11-15 ms) loads at the first
    # draw.  The worker pool's modules load at the first Monte Carlo call
    # with two or more trials, and logging with them.
    lazy = [
        "scipy.optimize", "scipy.linalg", "numpy.random",
        "concurrent.futures", "multiprocessing", "logging",
    ]
    code = (
        "import sys, refarm, refarm.cli, refarm.experiments; "
        f"print(*(name in sys.modules for name in {lazy!r}))"
    )
    assert _run_python(code) == ["False"] * len(lazy)


def test_margin_and_allocate_leave_scipy_linalg_unloaded(tmp_path):
    code = f"""
import sys
import numpy as np
from refarm import mmse_sinr_exact
from refarm.cli import main
for command in ("margin", "allocate"):
    assert main(["--out", {str(tmp_path)!r}, "--quiet", command]) == 0
print("scipy.linalg" in sys.modules)
mmse_sinr_exact(np.eye(2, 4, dtype=complex), 1.0, None, 1.0)  # U x U path
print("scipy.linalg" in sys.modules)
mmse_sinr_exact(np.eye(4, dtype=complex), 1.0, None, 1.0)  # N x N path
print("scipy.linalg" in sys.modules)
"""
    assert _run_python(code) == ["False", "False", "True"]


def test_validate_at_defaults_leaves_scipy_linalg_unloaded(tmp_path):
    # At the default load (U = 51 of N = 256) every MMSE solve takes the
    # numpy-only U x U path.
    code = f"""
import sys
from refarm.cli import main
assert main(["--out", {str(tmp_path)!r}, "--quiet", "--trials", "100", "validate"]) == 0
print("scipy.linalg" in sys.modules)
"""
    assert _run_python(code) == ["False"]


def test_commands_never_load_scipy_optimize(tmp_path):
    # The brute-force test oracle is the only SLSQP user, and it lives
    # with the tests.  The MMSE sweep reaches the N x N path.
    code = f"""
import sys
from refarm.cli import main
for args in (["allocate"], ["--set", "receiver=mmse", "--trials", "1", "sweep-load"], ["validate"]):
    assert main(["--out", {str(tmp_path)!r}, "--quiet", *args]) == 0
print("scipy.optimize" in sys.modules, "scipy.linalg" in sys.modules)
"""
    assert _run_python(code) == ["False", "True"]


def test_numerical_failure_exits_3(tmp_path, capsys):
    # At 140 dB the 3-user MMSE system is too ill-conditioned for the
    # residual check of its linear solve.
    overrides = ["subcarriers=4", "multipath=1", "cdma_users=3", "receive_snr_db=140"]
    args = [arg for item in overrides for arg in ("--set", item)]
    assert main(["--out", str(tmp_path), *args, "validate"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_without_quiet_each_written_path_is_printed(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["--out", str(out), "margin"]) == EXIT_OK
    assert str(out / "margin.csv") in capsys.readouterr().out.splitlines()


# SHA-256 of every file these commands write at --seed 42.  They pin the
# allocator-facing outputs byte for byte: a change meant to move a CSV
# records new digests here.  The sweeps and `validate` are left out
# because their Monte Carlo MMSE goes through BLAS; the Monte Carlo test
# at the end of this module pins them at a tolerance instead.
MF_CONFIG = "3da619b23de7746e59aecc527985ba54e81593ca52953a16c1d365f963eda3d7"
MMSE_CONFIG = "2f6f36574096d08e6170c6c67c48553b21eff47c185f20a2b5578239b7fcd432"
ALLOCATION = "529902f8b6f472160574265ff32ae2fe4e24f5f252636dc82aebad84dd74cf1f"
GOLDEN = {
    "margin": (
        ["margin"],
        {
            "margin.csv": "1e28c5ddef839efc29fb73fa0010aa037505a368ad81d3f9d94c53c9b793b899",
            "resolved_config.ini": MF_CONFIG,
        },
    ),
    "allocate-mf": (
        ["--set", "receiver=mf", "allocate"],
        {
            "allocation.csv": ALLOCATION,
            "allocation_summary.csv": "1afb6d5c36a191149a649a56988547836455b3a887a6a02a9e01c329661308d8",
            "resolved_config.ini": MF_CONFIG,
        },
    ),
    "allocate-mmse": (
        ["--set", "receiver=mmse", "allocate"],
        {
            "allocation.csv": ALLOCATION,
            "allocation_summary.csv": "e5a540b90f9147d161cdf6f2dbf8ce00e13c8396d1a8d4cbab5ffb6da01cf4fc",
            "resolved_config.ini": MMSE_CONFIG,
        },
    ),
    "allocate-infeasible": (
        ["--set", "alpha=0.9", "allocate"],
        {
            "allocation.csv": "357b703f41b1273819c3c86e2fad428d95c22b48d2e688dbfb11bc14fd5ca9c3",
            "allocation_summary.csv": "056f18ef61b7dc34acfc3b816996ac8d72814cc010adb57ed8d01f2e262ea9e6",
            "resolved_config.ini": "7e7087af2c04e74dbae02a80299dbd5fa9fa3fd5a45729dc01a02e27218c50cf",
        },
    ),
    # This output is the known flat-channel defect (ROADMAP open item 1):
    # every subcarrier is tied at the best center, and the solve stops at
    # gap 0.78 with converged=false.  Its fix changes these digests on
    # purpose.
    "allocate-flat": (
        ["--set", "channel_model=flat", "allocate"],
        {
            "allocation.csv": "57503b5309f1c3041400646de12d57e5aefd655d52a31129aaca2ae7b1154b3d",
            "allocation_summary.csv": "fed3bb6fc5ee275d63c806b3fde8b75366317fcd71fba0c0dff071562ef5a067",
            "resolved_config.ini": "60d859cea5180db4f0164ebb36bdcab889bdf4cccb58137ea6fb7dd1e0ea368d",
        },
    ),
    # 2**8 assignments: solve_p1 enumerates them and runs no dual loop.
    "allocate-enumerated": (
        ["--set", "subcarriers=8", "--set", "multipath=1", "allocate"],
        {
            "allocation.csv": "1eebdf362ce1dc8b8645fa4599853fb52ad864a2a89725c4c6d2da020590724b",
            "allocation_summary.csv": "2a22b14726b988ba1fcc5c8910988965a2fe16f32c1cea0a87b9715c74e58345",
            "resolved_config.ini": "862509d92c227641312efa6f1e3bc5395d85f45fb6643b7ad07384a482d30853",
        },
    ),
}
REGIME_DIGESTS = {
    ("trace", "light", "mf"): "12d81b4f980455ca57751505287f4bfaea9e0a1ed6bda3ebdf79756afc80f0c5",
    ("trace", "heavy", "mf"): "c9a33725ea50e54012b46a2bc61b7393af42c50ca1e9a5946bc392f03b3cc074",
    ("snapshot", "light", "mf"): "c58454a73721fc50a4fe73ef104fcd9156cd945e9def503d52bc9206021fa819",
    ("snapshot", "heavy", "mf"): "0c8791398b2e98041bc6f0b47ccb90e48a6fe04b92cfaeedc6462f92f75c5222",
    ("trace", "light", "mmse"): "1fcd18e85cd4fb1da330ddbb7c89bd08aa4b0ef95a5141e7d94ae8c78cbbb613",
    ("trace", "heavy", "mmse"): "32cd30d3b22998f558a9d371ead1e601dd87baabb55ac3087c0895a3de65ac03",
    ("snapshot", "light", "mmse"): "a056de11bc9d5ff170d7912e8135eb94b78844f67a877f7ca4a7d5eb31514053",
    ("snapshot", "heavy", "mmse"): "0b44e0316e07d1d022e980c0c25dc8a3dde0d42b7e53eabe45b8579b0bcc20a2",
}
for (command, regime, receiver), digest in REGIME_DIGESTS.items():
    GOLDEN[f"{command}-{regime}-{receiver}"] = (
        ["--set", f"receiver={receiver}", command, "--regime", regime],
        {
            f"{command}_{regime}.csv": digest,
            "resolved_config.ini": MF_CONFIG if receiver == "mf" else MMSE_CONFIG,
        },
    )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_allocator_commands_match_recorded_digests(tmp_path, case):
    args, expected = GOLDEN[case]
    out = tmp_path / "run"
    assert main(["--out", str(out), "--quiet", "--seed", "42", *args]) == EXIT_OK
    written = sorted(path.name for path in out.iterdir())
    assert written == sorted(expected)
    for name, digest in expected.items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest, f"{name} changed"


# Every cell these Monte Carlo commands write at --seed 42, as recorded in
# tests/data/monte_carlo.  Numeric cells are compared at rtol 1e-10: that
# absorbs BLAS rounding on another CPU, while a change of stream layout or
# SINR kernel moves them far more.  On the default alpha grid U crosses
# 0.84 N, so the MMSE load sweep runs both MMSE paths.
SMALL = ["--set", "subcarriers=32", "--set", "multipath=4", "--trials", "2"]
MONTE_CARLO = {
    "sweep-load-mf": ([*SMALL, "--set", "receiver=mf", "sweep-load"], "sweep_load.csv"),
    "sweep-load-mmse": ([*SMALL, "--set", "receiver=mmse", "sweep-load"], "sweep_load.csv"),
    "sweep-snr-mf": ([*SMALL, "--set", "receiver=mf", "sweep-snr"], "sweep_snr.csv"),
    "sweep-snr-mmse": ([*SMALL, "--set", "receiver=mmse", "sweep-snr"], "sweep_snr.csv"),
    "validate": (["--set", "subcarriers=32", "validate"], "validation.csv"),
}


def _csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("case", sorted(MONTE_CARLO))
def test_monte_carlo_commands_match_recorded_values(tmp_path, case):
    args, name = MONTE_CARLO[case]
    out = tmp_path / "run"
    assert main(["--out", str(out), "--quiet", "--seed", "42", *args]) == EXIT_OK
    recorded = os.path.join(os.path.dirname(__file__), "data", "monte_carlo", f"{case}.csv")
    expected, actual = _csv_rows(recorded), _csv_rows(out / name)
    assert len(actual) == len(expected)
    for want_row, got_row in zip(expected, actual):
        assert len(got_row) == len(want_row)
        for want, got in zip(want_row, got_row):
            if _is_number(want):
                np.testing.assert_allclose(float(got), float(want), rtol=1e-10, atol=0, err_msg=str(want_row))
            else:
                assert got == want, want_row
