import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import refarm
from refarm import ConfigError, InvalidParameterError, SystemConfig, db_to_linear
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


@pytest.mark.parametrize(
    "command, csv, parameter, other",
    [("sweep-load", "sweep_load.csv", "alpha", "receive_snr_db"),
     ("sweep-snr", "sweep_snr.csv", "receive_snr_db", "alpha")],
    ids=["sweep-load", "sweep-snr"],
)
def test_sweep_of_the_other_parameter_uses_its_default_grid(tmp_path, command, csv, parameter, other):
    out = tmp_path / "run"
    args = ["--set", f"sweep.parameter={other}", "--trials", "1", command]
    assert main(["--out", str(out), "--quiet", *TINY, *args]) == EXIT_OK
    lines = (out / csv).read_text().splitlines()
    assert lines[0].split(",")[0] == parameter
    grid = [float(line.split(",")[0]) for line in lines[1:]]
    assert grid == pytest.approx(DEFAULT_GRIDS[parameter], rel=1e-11)


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
        ("[solver]\nmax_iterations = 0\n", "max_iterations"),
        ("[solver]\ngap_tolerance = 0\n", "gap_tolerance"),
        ("[solver]\nstep_scale = 0.1\n", "step_scale"),
        ("[solver]\ndelta_init = 0.01\n", "delta_init"),
        ("[solver]\nlambda_init = 0.1\n", "lambda_init"),
        ("[system]\nalpha = nan\n", "alpha"),
        ("[system]\nreceive_snr_db = inf\n", "receive_snr_db"),
        ("[system]\nnoise_power = inf\n", "noise_power"),
        ("[sweep]\ngrid = 0.05,nan\n", "grid"),
        ("[sweep]\ngrid = 0:1e12:1\n", "grid"),
        ("[sweep]\ngrid = 0:1e7:1\n", "grid"),
        ("[sweep]\ngrid = 0:nan:1\n", "grid"),
        ("[sweep]\ngrid = " + ",".join(["0.1"] * 1001) + "\n", "grid"),
    ],
    ids=[
        "cp_length", "bandwidth_hz", "max_iterations", "gap_tolerance",
        "step_scale", "delta_init", "lambda_init",
        "alpha-nan", "receive_snr_db-inf", "noise_power-inf", "grid-nan",
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
    # draw.
    code = (
        "import sys, refarm, refarm.cli; "
        "print('scipy.optimize' in sys.modules, 'scipy.linalg' in sys.modules, "
        "'numpy.random' in sys.modules)"
    )
    assert _run_python(code) == ["False", "False", "False"]


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
# because their Monte Carlo MMSE goes through BLAS.
MF_CONFIG = "a19371aa970d06d581219d6e4f65012b56f41f22f768973bae245fb3681b2fbb"
MMSE_CONFIG = "97199b1ab8b1d8079841560252f4ef583192e70864c2c6d65d06afe793a228b5"
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
            "resolved_config.ini": "cc40dd3086b1fcc387f836898eb9894b22baa59f10e479454d307ce4a1a60d69",
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
            "resolved_config.ini": "320112682e6e9e5dd3ad600c954a690d483dfd765931a3d5562825729fcbca16",
        },
    ),
    # 2**8 assignments: solve_p1 enumerates them and runs no dual loop.
    "allocate-enumerated": (
        ["--set", "subcarriers=8", "--set", "multipath=1", "allocate"],
        {
            "allocation.csv": "1eebdf362ce1dc8b8645fa4599853fb52ad864a2a89725c4c6d2da020590724b",
            "allocation_summary.csv": "2a22b14726b988ba1fcc5c8910988965a2fe16f32c1cea0a87b9715c74e58345",
            "resolved_config.ini": "52892eecebc01031e78a88cf6694516a9bb209f675116cc63f5db5f92e374d79",
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
