import pytest

from refarm import ConfigError, db_to_linear
from refarm.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
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
    ],
    ids=["cp_length", "bandwidth_hz", "max_iterations", "gap_tolerance"],
)
def test_rejected_config_exits_2_naming_the_key(tmp_path, capsys, text, name):
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "run"), "margin"]) == EXIT_CONFIG
    assert name in capsys.readouterr().err
