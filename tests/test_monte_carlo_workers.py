"""The Monte Carlo worker pool: same trials, same errors, pinned BLAS, no leftovers."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import refarm
from refarm import InterferenceProfile, SolverOptions, SystemConfig, experiments
from refarm.errors import InvalidParameterError, NumericalError
from refarm.experiments import (
    SweepSpec,
    empirical_cdma_sinr,
    run_load_sweep,
    run_sinr_validation,
    run_snr_sweep,
)

SRC = str(Path(refarm.__file__).resolve().parent.parent)

needs_two_cpus = pytest.mark.skipif(
    experiments._usable_cpus() < 2, reason="with one usable CPU the trials run in-process"
)


def _in_process(cfg, profile, receiver, model, trials, seed):
    rng = np.random.default_rng(seed)
    seqs = rng.bit_generator.seed_seq.spawn(trials)
    return experiments._trial_means(cfg, profile, receiver, model, np.random.PCG64, seqs)


def _python(code, *, script=None, **kwargs):
    """Run ``code`` in a fresh interpreter that imports this checkout's refarm.

    With ``script``, the code is written to that file and run as a script.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    for name in experiments.BLAS_THREAD_VARS:
        env.pop(name, None)
    if script is None:
        source = ["-c", textwrap.dedent(code)]
    else:
        script.write_text(textwrap.dedent(code))
        source = [str(script)]
    return subprocess.Popen(
        [sys.executable, "-X", "dev", *source],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **kwargs,
    )


def _live_members(pgid):
    """Processes of group ``pgid`` that have not exited (zombies do not count)."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process exited while the group was listed
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(stat.parent.name))
    return live


def _wait_for_empty_group(pgid, timeout=30.0):
    deadline = time.monotonic() + timeout
    while (live := _live_members(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return live


@needs_two_cpus
@pytest.mark.parametrize(
    "receiver, users, model",
    [
        ("mf", 12, "selective"),
        ("mmse", 12, "selective"),  # U < 0.84 N: the U x U path
        ("mmse", 60, "selective"),  # U >= 0.84 N: the N x N path
        ("mf", 12, "flat"),
        ("mmse", 12, "flat"),
        ("mmse", 60, "flat"),
    ],
)
def test_workers_match_the_in_process_trials(receiver, users, model):
    cfg = SystemConfig(n_subcarriers=64, cdma_users=users, ofdma_users=0, multipath_taps=8)
    profile = InterferenceProfile(np.linspace(0.0, 3.0, 64))
    # 7 trials split unevenly over the workers.
    mean, std, means = empirical_cdma_sinr(
        cfg, profile, receiver, model, 7, np.random.default_rng(users)
    )
    assert experiments._pool is not None
    serial = _in_process(cfg, profile, receiver, model, 7, users)
    np.testing.assert_array_equal(means, serial)
    assert (mean, std) == (float(serial.mean()), float(serial.std()))


def test_commands_without_monte_carlo_and_one_trial_calls_start_no_pool(tmp_path):
    code = f"""
    import sys
    import numpy as np
    from refarm import SystemConfig, experiments
    from refarm.cli import main
    for command in (["margin"], ["allocate"], ["trace"], ["snapshot"]):
        assert main(["--out", {str(tmp_path)!r}, "--quiet", *command]) == 0
    cfg = SystemConfig(n_subcarriers=16, cdma_users=3, ofdma_users=0, multipath_taps=2)
    experiments.empirical_cdma_sinr(cfg, None, "mmse", "selective", 1, np.random.default_rng(0))
    # perfbench's mc_validate set-up is such a call: it must not load the pool's modules.
    modules = ("concurrent.futures", "multiprocessing")
    print(experiments._pool is None, *(name in sys.modules for name in modules))
    """
    out, err = _python(code).communicate(timeout=120)
    assert (out.split(), err) == (["True", "False", "False"], "")


@needs_two_cpus
def test_worker_numerical_error_reaches_the_caller():
    # At 140 dB the 3-user MMSE system fails its residual check.
    cfg = SystemConfig(n_subcarriers=4, cdma_users=3, ofdma_users=0, multipath_taps=1)
    cfg = cfg.replace(q=1e14 * cfg.sigma2)
    with pytest.raises(NumericalError) as serial:
        _in_process(cfg, None, "mmse", "awgn", 40, 0)
    with pytest.raises(NumericalError) as pooled:
        empirical_cdma_sinr(cfg, None, "mmse", "awgn", 40, np.random.default_rng(0))
    assert type(pooled.value) is NumericalError
    assert str(pooled.value) == str(serial.value)


@pytest.mark.parametrize("model", ["awgn", "selective"])
def test_generator_without_a_seed_sequence_is_refused_by_name(model):
    cfg = SystemConfig(n_subcarriers=16, cdma_users=3, ofdma_users=0, multipath_taps=2)
    rng = np.random.Generator(np.random.RandomState(0)._bit_generator)
    with pytest.raises(InvalidParameterError, match="SeedSequence"):
        empirical_cdma_sinr(cfg, None, "mf", model, 4, rng)


@needs_two_cpus
def test_workers_pin_blas_and_leave_the_callers_environment():
    code = """
    import os
    import numpy as np
    from refarm import SystemConfig, experiments
    names = experiments.BLAS_THREAD_VARS
    cfg = SystemConfig(n_subcarriers=16, cdma_users=3, ofdma_users=0, multipath_taps=2)
    experiments.empirical_cdma_sinr(cfg, None, "mf", "selective", 2, np.random.default_rng(0))
    futures = []
    experiments._submit_to_workers(os.getenv, (), list(names), futures)
    print(*(future.result() for future in futures))
    print(*(name in os.environ for name in names))
    """
    out, err = _python(code).communicate(timeout=120)
    assert err == ""
    assert out.splitlines() == ["1 1 1", "False False False"]


@needs_two_cpus
def test_a_dead_worker_fails_the_call_and_the_next_call_starts_a_new_pool():
    code = """
    import time
    import numpy as np
    from concurrent.futures.process import BrokenProcessPool
    from refarm import SystemConfig, experiments
    cfg = SystemConfig(n_subcarriers=16, cdma_users=3, ofdma_users=0, multipath_taps=2)

    def run():
        return experiments.empirical_cdma_sinr(cfg, None, "mf", "selective", 4, np.random.default_rng(0))

    first = run()
    pool = experiments._pool
    victim = next(iter(pool._processes.values()))
    victim.kill()
    victim.join()
    deadline = time.monotonic() + 30
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    try:
        run()
    except BrokenProcessPool:
        print("broken")
    print(experiments._pool is None, run()[0] == first[0], experiments._pool is not pool)
    """
    out, err = _python(code).communicate(timeout=120)
    assert err == ""
    assert out.splitlines() == ["broken", "True True True"]


@needs_two_cpus
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="lists processes from /proc")
def test_cli_leaves_its_process_group_empty(tmp_path):
    code = f"""
    from refarm.cli import main
    args = ["--set", "subcarriers=64", "--set", "multipath=8", "--set", "receiver=mmse"]
    raise SystemExit(main(["--out", {str(tmp_path)!r}, "--quiet", "--trials", "4", *args, "sweep-load"]))
    """
    proc = _python(code, start_new_session=True)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out, err) == (0, "", "")
    assert _wait_for_empty_group(proc.pid) == []


@needs_two_cpus
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="lists processes from /proc")
def test_workers_exit_when_the_caller_is_killed():
    code = """
    import time
    import numpy as np
    from refarm import SystemConfig, experiments
    cfg = SystemConfig(n_subcarriers=16, cdma_users=3, ofdma_users=0, multipath_taps=2)
    experiments.empirical_cdma_sinr(cfg, None, "mf", "selective", 2, np.random.default_rng(0))
    print(len(experiments._pool._processes), flush=True)
    time.sleep(120)
    """
    proc = _python(code, start_new_session=True)
    try:
        assert int(proc.stdout.readline()) >= 2
        assert len(_live_members(proc.pid)) >= 3  # the caller and its workers
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.communicate(timeout=30)
    assert _wait_for_empty_group(proc.pid) == []


@pytest.mark.parametrize("trials", [0, -1])
def test_fewer_than_one_trial_is_refused_by_name(trials):
    cfg = SystemConfig(n_subcarriers=16, cdma_users=3, ofdma_users=0, multipath_taps=2)
    with pytest.raises(InvalidParameterError, match="trials"):
        empirical_cdma_sinr(cfg, None, "mf", "selective", trials, np.random.default_rng(0))


@needs_two_cpus
def test_a_script_without_a_main_guard_is_told_to_add_one(tmp_path):
    # Each spawned worker imports the script, whose top level then tries to
    # start a pool of its own while the worker is still bootstrapping.
    code = """
    import numpy as np
    from refarm import SystemConfig, experiments
    cfg = SystemConfig(n_subcarriers=16, cdma_users=3, ofdma_users=0, multipath_taps=2)
    experiments.empirical_cdma_sinr(cfg, None, "mf", "selective", 4, np.random.default_rng(0))
    """
    proc = _python(code, script=tmp_path / "unguarded.py")
    out, err = proc.communicate(timeout=120)
    assert proc.returncode != 0
    # A dying worker's own traceback may come after the caller's.
    prefix = "concurrent.futures.process.BrokenProcessPool: a Monte Carlo worker"
    raised = [line for line in err.splitlines() if line.startswith(prefix)]
    assert len(raised) == 1 and 'if __name__ == "__main__":' in raised[0]


# Small sweeps, each with a point the pool runs and, for the load sweep,
# an infeasible one.
SMALL = SystemConfig(
    n_subcarriers=32, alpha=0.2, ofdma_users=2, multipath_taps=4, power_caps=(200.0, 200.0)
)
SWEEPS = {
    "load_mf": (run_load_sweep, [0.1, 0.3, 0.5, 0.9], "mf"),
    "load_mmse": (run_load_sweep, [0.1, 0.2, 0.3, 0.4, 0.5], "mmse"),
    "snr_mmse": (run_snr_sweep, [8.0, 14.0, 20.0], "mmse"),
}


def _sweep(name, trials=6):
    run, grid, receiver = SWEEPS[name]
    spec = SweepSpec(
        grid=np.array(grid),
        receiver=receiver,
        base=SMALL,
        trials=trials,
        seed=11,
        solver=SolverOptions(max_iterations=600),
    )
    return run(spec)


def _table(result):
    """The rows as one float array, so that NaN cells compare equal."""
    return np.array([[float(row[c]) for c in result.columns] for row in result.rows])


def _record_futures(monkeypatch):
    futures = []
    submit = experiments._submit_to_workers

    def recording(fn, args, chunks, submitted):
        submit(fn, args, chunks, submitted)
        futures.extend(submitted)

    monkeypatch.setattr(experiments, "_submit_to_workers", recording)
    return futures


@needs_two_cpus
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_pipelined_sweep_matches_a_run_on_one_cpu(monkeypatch, name):
    futures = _record_futures(monkeypatch)
    pooled = _sweep(name)
    assert futures and all(future.done() for future in futures)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    serial = _sweep(name)
    assert pooled.columns == serial.columns
    np.testing.assert_array_equal(_table(pooled), _table(serial))


# Validation needs 100 trials; a small band keeps them cheap.
VALIDATION = SystemConfig(n_subcarriers=32, alpha=0.2, multipath_taps=4)


@needs_two_cpus
def test_pooled_validation_matches_a_run_on_one_cpu(monkeypatch):
    futures = _record_futures(monkeypatch)
    pooled = run_sinr_validation(VALIDATION, trials=100, seed=5)
    assert len(futures) == 4 * min(experiments._usable_cpus(), 100)
    assert all(future.done() for future in futures)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    serial = run_sinr_validation(VALIDATION, trials=100, seed=5)
    assert pooled == serial  # no NaN cell: 6 users are simulated


@needs_two_cpus
def test_a_worker_error_in_a_later_validation_row_reaches_the_caller(monkeypatch):
    # At 140 dB the 3-user MMSE system fails its residual check, while
    # the MF rows, which come first, succeed.
    cfg = SystemConfig(n_subcarriers=4, cdma_users=3, ofdma_users=0, multipath_taps=1)
    cfg = cfg.replace(q=1e14 * cfg.sigma2)
    futures = _record_futures(monkeypatch)
    with pytest.raises(NumericalError) as pooled:
        run_sinr_validation(cfg, trials=100)
    assert len(futures) == 4 * min(experiments._usable_cpus(), 100)
    assert all(future.done() for future in futures)
    assert all(future.exception() is None for future in futures[: len(futures) // 2])
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    with pytest.raises(NumericalError) as serial:
        run_sinr_validation(cfg, trials=100)
    assert type(pooled.value) is NumericalError
    assert str(pooled.value) == str(serial.value)


@needs_two_cpus
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_in_the_caller_leaves_no_chunk_running(monkeypatch, error):
    before = _sweep("load_mmse", trials=40)
    futures = _record_futures(monkeypatch)
    solve = experiments.solve_p1
    calls = []

    def failing_third(problem, options):
        calls.append(problem)
        if len(calls) == 3:
            raise error("third solve")
        return solve(problem, options)

    monkeypatch.setattr(experiments, "solve_p1", failing_third)
    with pytest.raises(error, match="third solve"):
        _sweep("load_mmse", trials=40)
    # The first two points' chunks: the third point failed before its trials started.
    assert len(futures) == 2 * min(experiments._usable_cpus(), 40)
    assert all(future.done() for future in futures)
    monkeypatch.setattr(experiments, "solve_p1", solve)
    np.testing.assert_array_equal(_table(_sweep("load_mmse", trials=40)), _table(before))


@needs_two_cpus
def test_a_worker_error_mid_grid_reaches_the_caller(monkeypatch):
    # At 140 dB (the middle point) the 3-user MMSE system fails its
    # residual check.  Every point's trials are started before any is
    # read, and the error reported is the first failing point's, as on
    # one CPU.
    base = SystemConfig(
        n_subcarriers=4, cdma_users=3, ofdma_users=1, multipath_taps=1, power_caps=(1e-3,)
    )
    spec = SweepSpec(
        grid=np.array([20.0, 140.0, 160.0]),
        receiver="mmse",
        base=base,
        trials=20,
        channel_model="awgn",
    )
    futures = _record_futures(monkeypatch)
    with pytest.raises(NumericalError) as pooled:
        run_snr_sweep(spec)
    assert len(futures) == 3 * min(experiments._usable_cpus(), 20)
    assert all(future.done() for future in futures)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    with pytest.raises(NumericalError) as serial:
        run_snr_sweep(spec)
    assert type(pooled.value) is NumericalError
    assert str(pooled.value) == str(serial.value)


@needs_two_cpus
def test_ctrl_c_between_two_submits_leaves_no_chunk_behind(monkeypatch):
    cfg = SystemConfig(n_subcarriers=64, cdma_users=60, ofdma_users=0, multipath_taps=8)
    empirical_cdma_sinr(cfg, None, "mmse", "selective", 2, np.random.default_rng(0))
    pool, submitted = experiments._pool, []

    def interrupted_second(*args):
        if submitted:
            raise KeyboardInterrupt
        submitted.append(ProcessPoolExecutor.submit(pool, *args))
        return submitted[-1]

    monkeypatch.setattr(pool, "submit", interrupted_second)
    with pytest.raises(KeyboardInterrupt):
        empirical_cdma_sinr(cfg, None, "mmse", "selective", 40, np.random.default_rng(1))
    assert len(submitted) == 1 and submitted[0].done()
