"""The Monte Carlo worker pool: same trials, same errors, pinned BLAS, no leftovers."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import refarm
from refarm import InterferenceProfile, SystemConfig, experiments
from refarm.errors import InvalidParameterError, NumericalError
from refarm.experiments import empirical_cdma_sinr

SRC = str(Path(refarm.__file__).resolve().parent.parent)

needs_two_cpus = pytest.mark.skipif(
    experiments._usable_cpus() < 2, reason="with one usable CPU the trials run in-process"
)


def _in_process(cfg, profile, receiver, model, trials, seed):
    rng = np.random.default_rng(seed)
    seqs = rng.bit_generator.seed_seq.spawn(trials)
    return experiments._trial_means(cfg, profile, receiver, model, np.random.PCG64, seqs)


def _python(code, **kwargs):
    """Run ``code`` in a fresh interpreter that imports this checkout's refarm."""
    env = dict(os.environ, PYTHONPATH=SRC)
    for name in experiments.BLAS_THREAD_VARS:
        env.pop(name, None)
    return subprocess.Popen(
        [sys.executable, "-X", "dev", "-c", textwrap.dedent(code)],
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
    import numpy as np
    from refarm import SystemConfig, experiments
    from refarm.cli import main
    for command in (["margin"], ["allocate"], ["trace"], ["snapshot"]):
        assert main(["--out", {str(tmp_path)!r}, "--quiet", *command]) == 0
    cfg = SystemConfig(n_subcarriers=16, cdma_users=3, ofdma_users=0, multipath_taps=2)
    experiments.empirical_cdma_sinr(cfg, None, "mmse", "selective", 1, np.random.default_rng(0))
    print(experiments._pool is None)
    """
    out, err = _python(code).communicate(timeout=120)
    assert (out.split(), err) == (["True"], "")


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
    print(*experiments._map_in_workers(os.getenv, (), list(names)))
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
