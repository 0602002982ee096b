"""Desk-scale experiment drivers: sweeps, traces, snapshots, validation.

Every driver is deterministic for a fixed master seed: the OFDMA channel
realization, each grid point and each Monte Carlo trial draw from
independent substreams spawned off the master generator, so grid points
and trials can run in any order (or in parallel) without changing the
result.

Monte Carlo trials run in parallel, and ``_run_trials`` is the one place
that starts, reads and cancels them.  It hands a contiguous slice of each
call's trials to each of a pool of worker processes, one per usable CPU,
each with BLAS on one thread.  The pool is spawned at the first call with
two or more trials, and stops at interpreter exit.  As with any spawned
pool, a script that runs trials must keep its top-level code under
``if __name__ == "__main__":``, because each worker imports the script's
main module.

Sweeps and the validation hand ``_run_trials`` a generator of calls.  A
sweep's generator solves each point before it yields that point's
trials, so the workers run one point's trials while the next point is
solved, and the means are read in grid order after the last solve.  When
each point waited for its own trials, the workers sat idle through every
solve: on the benchmark's load sweep (2-vCPU Xeon, one BLAS thread) the
solves took 0.49-0.57 s of a 3.55-3.94 s pass, and the Monte Carlo ran
at only 1.57 times its serial speed.  Overlapped, the sweep runs 1.22
times the points per second (median of 10 paired runs).

Information flow mirrors the deployment split: the allocator sees only
the CDMA design parameters (load, receive SNR, target SINR) through the
margin, and the CDMA-side evaluation sees only the interference profile
produced by the resulting allocation.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .allocator import AllocationProblem, PowerAllocation, SolverOptions, solve_p1
from .asymptotics import (
    interference_margin,
    mf_asymptotic_uniform,
    mmse_fixed_point_uniform,
    supportable_load,
)
from .cdma import (
    InterferenceProfile,
    effective_signatures,
    gen_spreading_codes,
    mf_sinr_exact,
    mmse_sinr_exact,
)
from .channel import gen_channel_set
from .config import RECEIVERS, SystemConfig, db_to_linear
from .errors import InvalidParameterError

#: Master seed used by the command-line interface when none is given.
DEFAULT_SEED = 42

#: Environment variables that set the BLAS thread count in a worker process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The largest system a Monte Carlo trial may simulate, in entries of U x
#: max(U, N): the U x N codes, or the matched filter's U x U
#: cross-correlations when U > N.  A trial peaked at 27-128 bytes an entry
#: (U, N = 256-1024, both receivers), so this allows about 0.5 GiB per
#: worker: U = 2048 at the default N = 256, or N = 4096 at alpha = 0.25.
#: A larger load is refused by name before any draw, where alpha = 1e5
#: once failed mid-run asking for a 48 GiB code matrix.
MAX_SIMULATED_ENTRIES = 2**22

_pool = None  # the Monte Carlo worker pool, started at first use
_pool_lock = threading.Lock()

#: Light/heavy operating points for the trace and snapshot studies,
#: expressed as fractions of the receiver's own supportable load.  At the
#: default 20 dB operating point the light fraction leaves a margin far
#: beyond what the capped users can spend (power-limited) while the heavy
#: fraction leaves one small enough that channel inversion is affordable
#: (interference-limited).
REGIME_LOAD_FRACTION = {"light": 0.08, "heavy": 0.965}

SWEEP_COLUMNS = [
    "feasible",
    "margin",
    "ofdma_throughput",
    "cdma_sinr_theory",
    "cdma_sinr_empirical_mean",
    "cdma_sinr_empirical_std",
    "solver_iterations",
]


@dataclass
class SweepSpec:
    """Grid for a load or receive-SNR sweep; the run function decides what it holds."""

    grid: np.ndarray
    receiver: str
    base: SystemConfig = field(default_factory=SystemConfig)
    trials: int = 200
    seed: int = DEFAULT_SEED
    channel_model: str = "selective"
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.size == 0 or np.any(np.diff(self.grid) <= 0):
            raise InvalidParameterError("grid must be nonempty and strictly increasing")
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if self.receiver not in RECEIVERS:
            raise InvalidParameterError(f"receiver must be one of {RECEIVERS}")


@dataclass
class SweepResult:
    """Tabular sweep output, one row per grid point."""

    rows: list
    columns: list

    def column(self, name: str) -> np.ndarray:
        return np.asarray([row[name] for row in self.rows], dtype=float)


def _trial_means(cfg, profile, receiver, model, bit_generator, trial_seqs):
    """Mean exact SINR over users, for each trial's SeedSequence in order.

    Each trial's two children seed its spreading codes and its channels.
    The same function runs in-process and in the worker processes.
    """
    cdma_only = cfg.replace(ofdma_users=0)
    means = np.empty(len(trial_seqs))
    for i, trial_seq in enumerate(trial_seqs):
        code_rng, chan_rng = (np.random.Generator(bit_generator(s)) for s in trial_seq.spawn(2))
        codes = gen_spreading_codes(cfg.cdma_users, cfg.n_subcarriers, code_rng)
        channels = gen_channel_set(cdma_only, model, chan_rng)
        signatures = effective_signatures(codes, channels)
        if receiver == "mf":
            per_user = mf_sinr_exact(signatures, cfg.q, profile, cfg.sigma2)
        else:
            per_user = mmse_sinr_exact(signatures, cfg.q, profile, cfg.sigma2)
        means[i] = np.mean(per_user)
    return means


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _init_worker():
    """Leave Ctrl-C to the caller, and exit when the caller is gone.

    A worker idles on a queue that it holds both ends of, so it would
    outlive a caller killed by a signal without the watch thread.
    """
    import multiprocessing

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    caller = multiprocessing.parent_process()
    threading.Thread(target=lambda: (caller.join(), os._exit(1)), daemon=True).start()


#: Why a pool broke, where the cause is most often the caller's script.
BROKEN_POOL_MESSAGE = (
    "a Monte Carlo worker process died; a script that runs Monte Carlo trials "
    "must keep its top-level code under 'if __name__ == \"__main__\":', "
    "because each worker imports the script's main module"
)


def _submit_to_workers(fn, args, chunks, futures):
    """Submit ``fn(*args, chunk)`` for each chunk to the worker pool.

    Each future is appended to ``futures`` as soon as it is made, so a
    caller interrupted between two submits still holds every chunk it
    must cancel.  The pool starts at the first call, with up to one
    spawned worker per usable CPU, and stops at interpreter exit.
    Workers start on demand inside ``submit``, so BLAS is pinned to one
    thread in ``os.environ`` around the submits only, and the caller's
    values are put back.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ProcessPoolExecutor(
                _usable_cpus(),
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_init_worker,
            )
        saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        try:
            for chunk in chunks:
                futures.append(_pool.submit(fn, *args, chunk))
        finally:
            for name, value in saved.items():
                if value is None:
                    del os.environ[name]
                else:
                    os.environ[name] = value


def _run_trials(calls):
    """``empirical_cdma_sinr``'s result for each argument tuple that ``calls`` yields.

    A None call simulates nothing, and gives NaN, NaN and no trial means.
    Each call's trials start as it is yielded, so a generator that solves
    its next point before yielding it overlaps that solve with this
    point's trials.  The means are read in call order after the last
    call, so the first failing call is the one reported, as on one CPU.
    Any error, in ``calls``, in a worker or Ctrl-C, cancels the chunks not
    yet started and waits for the running ones before it propagates.  A
    dead worker breaks the pool: this raises BrokenProcessPool, and the
    next call starts a new pool.
    """
    global _pool
    started = []  # per call: its trial means, or the futures of their chunks
    try:
        for call in calls:
            if call is None:
                started.append(np.array([]))
                continue
            cfg, profile, receiver, model, trials, rng = call
            if trials < 1:
                raise InvalidParameterError("trials must be >= 1")
            seed_seq = getattr(rng.bit_generator, "seed_seq", None)
            if not isinstance(seed_seq, np.random.SeedSequence):
                raise InvalidParameterError(
                    "rng must be seeded from a SeedSequence, to spawn the trials"
                )
            users, n = cfg.cdma_users, cfg.n_subcarriers
            if users * max(users, n) > MAX_SIMULATED_ENTRIES:
                raise InvalidParameterError(
                    f"cdma_users = {users} is too many to simulate at {n} subcarriers: "
                    f"users x max(users, subcarriers) exceeds {MAX_SIMULATED_ENTRIES}"
                )
            # Nothing draws from a trial's own stream, so it is spawned as a
            # SeedSequence; its two children are the Generators that
            # rng.spawn(trials)[i].spawn(2) would give.  Trials run in worker
            # processes, a contiguous slice each, and come back in trial
            # order, so every bit matches a serial run.  Processes, because
            # in one process batching trials ran at 0.88-1.07 times the
            # speed, and a second thread at 0.77-1.18 times on the MMSE
            # kernel, whose scipy BLAS and LAPACK wrappers keep the GIL.  Two
            # worker processes ran the benchmark's load sweep at 1.42 times
            # the points per second and its validation at 1.45 times the
            # trials per second (2-vCPU Xeon, one BLAS thread).  Spawned,
            # not forked: a fork of a caller with unpinned BLAS threads ran
            # the MMSE sweep 2-2.5 times slower than serial.
            trial_seqs = seed_seq.spawn(trials) if users else []
            args = (cfg, profile, receiver, model, type(rng.bit_generator))
            workers = min(_usable_cpus(), len(trial_seqs))
            if workers < 2:
                started.append(_trial_means(*args, trial_seqs))
                continue
            bounds = [i * trials // workers for i in range(workers + 1)]
            chunks = [trial_seqs[a:b] for a, b in zip(bounds, bounds[1:])]
            started.append([])
            _submit_to_workers(_trial_means, args, chunks, started[-1])
        results = []
        for means in started:
            if isinstance(means, list):
                means = np.concatenate([future.result() for future in means])
            if means.size == 0:
                results.append((float("nan"), float("nan"), means))
            else:
                results.append((float(means.mean()), float(means.std()), means))
        return results
    except BaseException as exc:
        submitted = [means for means in started if isinstance(means, list)]
        if not submitted:  # nothing to cancel, and no pool to break
            raise
        from concurrent.futures import wait
        from concurrent.futures.process import BrokenProcessPool

        futures = [future for chunks in submitted for future in chunks]
        for future in futures:
            future.cancel()
        wait(futures)
        if not isinstance(exc, BrokenProcessPool):
            raise
        with _pool_lock:
            if _pool is not None and _pool._broken:
                _pool = None
        raise BrokenProcessPool(BROKEN_POOL_MESSAGE) from exc


def empirical_cdma_sinr(cfg: SystemConfig, profile, receiver, model, trials, rng):
    """Monte Carlo mean/std of the exact per-user SINR across random draws.

    Each trial draws fresh spreading codes and channels, evaluates the
    exact finite-dimension formula against the given interference profile
    and averages over users; the returned std is across trial means.
    ``rng`` must be seeded from a SeedSequence, which spawns one child per
    trial; ``trials`` must be at least 1, and the system no larger than
    ``MAX_SIMULATED_ENTRIES`` allows.
    """
    return _run_trials([(cfg, profile, receiver, model, trials, rng)])[0]


def _theory_sinr(receiver, alpha, q, profile, sigma2):
    if receiver == "mf":
        return mf_asymptotic_uniform(alpha, q, profile.mean, sigma2)
    return mmse_fixed_point_uniform(alpha, q, profile, sigma2).value


def _allocation_instance(cfg, receiver, gains):
    """The receiver's margin at cfg's load and the allocation problem it sets.

    At an infeasible load the margin, and so the problem's budget, is zero.
    """
    result = interference_margin(cfg.alpha, cfg.q, cfg.sigma2, cfg.beta_star, receiver)
    problem = AllocationProblem(
        gains=gains,
        noise_floor=cfg.noise_floor,
        margin=result.margin,
        power_caps=np.asarray(cfg.power_caps),
    )
    return result, problem


def _solve_instance(cfg, receiver, model, seed, solver):
    """Draw OFDMA gains from the master seed, then build and solve the instance.

    Returns ``(margin result, problem, allocation, dual state, throughput)``.
    """
    master = np.random.default_rng(seed)
    gains = gen_channel_set(cfg.replace(cdma_users=0), model, master).ofdma_gains
    result, problem = _allocation_instance(cfg, receiver, gains)
    alloc, state, rate = solve_p1(problem, solver)
    return result, problem, alloc, state, rate


def allocation_rows(alloc: PowerAllocation, gains: np.ndarray):
    """Per-subcarrier owner/power/received-power/gain table and its columns."""
    n_users, n = gains.shape
    columns = ["subcarrier", "owner", "power", "received_power"] + [
        f"gain_{k + 1}" for k in range(n_users)
    ]
    rows = []
    for sc in range(n):
        owner = int(alloc.assignment[sc])
        power = float(alloc.powers[owner, sc]) if owner >= 0 else 0.0
        row = {
            "subcarrier": sc,
            "owner": owner,
            "power": power,
            "received_power": power * gains[owner, sc] if owner >= 0 else 0.0,
        }
        for k in range(n_users):
            row[f"gain_{k + 1}"] = gains[k, sc]
        rows.append(row)
    return rows, columns


def _sweep_point(cfg, receiver, model, trials, gains, rng, solver):
    """Margin -> allocation -> profile -> theory for one point.

    Returns the row, whose empirical cells are still NaN, and the
    ``empirical_cdma_sinr`` arguments of its trials, or None at an
    infeasible point.
    """
    result, problem = _allocation_instance(cfg, receiver, gains)
    row = {
        "feasible": result.feasible,
        "margin": result.margin,
        "ofdma_throughput": 0.0,
        "cdma_sinr_theory": float("nan"),
        "cdma_sinr_empirical_mean": float("nan"),
        "cdma_sinr_empirical_std": float("nan"),
        "solver_iterations": 0,
    }
    if not result.feasible or result.margin <= 0:
        return row, None
    alloc, state, rate = solve_p1(problem, solver)
    profile = InterferenceProfile.from_allocation(alloc.powers, gains)
    row.update(
        ofdma_throughput=rate,
        cdma_sinr_theory=_theory_sinr(receiver, cfg.alpha, cfg.q, profile, cfg.sigma2),
        solver_iterations=state.iteration,
    )
    return row, (cfg, profile, receiver, model, trials, rng)


def _sweep(spec: SweepSpec, parameter: str, configs) -> SweepResult:
    """Solve every point, handing its trials to ``_run_trials``; fill in their means."""
    master = np.random.default_rng(spec.seed)
    ofdma_rng, empirical_root = master.spawn(2)
    gains = gen_channel_set(
        spec.base.replace(cdma_users=0), spec.channel_model, ofdma_rng
    ).ofdma_gains
    point_rngs = empirical_root.spawn(len(configs))
    rows = []

    def calls():
        for value, cfg, rng in zip(spec.grid, configs, point_rngs):
            row, call = _sweep_point(
                cfg, spec.receiver, spec.channel_model, spec.trials, gains, rng, spec.solver
            )
            rows.append({parameter: float(value), **row})
            yield call

    for row, (mean, std, _) in zip(rows, _run_trials(calls())):
        row.update(cdma_sinr_empirical_mean=mean, cdma_sinr_empirical_std=std)
    return SweepResult(rows=rows, columns=[parameter] + SWEEP_COLUMNS)


def run_load_sweep(spec: SweepSpec) -> SweepResult:
    """Sweep the CDMA load at fixed receive SNR."""
    configs = [spec.base.replace(alpha=float(a)) for a in spec.grid]
    return _sweep(spec, "alpha", configs)


def run_snr_sweep(spec: SweepSpec) -> SweepResult:
    """Sweep the CDMA receive SNR (dB grid) at fixed load."""
    configs = [
        spec.base.replace(q=db_to_linear(float(db)) * spec.base.sigma2) for db in spec.grid
    ]
    return _sweep(spec, "receive_snr_db", configs)


@dataclass
class TraceResult:
    rows: list
    columns: list
    allocation: PowerAllocation
    problem: AllocationProblem
    throughput: float
    converged: bool
    duality_gap: float


def _regime_config(cfg: SystemConfig, load_regime: str, receiver: str) -> SystemConfig:
    if load_regime not in REGIME_LOAD_FRACTION:
        raise InvalidParameterError("load_regime must be 'light' or 'heavy'")
    limit = supportable_load(cfg.q, cfg.sigma2, cfg.beta_star, receiver)
    if limit <= 0:
        raise InvalidParameterError("no supportable load at this operating point")
    return cfg.replace(alpha=REGIME_LOAD_FRACTION[load_regime] * limit)


def run_convergence_trace(
    cfg: SystemConfig,
    load_regime: str,
    receiver: str = "mf",
    seed: int = DEFAULT_SEED,
    solver: SolverOptions | None = None,
) -> TraceResult:
    """Per-iteration dual/primal evolution for one light- or heavy-load solve.

    The last row reports the recovered final solution rather than a raw
    iterate, so the trace ends on the returned allocation.
    """
    point = _regime_config(cfg, load_regime, receiver)
    options = replace(solver or SolverOptions(), record_trace=True)
    _, problem, alloc, state, rate = _solve_instance(point, receiver, "selective", seed, options)

    n_users = problem.n_users
    columns = (
        ["iteration", "duality_gap", "delta"]
        + [f"lambda_{k + 1}" for k in range(n_users)]
        + ["throughput", "mean_interference"]
        + [f"power_{k + 1}" for k in range(n_users)]
    )
    final = {
        "iteration": state.iteration + 1,
        "duality_gap": state.gap_trace[-1],
        "delta": state.kkt_delta,
        "lambdas": state.kkt_lambdas,
        "throughput": rate,
        "mean_interference": alloc.mean_interference(problem.gains),
        "user_power": alloc.user_totals(),
    }
    scalars = ("iteration", "duality_gap", "delta", "throughput", "mean_interference")
    rows = []
    for record in state.trace + [final]:
        row = {key: record[key] for key in scalars}
        for k in range(n_users):
            row[f"lambda_{k + 1}"] = record["lambdas"][k]
            row[f"power_{k + 1}"] = record["user_power"][k]
        rows.append(row)
    return TraceResult(
        rows=rows,
        columns=columns,
        allocation=alloc,
        problem=problem,
        throughput=rate,
        converged=state.converged,
        duality_gap=state.gap_trace[-1],
    )


@dataclass
class SnapshotResult:
    rows: list
    columns: list
    allocation: PowerAllocation
    problem: AllocationProblem
    throughput: float


def run_allocation_snapshot(
    cfg: SystemConfig,
    load_regime: str,
    receiver: str = "mf",
    seed: int = DEFAULT_SEED,
    solver: SolverOptions | None = None,
) -> SnapshotResult:
    """Per-subcarrier owner/power/gain table for one solved instance."""
    point = _regime_config(cfg, load_regime, receiver)
    snapshot, _ = run_allocation(point, receiver, "selective", seed, solver)
    return snapshot


def run_allocation(
    cfg: SystemConfig,
    receiver: str = "mf",
    channel_model: str = "selective",
    seed: int = DEFAULT_SEED,
    solver: SolverOptions | None = None,
) -> tuple[SnapshotResult, dict]:
    """Solve one instance at cfg's own load: the snapshot table plus a summary row.

    Solves even at an infeasible load, with zero margin.  The summary's
    keys are its column order.
    """
    result, problem, alloc, state, rate = _solve_instance(
        cfg, receiver, channel_model, seed, solver
    )
    rows, columns = allocation_rows(alloc, problem.gains)
    summary = {
        "receiver": receiver,
        "alpha": cfg.alpha,
        "margin": result.margin,
        "feasible": result.feasible,
        "throughput": rate,
        "mean_interference": InterferenceProfile.from_allocation(alloc.powers, problem.gains).mean,
        "duality_gap": state.gap_trace[-1],
        "iterations": state.iteration,
        "converged": state.converged,
    }
    for k, total in enumerate(alloc.user_totals()):
        summary[f"power_{k + 1}"] = total
    snapshot = SnapshotResult(
        rows=rows, columns=columns, allocation=alloc, problem=problem, throughput=rate
    )
    return snapshot, summary


MARGIN_COLUMNS = [
    "receiver",
    "alpha",
    "receive_snr_db",
    "target_sinr_db",
    "supportable_load",
    "margin",
    "feasible",
]


def margin_rows(cfg: SystemConfig) -> list:
    """Supportable load and margin at cfg's operating point, one row per receiver."""
    rows = []
    for receiver in RECEIVERS:
        result = interference_margin(cfg.alpha, cfg.q, cfg.sigma2, cfg.beta_star, receiver)
        rows.append(
            {
                "receiver": receiver,
                "alpha": cfg.alpha,
                "receive_snr_db": cfg.receive_snr_db,
                "target_sinr_db": cfg.target_sinr_db,
                "supportable_load": result.alpha_star,
                "margin": result.margin,
                "feasible": result.feasible,
            }
        )
    return rows


VALIDATION_COLUMNS = [
    "receiver",
    "channel_model",
    "trials",
    "sinr_theory",
    "sinr_empirical_mean",
    "sinr_empirical_std",
    "relative_error",
    "spread_ratio",
]


def run_sinr_validation(cfg: SystemConfig, trials: int = 200, seed: int = DEFAULT_SEED) -> list:
    """Empirical exact-formula SINR versus the deterministic limits.

    One row for each receiver on AWGN and on selective channels, in the
    shared-band-free case (zero interference profile).
    """
    if trials < 100:
        raise InvalidParameterError("validation needs at least 100 trials")
    prof = InterferenceProfile.zero(cfg.n_subcarriers)
    master = np.random.default_rng(seed)
    rows = [
        {
            "receiver": receiver,
            "channel_model": model,
            "trials": trials,
            "sinr_theory": _theory_sinr(receiver, cfg.alpha, cfg.q, prof, cfg.sigma2),
        }
        for receiver in RECEIVERS
        for model in ("awgn", "selective")
    ]
    calls = (
        (cfg, prof, row["receiver"], row["channel_model"], trials, master.spawn(1)[0])
        for row in rows
    )
    for row, (mean, std, _) in zip(rows, _run_trials(calls)):
        theory = row["sinr_theory"]
        row.update(
            sinr_empirical_mean=mean,
            sinr_empirical_std=std,
            relative_error=abs(mean - theory) / theory,
            spread_ratio=std / mean,
        )
    return rows
