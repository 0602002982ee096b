"""Desk-scale experiment drivers: sweeps, traces, snapshots, validation.

Every driver is deterministic for a fixed master seed: the OFDMA channel
realization, each grid point and each Monte Carlo trial draw from
independent substreams spawned off the master generator, so grid points
and trials can run in any order (or in parallel) without changing the
result.

Information flow mirrors the deployment split: the allocator sees only
the CDMA design parameters (load, receive SNR, target SINR) through the
margin, and the CDMA-side evaluation sees only the interference profile
produced by the resulting allocation.
"""

from __future__ import annotations

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
    """Grid description for a load or receive-SNR sweep."""

    parameter: str  # "alpha" or "receive_snr_db"
    grid: np.ndarray
    receiver: str
    base: SystemConfig = field(default_factory=SystemConfig)
    trials: int = 200
    seed: int = DEFAULT_SEED
    channel_model: str = "selective"
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.parameter not in ("alpha", "receive_snr_db"):
            raise InvalidParameterError("parameter must be alpha or receive_snr_db")
        if self.grid.size == 0 or np.any(np.diff(self.grid) <= 0):
            raise InvalidParameterError("grid must be nonempty and strictly increasing")
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if self.receiver not in RECEIVERS:
            raise InvalidParameterError(f"receiver must be one of {RECEIVERS}")


@dataclass
class SweepResult:
    """Tabular sweep output, one row per grid point."""

    parameter: str
    receiver: str
    rows: list
    columns: list

    def column(self, name: str) -> np.ndarray:
        return np.asarray([row[name] for row in self.rows], dtype=float)


def empirical_cdma_sinr(cfg: SystemConfig, profile, receiver, model, trials, rng):
    """Monte Carlo mean/std of the exact per-user SINR across random draws.

    Each trial draws fresh spreading codes and channels, evaluates the
    exact finite-dimension formula against the given interference profile
    and averages over users; the returned std is across trial means.
    """
    if cfg.cdma_users == 0:
        return float("nan"), float("nan"), np.array([])
    cdma_only = cfg.replace(ofdma_users=0)
    trial_means = np.empty(trials)
    for i, trial_rng in enumerate(rng.spawn(trials)):
        code_rng, chan_rng = trial_rng.spawn(2)
        codes = gen_spreading_codes(cfg.cdma_users, cfg.n_subcarriers, code_rng)
        channels = gen_channel_set(cdma_only, model, chan_rng)
        signatures = effective_signatures(codes, channels)
        if receiver == "mf":
            report = mf_sinr_exact(signatures, cfg.q, profile, cfg.sigma2)
        else:
            report = mmse_sinr_exact(signatures, cfg.q, profile, cfg.sigma2)
        trial_means[i] = report.mean
    return float(trial_means.mean()), float(trial_means.std()), trial_means


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
    """Margin -> allocation -> profile -> theory + empirical, for one point."""
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
        return row
    alloc, state, rate = solve_p1(problem, solver)
    profile = InterferenceProfile.from_allocation(alloc.powers, gains)
    mean, std, _ = empirical_cdma_sinr(cfg, profile, receiver, model, trials, rng)
    row.update(
        ofdma_throughput=rate,
        cdma_sinr_theory=_theory_sinr(receiver, cfg.alpha, cfg.q, profile, cfg.sigma2),
        cdma_sinr_empirical_mean=mean,
        cdma_sinr_empirical_std=std,
        solver_iterations=state.iteration,
    )
    return row


def _sweep(spec: SweepSpec, configs) -> SweepResult:
    master = np.random.default_rng(spec.seed)
    ofdma_rng, empirical_root = master.spawn(2)
    gains = gen_channel_set(
        spec.base.replace(cdma_users=0), spec.channel_model, ofdma_rng
    ).ofdma_gains
    point_rngs = empirical_root.spawn(len(configs))
    rows = []
    for value, cfg, rng in zip(spec.grid, configs, point_rngs):
        row = {spec.parameter: float(value)}
        row.update(
            _sweep_point(cfg, spec.receiver, spec.channel_model, spec.trials, gains, rng, spec.solver)
        )
        rows.append(row)
    return SweepResult(
        parameter=spec.parameter,
        receiver=spec.receiver,
        rows=rows,
        columns=[spec.parameter] + SWEEP_COLUMNS,
    )


def run_load_sweep(spec: SweepSpec) -> SweepResult:
    """Sweep the CDMA load at fixed receive SNR."""
    if spec.parameter != "alpha":
        raise InvalidParameterError("load sweep needs parameter == 'alpha'")
    configs = [spec.base.replace(alpha=float(a)) for a in spec.grid]
    return _sweep(spec, configs)


def run_snr_sweep(spec: SweepSpec) -> SweepResult:
    """Sweep the CDMA receive SNR (dB grid) at fixed load."""
    if spec.parameter != "receive_snr_db":
        raise InvalidParameterError("snr sweep needs parameter == 'receive_snr_db'")
    configs = [
        spec.base.replace(q=db_to_linear(float(db)) * spec.base.sigma2) for db in spec.grid
    ]
    return _sweep(spec, configs)


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


def run_sinr_validation(
    cfg: SystemConfig,
    trials: int = 200,
    seed: int = DEFAULT_SEED,
    receivers=("mf", "mmse"),
    models=("awgn", "selective"),
    profile=None,
) -> list:
    """Empirical exact-formula SINR versus the deterministic limits.

    Runs the pure shared-band-free case by default (zero interference
    profile); pass ``profile`` to validate against a loaded band.
    """
    if trials < 100:
        raise InvalidParameterError("validation needs at least 100 trials")
    prof = profile if profile is not None else InterferenceProfile.zero(cfg.n_subcarriers)
    master = np.random.default_rng(seed)
    rows = []
    for receiver in receivers:
        for model in models:
            theory = _theory_sinr(receiver, cfg.alpha, cfg.q, prof, cfg.sigma2)
            mean, std, _ = empirical_cdma_sinr(cfg, prof, receiver, model, trials, master.spawn(1)[0])
            rows.append(
                {
                    "receiver": receiver,
                    "channel_model": model,
                    "trials": trials,
                    "sinr_theory": theory,
                    "sinr_empirical_mean": mean,
                    "sinr_empirical_std": std,
                    "relative_error": abs(mean - theory) / theory,
                    "spread_ratio": std / mean,
                }
            )
    return rows
