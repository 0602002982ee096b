"""Uplink OFDMA subcarrier and power allocation under an interference budget.

The problem: maximize sum-rate log2(1 + p*g/floor) over a K x N power
matrix with (i) each subcarrier used by at most one user, (ii) per-user
total power caps, and (iii) the average received interference power
(1/N) sum p*g held below the margin granted by the co-channel CDMA side.

Strategy: Lagrangian dual decomposition.  At fixed dual prices (delta for
interference, lambda_k per power cap) the inner maximization separates
into N independent per-subcarrier problems whose closed-form candidate
powers and winner scores are computed below.  Dual prices follow a
projected subgradient descent with diminishing, norm-scaled steps.  A
feasible primal is recovered by fixing the subcarrier assignment obtained
at the (trailing-window) averaged prices and solving the remaining convex
problem exactly: capped water-filling per user, with a bisection on the
interference price when the margin binds.  The multipliers of that inner
solve are themselves dual-feasible, which tightens the reported duality
gap.  Tiny instances fall back to exhaustive assignment enumeration, each
enumerated assignment solved through the same exact restricted path.

The candidate powers used inside the dual loop are additionally clipped
at the user's own cap.  The clip is implied by the cap constraint, so it
changes neither the feasible set nor the optimum, but it keeps the dual
function finite at the all-zero price point and makes the iteration
self-correcting there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from .errors import InvalidParameterError

LN2 = np.log(2.0)

#: Default subgradient schedule scale; the per-iteration step is
#: step_scale / (sqrt(t) * (1 + ||subgradient||)).
DEFAULT_STEP_SCALE = 0.1

#: Share of the dual iterates, counted back from the latest, whose average
#: prices the assignment handed to each primal recovery.
AVERAGING_FRACTION = 0.1

#: Instances with at most this many assignments (K**N) are also solved by
#: enumerating every assignment through the exact restricted solve.
EXHAUSTIVE_LIMIT = 4096


@dataclass
class AllocationProblem:
    """One allocation instance: gains, floor, margin and caps."""

    gains: np.ndarray
    noise_floor: float
    margin: float
    power_caps: np.ndarray

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=float)
        self.power_caps = np.atleast_1d(np.asarray(self.power_caps, dtype=float))
        if self.gains.ndim != 2:
            raise InvalidParameterError("gains must be a (K, N) matrix")
        if np.any(self.gains < 0):
            raise InvalidParameterError("gains must be >= 0")
        if self.noise_floor <= 0:
            raise InvalidParameterError("noise_floor must be > 0")
        if self.margin < 0:
            raise InvalidParameterError("margin must be >= 0")
        if self.power_caps.shape != (self.gains.shape[0],):
            raise InvalidParameterError("need one power cap per user")
        if np.any(self.power_caps < 0):
            raise InvalidParameterError("power caps must be >= 0")

    @property
    def n_users(self) -> int:
        return self.gains.shape[0]

    @property
    def n_subcarriers(self) -> int:
        return self.gains.shape[1]


@dataclass
class PowerAllocation:
    """Exclusive K x N power matrix plus the per-subcarrier owner (-1: none)."""

    powers: np.ndarray
    assignment: np.ndarray

    def __post_init__(self):
        self.powers = np.asarray(self.powers, dtype=float)
        self.assignment = np.asarray(self.assignment, dtype=int)

    @classmethod
    def from_powers(cls, powers: np.ndarray) -> "PowerAllocation":
        powers = np.asarray(powers, dtype=float)
        if powers.shape[0] == 0:  # no users: argmax has nothing to scan
            return cls(powers=powers, assignment=np.full(powers.shape[1], -1))
        positive = powers > 0
        owner = np.where(positive.any(axis=0), positive.argmax(axis=0), -1)
        return cls(powers=powers, assignment=owner)

    def user_totals(self) -> np.ndarray:
        return self.powers.sum(axis=1)

    def mean_interference(self, gains: np.ndarray) -> float:
        return float(np.sum(self.powers * gains)) / self.powers.shape[1]

    def is_exclusive(self) -> bool:
        return bool(np.all(np.sum(self.powers > 0, axis=0) <= 1))

    def validate(self, problem: AllocationProblem, tol: float = 1e-9):
        """Raise unless exclusivity, caps and the margin all hold within tol."""
        if not self.is_exclusive():
            raise InvalidParameterError("allocation violates subcarrier exclusivity")
        if np.any(self.powers < 0):
            raise InvalidParameterError("allocation has negative powers")
        if np.any(self.user_totals() > problem.power_caps + tol):
            raise InvalidParameterError("allocation exceeds a power cap")
        if self.mean_interference(problem.gains) > problem.margin + tol:
            raise InvalidParameterError("allocation exceeds the interference margin")


@dataclass
class DualState:
    """Dual prices and convergence bookkeeping for the subgradient solver."""

    delta: float
    lambdas: np.ndarray
    iteration: int = 0
    step_scale: float = DEFAULT_STEP_SCALE
    gap_trace: list = field(default_factory=list)
    converged: bool = False
    trivial: bool = False
    kkt_delta: float | None = None
    kkt_lambdas: np.ndarray | None = None
    trace: list | None = None

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        if self.delta < 0 or np.any(self.lambdas < 0):
            raise InvalidParameterError("dual variables must be >= 0")


@dataclass
class SolverOptions:
    max_iterations: int = 5000
    gap_tolerance: float = 1e-3
    step_scale: float | None = None  # default 0.1 * max(1, 1/margin)
    delta_init: float = 0.01
    lambda_init: float = 0.1
    check_interval: int = 250
    record_trace: bool = False

    def __post_init__(self):
        checks = [
            (self.max_iterations >= 1, "max_iterations >= 1"),
            (self.gap_tolerance > 0, "gap_tolerance > 0"),
            (self.check_interval >= 1, "check_interval >= 1"),
        ]
        for ok, name in checks:
            if not ok:
                raise InvalidParameterError(f"invariant violated: {name}")


class WaterfillResult(NamedTuple):
    powers: np.ndarray
    water_level: float
    feasible: bool


class ChannelInverseResult(NamedTuple):
    allocation: PowerAllocation
    throughput: float
    excluded_subcarriers: int


def throughput(problem: AllocationProblem, powers: np.ndarray) -> float:
    """Sum rate in bits per OFDMA symbol."""
    return float(np.sum(np.log2(1.0 + powers * problem.gains / problem.noise_floor)))


# ---------------------------------------------------------------------------
# Per-subcarrier pieces of the dual decomposition
# ---------------------------------------------------------------------------

def _candidate_matrix(gains, noise_floor, delta, lambdas, caps):
    """Stationary power for every (user, subcarrier) at the given dual prices.

    p = [1/((lambda_k + delta*g) ln 2) - floor/g]^+, clipped at the user's
    cap.  With delta = 0 this is a water-filling level set by lambda_k;
    with lambda_k = 0 the received power p*g is the same on every
    subcarrier (channel inverse); with both prices zero it is the cap.
    Zero-gain entries get zero power.
    """
    price = lambdas[:, None] + delta * gains
    safe_gain = np.where(gains > 0, gains, 1.0)
    with np.errstate(divide="ignore"):
        powers = 1.0 / (price * LN2) - noise_floor / safe_gain
    powers = np.where(price > 0, powers, np.inf)
    powers = np.clip(powers, 0.0, caps[:, None])
    return np.where(gains > 0, powers, 0.0)


def _scores(gains, noise_floor, powers, delta, lambdas):
    """Per-(user, subcarrier) Lagrangian score of the candidate powers."""
    rate = np.log2(1.0 + powers * gains / noise_floor)
    return rate - lambdas[:, None] * powers - delta * powers * gains


def _assign_all(problem, delta, lambdas):
    """Exclusive candidate allocation and per-subcarrier best scores.

    Each subcarrier goes to its best-scoring user, or to nobody (-1) when
    no score is positive; exact ties break toward the lowest user index.
    """
    gains = problem.gains
    powers = _candidate_matrix(gains, problem.noise_floor, delta, lambdas, problem.power_caps)
    scores = _scores(gains, problem.noise_floor, powers, delta, lambdas)
    owner = np.argmax(scores, axis=0)
    cols = np.arange(gains.shape[1])
    best = scores[owner, cols]
    owner = np.where(best > 0.0, owner, -1)
    exclusive = np.zeros_like(powers)
    active = owner >= 0
    exclusive[owner[active], cols[active]] = powers[owner[active], cols[active]]
    return exclusive, owner, np.maximum(best, 0.0)


def _dual_value(problem, delta, lambdas):
    """Value of the Lagrangian dual at the given prices (upper bound).

    The per-subcarrier price on received power is delta*g, i.e. the
    multiplier on the averaged interference constraint is N*delta, hence
    the N*delta*margin constant term.
    """
    _, _, best = _assign_all(problem, delta, lambdas)
    return (
        float(best.sum())
        + float(lambdas @ problem.power_caps)
        + problem.n_subcarriers * delta * problem.margin
    )


def _subgradient(problem, powers):
    sbar = float(np.sum(powers * problem.gains)) / problem.n_subcarriers
    return np.concatenate(([problem.margin - sbar], problem.power_caps - powers.sum(axis=1)))


def subgradient_step(state: DualState, powers, problem: AllocationProblem) -> DualState:
    """One projected subgradient update of the dual prices.

    Moves opposite the constraint-slack vector with a diminishing,
    norm-scaled step and projects back onto the nonnegative orthant; a
    violated constraint therefore raises its price.
    """
    d = _subgradient(problem, powers)
    t = state.iteration + 1
    step = state.step_scale / (np.sqrt(t) * (1.0 + np.linalg.norm(d)))
    return replace(
        state,
        delta=max(0.0, state.delta - step * d[0]),
        lambdas=np.maximum(0.0, state.lambdas - step * d[1:]),
        iteration=t,
    )


# ---------------------------------------------------------------------------
# Exact restricted solves (assignment fixed)
# ---------------------------------------------------------------------------

def _waterfill_closed_form(gains, cap, noise_floor):
    """Exact capped water-filling: p = [w - floor/g]^+ with sum p = cap."""
    powers = np.zeros_like(gains)
    positive = gains > 0
    if cap <= 0 or not np.any(positive):
        return powers, float("inf"), False
    base = noise_floor / gains[positive]
    order = np.argsort(base)
    sorted_base = base[order]
    cumulative = np.cumsum(sorted_base)
    for active in range(sorted_base.size, 0, -1):
        level = (cap + cumulative[active - 1]) / active
        if level > sorted_base[active - 1]:
            break
    filled = np.zeros(sorted_base.size)
    filled[:active] = level - sorted_base[:active]
    unsorted = np.zeros_like(filled)
    unsorted[order] = filled
    powers[positive] = unsorted
    return powers, float(level), True


def _waterfill_priced(gains, cap, noise_floor, delta, tol=1e-13):
    """Per-user optimum at interference price delta; returns (p, lambda_k).

    Maximizes sum log2(1 + p g/floor) - delta * sum p g subject to
    sum p <= cap, p >= 0.  lambda_k is the cap multiplier (0 if slack).
    """
    gains = np.asarray(gains, dtype=float)
    powers = np.zeros_like(gains)
    positive = gains > 0
    if cap <= 0 or not np.any(positive):
        return powers, 0.0
    if delta <= 0:
        filled, level, ok = _waterfill_closed_form(gains, cap, noise_floor)
        lam = 1.0 / (level * LN2) if ok and np.isfinite(level) else 0.0
        return filled, lam
    gv = gains[positive]

    def spend(lam):
        return np.maximum(1.0 / ((lam + delta * gv) * LN2) - noise_floor / gv, 0.0)

    if spend(0.0).sum() <= cap:
        powers[positive] = spend(0.0)
        return powers, 0.0
    low, high = 0.0, float(np.max(gv / (noise_floor * LN2)))
    for _ in range(100):
        mid = 0.5 * (low + high)
        if spend(mid).sum() > cap:
            low = mid
        else:
            high = mid
        if high - low <= tol * max(1.0, high):
            break
    powers[positive] = spend(high)
    return powers, high


def _solve_fixed_assignment(problem, owner):
    """Exact optimum of the convex problem left once the assignment is fixed.

    Returns (powers, delta, lambdas).  Water-fills each user to its cap
    first; if the margin is then violated, bisects the common interference
    price until the average received power meets the margin exactly.  The
    received-power curve is continuous and nonincreasing in the price, so
    the bisection converges to the KKT point.
    """
    gains, floor, margin = problem.gains, problem.noise_floor, problem.margin
    n_users, n = gains.shape
    indices = [np.nonzero(owner == k)[0] for k in range(n_users)]

    def alloc_at(delta):
        powers = np.zeros((n_users, n))
        lams = np.zeros(n_users)
        for k in range(n_users):
            if indices[k].size:
                powers[k, indices[k]], lams[k] = _waterfill_priced(
                    gains[k, indices[k]], problem.power_caps[k], floor, delta
                )
        return powers, lams

    def mean_interference(powers):
        return float(np.sum(powers * gains)) / n

    if margin <= 0:
        return np.zeros((n_users, n)), 0.0, np.zeros(n_users)
    powers, lams = alloc_at(0.0)
    if mean_interference(powers) <= margin * (1.0 + 1e-12):
        return powers, 0.0, lams
    low, high = 0.0, 1.0000001 / (floor * LN2)
    for _ in range(100):
        mid = 0.5 * (low + high)
        mid_powers, _ = alloc_at(mid)
        if mean_interference(mid_powers) > margin:
            low = mid
        else:
            high = mid
        if high - low <= 1e-15 * high:
            break
    powers, lams = alloc_at(high)
    excess = mean_interference(powers)
    if excess > margin > 0:
        powers *= margin / excess
    return powers, high, lams


def _cheap_feasible(problem, powers):
    """Feasibility projection by scaling: per-user to the caps, then global."""
    totals = powers.sum(axis=1)
    over = totals > problem.power_caps
    scale = np.where(over, problem.power_caps / np.maximum(totals, 1e-300), 1.0)
    projected = powers * scale[:, None]
    sbar = float(np.sum(projected * problem.gains)) / problem.n_subcarriers
    if sbar > problem.margin:
        projected = (
            projected * (problem.margin / sbar) if problem.margin > 0 else np.zeros_like(projected)
        )
    return projected


# ---------------------------------------------------------------------------
# Full solvers
# ---------------------------------------------------------------------------

def solve_p1(problem: AllocationProblem, options: SolverOptions | None = None):
    """Dual-decomposition solve of the capped, margin-constrained problem.

    Returns ``(PowerAllocation, DualState, throughput)``.  The allocation
    always satisfies both constraint families (see
    :meth:`PowerAllocation.validate`); ``DualState.converged`` records
    whether the relative duality gap fell below the tolerance before the
    iteration cap.
    """
    opts = options or SolverOptions()
    n_users, n = problem.n_users, problem.n_subcarriers
    step_scale = opts.step_scale
    if step_scale is None:
        step_scale = DEFAULT_STEP_SCALE * max(1.0, 1.0 / problem.margin) if problem.margin > 0 else DEFAULT_STEP_SCALE

    state = DualState(
        delta=opts.delta_init,
        lambdas=np.full(n_users, opts.lambda_init),
        step_scale=step_scale,
        trace=[] if opts.record_trace else None,
    )
    if n_users == 0 or problem.margin <= 0 or not np.any(problem.power_caps > 0):
        # Nothing to allocate: the margin forces p*g = 0 everywhere and
        # subcarriers with g = 0 contribute no rate.
        alloc = PowerAllocation.from_powers(np.zeros((n_users, n)))
        state.trivial = True
        state.converged = True
        state.kkt_delta = 0.0
        state.kkt_lambdas = np.zeros(n_users)
        state.gap_trace.append(0.0)
        return alloc, state, 0.0

    best_dual = np.inf
    best_primal = 0.0
    best_recovered = None  # (throughput, powers, owner, kkt_delta, kkt_lambdas)
    dual_history = []

    def averaged_duals():
        window = max(1, int(AVERAGING_FRACTION * len(dual_history)))
        tail = np.asarray(dual_history[-window:])
        return float(tail[:, 0].mean()), tail[:, 1:].mean(axis=0)

    def recover():
        nonlocal best_dual, best_primal, best_recovered
        delta_bar, lambda_bar = averaged_duals()
        _, owner, _ = _assign_all(problem, delta_bar, lambda_bar)
        powers, kkt_delta, kkt_lams = _solve_fixed_assignment(problem, owner)
        value = throughput(problem, powers)
        if best_recovered is None or value > best_recovered[0]:
            best_recovered = (value, powers, owner, kkt_delta, kkt_lams)
        best_primal = max(best_primal, value)
        for dd, ll in ((kkt_delta, kkt_lams), (delta_bar, lambda_bar)):
            best_dual = min(best_dual, _dual_value(problem, dd, ll))
        if problem.margin > 0:
            # Analytic price of the pure channel-inverse regime.
            inverse_delta = 1.0 / ((problem.margin + problem.noise_floor) * LN2)
            best_dual = min(best_dual, _dual_value(problem, inverse_delta, np.zeros(n_users)))

    for t in range(1, opts.max_iterations + 1):
        powers, owner, scores = _assign_all(problem, state.delta, state.lambdas)
        dual = (
            float(scores.sum())
            + float(state.lambdas @ problem.power_caps)
            + n * state.delta * problem.margin
        )
        best_dual = min(best_dual, dual)
        feasible = _cheap_feasible(problem, powers)
        best_primal = max(best_primal, throughput(problem, feasible))
        gap = (best_dual - best_primal) / max(abs(best_primal), 1e-12)
        state.gap_trace.append(gap)
        if state.trace is not None:
            state.trace.append(
                {
                    "iteration": t,
                    "duality_gap": gap,
                    "delta": state.delta,
                    "lambdas": state.lambdas.copy(),
                    "throughput": throughput(problem, feasible),
                    "mean_interference": float(np.sum(feasible * problem.gains)) / n,
                    "user_power": feasible.sum(axis=1),
                }
            )
        dual_history.append(np.concatenate(([state.delta], state.lambdas)))
        state = subgradient_step(state, powers, problem)
        if t % opts.check_interval == 0 or t == opts.max_iterations:
            recover()
            gap = (best_dual - best_primal) / max(abs(best_primal), 1e-12)
            state.gap_trace[-1] = gap
            if state.trace is not None:
                state.trace[-1]["duality_gap"] = gap
            if gap < opts.gap_tolerance:
                state.converged = True
                break

    if best_recovered is None:
        recover()

    # Tiny instances: enumerate every assignment through the exact
    # restricted solve; the dual bound is genuinely loose at small N.
    if n_users**n <= EXHAUSTIVE_LIMIT:
        for combo in itertools.product(range(n_users), repeat=n):
            owner = np.asarray(combo)
            powers, kkt_delta, kkt_lams = _solve_fixed_assignment(problem, owner)
            value = throughput(problem, powers)
            if value > best_recovered[0]:
                best_recovered = (value, powers, owner, kkt_delta, kkt_lams)
        best_primal = max(best_primal, best_recovered[0])

    value, powers, owner, kkt_delta, kkt_lams = best_recovered
    final_gap = (best_dual - max(best_primal, value)) / max(abs(max(best_primal, value)), 1e-12)
    state.gap_trace.append(final_gap)
    state.converged = state.converged or final_gap < opts.gap_tolerance
    state.kkt_delta = kkt_delta
    state.kkt_lambdas = kkt_lams
    owner = np.where(powers.max(axis=0) > 0, owner, -1)
    alloc = PowerAllocation(powers=powers, assignment=owner)
    return alloc, state, value


def solve_p2_waterfill(gains, cap, noise_floor) -> WaterfillResult:
    """Single-user water-filling against the CDMA-plus-noise floor.

    The water level satisfies p = [w - floor/g]^+ with sum p equal to the
    cap exactly (closed-form active-set solve; no residual beyond float
    rounding).  ``feasible`` is False when the cap cannot be spent because
    every gain is zero.
    """
    gains = np.asarray(gains, dtype=float)
    if cap < 0:
        raise InvalidParameterError("cap must be >= 0")
    if np.any(gains < 0):
        raise InvalidParameterError("gains must be >= 0")
    if cap == 0:
        return WaterfillResult(np.zeros_like(gains), float("inf"), True)
    powers, level, ok = _waterfill_closed_form(gains, cap, noise_floor)
    return WaterfillResult(powers, level, ok)


def solve_p3_channel_inverse(problem: AllocationProblem) -> ChannelInverseResult:
    """Margin-only allocation: equal received power on every usable subcarrier.

    Each subcarrier goes to its best-gain user and carries received power
    margin * N / N_active, so the average equals the margin exactly and
    the throughput N_active * log2(1 + rho/floor) does not depend on the
    gain values.  Subcarriers where every user has zero gain are excluded
    (and the closed form then applies with the reduced count).
    """
    gains = problem.gains
    n_users, n = gains.shape
    best_gain = gains.max(axis=0) if n_users else np.zeros(n)
    usable = best_gain > 0
    owner = np.where(usable, gains.argmax(axis=0) if n_users else -1, -1)
    n_active = int(usable.sum())
    powers = np.zeros((n_users, n))
    if problem.margin > 0 and n_active > 0:
        received = problem.margin * n / n_active
        cols = np.nonzero(usable)[0]
        powers[owner[cols], cols] = received / best_gain[cols]
        rate = n_active * np.log2(1.0 + received / problem.noise_floor)
    else:
        owner = np.full(n, -1)
        rate = 0.0
    alloc = PowerAllocation(powers=powers, assignment=owner)
    return ChannelInverseResult(alloc, float(rate), n - n_active)


BRUTE_FORCE_MAX_SUBCARRIERS = 6
BRUTE_FORCE_MAX_USERS = 2


def brute_force_oracle(problem: AllocationProblem):
    """Ground-truth solve for tiny instances by exhaustive assignment search.

    Enumerates every exclusive assignment and optimizes the remaining
    concave power problem with a general-purpose constrained solver
    (SLSQP), independent of the dual-decomposition machinery.  Refuses
    instances beyond N=6 subcarriers or K=2 users.
    """
    n_users, n = problem.n_users, problem.n_subcarriers
    if n > BRUTE_FORCE_MAX_SUBCARRIERS or n_users > BRUTE_FORCE_MAX_USERS:
        raise InvalidParameterError("brute force limited to N <= 6, K <= 2")
    if n_users == 0:
        return PowerAllocation.from_powers(np.zeros((0, n))), 0.0
    floor, margin = problem.noise_floor, problem.margin
    best_value, best_assignment, best_powers = -np.inf, None, None
    for combo in itertools.product(range(n_users), repeat=n):
        owner = np.asarray(combo)
        gains = problem.gains[owner, np.arange(n)]

        def negative_rate(p, g=gains):
            return -np.sum(np.log2(1.0 + p * g / floor))

        def negative_rate_grad(p, g=gains):
            return -(g / floor) / (1.0 + p * g / floor) / LN2

        constraints = [
            {
                "type": "ineq",
                "fun": lambda p, g=gains: margin - np.sum(p * g) / n,
                "jac": lambda p, g=gains: -g / n,
            }
        ]
        for k in range(n_users):
            mask = (owner == k).astype(float)
            constraints.append(
                {
                    "type": "ineq",
                    "fun": lambda p, m=mask, k=k: problem.power_caps[k] - np.sum(p * m),
                    "jac": lambda p, m=mask: -m,
                }
            )
        result = minimize(
            negative_rate,
            np.zeros(n),
            jac=negative_rate_grad,
            bounds=[(0.0, None)] * n,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 300, "ftol": 1e-12},
        )
        if -result.fun > best_value:
            best_value = -result.fun
            best_assignment = owner
            best_powers = np.maximum(result.x, 0.0)
    powers = np.zeros((n_users, n))
    powers[best_assignment, np.arange(n)] = best_powers
    owner = np.where(best_powers > 0, best_assignment, -1)
    return PowerAllocation(powers=powers, assignment=owner), float(best_value)
