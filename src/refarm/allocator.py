"""Uplink OFDMA subcarrier and power allocation under an interference budget.

The problem: maximize sum-rate log2(1 + p*g/floor) over a K x N power
matrix with (i) each subcarrier used by at most one user, (ii) per-user
total power caps, and (iii) the average received interference power
(1/N) sum p*g held below the margin granted by the co-channel CDMA side.

Strategy: Lagrangian dual decomposition.  At fixed dual prices (delta for
interference, lambda_k per power cap) the inner maximization separates
into N independent per-subcarrier problems whose closed-form candidate
powers and winner scores are computed below.  The dual has only K + 1
variables, so it is minimized by the central-cut ellipsoid method, as in
Yu & Lui, "Dual methods for nonconvex spectrum optimization of
multicarrier systems", IEEE Trans. Commun. 2006.  The starting ellipsoid
holds a box that holds a dual minimizer, so every evaluated center gives
a certified lower bound on the dual minimum, and the loop stops once the
dual minimum is known to a relative DUAL_TOLERANCE.

A feasible primal is recovered by fixing the subcarrier assignment won at
the best center and solving the convex problem that is left exactly: a
Newton iteration on each user's cap price inside a safeguarded Newton
iteration on the interference price.  The prices of that solve are
themselves a dual point, which can lower the dual bound.  The reported
duality gap and ``converged`` flag are measured against the allocation
that is returned.

Tiny instances (K**N <= EXHAUSTIVE_LIMIT) skip the dual loop: every
assignment goes through the exact restricted solve, so the best one is
the optimum and its duality gap is 0.  Their dual bound can be genuinely
loose, by about K + 1 subcarriers' worth of rate.

The candidate powers used inside the dual are additionally clipped at
the user's own cap.  The clip is implied by the cap constraint, so it
changes neither the feasible set nor the optimum, but it keeps the dual
function finite at the all-zero price point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError

LN2 = np.log(2.0)

#: The ellipsoid loop stops once the certified dual interval
#: [lower, upper] is at most this wide relative to upper.  It sits well
#: below any gap tolerance a caller sets, and the loop's cost grows only
#: with its logarithm.
DUAL_TOLERANCE = 1e-7

#: Instances with at most this many assignments (K**N) are solved by
#: enumerating every assignment through the exact restricted solve.
EXHAUSTIVE_LIMIT = 4096

#: Relative accuracy of the restricted solve's Newton iterations on the
#: spend of each cap and on the received power.  Newton converges
#: quadratically, so float rounding is reached a step or two later than
#: with any looser setting.
_NEWTON_RTOL = 1e-12

#: Step limit of those Newton iterations.  They need about log2(N) steps
#: to come near a root from their starting point, then a few more.
_NEWTON_MAX_STEPS = 100

#: Entries of the (B, K, N) arrays that one batched restricted solve
#: holds.  Every 2 x 12 assignment fits in one batch; an instance with
#: many users and few subcarriers is solved in several.
_BATCH_ENTRIES = 1 << 17


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
    """Dual prices and convergence bookkeeping for the ellipsoid solver."""

    delta: float
    lambdas: np.ndarray
    iteration: int = 0
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
    """Lagrangian dual at the given prices (an upper bound) and its maximizer.

    Returns ``(value, powers, owner)``, where powers and owner are the
    exclusive allocation of :func:`_assign_all`.  The per-subcarrier price
    on received power is delta*g, i.e. the multiplier on the averaged
    interference constraint is N*delta, hence the N*delta*margin constant
    term.
    """
    powers, owner, best = _assign_all(problem, delta, lambdas)
    value = (
        float(best.sum())
        + float(lambdas @ problem.power_caps)
        + problem.n_subcarriers * delta * problem.margin
    )
    return value, powers, owner


def _subgradient(problem, powers):
    """Subgradient of the dual in (delta, lambda) at prices maximized by powers.

    Its entries are the constraint slacks, N*margin - sum p*g and
    cap_k - sum_n p_kn: a violated constraint gives a negative entry.
    """
    received = float(np.sum(powers * problem.gains))
    return np.concatenate(
        ([problem.n_subcarriers * problem.margin - received], problem.power_caps - powers.sum(axis=1))
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


def _priced_powers(owned, noise_floor, caps, delta, start):
    """Every user's restricted optimum at interference prices delta.

    ``owned`` is a (B, K, N) stack of gain matrices, each zeroed off its
    assignment and on users with a zero cap; ``delta`` and ``start`` hold
    one price and one (K,) vector of cap prices per instance.  Returns
    ``(powers, lambdas, slope)``: the powers
    p = [1/((lambda_k + delta*g) ln 2) - floor/g]^+, the cap prices, and
    the derivative in delta of each instance's received power sum p*g.

    A user's spend is convex and decreasing in lambda_k, so Newton's
    method started below the root rises onto it without overshooting.  It
    starts from ``start``, which must lie below the root, or from the price
    at which the user's best subcarrier alone spends the cap, whichever is
    higher; the other subcarriers add a nonnegative spend, so the root is
    not below the latter.  A user whose spend at lambda_k = 0 stays within
    the cap keeps lambda_k = 0.  Any rounding left above a cap is scaled
    away.
    """
    # floor/g is infinite off the assignment, so no power is active there.
    with np.errstate(divide="ignore"):
        base = noise_floor / owned
    priced = delta[:, None, None] * owned
    single = 1.0 / ((caps[:, None] + base) * LN2) - priced
    lambdas = np.maximum(single.max(axis=2, initial=0.0), start)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_STEPS):
            inverse = 1.0 / (lambdas[:, :, None] + priced)
            powers = inverse / LN2 - base
            active = powers > 0
            powers = np.where(active, powers, 0.0)
            weight = np.where(active, inverse * inverse, 0.0)
            excess = powers.sum(axis=2) - caps
            over = excess > _NEWTON_RTOL * caps
            if not over.any():
                break
            lambdas = np.where(over, lambdas + excess * LN2 / weight.sum(axis=2), lambdas)
    spend = powers.sum(axis=2)
    powers *= np.where(spend > caps, caps / np.where(spend > 0, spend, 1.0), 1.0)[:, :, None]
    # A capped user's price moves with delta so that its spend stays at the
    # cap: d(lambda_k)/d(delta) = -sum g/price^2 / sum 1/price^2.
    a, b, c = (np.sum(weight * owned**j, axis=2) for j in range(3))
    dlambda = np.where(lambdas > 0, -b / np.where(a > 0, a, 1.0), 0.0)
    return powers, lambdas, -np.sum(dlambda * b + c, axis=1) / LN2


def _solve_fixed_assignments(problem, owners):
    """Exact optimum of the convex problem left once the assignment is fixed.

    ``owners`` is a (B, N) stack of assignments, solved together.  Returns
    ``(powers, delta, lambdas)`` with shapes (B, K, N), (B,) and (B, K).
    Water-fills each user to its cap at delta = 0; where the margin is
    then violated, finds the interference price at which the average
    received power meets the margin.  That power is continuous and
    nonincreasing in delta and is zero at 1/(floor ln 2), so a Newton step
    that leaves the bracket falls back to bisection.  The cap prices at
    the bracket's upper end lie below those at any price inside it, so
    they start the next cap-price solve.  Powers a rounding above the
    margin are scaled onto it.
    """
    gains, floor, margin = problem.gains, problem.noise_floor, problem.margin
    n_users, n = gains.shape
    count = owners.shape[0]
    if margin <= 0:
        return np.zeros((count, n_users, n)), np.zeros(count), np.zeros((count, n_users))
    mine = owners[:, None, :] == np.arange(n_users)[None, :, None]
    owned = np.where(mine & (problem.power_caps > 0)[None, :, None], gains[None], 0.0)
    budget = n * margin

    delta = np.zeros(count)
    low, high = np.zeros(count), np.full(count, 1.0 / (floor * LN2))
    # The channel-inverse price: there no active subcarrier receives more
    # than the margin, and it is the root when no cap binds.  It stands in
    # for a Newton step from the upper end until one is evaluated.
    low_step = np.full(count, np.nan)
    high_step = np.full(count, 1.0 / ((margin + floor) * LN2))
    high_lambdas = np.zeros((count, n_users))
    powers, lambdas, slope = _priced_powers(owned, floor, problem.power_caps, delta, high_lambdas)
    received = np.sum(powers * owned, axis=(1, 2))
    todo = np.ones(count, dtype=bool)
    for _ in range(_NEWTON_MAX_STEPS):
        miss = received - budget
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(slope < 0, delta - miss / slope, np.nan)
        todo &= (np.abs(miss) > _NEWTON_RTOL * budget) & ((miss > 0) | (delta > 0))
        at_low, at_high = todo & (miss > 0), todo & (miss <= 0)
        low, low_step = np.where(at_low, delta, low), np.where(at_low, newton, low_step)
        high, high_step = np.where(at_high, delta, high), np.where(at_high, newton, high_step)
        high_lambdas[at_high] = lambdas[at_high]
        todo &= high - low > 1e-15 * high
        if not todo.any():
            break
        # The Newton step from the new point, else the one from the other
        # end of the bracket (where the power curve bends the other way, one
        # of them stays inside), else bisection.
        other = np.where(at_low, high_step, low_step)
        step = np.where((low < other) & (other < high), other, 0.5 * (low + high))
        step = np.where((low < newton) & (newton < high), newton, step)
        idx = np.nonzero(todo)[0]
        delta[idx] = step[idx]
        powers[idx], lambdas[idx], slope[idx] = _priced_powers(
            owned[idx], floor, problem.power_caps, delta[idx], high_lambdas[idx]
        )
        received[idx] = np.sum(powers[idx] * owned[idx], axis=(1, 2))
    powers *= np.where(received > budget, budget / np.maximum(received, budget), 1.0)[:, None, None]
    return powers, delta, lambdas


# ---------------------------------------------------------------------------
# Full solvers
# ---------------------------------------------------------------------------

def solve_p1(problem: AllocationProblem, options: SolverOptions | None = None):
    """Dual-decomposition solve of the capped, margin-constrained problem.

    Returns ``(PowerAllocation, DualState, throughput)``.  The allocation
    always satisfies both constraint families (see
    :meth:`PowerAllocation.validate`).  ``DualState.gap_trace`` holds the
    relative gap between the best dual bound and the best recovered
    allocation after each ellipsoid iteration, and last the gap of the
    returned allocation; ``converged`` records whether that last gap is
    below the tolerance.  ``iteration`` counts ellipsoid iterations,
    feasibility cuts included, and is 0 for an enumerated instance;
    ``delta``/``lambdas`` end on the center with the lowest dual value,
    or on the optimum's KKT prices when the instance was enumerated.
    """
    opts = options or SolverOptions()
    gains, caps = problem.gains, problem.power_caps
    n_users, n = problem.n_users, problem.n_subcarriers
    state = DualState(
        delta=0.0, lambdas=np.zeros(n_users), trace=[] if opts.record_trace else None
    )
    usable = (caps > 0) & np.any(gains > 0, axis=1)
    if problem.margin <= 0 or not np.any(usable):
        # Nothing to allocate: no user can put power on a positive gain
        # within the margin, so every rate is zero.
        alloc = PowerAllocation.from_powers(np.zeros((n_users, n)))
        state.trivial = True
        state.converged = True
        state.kkt_delta = 0.0
        state.kkt_lambdas = np.zeros(n_users)
        state.gap_trace.append(0.0)
        return alloc, state, 0.0

    upper = np.inf
    best = None  # (throughput, powers, owner, kkt_delta, kkt_lambdas)

    def recover(owner):
        nonlocal upper, best
        # A subcarrier nobody won goes to its best-gain user: the exact
        # solve may leave it unpowered, so this never lowers the optimum.
        owner = np.where(owner >= 0, owner, gains.argmax(axis=0))
        powers, kkt_delta, kkt_lambdas = _solve_fixed_assignments(problem, owner[None])
        value = throughput(problem, powers[0])
        upper = min(upper, _dual_value(problem, kkt_delta[0], kkt_lambdas[0])[0])
        if best is None or value > best[0]:
            best = (value, powers[0], owner, kkt_delta[0], kkt_lambdas[0])

    def gap():
        # Clipped at 0: a tight bound can fall a rounding below the primal.
        return max(0.0, float(upper - best[0]) / max(best[0], 1e-12))

    if n_users**n <= EXHAUSTIVE_LIMIT:
        # Every assignment is solved exactly, so the best is the optimum.
        owners = np.array(list(itertools.product(range(n_users), repeat=n)))
        chunk = max(1, _BATCH_ENTRIES // (n_users * n))
        for first in range(0, len(owners), chunk):
            batch = owners[first : first + chunk]
            powers, deltas, lambdas = _solve_fixed_assignments(problem, batch)
            rates = np.sum(np.log2(1.0 + powers * gains / problem.noise_floor), axis=(1, 2))
            i = int(np.argmax(rates))
            if best is None or rates[i] > best[0]:
                best = (rates[i], powers[i], batch[i], float(deltas[i]), lambdas[i])
        best = (throughput(problem, best[1]),) + best[1:]
        upper = best[0]
        state.delta, state.lambdas = best[3], best[4].copy()
    else:
        # Above these prices no candidate power is positive and the dual
        # only grows, so the box [0, top] holds a dual minimizer; the
        # starting ellipsoid is the smallest axis-aligned one around it.
        top = np.concatenate(([1.0], gains.max(axis=1))) / (problem.noise_floor * LN2)
        dim = n_users + 1
        center = 0.5 * top
        shape = np.diag(dim * center**2)
        lower, best_value = -np.inf, np.inf
        for t in range(1, opts.max_iterations + 1):
            state.iteration = t
            if np.any(center < 0):
                # Feasibility cut: every price is nonnegative.
                cut = -np.eye(dim)[np.argmin(center)]
                powers = None
            else:
                value, powers, owner = _dual_value(problem, center[0], center[1:])
                cut = _subgradient(problem, powers)
                if value < best_value:
                    best_value, best_center, best_owner = value, center, owner
                upper = min(upper, value)
            root = float(np.sqrt(cut @ shape @ cut))
            if powers is not None:
                # The ellipsoid holds a minimizer x*, and f(x*) >= f(c) + g(x* - c).
                lower = max(lower, value - root)
            if t == 1 or t % opts.check_interval == 0:
                recover(best_owner)
            state.gap_trace.append(gap())
            if state.trace is not None and powers is not None:
                state.trace.append(
                    {
                        "iteration": t,
                        "duality_gap": state.gap_trace[-1],
                        "delta": center[0],
                        "lambdas": center[1:].copy(),
                        "throughput": throughput(problem, powers),
                        "mean_interference": float(np.sum(powers * gains)) / n,
                        "user_power": powers.sum(axis=1),
                    }
                )
            # The recovered throughput is also a lower bound on the dual.
            if not root > 0 or upper - max(lower, best[0]) <= DUAL_TOLERANCE * upper:
                break
            step = shape @ cut / root
            center = center - step / (dim + 1)
            shape = dim**2 / (dim**2 - 1.0) * (shape - 2.0 / (dim + 1) * np.outer(step, step))
        state.delta, state.lambdas = float(best_center[0]), best_center[1:].copy()
        recover(best_owner)

    value, powers, owner, kkt_delta, kkt_lambdas = best
    state.gap_trace.append(gap())
    state.converged = bool(state.gap_trace[-1] < opts.gap_tolerance)
    state.kkt_delta = kkt_delta
    state.kkt_lambdas = kkt_lambdas
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
    # Imported here: scipy.optimize adds about 0.4 s to every interpreter
    # start, and nothing else in refarm needs it.
    from scipy.optimize import minimize

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
