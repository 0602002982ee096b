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

A feasible primal is recovered by fixing subcarrier assignments and
solving the convex problem that is left exactly: a Newton iteration on
each user's cap price inside a safeguarded Newton iteration on the
interference price.  Recovery solves a stack of assignments exactly and
keeps the best.  The dual loop recovers in one place, :func:`_recover`,
from the assignment won at its best center: at the first iteration,
every RECOVERY_INTERVAL iterations and after the loop.  The prices of
that solve are themselves a dual point, which can lower the dual bound.
The reported duality gap and ``converged`` flag are measured against
the allocation that is returned.

Tiny instances (K**N <= EXHAUSTIVE_LIMIT) skip the dual loop and pass
all K**N assignments, so the best one is the optimum and its duality gap
is 0.  Their dual bound can be genuinely loose, by about K + 1
subcarriers' worth of rate.

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

#: The dual loop recovers a primal at its first iteration, every
#: RECOVERY_INTERVAL iterations and once more at its end; the recovered
#: throughput tightens its stopping test.  At 2 x 256 one recovery costs
#: 5 to 45 dual evaluations (median 10, timed on the seed-42 load-sweep
#: instances), so this interval keeps it within a fifth of a long loop.
#: Changing this constant changes the returned allocations and the CSVs.
RECOVERY_INTERVAL = 250

#: Absolute slack that ``PowerAllocation.validate`` allows on each cap and the margin.
VALIDATE_TOL = 1e-9

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
        if not np.all((self.gains >= 0) & np.isfinite(self.gains)):
            raise InvalidParameterError("gains must be finite and >= 0")
        if not self.noise_floor > 0:
            raise InvalidParameterError("noise_floor must be > 0")
        if not self.margin >= 0:
            raise InvalidParameterError("margin must be >= 0")
        if self.power_caps.shape != (self.gains.shape[0],):
            raise InvalidParameterError("need one power cap per user")
        if not np.all(self.power_caps >= 0):
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

    def validate(self, problem: AllocationProblem):
        """Raise unless exclusivity, caps and the margin all hold within ``VALIDATE_TOL``."""
        if not self.is_exclusive():
            raise InvalidParameterError("allocation violates subcarrier exclusivity")
        if not np.all((self.powers >= 0) & np.isfinite(self.powers)):
            raise InvalidParameterError("allocation powers must be finite and >= 0")
        if np.any(self.user_totals() > problem.power_caps + VALIDATE_TOL):
            raise InvalidParameterError("allocation exceeds a power cap")
        if self.mean_interference(problem.gains) > problem.margin + VALIDATE_TOL:
            raise InvalidParameterError("allocation exceeds the interference margin")


@dataclass
class DualState:
    """Bookkeeping of one :func:`solve_p1` call: ``iteration`` is 0 when no
    dual loop ran, and ``kkt_delta``/``kkt_lambdas`` are always set.
    ``gap_trace`` has ``iteration + 1`` entries on the dual path, else 1.
    ``trace``, when recorded, holds the evaluated centers and then the
    returned allocation at its KKT prices."""

    iteration: int = 0
    gap_trace: list = field(default_factory=list)
    converged: bool = False
    trivial: bool = False
    kkt_delta: float | None = None
    kkt_lambdas: np.ndarray | None = None
    trace: list | None = None


@dataclass
class SolverOptions:
    max_iterations: int = 5000
    gap_tolerance: float = 1e-3
    record_trace: bool = False

    def __post_init__(self):
        checks = [
            (self.max_iterations >= 1, "max_iterations >= 1"),
            (self.gap_tolerance > 0, "gap_tolerance > 0"),
        ]
        for ok, name in checks:
            if not ok:
                raise InvalidParameterError(f"invariant violated: {name}")


class ChannelInverseResult(NamedTuple):
    allocation: PowerAllocation
    throughput: float
    excluded_subcarriers: int


def throughput(problem: AllocationProblem, powers: np.ndarray):
    """Sum rate in bits per OFDMA symbol, one per matrix of a (B, K, N) stack."""
    rates = np.sum(np.log2(1.0 + powers * problem.gains / problem.noise_floor), axis=(-2, -1))
    return rates if rates.ndim else float(rates)


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


def _best_assignment(problem, owners):
    """``(throughput, powers, kkt_delta, kkt_lambdas)`` of the best of (B, N) assignments.

    A subcarrier owned by -1 goes to its best-gain user: the exact solve
    may leave it unpowered, so this never lowers the optimum.
    """
    owners = np.where(owners >= 0, owners, problem.gains.argmax(axis=0))
    chunk = max(1, _BATCH_ENTRIES // problem.gains.size)
    best = None
    for first in range(0, len(owners), chunk):
        powers, deltas, lambdas = _solve_fixed_assignments(problem, owners[first : first + chunk])
        rates = throughput(problem, powers)
        i = int(np.argmax(rates))
        if best is None or rates[i] > best[0]:
            best = (rates[i], powers[i], float(deltas[i]), lambdas[i])
    # Summed again on the winner alone, so the value is throughput() of
    # the returned powers to the last bit.
    return (throughput(problem, best[1]),) + best[1:]


# ---------------------------------------------------------------------------
# Full solvers
# ---------------------------------------------------------------------------

def _record(state, problem, iteration, delta, lambdas, powers):
    """Append one row to ``state.trace``, if it is recorded: the prices and what powers achieve."""
    if state.trace is not None:
        state.trace.append(
            {
                "iteration": iteration,
                "duality_gap": state.gap_trace[-1],
                "delta": delta,
                "lambdas": lambdas,
                "throughput": throughput(problem, powers),
                "mean_interference": float(np.sum(powers * problem.gains)) / problem.n_subcarriers,
                "user_power": powers.sum(axis=1),
            }
        )


def _recover(problem, owner, best, upper):
    """Recover at ``owner``: the better of its exact solve and ``best``, and the lowered bound."""
    found = _best_assignment(problem, owner[None])
    upper = min(upper, _dual_value(problem, found[2], found[3])[0])
    if best is None or found[0] > best[0]:
        best = found
    return best, upper


def _relative_gap(upper, best):
    """Relative gap of the bound ``upper`` over ``best``, clipped at 0: it can round below."""
    return max(0.0, float(upper - best[0]) / max(best[0], 1e-12))


def _minimize_dual(problem, max_iterations, state):
    """Central-cut ellipsoid minimization of the dual; returns the best recovered primal."""
    # Above these prices no candidate power is positive and the dual only
    # grows, so the box [0, top] holds a dual minimizer; the starting
    # ellipsoid is the smallest axis-aligned one around it.
    top = np.concatenate(([1.0], problem.gains.max(axis=1))) / (problem.noise_floor * LN2)
    dim = problem.n_users + 1
    center = 0.5 * top
    shape = np.diag(dim * center**2)
    lower, upper, best_value, best, recovered = -np.inf, np.inf, np.inf, None, None
    for t in range(1, max_iterations + 1):
        state.iteration = t
        if np.any(center < 0):
            # Feasibility cut: every price is nonnegative.
            cut = -np.eye(dim)[np.argmin(center)]
            powers = None
        else:
            value, powers, owner = _dual_value(problem, center[0], center[1:])
            cut = _subgradient(problem, powers)
            if value < best_value:
                best_value, best_owner = value, owner
            upper = min(upper, value)
        root = float(np.sqrt(cut @ shape @ cut))
        if powers is not None:
            # The ellipsoid holds a minimizer x*, and f(x*) >= f(c) + g(x* - c).
            lower = max(lower, value - root)
        if t == 1 or t % RECOVERY_INTERVAL == 0:
            best, upper = _recover(problem, best_owner, best, upper)
            recovered = best_owner
        state.gap_trace.append(_relative_gap(upper, best))
        if powers is not None:
            _record(state, problem, t, center[0], center[1:].copy(), powers)
        # The recovered throughput is also a lower bound on the dual.
        if not root > 0 or upper - max(lower, best[0]) <= DUAL_TOLERANCE * upper:
            break
        step = shape @ cut / root
        center = center - step / (dim + 1)
        shape = dim**2 / (dim**2 - 1.0) * (shape - 2.0 / (dim + 1) * np.outer(step, step))
    if best_owner is not recovered:  # recovering it again would change nothing
        best, upper = _recover(problem, best_owner, best, upper)
    state.gap_trace.append(_relative_gap(upper, best))
    return best


def solve_p1(problem: AllocationProblem, options: SolverOptions | None = None):
    """Dual-decomposition solve of the capped, margin-constrained problem.

    Returns ``(PowerAllocation, DualState, throughput)``.  The allocation
    always satisfies both constraint families (see
    :meth:`PowerAllocation.validate`).  ``DualState.gap_trace`` holds the
    relative gap between the best dual bound and the best recovered
    allocation after each ellipsoid iteration, and last the gap of the
    returned allocation; ``converged`` records whether that last gap is
    below the tolerance.  ``iteration`` counts ellipsoid iterations,
    feasibility cuts included, and is 0 when no dual loop ran.
    ``kkt_delta`` and ``kkt_lambdas`` are always set: they are the prices
    of the restricted solve that gave the returned allocation.
    """
    opts = options or SolverOptions()
    n_users, n = problem.n_users, problem.n_subcarriers
    state = DualState(trace=[] if opts.record_trace else None)
    usable = (problem.power_caps > 0) & np.any(problem.gains > 0, axis=1)
    if problem.margin <= 0 or not np.any(usable):
        # Nothing to allocate: no user can put power on a positive gain
        # within the margin, so every rate is zero.
        state.trivial = True
        best = (0.0, np.zeros((n_users, n)), 0.0, np.zeros(n_users))
        state.gap_trace.append(0.0)
    elif n_users**n <= EXHAUSTIVE_LIMIT:
        # Every assignment is solved exactly, so the best is the optimum.
        owners = np.array(list(itertools.product(range(n_users), repeat=n)))
        best = _best_assignment(problem, owners)
        state.gap_trace.append(0.0)
    else:
        best = _minimize_dual(problem, opts.max_iterations, state)

    value, powers, state.kkt_delta, state.kkt_lambdas = best
    _record(state, problem, state.iteration + 1, state.kkt_delta, state.kkt_lambdas, powers)
    state.converged = bool(state.gap_trace[-1] < opts.gap_tolerance)
    return PowerAllocation.from_powers(powers), state, value


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
    n_active = int(usable.sum())
    powers = np.zeros((n_users, n))
    rate = 0.0
    if problem.margin > 0 and n_active > 0:
        received = problem.margin * n / n_active
        cols = np.nonzero(usable)[0]
        owner = gains[:, cols].argmax(axis=0)
        powers[owner, cols] = received / best_gain[cols]
        rate = n_active * np.log2(1.0 + received / problem.noise_floor)
    return ChannelInverseResult(PowerAllocation.from_powers(powers), float(rate), n - n_active)
