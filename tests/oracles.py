"""Independent checks on refarm's solvers, used by the tests alone.

``brute_force_oracle`` solves tiny allocation instances by enumerating
every exclusive assignment and running SLSQP on the concave power
problem that is left, with none of the dual-decomposition machinery.
``solve_p2_waterfill`` is the closed-form single-user case with no
interference margin, the light-regime reference for ``solve_p1``.
``simulate_uplink_frame`` measures receiver-output SINR at symbol level,
the check on the exact formulas of ``refarm.cdma``; its MMSE filter
builds the full received covariance and solves it with ``scipy.linalg``,
so it shares no code with the MMSE kernel it checks.
``exact_mmse_sinr`` is the MMSE SINR of given float signatures in
rational arithmetic, exact at any conditioning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.optimize import minimize

from refarm import (
    AllocationProblem,
    ChannelSet,
    InvalidParameterError,
    NumericalError,
    PowerAllocation,
    SystemConfig,
    effective_signatures,
)
from refarm.cdma import _check_levels, _check_powers, _check_signatures, profile_array

BRUTE_FORCE_MAX_SUBCARRIERS = 6
BRUTE_FORCE_MAX_USERS = 2


class WaterfillResult(NamedTuple):
    powers: np.ndarray
    water_level: float
    feasible: bool


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
    if not np.all((gains >= 0) & np.isfinite(gains)):
        raise InvalidParameterError("gains must be finite and >= 0")
    powers = np.zeros_like(gains)
    positive = gains > 0
    if cap == 0 or not np.any(positive):
        return WaterfillResult(powers, float("inf"), bool(cap == 0))
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
    return WaterfillResult(powers, float(level), True)


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
            return -(g / floor) / (1.0 + p * g / floor) / np.log(2.0)

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
    return PowerAllocation.from_powers(powers), float(best_value)


@dataclass
class FrameMeasurement:
    """Per-user SINR measured at symbol level, with its standard error.

    ``residual_power`` is the measured power of everything in a filter's
    output but the user's own symbol.
    """

    per_user: np.ndarray
    stderr: np.ndarray
    residual_power: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_user))


def _exclusive_powers(allocation, n_users, n_subcarriers):
    if allocation is None:
        return np.zeros((n_users, n_subcarriers))
    powers = np.asarray(getattr(allocation, "powers", allocation), dtype=float)
    if powers.shape != (n_users, n_subcarriers):
        raise InvalidParameterError(
            f"allocation shape {powers.shape} does not match ({n_users}, {n_subcarriers})"
        )
    if not np.all((powers >= 0) & np.isfinite(powers)):
        raise InvalidParameterError("allocation powers must be finite and >= 0")
    if n_users and np.any(np.sum(powers > 0, axis=0) > 1):
        raise InvalidParameterError("allocation violates subcarrier exclusivity")
    return powers


def _mmse_filters(signatures, q, prof, sigma2):
    """Rows q (R^-1 e_u)^T for R = q sum_u e_u e_u^H + diag(prof + sigma2)."""
    n = signatures.shape[1]
    cov = q * (signatures.T @ signatures.conj())
    cov[np.diag_indices(n)] += prof + sigma2
    try:
        factor = scipy.linalg.cho_factor(cov, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("MMSE system not numerically positive definite") from exc
    return (q * scipy.linalg.cho_solve(factor, signatures.T, check_finite=False)).T


def simulate_uplink_frame(
    cfg: SystemConfig,
    codes: np.ndarray,
    channels: ChannelSet,
    ofdma_alloc,
    rng: np.random.Generator,
    receiver: str = "mf",
    n_slots: int = 1000,
    sigma2: float | None = None,
) -> FrameMeasurement:
    """Symbol-level simulation measuring receiver-output SINR directly.

    Gaussian symbols with the configured powers are transmitted over
    ``n_slots`` independent slots; each slot's filter output is split into
    the known transmitted symbol's contribution and the residual, and the
    SINR estimate is the ratio of their sample powers (unbiased at finite
    slot counts).  Serves as an independent check on the exact formulas.
    """
    if receiver not in ("mf", "mmse"):
        raise InvalidParameterError(f"unknown receiver {receiver!r}")
    if n_slots < 1:
        raise InvalidParameterError("need at least one slot")
    sigma2 = cfg.sigma2 if sigma2 is None else sigma2
    _check_levels(cfg.q, sigma2)
    if sigma2 < 0 or (receiver == "mmse" and sigma2 <= 0):
        raise InvalidParameterError("noise power must be >= 0 (> 0 for mmse)")
    signatures, _ = _check_signatures(effective_signatures(codes, channels))
    n_users, n = signatures.shape
    powers = _exclusive_powers(ofdma_alloc, channels.ofdma.shape[0], n)
    prof = np.sum(powers * channels.ofdma_gains, axis=0)
    _check_powers(prof)

    half = np.sqrt(0.5)
    symbols = np.sqrt(cfg.q) * half * (
        rng.standard_normal((n_users, n_slots)) + 1j * rng.standard_normal((n_users, n_slots))
    )
    received = signatures.T @ symbols
    if powers.any():
        amp = np.sqrt(powers)[:, :, None]
        ofdma_symbols = amp * half * (
            rng.standard_normal((*powers.shape, n_slots))
            + 1j * rng.standard_normal((*powers.shape, n_slots))
        )
        received = received + np.einsum("kn,knm->nm", channels.ofdma, ofdma_symbols)
    if sigma2 > 0:
        received = received + np.sqrt(sigma2) * half * (
            rng.standard_normal((n, n_slots)) + 1j * rng.standard_normal((n, n_slots))
        )

    if receiver == "mf":
        filters = signatures
    else:
        filters = _mmse_filters(signatures, cfg.q, prof, sigma2)

    outputs = filters.conj() @ received
    gain = np.einsum("un,un->u", filters.conj(), signatures)
    desired = gain[:, None] * symbols
    residual = outputs - desired
    desired_power = np.mean(np.abs(desired) ** 2, axis=1)
    residual_power = np.mean(np.abs(residual) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        per_user = desired_power / residual_power
    rel_var = (
        np.var(np.abs(desired) ** 2, axis=1) / np.maximum(desired_power, 1e-300) ** 2
        + np.var(np.abs(residual) ** 2, axis=1) / np.maximum(residual_power, 1e-300) ** 2
    ) / n_slots
    stderr = per_user * np.sqrt(rel_var)
    return FrameMeasurement(per_user=per_user, stderr=stderr, residual_power=residual_power)


def exact_mmse_sinr(signatures, q, profile, sigma2) -> list:
    """The MMSE SINRs 1/[(I + q G)^-1]_uu - 1, G = S^H D^-1 S, as exact Fractions.

    Every float is a rational, so this is exact for the floats given.  The
    complex U x U matrix I + q G is embedded as the real 2U x 2U one
    [[Re, -Im], [Im, Re]], whose inverse embeds the complex inverse, and
    Gauss-Jordan elimination finds its first U diagonal entries.
    """
    signatures = np.asarray(signatures, dtype=complex)
    n_users, n = signatures.shape
    weights = [1 / (Fraction(p) + Fraction(sigma2)) for p in profile_array(profile, n)] * 2
    real = [[Fraction(v) for v in row] for row in signatures.real]
    imag = [[Fraction(v) for v in row] for row in signatures.imag]
    # The columns of the real embedding of the N x U matrix S.
    columns = [real[u] + imag[u] for u in range(n_users)]
    columns += [[-v for v in imag[u]] + real[u] for u in range(n_users)]
    size, q = 2 * n_users, Fraction(q)
    rows = [
        [
            Fraction(i == j) + q * sum(a * b * w for a, b, w in zip(columns[i], columns[j], weights))
            for j in range(size)
        ]
        + [Fraction(i == j) for j in range(size)]
        for i in range(size)
    ]
    for k in range(size):  # positive definite, so no pivoting is needed
        pivot = rows[k][k]
        rows[k] = [v / pivot for v in rows[k]]
        for i in range(size):
            if i != k and rows[i][k]:
                factor = rows[i][k]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[k])]
    return [1 / rows[u][size + u] - 1 for u in range(n_users)]
