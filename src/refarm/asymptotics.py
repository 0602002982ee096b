"""Large-system SINR limits, supportable loads and interference margins.

In the limit where the user count and spreading gain grow at a fixed ratio
alpha, the matched-filter SINR with rich multipath collapses to

    gamma_mf = q / (alpha q + mean_interference + sigma2),

and the linear-MMSE SINR is the unique positive root of the self-consistent
equation

    x = E_n[ q / (alpha q / (1 + x) + sigma_n^2 + sigma2) ],

with E_n the arithmetic mean over the per-subcarrier interference powers.
Setting either expression equal to the target SINR yields the supportable
load without sharing and, below it, the interference power the CDMA side
can absorb.  For the MMSE case the margin uses the concavity of the inner
function: protecting the mean protects the profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdma import profile_array
from .channel import ChannelSet
from .config import RECEIVERS
from .errors import InvalidParameterError, NumericalError

FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 10_000


@dataclass
class MarginResult:
    """Supportable load and tolerable interference for one receiver."""

    alpha_star: float
    margin: float
    receiver: str
    feasible: bool


@dataclass
class FixedPointSolution:
    """Result of a self-consistent SINR equation solve.

    ``value`` is a scalar for the uniform equation and a per-user vector
    for the coupled one.  ``residual`` is the final relative change.
    """

    value: float | np.ndarray
    iterations: int
    residual: float


def _validate_positive(**kwargs):
    for name, value in kwargs.items():
        if value <= 0:
            raise InvalidParameterError(f"{name} must be > 0")


def _check_receiver(receiver):
    if receiver not in RECEIVERS:
        raise InvalidParameterError(f"receiver must be one of {RECEIVERS}")


def mf_asymptotic_selective(channels: ChannelSet, q, profile, sigma2) -> np.ndarray:
    """Deterministic per-user MF SINR from channel moments only.

    Uses the per-user frequency gains; spreading codes have already been
    averaged out in the limit.
    """
    gains = channels.cdma_gains
    if gains.shape[0] < 1:
        raise InvalidParameterError("need at least one CDMA user")
    n = gains.shape[1]
    prof = profile_array(profile, n)
    mean_gain = gains.mean(axis=1)
    column_sum = gains.sum(axis=0)
    cross = (q / n**2) * (gains @ column_sum - np.einsum("un,un->u", gains, gains))
    colored = (gains @ prof) / n
    noise = mean_gain * sigma2
    return q * mean_gain**2 / (cross + colored + noise)


def mf_asymptotic_uniform(alpha, q, mean_interference, sigma2) -> float:
    """Scalar MF SINR limit under rich multipath: q/(alpha q + mean + sigma2)."""
    _validate_positive(q=q)
    if alpha < 0 or mean_interference < 0 or sigma2 < 0:
        raise InvalidParameterError("alpha, mean_interference and sigma2 must be >= 0")
    return q / (alpha * q + mean_interference + sigma2)


def _iterate_fixed_point(update, x0, tol, max_iter):
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")
    x = x0
    for iteration in range(1, max_iter + 1):
        x_next = update(x)
        residual = float(
            np.max(np.abs(x_next - x) / np.maximum(1.0, np.abs(x_next)))
        )
        x = x_next
        if residual <= tol:
            return x, iteration, residual
    raise NumericalError(
        f"fixed point did not converge in {max_iter} iterations (residual {residual:.3e})"
    )


def mmse_fixed_point_selective(
    channels: ChannelSet,
    q,
    profile,
    sigma2,
    tol: float = FIXED_POINT_TOL,
    max_iter: int = FIXED_POINT_MAX_ITER,
    x0=None,
) -> FixedPointSolution:
    """Coupled per-user MMSE SINR limits for explicit channel responses.

    Jacobi-style successive substitution on all users simultaneously; the
    map is monotone with a unique positive fixed point, so any start in
    (0, q/sigma2] converges to the same solution.
    """
    _validate_positive(q=q, sigma2=sigma2)
    gains = channels.cdma_gains
    n_users, n = gains.shape
    if n_users < 1:
        raise InvalidParameterError("need at least one CDMA user")
    prof = profile_array(profile, n)
    start = np.full(n_users, q / sigma2 if x0 is None else x0, dtype=float)

    def update(x):
        shared = (q / n) * (gains.T @ (1.0 / (1.0 + x)))  # per-subcarrier denominator
        return (gains @ (q / (shared + prof + sigma2))) / n

    value, iterations, residual = _iterate_fixed_point(update, start, tol, max_iter)
    return FixedPointSolution(value=value, iterations=iterations, residual=residual)


def mmse_fixed_point_uniform(
    alpha,
    q,
    profile,
    sigma2,
    tol: float = FIXED_POINT_TOL,
    max_iter: int = FIXED_POINT_MAX_ITER,
    x0: float | None = None,
) -> FixedPointSolution:
    """Scalar MMSE SINR limit under rich multipath.

    ``profile`` may be an InterferenceProfile, a length-N vector, a scalar
    level (treated as uniform), or None (no sharing).
    """
    _validate_positive(q=q, sigma2=sigma2)
    if alpha < 0:
        raise InvalidParameterError("alpha must be >= 0")
    prof = profile_array(profile)
    start = q / sigma2 if x0 is None else float(x0)
    if start <= 0:
        raise InvalidParameterError("start point must be > 0")

    def update(x):
        return float(np.mean(q / (alpha * q / (1.0 + x) + prof + sigma2)))

    value, iterations, residual = _iterate_fixed_point(update, start, tol, max_iter)
    return FixedPointSolution(value=value, iterations=iterations, residual=residual)


def supportable_load(q, sigma2, beta_star, receiver: str) -> float:
    """Largest load meeting the target SINR without spectrum sharing.

    May be <= 0 when the target is unreachable even with a single user's
    noise-limited SINR; infeasibility is a returned state, not an error.
    """
    _validate_positive(q=q, sigma2=sigma2, beta_star=beta_star)
    _check_receiver(receiver)
    base = 1.0 / beta_star - sigma2 / q
    if receiver == "mf":
        return base
    return base * (1.0 + beta_star)


def interference_margin(alpha, q, sigma2, beta_star, receiver: str) -> MarginResult:
    """Average interference power the CDMA side tolerates at load alpha."""
    if alpha < 0:
        raise InvalidParameterError("alpha must be >= 0")
    alpha_star = supportable_load(q, sigma2, beta_star, receiver)
    feasible = alpha < alpha_star
    if receiver == "mf":
        margin = (alpha_star - alpha) * q
    else:
        margin = (alpha_star - alpha) * q / (1.0 + beta_star)
    return MarginResult(
        alpha_star=alpha_star,
        margin=margin if feasible else 0.0,
        receiver=receiver,
        feasible=feasible,
    )


def proposition1_check(beta_star, alpha, q, sigma2, profile) -> bool:
    """Target-feasibility test avoiding the fixed-point solve.

    True exactly when the scalar MMSE limit for this profile is at least
    the target; evaluates the self-consistent map once at the target.
    """
    _validate_positive(q=q, sigma2=sigma2, beta_star=beta_star)
    prof = profile_array(profile)
    lhs = float(np.mean(q / (alpha * q / (1.0 + beta_star) + prof + sigma2)))
    return lhs >= beta_star * (1.0 - 1e-12)


def jensen_reinforcement_gap(beta, alpha, q, sigma2, profile) -> tuple[float, float]:
    """LHS/RHS of the mean-interference bound used to set the MMSE margin.

    lhs = E_n[q / (alpha q/(1+beta) + sigma_n^2 + sigma2)] and rhs is the
    same expression evaluated at the mean profile; lhs >= rhs always, with
    equality exactly on uniform profiles.
    """
    _validate_positive(q=q, sigma2=sigma2)
    prof = profile_array(profile)
    base = alpha * q / (1.0 + beta) + sigma2
    lhs = float(np.mean(q / (base + prof)))
    rhs = float(q / (base + prof.mean()))
    return lhs, rhs

