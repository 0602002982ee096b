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
from .config import RECEIVERS, check_choice
from .errors import InvalidParameterError, NumericalError

#: Bound on the relative error of the root that mmse_fixed_point_uniform returns.
FIXED_POINT_TOL = 1e-10
#: Unlimited, Newton took at most 46 steps (about log2(sqrt(q)) halvings near alpha = 1) on the
#: inputs it solved of a 0-3000 dB, 22-load, 5-profile grid; rounding refused all taking over 100.
FIXED_POINT_MAX_ITER = 100


@dataclass
class MarginResult:
    """Supportable load and tolerable interference for one receiver."""

    alpha_star: float
    margin: float
    feasible: bool


@dataclass
class FixedPointSolution:
    """Result of a self-consistent SINR equation solve."""

    value: float
    iterations: int


def _validate_positive(**kwargs):
    for name, value in kwargs.items():
        if value <= 0:
            raise InvalidParameterError(f"{name} must be > 0")


def _mmse_map(x, alpha, q, prof, sigma2) -> tuple[float, float]:
    """T(x) = E_n[T_n], T_n = q / (alpha q/(1+x) + sigma_n^2 + sigma2), and its slope
    T'(x) = alpha E_n[(T_n/(1+x))^2], divided before it is squared so no finite q overflows."""
    terms = q / (alpha * q / (1.0 + x) + prof + sigma2)
    return float(np.mean(terms)), float(alpha * np.mean((terms / (1.0 + x)) ** 2))


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


def mmse_fixed_point_uniform(alpha, q, profile, sigma2) -> FixedPointSolution:
    """Scalar MMSE SINR limit under rich multipath.

    ``profile`` may be an InterferenceProfile, a length-N vector, a scalar
    level (treated as uniform), or None (no sharing).  Newton on the concave
    h(x) = T(x) - x descends from q/sigma2 to the root (Ortega and Rheinboldt)
    and returns it within ``FIXED_POINT_TOL``, or raises NumericalError.
    """
    _validate_positive(q=q, sigma2=sigma2)
    if alpha < 0:
        raise InvalidParameterError("alpha must be >= 0")
    prof = profile_array(profile)
    x = q / sigma2
    if not 0 < x < np.inf:
        raise InvalidParameterError(f"q / sigma2 must be finite and > 0, got {x}")
    for iteration in range(1, FIXED_POINT_MAX_ITER + 1):
        value, slope = _mmse_map(x, alpha, q, prof, sigma2)
        if not slope < 1.0:
            raise NumericalError(f"MMSE fixed point unresolved: T'({x:.6g}) = {slope!r}, not < 1")
        step = (value - x) / (1.0 - slope)
        # How far rounding in T(x) - x, a few eps of T(x) + x, moves the step.
        rounding = 4 * np.finfo(float).eps * (value + x) / (1.0 - slope)
        if value <= x and -step <= rounding:
            if rounding > FIXED_POINT_TOL * x:
                raise NumericalError(f"MMSE fixed point unresolved: error bound {rounding / x:.1e}")
            return FixedPointSolution(value=x + step, iterations=iteration)
        x += step
    raise NumericalError(f"MMSE fixed point did not converge in {FIXED_POINT_MAX_ITER} iterations")


def supportable_load(q, sigma2, beta_star, receiver: str) -> float:
    """Largest load meeting the target SINR without spectrum sharing.

    May be <= 0 when the target is unreachable even with a single user's
    noise-limited SINR; infeasibility is a returned state, not an error.
    """
    _validate_positive(q=q, sigma2=sigma2, beta_star=beta_star)
    check_choice("receiver", receiver, RECEIVERS)
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
        feasible=feasible,
    )


def proposition1_check(beta_star, alpha, q, sigma2, profile) -> bool:
    """Target-feasibility test avoiding the fixed-point solve.

    True exactly when the scalar MMSE limit for this profile is at least
    the target; evaluates the self-consistent map once at the target.
    """
    _validate_positive(q=q, sigma2=sigma2, beta_star=beta_star)
    return _mmse_map(beta_star, alpha, q, profile_array(profile), sigma2)[0] >= beta_star * (1 - 1e-12)


def jensen_reinforcement_gap(beta, alpha, q, sigma2, profile) -> tuple[float, float]:
    """LHS/RHS of the mean-interference bound used to set the MMSE margin.

    lhs is the self-consistent map at x = beta, E_n[q / (alpha q/(1+beta)
    + sigma_n^2 + sigma2)], and rhs the same map at the mean profile;
    lhs >= rhs always, with equality exactly on uniform profiles.
    """
    _validate_positive(q=q, sigma2=sigma2)
    prof = profile_array(profile)
    return tuple(_mmse_map(beta, alpha, q, levels, sigma2)[0] for levels in (prof, prof.mean()))

