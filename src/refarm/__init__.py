"""Underlay spectrum refarming: OFDMA sharing a CDMA band within its
interference margin.

Subpackages by role: ``channel`` (multipath realizations), ``cdma``
(codes, signatures, exact receiver SINR), ``asymptotics`` (large-system
SINR limits, loads, margins), ``allocator`` (dual-decomposition resource
allocation plus the channel-inverse special case), ``experiments``
(sweep, trace and validation runs), ``cli`` / ``cli_io`` (front end and
serialization).  The brute-force allocation oracle, the single-user
water-filler and the symbol-level SINR simulation that check these live
with the tests.
"""

from .allocator import (
    AllocationProblem,
    DualState,
    PowerAllocation,
    SolverOptions,
    solve_p1,
    solve_p3_channel_inverse,
)
from .asymptotics import (
    FixedPointSolution,
    MarginResult,
    interference_margin,
    jensen_reinforcement_gap,
    mf_asymptotic_selective,
    mf_asymptotic_uniform,
    mmse_fixed_point_uniform,
    proposition1_check,
    supportable_load,
)
from .cdma import (
    InterferenceProfile,
    effective_signatures,
    gen_spreading_codes,
    mf_sinr_exact,
    mmse_sinr_exact,
)
from .channel import ChannelSet, freq_response, gen_channel_set, gen_multipath_taps
from .config import SystemConfig, db_to_linear, linear_to_db
from .errors import ConfigError, InvalidParameterError, NumericalError, RefarmError

__version__ = "0.1.0"

__all__ = [
    "AllocationProblem",
    "ChannelSet",
    "ConfigError",
    "DualState",
    "FixedPointSolution",
    "InterferenceProfile",
    "InvalidParameterError",
    "MarginResult",
    "NumericalError",
    "PowerAllocation",
    "RefarmError",
    "SolverOptions",
    "SystemConfig",
    "db_to_linear",
    "effective_signatures",
    "freq_response",
    "gen_channel_set",
    "gen_multipath_taps",
    "gen_spreading_codes",
    "interference_margin",
    "jensen_reinforcement_gap",
    "linear_to_db",
    "mf_asymptotic_selective",
    "mf_asymptotic_uniform",
    "mf_sinr_exact",
    "mmse_fixed_point_uniform",
    "mmse_sinr_exact",
    "proposition1_check",
    "solve_p1",
    "solve_p3_channel_inverse",
    "supportable_load",
]
