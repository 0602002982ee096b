"""Spreading codes, effective signatures and finite-dimension receiver SINR.

The received frequency-domain signal is

    r = sum_u Lambda_u W s_u a_u  +  H b  +  n,

with W the unitary DFT, s_u the chip-domain spreading codes, a_u the CDMA
symbols (power q), b the OFDMA symbols and n white noise.  The matched
filter correlates with the effective signature e_u = Lambda_u W s_u; the
linear MMSE receiver whitens with the full received covariance.  Reported
MMSE SINR is the receiver-output SINR, i.e. the quadratic form against the
covariance of everything except user u's own signal; the form that keeps
the self term differs from it by the deterministic map g -> g/(1+g) and is
what the matrix inverse naturally produces.

The interference-plus-noise covariance D = diag(profile + sigma^2) is
diagonal, so with S the (N, U) matrix of signature columns and
G = S^H D^-1 S the Woodbury identity gives

    q S^H (q S S^H + D)^-1 S = I - (I + q G)^-1,

hence SINR_u = 1/[(I + q G)^-1]_uu - 1.  The MMSE kernel solves either
this U x U system A X = I, A = I + q G, or the N x N covariance
R = q S S^H + D directly, whichever takes fewer flops: the U x U system
below about U = 0.84 N (``_user_space_cheaper``).  Both check the
relative residual of the N-space solve R Y = S: the U-space solution is
Y = D^-1 S X, whose residual R Y - S = S (A X - I) needs no N x N
matrix.

``scipy.linalg`` is imported in one place, the Cholesky helpers
``_cholesky`` and ``_cho_solve`` that every MMSE and symbol-level solve
calls, so that importing refarm and running the margin or the allocation
loads numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .config import SystemConfig
from .errors import InvalidParameterError, NumericalError

SOLVE_RESIDUAL_TOL = 1e-10


def gen_spreading_codes(n_users: int, n_chips: int, rng: np.random.Generator) -> np.ndarray:
    """Random antipodal spreading codes, one row per user.

    Chips are equiprobable +-1/sqrt(N), so every code has exactly unit
    norm and the chip covariance is (1/N) I.
    """
    if n_users < 0 or n_chips < 1:
        raise InvalidParameterError("need n_users >= 0 and n_chips >= 1")
    chips = rng.integers(0, 2, size=(n_users, n_chips)) * 2 - 1
    return chips / np.sqrt(n_chips)


def effective_signatures(codes: np.ndarray, channels: ChannelSet) -> np.ndarray:
    """Frequency-domain effective signatures e_u = Lambda_u (W s_u).

    ``codes`` has shape (U, N); returns a complex (U, N) array.  AWGN
    channels leave code norms untouched (W is unitary).
    """
    codes = np.asarray(codes, dtype=float)
    if codes.ndim != 2:
        raise InvalidParameterError("codes must be a (U, N) array")
    n = codes.shape[1]
    if channels.cdma.shape != codes.shape:
        raise InvalidParameterError(
            f"channel set shape {channels.cdma.shape} does not match codes {codes.shape}"
        )
    transformed = np.fft.fft(codes, axis=1) / np.sqrt(n)
    return channels.cdma * transformed


@dataclass
class InterferenceProfile:
    """Per-subcarrier interference power seen by the CDMA receiver."""

    per_subcarrier: np.ndarray

    def __post_init__(self):
        self.per_subcarrier = np.asarray(self.per_subcarrier, dtype=float)
        if self.per_subcarrier.ndim != 1:
            raise InvalidParameterError("profile must be a vector")
        _check_powers(self.per_subcarrier)

    @property
    def mean(self) -> float:
        """Arithmetic mean over subcarriers."""
        return float(np.mean(self.per_subcarrier))

    @classmethod
    def zero(cls, n_subcarriers: int) -> "InterferenceProfile":
        return cls(np.zeros(n_subcarriers))

    @classmethod
    def uniform(cls, level: float, n_subcarriers: int) -> "InterferenceProfile":
        return cls(np.full(n_subcarriers, float(level)))

    @classmethod
    def from_allocation(cls, powers: np.ndarray, gains: np.ndarray) -> "InterferenceProfile":
        """sigma_n^2 = sum_k p_{k,n} g_{k,n} for a (K, N) power/gain pair."""
        powers = np.asarray(powers, dtype=float)
        gains = np.asarray(gains, dtype=float)
        if powers.shape != gains.shape:
            raise InvalidParameterError("powers and gains must have equal shapes")
        return cls(np.sum(powers * gains, axis=0))


def _check_powers(values):
    if not np.all((values >= 0) & np.isfinite(values)):
        raise InvalidParameterError("interference powers must be finite and >= 0")


def profile_array(profile, n_subcarriers: int | None = None) -> np.ndarray:
    """Coerce an InterferenceProfile, vector, scalar level or None to a vector.

    A scalar level (None meaning 0) fills ``n_subcarriers`` entries, or a
    single entry when no length is given; a vector must have the given
    length.  Raises InvalidParameterError on any negative or non-finite
    power.
    """
    if isinstance(profile, InterferenceProfile):
        values = profile.per_subcarrier
    elif profile is None or np.isscalar(profile):
        level = 0.0 if profile is None else float(profile)
        values = np.full(1 if n_subcarriers is None else n_subcarriers, level)
    else:
        values = np.asarray(profile, dtype=float)
    if values.ndim != 1 or (n_subcarriers is not None and values.size != n_subcarriers):
        raise InvalidParameterError(
            f"profile length {values.shape} does not match {n_subcarriers} subcarriers"
        )
    _check_powers(values)
    return values


@dataclass
class SinrReport:
    """Per-user SINR values plus how they were obtained.

    ``source`` is one of ``exact-formula``, ``symbol-level`` or
    ``asymptotic``.  Symbol-level reports carry the per-user standard
    error of the estimate and the raw measured signal/residual powers.
    """

    per_user: np.ndarray
    receiver: str
    source: str
    stderr: np.ndarray | None = None
    desired_power: np.ndarray | None = None
    residual_power: np.ndarray | None = None

    def __post_init__(self):
        self.per_user = np.asarray(self.per_user, dtype=float)

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_user))


def _check_signatures(signatures):
    signatures = np.asarray(signatures)
    if signatures.ndim != 2 or signatures.shape[0] < 1:
        raise InvalidParameterError("need at least one signature row")
    # A row holding inf has a NaN norm (inf * 0 in the complex product);
    # it is refused by name below, so that product need not warn.
    with np.errstate(invalid="ignore"):
        norms = np.linalg.norm(signatures, axis=1)
    if not np.all(np.isfinite(norms)):
        raise InvalidParameterError("signatures must be finite")
    if np.any(norms == 0):
        raise InvalidParameterError("degenerate user: zero-norm signature")
    return signatures


def _check_levels(q, sigma2):
    if not (np.isfinite(q) and np.isfinite(sigma2)):
        raise InvalidParameterError(f"q and sigma2 must be finite, got q={q}, sigma2={sigma2}")


def mf_filter_output_sinr(filters, signatures, q, profile, sigma2) -> np.ndarray:
    """Output SINR of arbitrary linear filters against the received covariance.

    ``filters`` and ``signatures`` are (U, N); user u's filter is applied
    to a signal with signature e_u, interference from the other users'
    signatures, the OFDMA profile and noise.  The value is a generalized
    Rayleigh quotient, hence invariant to rescaling any single filter.
    """
    _check_levels(q, sigma2)
    signatures = _check_signatures(signatures)
    filters = np.asarray(filters)
    if filters.shape != signatures.shape:
        raise InvalidParameterError("filters must match signatures in shape")
    n = signatures.shape[1]
    prof = profile_array(profile, n)
    cross = filters.conj() @ signatures.T  # cross[u, i] = f_u^H e_i
    desired = q * np.abs(np.diagonal(cross)) ** 2
    mai = q * (np.sum(np.abs(cross) ** 2, axis=1) - np.abs(np.diagonal(cross)) ** 2)
    colored = np.sum((np.abs(filters) ** 2) * (prof + sigma2)[None, :], axis=1)
    return desired / (mai + colored)


def mf_sinr_exact(signatures, q, profile, sigma2) -> SinrReport:
    """Exact matched-filter SINR for every user at finite dimension."""
    signatures = _check_signatures(signatures)
    per_user = mf_filter_output_sinr(signatures, signatures, q, profile, sigma2)
    return SinrReport(per_user=per_user, receiver="mf", source="exact-formula")


def _received_covariance(signatures, q, prof, sigma2):
    n = signatures.shape[1]
    cov = q * (signatures.T @ signatures.conj())
    cov[np.diag_indices(n)] += prof + sigma2
    return cov


# The two helpers below import scipy.linalg themselves: it adds about
# 0.25 s to every interpreter start (2-vCPU Xeon, scipy 1.17), more than
# half of the 0.39 s `refarm margin` took, and only the MMSE and
# symbol-level solves factor a matrix.  Their inputs are validated by
# name beforehand and a non-finite MMSE solution fails the residual
# check, so scipy's own finiteness scan of every operand is skipped; the
# LAPACK calls are the same.


def _cholesky(matrix):
    from scipy.linalg import cho_factor

    try:
        return cho_factor(matrix, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("MMSE system not numerically positive definite") from exc


def _cho_solve(factor, rhs):
    from scipy.linalg import cho_solve

    return cho_solve(factor, rhs, check_finite=False)


def _chip_space_solve(signatures, q, prof, sigma2):
    """Self-term SINRs q e_u^H R^-1 e_u and residual of the N x N solve R Y = S."""
    cov = _received_covariance(signatures, q, prof, sigma2)
    rhs = signatures.T  # columns are e_u
    solved = _cho_solve(_cholesky(cov), rhs)
    residual = np.linalg.norm(cov @ solved - rhs, axis=0) / np.linalg.norm(rhs, axis=0)
    with_self = q * np.real(np.einsum("un,nu->u", signatures.conj(), solved))
    return with_self, residual


def _user_space_cheaper(n_users, n):
    """Whether the U x U solve takes fewer flops than the N x N one.

    Counted in complex multiply-adds.  The U-space path forms G (U^2 N),
    factors A (U^3/6), inverts it (U^3), and forms A X (U^3) and S times
    the defect (U^2 N) for the residual.  The N-space path forms R
    (N^2 U), factors it (N^3/6), solves for U columns (N^2 U) and forms
    R Y (N^2 U).  The two are equal at U = 0.84 N, and the U-space path
    never wins at U >= N.  At N = 256 with one BLAS thread the measured
    crossover lies between U = 0.85 N and 0.88 N, where the paths differ
    by less than 5 %.
    """
    u, n = float(n_users), float(n)
    return 2.0 * u * u * n + 13.0 / 6.0 * u**3 < 3.0 * n * n * u + n**3 / 6.0


def _user_space_solve(signatures, q, prof, sigma2):
    """Self-term SINRs 1 - X_uu with X = A^-1, A = I + q G, and the residual
    S (A X - I) that the equivalent N-space solution Y = D^-1 S X leaves."""
    n_users = signatures.shape[0]
    rhs = signatures.T
    system = q * (signatures.conj() @ (rhs / (prof + sigma2)[:, None]))
    system[np.diag_indices(n_users)] += 1.0
    inverse = _cho_solve(_cholesky(system), np.eye(n_users))
    defect = system @ inverse
    defect[np.diag_indices(n_users)] -= 1.0
    residual = np.linalg.norm(rhs @ defect, axis=0) / np.linalg.norm(rhs, axis=0)
    return 1.0 - np.real(np.diagonal(inverse)), residual


def mmse_sinr_exact(signatures, q, profile, sigma2) -> SinrReport:
    """Exact linear-MMSE output SINR for every user at finite dimension.

    SINR_u = 1/[(I + q G)^-1]_uu - 1 with G = S^H D^-1 S (module
    docstring).  Below about U = 0.84 N (``_user_space_cheaper``) one
    Cholesky factorization of the U x U matrix I + q G gives every user;
    otherwise one factorization of the N x N received covariance R does.
    Either way the solve is checked by the relative residual of the
    N-space system R Y = S, column by column against
    ``SOLVE_RESIDUAL_TOL``; the U-space path evaluates it as S (A X - I)
    without forming R.  A failed factorization, a large or non-finite
    residual, or a system that overflows raises NumericalError.
    """
    _check_levels(q, sigma2)
    if sigma2 <= 0:
        raise InvalidParameterError("mmse requires sigma2 > 0")
    signatures = _check_signatures(signatures)
    n_users, n = signatures.shape
    prof = profile_array(profile, n)
    solve = _user_space_solve if _user_space_cheaper(n_users, n) else _chip_space_solve
    # Finite inputs can still overflow the system (q = 1e200 with
    # sigma2 = 1e-200); the checks below fail closed on the inf or NaN
    # that results, so the arithmetic need not warn on its way there.
    with np.errstate(over="ignore", invalid="ignore"):
        with_self, residual = solve(signatures, q, prof, sigma2)
    if not np.all(residual <= SOLVE_RESIDUAL_TOL):
        raise NumericalError(f"linear solve residual {residual.max():.2e} above tolerance")
    if not np.all(with_self < 1.0):
        raise NumericalError("self-term SINR reached 1; covariance numerically singular")
    per_user = with_self / (1.0 - with_self)
    return SinrReport(per_user=per_user, receiver="mmse", source="exact-formula")


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


def simulate_uplink_frame(
    cfg: SystemConfig,
    codes: np.ndarray,
    channels: ChannelSet,
    ofdma_alloc,
    rng: np.random.Generator,
    receiver: str = "mf",
    n_slots: int = 1000,
    sigma2: float | None = None,
) -> SinrReport:
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
    signatures = _check_signatures(effective_signatures(codes, channels))
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
        cov = _received_covariance(signatures, cfg.q, prof, sigma2)
        filters = (cfg.q * _cho_solve(_cholesky(cov), signatures.T)).T

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
    return SinrReport(
        per_user=per_user,
        receiver=receiver,
        source="symbol-level",
        stderr=stderr,
        desired_power=desired_power,
        residual_power=residual_power,
    )
