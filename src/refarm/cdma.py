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
R = q S S^H + D directly: the U x U system below about U = 0.84 N
(``_user_space_cheaper``).  Both check the relative residual of the
N-space solve R Y = S: the U-space solution is Y = D^-1 S X, whose
residual R Y - S = S (A X - I) needs no N x N matrix.

The U x U path runs on numpy alone.  Only the N x N path and the
symbol-level MMSE filter use scipy, through its BLAS and LAPACK wrappers
(``_scipy_linalg``, the one import site), so importing refarm, the
margin, the allocation, ``validate`` and every MMSE solve below about
0.84 N load numpy alone.  The SINR kernels write their intermediates
into one reused buffer per thread (``_workspace_views``): per-trial
temporaries made glibc fault pages in again on every Monte Carlo trial.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .config import SystemConfig
from .errors import InvalidParameterError, NumericalError

SOLVE_RESIDUAL_TOL = 1e-10

# Every Monte Carlo trial used to allocate and free about a dozen
# MB-sized temporaries in the SINR kernels, and glibc gave them back to
# the OS and faulted them in again.  A seed-42 perfbench `load_sweep`
# pass took about 200 K minor page faults and 0.4-0.8 s of system time,
# three quarters of the faults inside mmse_sinr_exact (ru_minflt around
# each layer, 2-vCPU Xeon).  The kernels now write their intermediates
# into one buffer per thread, kept between calls: a later pass takes
# under 20 faults, and an `mc_validate` pass about 400 where it took
# 10 K.  Per thread, because trials may run in parallel.
_workspace = threading.local()


def _workspace_views(*shapes):
    """Non-overlapping F-ordered complex views of this thread's workspace.

    One view per (rows, cols) shape.  The buffer grows to the largest
    request seen and is never shrunk.  The views are overwritten by the
    next kernel call on the same thread, so no array a kernel returns may
    alias them.
    """
    sizes = [rows * cols for rows, cols in shapes]
    buffer = getattr(_workspace, "buffer", None)
    if buffer is None or buffer.size < sum(sizes):
        buffer = _workspace.buffer = np.empty(sum(sizes), dtype=complex)
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(buffer[start : start + size].reshape(shape, order="F"))
        start += size
    return views


def gen_spreading_codes(n_users: int, n_chips: int, rng: np.random.Generator) -> np.ndarray:
    """Random antipodal spreading codes, one row per user.

    Chips are equiprobable +-1/sqrt(N), so every code has exactly unit
    norm and the chip covariance is (1/N) I.
    """
    if n_users < 0 or n_chips < 1:
        raise InvalidParameterError("need n_users >= 0 and n_chips >= 1")
    chips = rng.integers(0, 2, size=(n_users, n_chips))
    chips *= 2
    chips -= 1
    # Divided into the chips' own storage: int64 and float64 have one size.
    return np.divide(chips, np.sqrt(n_chips), out=chips.view(float))


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
    # The transform takes complex input; casting the codes into the
    # workspace spares it a temporary copy of its own.
    chips = _workspace_views((n, codes.shape[0]))[0].T
    chips[...] = codes
    signatures = np.fft.fft(chips, axis=1)
    signatures /= np.sqrt(n)
    # In place, operands in the order of ``channels.cdma * signatures``:
    # with fused multiply-adds the complex product is not commutative.
    return np.multiply(channels.cdma, signatures, out=signatures)


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
    """The signatures as a C-ordered complex (U, N) array, refused by name if unusable."""
    signatures = np.ascontiguousarray(signatures, dtype=complex)
    if signatures.ndim != 2 or signatures.shape[0] < 1:
        raise InvalidParameterError("need at least one signature row")
    norms = _row_norms(signatures)
    if not np.all(np.isfinite(norms)):
        raise InvalidParameterError("signatures must be finite")
    if np.any(norms == 0):
        raise InvalidParameterError("degenerate user: zero-norm signature")
    return signatures


def _row_norms(rows):
    """2-norms of the rows of a C-ordered complex matrix, from its float view."""
    flat = rows.view(float)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


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
    n_users, n = signatures.shape
    prof = profile_array(profile, n)
    conj_filters, cross, cross_power = _workspace_views(
        (n, n_users), (n_users, n_users), (n_users, n_users)
    )
    conj_filters = np.conjugate(filters, out=conj_filters.T)
    cross = np.matmul(conj_filters, signatures.T, out=cross.T)  # cross[u, i] = f_u^H e_i
    # |cross|^2, then |f_u,n|^2 (profile_n + sigma^2), each in the real
    # parts of a workspace block; conj_filters is spent by then.
    cross_power = np.abs(cross, out=cross_power.T.real)
    cross_power **= 2
    desired = q * np.diagonal(cross_power)
    mai = q * (np.sum(cross_power, axis=1) - np.diagonal(cross_power))
    weighted = np.abs(filters, out=conj_filters.real)
    weighted **= 2
    weighted *= prof + sigma2
    colored = np.sum(weighted, axis=1)
    return desired / (mai + colored)


def mf_sinr_exact(signatures, q, profile, sigma2) -> SinrReport:
    """Exact matched-filter SINR for every user at finite dimension."""
    per_user = mf_filter_output_sinr(signatures, signatures, q, profile, sigma2)
    return SinrReport(per_user=per_user, receiver="mf", source="exact-formula")


# The N x N path below uses scipy's BLAS and LAPACK wrappers, imported in
# _scipy_linalg alone: scipy.linalg adds about 0.3 s and 21 MB to the
# process that loads it (2-vCPU Xeon, scipy 1.17), and numpy has no
# Hermitian rank-k update or Cholesky solve.  The U x U path and
# everything else run on numpy.  Inputs are validated by name
# beforehand and a non-finite solution fails the residual check, so no
# operand is scanned for finiteness.


def _scipy_linalg():
    """scipy.linalg, whose ``blas`` and ``lapack`` wrappers the N x N path calls."""
    import scipy.linalg

    return scipy.linalg


def _received_covariance(signatures, q, prof, sigma2, out=None):
    """Lower triangle of R = q S^T S^* + diag(prof + sigma2), as an F-ordered array.

    Written into ``out`` when it is an F-ordered complex (N, N) array.
    The strict upper triangle is left unset.
    """
    n = signatures.shape[1]
    cov = _scipy_linalg().blas.zherk(q, signatures.T, c=out, lower=1, overwrite_c=1)
    cov[np.diag_indices(n)] += prof + sigma2
    return cov


def _cholesky(cov):
    """Lower Cholesky factor of R from ``_received_covariance``, in R's storage."""
    factor, info = _scipy_linalg().lapack.zpotrf(cov, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise NumericalError("MMSE system not numerically positive definite")
    return factor


def _cho_solve(factor, rhs):
    """R^-1 rhs from ``_cholesky``'s factor, in the storage of an F-ordered rhs."""
    solved, _ = _scipy_linalg().lapack.zpotrs(factor, rhs, lower=1, overwrite_b=1)
    return solved


def _chip_space_solve(signatures, q, prof, sigma2):
    """Self-term SINRs q e_u^H R^-1 e_u and residual of the N x N solve R Y = S."""
    n_users, n = signatures.shape
    cov, factor, solved, error = _workspace_views((n, n), (n, n), (n, n_users), (n, n_users))
    rhs = signatures.T  # columns are e_u
    cov = _received_covariance(signatures, q, prof, sigma2, out=cov)
    factor[...] = cov
    solved[...] = rhs
    solved = _cho_solve(_cholesky(factor), solved)
    error[...] = rhs  # becomes R Y - S
    error = _scipy_linalg().blas.zhemm(1.0, cov, solved, beta=-1.0, c=error, lower=1, overwrite_c=1)
    residual = _row_norms(error.T) / _row_norms(signatures)
    # Re(e_u^H y_u) is the dot product of the two float views.
    with_self = q * np.einsum("ij,ij->i", signatures.view(float), solved.T.view(float))
    return with_self, residual


def _user_space_cheaper(n_users, n):
    """Whether to take the U x U solve: below about U = 0.84 N.

    The formula counts complex multiply-adds of a general product and a
    Cholesky solve on either side.  With the present kernels the measured
    crossover at N = 256 (one BLAS thread) lies between 0.68 N and 0.72 N,
    and the U-space path is up to 1.5 times slower just below 0.84 N.
    The threshold stays because the U-space residual check is the
    stricter on ill-conditioned systems: for 3 users on 4 chips at 140 dB
    (AWGN, 200 code draws) the N x N check passes every draw at residual
    1e-16 with SINRs up to 1.9 % off, from cancellation in 1 - with_self,
    while the U x U check refuses 73 draws and the rest are within 0.34 %.
    """
    u, n = float(n_users), float(n)
    return 2.0 * u * u * n + 13.0 / 6.0 * u**3 < 3.0 * n * n * u + n**3 / 6.0


def _user_space_solve(signatures, q, prof, sigma2):
    """Self-term SINRs 1 - X_uu with X = A^-1, A = I + q G, and the residual
    S (A X - I) that the equivalent N-space solution Y = D^-1 S X leaves."""
    n_users, n = signatures.shape
    conj_rows, scaled, system, defect, error = _workspace_views(
        (n, n_users), (n, n_users), (n_users, n_users), (n_users, n_users), (n, n_users)
    )
    conj_rows = np.conjugate(signatures, out=conj_rows.T)
    scaled = np.divide(signatures.T, (prof + sigma2)[:, None], out=scaled)
    system = np.matmul(conj_rows, scaled, out=system.T)
    system *= q
    system[np.diag_indices(n_users)] += 1.0
    try:
        np.linalg.cholesky(system)  # the positive-definiteness test
        inverse = np.linalg.inv(system)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("MMSE system not numerically positive definite") from exc
    defect = np.matmul(system, inverse, out=defect.T)
    defect[np.diag_indices(n_users)] -= 1.0
    error = np.matmul(defect.T, signatures, out=error.T)  # rows are (S (A X - I))^T
    residual = _row_norms(error) / _row_norms(signatures)
    return 1.0 - np.real(np.diagonal(inverse)), residual


def mmse_sinr_exact(signatures, q, profile, sigma2) -> SinrReport:
    """Exact linear-MMSE output SINR for every user at finite dimension.

    SINR_u = 1/[(I + q G)^-1]_uu - 1 with G = S^H D^-1 S (module
    docstring).  Below about U = 0.84 N (``_user_space_cheaper``) the
    inverse of the U x U matrix I + q G gives every user, after a
    Cholesky factorization has shown it positive definite; otherwise one
    Cholesky factorization of the N x N received covariance R does.
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
        factor = _cholesky(_received_covariance(signatures, cfg.q, prof, sigma2))
        filters = (cfg.q * _cho_solve(factor, signatures.T.copy(order="F"))).T

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
