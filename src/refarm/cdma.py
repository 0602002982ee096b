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
R = q S S^H + D directly: the U x U system below U = 0.84 N
(``USER_SPACE_LOAD_LIMIT``).  Both check the relative residual of the
N-space solve R Y = S: the U-space solution is Y = D^-1 S X, whose
residual R Y - S = S (A X - I) needs no N x N matrix.

The U x U path runs on numpy alone.  Only the N x N path uses scipy,
through its BLAS and LAPACK wrappers (``_scipy_linalg``, the one import
site), so importing refarm, the margin, the allocation, ``validate`` and
every MMSE solve below about 0.84 N load numpy alone.  The SINR kernels
write their intermediates into one reused buffer per thread
(``_workspace_views``): per-trial temporaries made glibc fault pages in
again on every Monte Carlo trial.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .errors import InvalidParameterError, NumericalError

SOLVE_RESIDUAL_TOL = 1e-10

#: MMSE solves U x U when U < USER_SPACE_LOAD_LIMIT N, else N x N.  The
#: value is the root in U/N of the two sides' multiply-add counts,
#: 2 U^2 N + 13/6 U^3 = 3 N^2 U + N^3/6, but accuracy is what keeps it: the
#: measured crossover at N = 256 (one BLAS thread, median of 15 calls) is
#: 0.64-0.68 N, yet the U x U residual check is the stricter on
#: ill-conditioned systems.  For 3 users on 4 chips at 140 dB (AWGN, 200 code
#: draws) the N x N check passes every draw with SINRs up to 2.1 % off, from
#: cancellation in 1 - with_self, while the U x U check refuses 76 draws and
#: passes the rest within 1.2e-16 of an exact rational oracle.
USER_SPACE_LOAD_LIMIT = 0.8382313079713307

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
    chip = 1 / np.sqrt(n_chips)
    # A two-entry lookup: 0.012 ms at 51 x 256 against 0.054 ms for
    # np.where (2-vCPU Xeon), with the same values.
    return np.array((-chip, chip))[rng.integers(0, 2, size=(n_users, n_chips))]


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
    # Complex division by a real divisor computes x (1/d) anyway, slowly.
    signatures *= 1 / np.sqrt(n)
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


def _check_signatures(signatures, name="signature"):
    """The signatures (or filters) as a C-ordered complex (U, N) array and their row norms.

    Refused by name if unusable.
    """
    signatures = np.ascontiguousarray(signatures, dtype=complex)
    if signatures.ndim != 2 or signatures.shape[0] < 1:
        raise InvalidParameterError(f"need at least one {name} row")
    norms = _row_norms(signatures)
    if not np.all(np.isfinite(norms)):
        raise InvalidParameterError(f"{name}s must be finite")
    if np.any(norms == 0):
        raise InvalidParameterError(f"degenerate user: zero-norm {name}")
    return signatures, norms


def _row_norms(rows):
    """2-norms of the rows of a C-ordered complex matrix, from its float view."""
    flat = rows.view(float)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _check_levels(q, sigma2):
    if not (0 <= q < np.inf and 0 <= sigma2 < np.inf):
        raise InvalidParameterError(
            f"q and sigma2 must be finite and >= 0, got q={q}, sigma2={sigma2}"
        )


def mf_filter_output_sinr(filters, signatures, q, profile, sigma2) -> np.ndarray:
    """Output SINR of arbitrary linear filters against the received covariance.

    ``filters`` and ``signatures`` are (U, N); user u's filter is applied
    to a signal with signature e_u, interference from the other users'
    signatures, the OFDMA profile and noise.  The value is a generalized
    Rayleigh quotient, hence invariant to rescaling any single filter.
    Filters are refused by name as signatures are, and so are negative or
    non-finite q and sigma2, and sigma2 = 0 when nothing else reaches a
    user's filter output (the SINR would be 0/0 or x/0).
    """
    _check_levels(q, sigma2)
    same = filters is signatures
    signatures, _ = _check_signatures(signatures)
    filters = signatures if same else _check_signatures(filters, "filter")[0]
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
    impairment = mai + colored
    if np.any(impairment == 0):
        raise InvalidParameterError("sigma2 must be > 0 when nothing else reaches a user's filter")
    return desired / impairment


def mf_sinr_exact(signatures, q, profile, sigma2) -> np.ndarray:
    """Exact matched-filter SINR for every user at finite dimension."""
    return mf_filter_output_sinr(signatures, signatures, q, profile, sigma2)


# The N x N path below is the one user of scipy in refarm.  It calls
# scipy's BLAS and LAPACK wrappers, imported in _scipy_linalg alone:
# scipy.linalg adds about 0.3 s and 21 MB to the process that loads it
# (2-vCPU Xeon, scipy 1.17), and numpy has no Hermitian rank-k update or
# Cholesky solve.  The U x U path and everything else run on numpy.
# Inputs are validated by name beforehand and a non-finite solution fails
# the residual check, so no operand is scanned for finiteness.


def _scipy_linalg():
    """scipy.linalg, whose ``blas`` and ``lapack`` wrappers the N x N path calls."""
    import scipy.linalg

    return scipy.linalg


def _chip_space_solve(signatures, q, prof, sigma2):
    """Self-term SINRs w_u = q e_u^H R^-1 e_u, 1 - w_u and the column norms of R Y - S.

    R = q S S^H + diag(prof + sigma2) is built, factored and applied in
    its lower triangle only; Y solves R Y = S.
    """
    linalg = _scipy_linalg()
    n_users, n = signatures.shape
    cov, factor, solved, error = _workspace_views((n, n), (n, n), (n, n_users), (n, n_users))
    rhs = signatures.T  # columns are e_u
    cov = linalg.blas.zherk(q, rhs, c=cov, lower=1, overwrite_c=1)
    cov[np.diag_indices(n)] += prof + sigma2
    factor[...] = cov
    factor, info = linalg.lapack.zpotrf(factor, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise NumericalError("MMSE system not numerically positive definite")
    solved[...] = rhs
    # The residual check needs Y itself.  zpotri with zhemm, or ztrtri with
    # two ztrmm, got Y no faster than this solve over U = 218-397 at
    # N = 256 (one BLAS thread, 2-vCPU Xeon).
    solved, _ = linalg.lapack.zpotrs(factor, solved, lower=1, overwrite_b=1)
    error[...] = rhs  # becomes R Y - S
    error = linalg.blas.zhemm(1.0, cov, solved, beta=-1.0, c=error, lower=1, overwrite_c=1)
    # Re(e_u^H y_u) is the dot product of the two float views.
    with_self = q * np.einsum("ij,ij->i", signatures.view(float), solved.T.view(float))
    return with_self, 1.0 - with_self, _row_norms(error.T)


def _user_space_solve(signatures, q, prof, sigma2):
    """Self-term SINRs 1 - X_uu with X = A^-1, A = I + q G, X_uu itself, and
    the column norms of S (A X - I), the residual that the equivalent
    N-space solution Y = D^-1 S X leaves."""
    n_users, n = signatures.shape
    conj_rows, scaled, system, defect, error = _workspace_views(
        (n, n_users), (n, n_users), (n_users, n_users), (n_users, n_users), (n, n_users)
    )
    conj_rows = np.conjugate(signatures, out=conj_rows.T)
    scaled = np.multiply(signatures.T, (1 / (prof + sigma2))[:, None], out=scaled)
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
    diagonal = np.real(np.diagonal(inverse))
    return 1.0 - diagonal, diagonal, _row_norms(error)


def mmse_sinr_exact(signatures, q, profile, sigma2) -> np.ndarray:
    """Exact linear-MMSE output SINR for every user at finite dimension.

    SINR_u = 1/[(I + q G)^-1]_uu - 1 with G = S^H D^-1 S (module
    docstring).  Below U = 0.84 N (``USER_SPACE_LOAD_LIMIT``) the
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
    signatures, norms = _check_signatures(signatures)
    n_users, n = signatures.shape
    prof = profile_array(profile, n)
    solve = _user_space_solve if n_users < USER_SPACE_LOAD_LIMIT * n else _chip_space_solve
    # Finite inputs can still overflow the system (q = 1e200 with
    # sigma2 = 1e-200); the checks below fail closed on the inf or NaN
    # that results, so the arithmetic need not warn on its way there.
    with np.errstate(over="ignore", invalid="ignore"):
        with_self, without_self, error_norms = solve(signatures, q, prof, sigma2)
        residual = error_norms / norms
    if not np.all(residual <= SOLVE_RESIDUAL_TOL):
        raise NumericalError(f"linear solve residual {residual.max():.2e} above tolerance")
    if not np.all(without_self > 0):
        raise NumericalError("self-term SINR reached 1; covariance numerically singular")
    return with_self / without_self
