"""Multipath channel generation and frequency responses.

Each user's small-scale fading is a length-L tap vector with i.i.d.
CN(0, 1/L) entries (uniform power delay profile, unit average power).
The frequency response is the unnormalized N-point DFT of the zero-padded
taps, which under the unitary transform convention used throughout gives
the exact Parseval identity

    (1/N) * sum_n |lambda_n|^2 == sum_l |h_l|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CHANNEL_MODELS, SystemConfig
from .errors import InvalidParameterError


def gen_multipath_taps(n_taps: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one user's tap vector, CN(0, 1/L) per tap.

    Ensemble mean of the total tap power is 1; individual realizations
    fluctuate around it by design (the asymptotics rely on ensemble
    statistics, not per-draw normalization).
    """
    if n_taps < 1:
        raise InvalidParameterError("n_taps must be >= 1")
    scale = np.sqrt(0.5 / n_taps)
    return scale * (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps))


def freq_response(taps: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """N-point frequency response of a tap vector.

    Returns ``lambda_n = sum_l h_l exp(-2j*pi*n*l/N)`` for n = 0..N-1.
    """
    taps = np.asarray(taps)
    if taps.ndim != 1 or taps.size < 1:
        raise InvalidParameterError("taps must be a nonempty vector")
    if taps.size > n_subcarriers:
        raise InvalidParameterError("more taps than subcarriers")
    return np.fft.fft(taps, n=n_subcarriers)


@dataclass
class ChannelSet:
    """Frequency responses for every user in the system.

    ``cdma`` has shape (U, N) and ``ofdma`` shape (K, N); rows are users.
    Immutable by convention after creation; safe for shared reads.
    """

    cdma: np.ndarray
    ofdma: np.ndarray
    model: str

    @property
    def n_subcarriers(self) -> int:
        return self.cdma.shape[1] if self.cdma.size else self.ofdma.shape[1]

    @property
    def cdma_gains(self) -> np.ndarray:
        return np.abs(self.cdma) ** 2

    @property
    def ofdma_gains(self) -> np.ndarray:
        return np.abs(self.ofdma) ** 2


def _user_responses(n_users, n_subcarriers, n_taps, model, rng):
    if n_users == 0:
        return np.zeros((0, n_subcarriers), dtype=complex)
    if model == "awgn":
        return np.ones((n_users, n_subcarriers), dtype=complex)
    # A flat channel is the single-tap special case: the response is the
    # per-user scalar tap replicated across the band.
    taps_per_user = 1 if model == "flat" else n_taps
    if taps_per_user > n_subcarriers:
        raise InvalidParameterError("more taps than subcarriers")
    # Each user draws its taps from its own substream; one stacked
    # transform gives every row exactly as freq_response would.
    taps = np.stack([gen_multipath_taps(taps_per_user, child) for child in rng.spawn(n_users)])
    return np.fft.fft(taps, n=n_subcarriers, axis=1)


def gen_channel_set(cfg: SystemConfig, model: str, rng: np.random.Generator) -> ChannelSet:
    """Generate independent responses for all CDMA and OFDMA users.

    Users draw from independent substreams spawned off ``rng``, so a fixed
    master seed reproduces the set bit for bit and per-user generation may
    run in parallel.
    """
    if model not in CHANNEL_MODELS:
        raise InvalidParameterError(f"unknown channel model {model!r}")
    cdma_rng, ofdma_rng = rng.spawn(2)
    cdma = _user_responses(cfg.cdma_users, cfg.n_subcarriers, cfg.multipath_taps, model, cdma_rng)
    ofdma = _user_responses(cfg.ofdma_users, cfg.n_subcarriers, cfg.multipath_taps, model, ofdma_rng)
    return ChannelSet(cdma=cdma, ofdma=ofdma, model=model)
