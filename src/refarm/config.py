"""System-level configuration shared by the CDMA and OFDMA sides.

All powers are linear and expressed in units of the noise power sigma2
(itself linear).  External interfaces quote receive SNR, target SINR and
power caps in dB; use :func:`db_to_linear` / :func:`linear_to_db` at the
boundary and keep everything linear internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidParameterError

#: dB values of the default operating point: 20 dB receive SNR, 2 dB target
#: SINR, 30 dB per-user OFDMA power cap.
DEFAULT_RECEIVE_SNR_DB = 20.0
DEFAULT_TARGET_SINR_DB = 2.0
DEFAULT_POWER_CAP_DB = 30.0

RECEIVERS = ("mf", "mmse")
CHANNEL_MODELS = ("selective", "flat", "awgn")


def check_choice(what: str, value, known: tuple):
    """Refuse a name outside ``known``, such as a receiver or a channel model."""
    if value not in known:
        raise InvalidParameterError(f"unknown {what} {value!r}, not one of {known}")


def db_to_linear(value_db: float) -> float:
    """Convert a dB quantity to linear scale."""
    return float(10.0 ** (np.asarray(value_db, dtype=float) / 10.0))


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to dB."""
    if value <= 0:
        raise InvalidParameterError("dB conversion needs a positive value")
    return float(10.0 * np.log10(value))


@dataclass
class SystemConfig:
    """Scalar parameters of the shared-band uplink.

    Parameters
    ----------
    n_subcarriers : int
        Spreading gain of the CDMA system, equal to the OFDMA FFT size.
    alpha : float
        Design CDMA load (ratio of CDMA users to spreading gain).  The
        integer user count used by finite simulations is ``cdma_users``;
        when not given it is ``round(alpha * n_subcarriers)``.
    cdma_users : int, optional
        Explicit CDMA user count, a library-only override: the CLI takes
        no such key and always simulates ``round(alpha * n_subcarriers)``.
        Overrides the value derived from ``alpha`` in finite-dimension
        simulations; closed-form expressions keep using ``alpha`` as given.
    ofdma_users : int
        Number of OFDMA uplink users sharing the band.
    multipath_taps : int, optional
        Channel taps per user (uniform power delay profile); when not
        given it is ``max(1, n_subcarriers // 8)``.
    q : float
        Per-user CDMA receive power (linear, units of sigma2).
    sigma2 : float
        Noise power (linear).
    beta_star : float
        CDMA target SINR (linear).
    power_caps : tuple of float
        Maximum transmit power per OFDMA user (linear).
    """

    n_subcarriers: int = 256
    alpha: float = 0.2
    cdma_users: int | None = None
    ofdma_users: int = 2
    multipath_taps: int | None = None
    q: float = db_to_linear(DEFAULT_RECEIVE_SNR_DB)
    sigma2: float = 1.0
    beta_star: float = db_to_linear(DEFAULT_TARGET_SINR_DB)
    power_caps: tuple = field(default=None)

    def __post_init__(self):
        if self.power_caps is None:
            self.power_caps = tuple(
                db_to_linear(DEFAULT_POWER_CAP_DB) * self.sigma2
                for _ in range(self.ofdma_users)
            )
        elif np.isscalar(self.power_caps):
            self.power_caps = tuple(float(self.power_caps) for _ in range(self.ofdma_users))
        else:
            self.power_caps = tuple(float(c) for c in self.power_caps)
        if self.cdma_users is None:
            # Checked before rounding, which raises OverflowError on inf.
            if not np.isfinite(self.alpha * self.n_subcarriers):
                raise InvalidParameterError("invariant violated: alpha * n_subcarriers < inf")
            self.cdma_users = int(round(self.alpha * self.n_subcarriers))
        if self.multipath_taps is None:
            self.multipath_taps = max(1, self.n_subcarriers // 8)
        self.validate()

    def validate(self):
        n, l = self.n_subcarriers, self.multipath_taps
        checks = [
            (n >= 1, "n_subcarriers >= 1"),
            (0 <= self.alpha < np.inf, "0 <= alpha < inf"),
            (self.cdma_users >= 0, "cdma_users >= 0"),
            (self.ofdma_users >= 0, "ofdma_users >= 0"),
            (1 <= l <= n, "1 <= multipath_taps <= n_subcarriers"),
            (0 < self.q < np.inf, "0 < q < inf"),
            (0 < self.sigma2 < np.inf, "0 < sigma2 < inf"),
            (0 < self.beta_star < np.inf, "0 < beta_star < inf"),
            (len(self.power_caps) == self.ofdma_users, "one power cap per OFDMA user"),
            (all(c >= 0 for c in self.power_caps), "power caps >= 0"),
        ]
        for ok, name in checks:
            if not ok:
                raise InvalidParameterError(f"invariant violated: {name}")

    @property
    def receive_snr_db(self) -> float:
        return linear_to_db(self.q / self.sigma2)

    @property
    def target_sinr_db(self) -> float:
        return linear_to_db(self.beta_star)

    @property
    def noise_floor(self) -> float:
        """CDMA-plus-noise interference floor seen by each OFDMA subcarrier."""
        return self.alpha * self.q + self.sigma2

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced.

        ``alpha`` and ``cdma_users`` stay consistent: changing one without
        the other re-derives the user count from the load.  Changing
        ``n_subcarriers`` without ``multipath_taps`` re-derives the taps.
        """
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        if ("alpha" in kwargs or "n_subcarriers" in kwargs) and "cdma_users" not in kwargs:
            values["cdma_users"] = None
        if "n_subcarriers" in kwargs and "multipath_taps" not in kwargs:
            values["multipath_taps"] = None
        if "ofdma_users" in kwargs and "power_caps" not in kwargs:
            cap = self.power_caps[0] if self.power_caps else None
            values["power_caps"] = cap
        values.update(kwargs)
        return SystemConfig(**values)
