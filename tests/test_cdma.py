import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from refarm import (
    ChannelSet,
    InterferenceProfile,
    InvalidParameterError,
    NumericalError,
    SystemConfig,
    effective_signatures,
    gen_channel_set,
    gen_spreading_codes,
    mf_sinr_exact,
    mmse_fixed_point_uniform,
    mmse_sinr_exact,
)
from refarm import cdma
from refarm.cdma import mf_filter_output_sinr
from refarm.experiments import empirical_cdma_sinr

from oracles import exact_mmse_sinr, simulate_uplink_frame

Q = 100.0
SIGMA2 = 1.0


def awgn_channels(n_users, n, k_ofdma=0):
    return ChannelSet(
        cdma=np.ones((n_users, n), dtype=complex),
        ofdma=np.ones((k_ofdma, n), dtype=complex),
    )


def test_codes_have_exact_unit_norm():
    # Chip magnitudes are deterministic; for power-of-two N the squared
    # norm is even bit-exact.
    codes = gen_spreading_codes(20, 256, np.random.default_rng(0))
    np.testing.assert_array_equal(np.sum(codes**2, axis=1), np.ones(20))
    codes = gen_spreading_codes(20, 37, np.random.default_rng(0))
    np.testing.assert_allclose(np.sum(codes**2, axis=1), np.ones(20), rtol=1e-15)


def test_code_cross_correlation_concentrates():
    # E|s_u^H s_v|^2 = 1/N, so the mean absolute correlation at N=256 sits
    # near sqrt(2/(pi*256)) ~ 0.05, well under 0.08.
    rng = np.random.default_rng(1)
    codes = gen_spreading_codes(200, 256, rng)
    pairs = rng.integers(0, 200, size=(10_000, 2))
    distinct = pairs[pairs[:, 0] != pairs[:, 1]]
    inner = np.abs(np.einsum("pn,pn->p", codes[distinct[:, 0]], codes[distinct[:, 1]]))
    assert inner.mean() < 0.08


def test_empty_code_set():
    codes = gen_spreading_codes(0, 16, np.random.default_rng(0))
    assert codes.shape == (0, 16)


def test_awgn_signatures_keep_unit_norm():
    codes = gen_spreading_codes(5, 64, np.random.default_rng(2))
    sigs = effective_signatures(codes, awgn_channels(5, 64))
    np.testing.assert_allclose(np.sum(np.abs(sigs) ** 2, axis=1), np.ones(5), rtol=1e-12)


def test_flat_channel_scales_signature_power():
    codes = gen_spreading_codes(1, 32, np.random.default_rng(3))
    channels = ChannelSet(cdma=np.full((1, 32), 2.0 + 0j), ofdma=np.zeros((0, 32)))
    sigs = effective_signatures(codes, channels)
    assert np.sum(np.abs(sigs) ** 2) == pytest.approx(4.0, rel=1e-12)


def test_selective_signature_power_is_unit_on_average():
    cfg = SystemConfig(n_subcarriers=64, cdma_users=1000, ofdma_users=0, multipath_taps=8)
    channels = gen_channel_set(cfg, "selective", np.random.default_rng(4))
    codes = gen_spreading_codes(1000, 64, np.random.default_rng(5))
    sigs = effective_signatures(codes, channels)
    assert 0.97 <= np.mean(np.sum(np.abs(sigs) ** 2, axis=1)) <= 1.03


def test_signature_dimension_mismatch():
    codes = gen_spreading_codes(3, 16, np.random.default_rng(0))
    with pytest.raises(InvalidParameterError):
        effective_signatures(codes, awgn_channels(2, 16))


def test_interference_profile_mean_consistency():
    profile = InterferenceProfile(np.array([1.0, 2.0, 3.0, 6.0]))
    assert profile.mean == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(InvalidParameterError):
        InterferenceProfile(np.array([-1.0, 0.0]))


def test_profile_from_allocation():
    powers = np.array([[1.0, 0.0], [0.0, 2.0]])
    gains = np.array([[0.5, 1.0], [1.0, 3.0]])
    profile = InterferenceProfile.from_allocation(powers, gains)
    np.testing.assert_allclose(profile.per_subcarrier, [0.5, 6.0])


# --- matched filter -------------------------------------------------------

def test_mf_single_user_no_interference():
    codes = gen_spreading_codes(1, 16, np.random.default_rng(6))
    sigs = effective_signatures(codes, awgn_channels(1, 16))
    report = mf_sinr_exact(sigs, Q, InterferenceProfile.zero(16), SIGMA2)
    assert report[0] == pytest.approx(Q / SIGMA2, rel=1e-12)


def test_mf_orthogonal_codes_see_no_cross_term():
    codes = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    sigs = effective_signatures(codes, awgn_channels(2, 2))
    report = mf_sinr_exact(sigs, Q, InterferenceProfile.zero(2), SIGMA2)
    np.testing.assert_allclose(report, [Q, Q], rtol=1e-10)


def test_mf_awgn_monte_carlo_matches_load_formula():
    # Averaging the exact SINR over random codes approaches the
    # deterministic value q / ((U-1) q / N + sigma2).
    n, n_users = 256, 51
    reference = Q / ((n_users - 1) * Q / n + SIGMA2)
    rng = np.random.default_rng(7)
    profile = InterferenceProfile.zero(n)
    channels = awgn_channels(n_users, n)
    means = []
    for _ in range(200):
        codes = gen_spreading_codes(n_users, n, rng)
        sigs = effective_signatures(codes, channels)
        means.append(mf_sinr_exact(sigs, Q, profile, SIGMA2).mean())
    assert abs(np.mean(means) - reference) / reference < 0.05


def test_mf_scale_invariant_in_the_filter():
    rng = np.random.default_rng(8)
    cfg = SystemConfig(n_subcarriers=32, cdma_users=6, ofdma_users=0, multipath_taps=4)
    channels = gen_channel_set(cfg, "selective", rng)
    sigs = effective_signatures(gen_spreading_codes(6, 32, rng), channels)
    profile = InterferenceProfile.uniform(0.5, 32)
    base = mf_filter_output_sinr(sigs, sigs, Q, profile, SIGMA2)
    scaled = mf_filter_output_sinr((0.3 - 2.0j) * sigs, sigs, Q, profile, SIGMA2)
    np.testing.assert_allclose(scaled, base, rtol=1e-10)
    np.testing.assert_allclose(
        mf_sinr_exact(sigs, Q, profile, SIGMA2), base, rtol=1e-12
    )


def test_zero_norm_signature_rejected():
    sigs = np.zeros((1, 8), dtype=complex)
    with pytest.raises(InvalidParameterError):
        mf_sinr_exact(sigs, Q, InterferenceProfile.zero(8), SIGMA2)


def _signatures(n_users, n=8):
    return effective_signatures(
        gen_spreading_codes(n_users, n, np.random.default_rng(4)), awgn_channels(n_users, n)
    )


# 3 users on 8 chips take the U x U MMSE path, 8 users the N x N one.
_PROFILE_CHECKS = {
    "profile": lambda p: InterferenceProfile(np.atleast_1d(p)),
    "mf": lambda p: mf_sinr_exact(_signatures(3), Q, p, SIGMA2),
    "mmse-user-space": lambda p: mmse_sinr_exact(_signatures(3), Q, p, SIGMA2),
    "mmse-chip-space": lambda p: mmse_sinr_exact(_signatures(8), Q, p, SIGMA2),
    "fixed-point": lambda p: mmse_fixed_point_uniform(0.2, Q, p, SIGMA2),
}
_NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


@pytest.mark.parametrize("form", ["scalar", "vector"])
@pytest.mark.parametrize("value", _NON_FINITE.values(), ids=_NON_FINITE.keys())
@pytest.mark.parametrize("check", _PROFILE_CHECKS.values(), ids=_PROFILE_CHECKS.keys())
def test_non_finite_interference_rejected_by_name(check, value, form):
    profile = value if form == "scalar" else np.array([1.0, value, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
    with pytest.raises(InvalidParameterError, match="interference powers must be finite"):
        check(profile)


@pytest.mark.parametrize("value", _NON_FINITE.values(), ids=_NON_FINITE.keys())
@pytest.mark.parametrize("receiver", [mf_sinr_exact, mmse_sinr_exact], ids=["mf", "mmse"])
def test_non_finite_signatures_rejected_by_name(receiver, value):
    sigs = _signatures(3)
    sigs[1, 2] = value
    with pytest.raises(InvalidParameterError, match="signatures must be finite"):
        receiver(sigs, Q, None, SIGMA2)


# q and sigma2 as (q, sigma2); each pair holds one non-finite level.
_NON_FINITE_LEVELS = {
    "q-nan": (np.nan, SIGMA2),
    "q-inf": (np.inf, SIGMA2),
    "sigma2-nan": (Q, np.nan),
    "sigma2-inf": (Q, np.inf),
}
_LEVEL_CHECKS = {
    "mf": lambda q, s2: mf_sinr_exact(_signatures(3), q, None, s2),
    "mf-filter": lambda q, s2: mf_filter_output_sinr(_signatures(3), _signatures(3), q, None, s2),
    "mmse-user-space": lambda q, s2: mmse_sinr_exact(_signatures(3), q, None, s2),
    "mmse-chip-space": lambda q, s2: mmse_sinr_exact(_signatures(8), q, None, s2),
}


@pytest.mark.parametrize("levels", _NON_FINITE_LEVELS.values(), ids=_NON_FINITE_LEVELS.keys())
@pytest.mark.parametrize("check", _LEVEL_CHECKS.values(), ids=_LEVEL_CHECKS.keys())
def test_non_finite_levels_rejected_by_name(check, levels):
    with pytest.raises(InvalidParameterError, match="q and sigma2 must be finite"):
        check(*levels)


# Each pair holds one negative level.
_NEGATIVE_LEVELS = {"q": (-1.0, SIGMA2), "sigma2": (Q, -5.0)}


@pytest.mark.parametrize("levels", _NEGATIVE_LEVELS.values(), ids=_NEGATIVE_LEVELS.keys())
@pytest.mark.parametrize("check", _LEVEL_CHECKS.values(), ids=_LEVEL_CHECKS.keys())
def test_negative_levels_rejected_by_name(check, levels):
    with pytest.raises(InvalidParameterError, match="q and sigma2 must be finite and >= 0"):
        check(*levels)


@pytest.mark.parametrize("check", _LEVEL_CHECKS.values(), ids=_LEVEL_CHECKS.keys())
def test_zero_q_gives_zero_sinr(check):
    result = check(0.0, SIGMA2)
    np.testing.assert_array_equal(result, 0.0)


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_mf_with_no_noise_and_nothing_else_at_the_filter_is_refused_by_name(q):
    # One user, no profile and sigma2 = 0 would give 0/0 at q = 0 and q/0
    # otherwise.
    with pytest.raises(InvalidParameterError, match="sigma2"):
        mf_sinr_exact(np.eye(1, 4, dtype=complex), q, None, 0.0)


def test_mf_without_noise_is_defined_when_another_user_interferes():
    # f_0^H e_1 = f_1^H e_0 = 1: desired powers 4 and 1 against one unit of
    # interference each.
    sigs = np.array([[1, 1, 0, 0], [1, 0, 0, 0]], dtype=complex)
    np.testing.assert_array_equal(mf_sinr_exact(sigs, 1.0, None, 0.0), [4.0, 1.0])


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_filters_rejected_by_name(value):
    filters = _signatures(3)
    filters[1, 2] = value
    with pytest.raises(InvalidParameterError, match="filters must be finite"):
        mf_filter_output_sinr(filters, _signatures(3), Q, None, SIGMA2)


def test_zero_filter_row_rejected_by_name():
    filters = _signatures(3)
    filters[1] = 0.0
    with pytest.raises(InvalidParameterError, match="zero-norm filter"):
        mf_filter_output_sinr(filters, _signatures(3), Q, None, SIGMA2)


@pytest.mark.parametrize("receiver", ["mf", "mmse"])
@pytest.mark.parametrize(
    "q, sigma2", [(np.inf, None), (Q, np.nan), (Q, np.inf)], ids=["q-inf", "sigma2-nan", "sigma2-inf"]
)
def test_simulate_rejects_non_finite_levels(q, sigma2, receiver):
    # SystemConfig refuses a non-finite q itself; this one is set past its check.
    cfg = SystemConfig(n_subcarriers=8, cdma_users=2, ofdma_users=0, multipath_taps=2)
    cfg.q = q
    codes = gen_spreading_codes(2, 8, np.random.default_rng(0))
    with pytest.raises(InvalidParameterError, match="q and sigma2 must be finite"):
        simulate_uplink_frame(
            cfg, codes, awgn_channels(2, 8), None, np.random.default_rng(1), receiver, 10, sigma2
        )


# --- linear MMSE ----------------------------------------------------------

def test_mmse_single_user_equals_matched_filter():
    codes = gen_spreading_codes(1, 16, np.random.default_rng(9))
    sigs = effective_signatures(codes, awgn_channels(1, 16))
    report = mmse_sinr_exact(sigs, Q, InterferenceProfile.zero(16), SIGMA2)
    assert report[0] == pytest.approx(Q / SIGMA2, rel=1e-10)


def test_mmse_orthogonal_codes():
    codes = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    sigs = effective_signatures(codes, awgn_channels(2, 2))
    report = mmse_sinr_exact(sigs, Q, InterferenceProfile.zero(2), SIGMA2)
    np.testing.assert_allclose(report, [Q, Q], rtol=1e-10)


def test_mmse_awgn_monte_carlo_matches_fixed_point():
    # Independent oracle: at alpha ~ 0.2, q=100, sigma2=1 the limiting
    # SINR solves x^2 - 79 x - 100 = 0, i.e. (79 + sqrt(6641)) / 2.
    n, n_users = 256, 51
    root = (79.0 + np.sqrt(6641.0)) / 2.0
    rng = np.random.default_rng(10)
    profile = InterferenceProfile.zero(n)
    channels = awgn_channels(n_users, n)
    means = []
    for _ in range(100):
        codes = gen_spreading_codes(n_users, n, rng)
        sigs = effective_signatures(codes, channels)
        means.append(mmse_sinr_exact(sigs, Q, profile, SIGMA2).mean())
    assert abs(np.mean(means) - root) / root < 0.10


def test_mmse_requires_positive_noise():
    codes = gen_spreading_codes(2, 8, np.random.default_rng(0))
    sigs = effective_signatures(codes, awgn_channels(2, 8))
    with pytest.raises(InvalidParameterError):
        mmse_sinr_exact(sigs, Q, InterferenceProfile.zero(8), 0.0)


def _random_instance(seed, n=64, n_users=13, taps=8):
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(n_subcarriers=n, cdma_users=n_users, ofdma_users=0, multipath_taps=taps)
    channels = gen_channel_set(cfg, "selective", rng)
    codes = gen_spreading_codes(n_users, n, rng)
    profile = InterferenceProfile(rng.uniform(0.0, 5.0, size=n))
    return effective_signatures(codes, channels), profile


def test_mmse_dominates_mf_per_realization():
    for seed in range(5):
        sigs, profile = _random_instance(seed)
        mf = mf_sinr_exact(sigs, Q, profile, SIGMA2)
        mmse = mmse_sinr_exact(sigs, Q, profile, SIGMA2)
        assert np.all(mmse >= mf * (1 - 1e-10))


def test_mmse_below_interference_free_bound():
    sigs, profile = _random_instance(42)
    mmse = mmse_sinr_exact(sigs, Q, profile, SIGMA2)
    noise = profile.per_subcarrier + SIGMA2
    bound = Q * np.sum(np.abs(sigs) ** 2 / noise[None, :], axis=1)
    assert np.all(mmse < bound)


def test_more_interference_never_helps():
    sigs, profile = _random_instance(3)
    bumped = profile.per_subcarrier.copy()
    bumped[7] += 2.5
    for solver in (mf_sinr_exact, mmse_sinr_exact):
        before = solver(sigs, Q, profile, SIGMA2)
        after = solver(sigs, Q, InterferenceProfile(bumped), SIGMA2)
        assert np.all(after <= before * (1 + 1e-12))


def _chip_space_reference(sigs, q, prof, sigma2):
    # The MMSE SINR straight from the N x N received covariance, built
    # here in full: the kernel's builder fills only its lower triangle.
    cov = q * (sigs.T @ sigs.conj()) + np.diag(prof + sigma2)
    solved = np.linalg.solve(cov, sigs.T)
    with_self = q * np.real(np.einsum("un,nu->u", sigs.conj(), solved))
    return with_self / (1.0 - with_self)


@pytest.mark.parametrize("n_users", [1, 13, 26, 27, 31, 32, 40])
def test_mmse_matches_chip_space_reference(n_users, monkeypatch):
    # Up to U = 26 = 0.81 N the U x U Woodbury form takes fewer flops;
    # from U = 27 = 0.84 N on, the N x N covariance does.
    n = 32
    sigs, profile = _random_instance(n_users, n=n, n_users=n_users, taps=4)
    prof = profile.per_subcarrier
    assert np.ptp(prof) > 1.0
    other = "_chip_space_solve" if n_users <= 26 else "_user_space_solve"

    def wrong_path(*args):
        raise AssertionError(f"{other} used at U={n_users}, N={n}")

    monkeypatch.setattr(cdma, other, wrong_path)
    report = mmse_sinr_exact(sigs, Q, profile, SIGMA2)
    np.testing.assert_allclose(
        report, _chip_space_reference(sigs, Q, prof, SIGMA2), rtol=1e-10
    )


@pytest.mark.parametrize("n_users", [51, 179, 218, 397])
def test_mmse_matches_chip_space_reference_at_n_256(n_users):
    # The benchmark's band width: U = 51 and 179 take the U x U path,
    # U = 218 and 397 the N x N one.
    n = 256
    sigs, profile = _random_instance(n_users, n=n, n_users=n_users, taps=32)
    prof = profile.per_subcarrier
    report = mmse_sinr_exact(sigs, Q, profile, SIGMA2)
    np.testing.assert_allclose(
        report, _chip_space_reference(sigs, Q, prof, SIGMA2), rtol=1e-10
    )


def _kernel_results(n_users, n, seed):
    sigs, profile = _random_instance(seed, n=n, n_users=n_users, taps=4)
    codes = gen_spreading_codes(n_users, n, np.random.default_rng(seed))
    return [
        sigs,
        effective_signatures(codes, awgn_channels(n_users, n)),
        mf_sinr_exact(sigs, Q, profile, SIGMA2),
        mf_filter_output_sinr(2.0 * sigs, sigs, Q, profile, SIGMA2),
        mmse_sinr_exact(sigs, Q, profile, SIGMA2),
    ]


@pytest.mark.parametrize(
    "first, second",
    [((40, 32), (40, 32)), ((5, 32), (40, 32)), ((40, 32), (5, 32)), ((30, 32), (90, 64))],
)
def test_kernel_results_do_not_alias_the_workspace(first, second):
    # The kernels share one workspace per thread; a later call, of the same
    # shape on other data or of another shape and path, must leave earlier
    # results as they were.
    kept = _kernel_results(*first, seed=1)
    copies = [value.copy() for value in kept]
    _kernel_results(*second, seed=2)
    for value, copy in zip(kept, copies):
        np.testing.assert_array_equal(value, copy)


def test_threads_reproduce_a_serial_monte_carlo_run():
    # Four threads at two loads (U x U and N x N MMSE paths) run their
    # trials interleaved; each must match its serial run bit for bit.
    base = SystemConfig(n_subcarriers=64, ofdma_users=0, multipath_taps=8)
    cases = [(base.replace(cdma_users=u), rx) for u in (12, 60) for rx in ("mf", "mmse")]
    profile = InterferenceProfile(np.linspace(0.0, 3.0, 64))

    def run(cfg, receiver):
        rng = np.random.default_rng(cfg.cdma_users)
        return empirical_cdma_sinr(cfg, profile, receiver, "selective", 40, rng)[2]

    serial = [run(*case) for case in cases]
    threaded = [None] * len(cases)
    barrier = threading.Barrier(len(cases), timeout=60)

    def worker(i):
        barrier.wait()
        threaded[i] = run(*cases[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


def _identical_rows(n_users, n=8):
    codes = gen_spreading_codes(1, n, np.random.default_rng(0))
    return np.repeat(effective_signatures(codes, awgn_channels(1, n)), n_users, axis=0)


@pytest.mark.parametrize("n_users", [3, 8], ids=["user-space", "chip-space"])
def test_mmse_failed_factorization_is_numerical_error(n_users):
    # q/sigma2 = 200 dB on identical signatures: Cholesky breaks down.
    with pytest.raises(NumericalError, match="positive definite"):
        mmse_sinr_exact(_identical_rows(n_users), Q, None, 1e-18)


def test_mmse_identical_rows_at_140_db_refused():
    # The exact value is 0.5 per user, but the U x U system has condition
    # number 3e14 and its residual check refuses the solve.
    with pytest.raises(NumericalError, match="residual"):
        mmse_sinr_exact(_identical_rows(3), Q, None, 1e-12)


def test_mmse_near_duplicate_signatures_fail_residual_check():
    # Cholesky of the 2 x 2 system succeeds; only the residual catches it.
    sigs = gen_spreading_codes(2, 8, np.random.default_rng(1)).astype(complex)
    sigs[1] = sigs[0]
    sigs[1, 0] += 1e-9
    with pytest.raises(NumericalError, match="residual"):
        mmse_sinr_exact(sigs, Q, None, 1e-16)


def test_mmse_near_duplicate_signatures_fail_residual_check_in_chip_space():
    # U = N takes the N x N path, where Cholesky of R succeeds and only the
    # residual catches the pair.  At sigma2 = 1e-12 the solve passes.
    sigs = gen_spreading_codes(16, 16, np.random.default_rng(3)).astype(complex)
    sigs[1] = sigs[0]
    sigs[1, 0] += 1e-7
    assert not 16 < cdma.USER_SPACE_LOAD_LIMIT * 16
    with pytest.raises(NumericalError, match="residual"):
        mmse_sinr_exact(sigs, 1.0, None, 1e-16)


def test_user_space_limit_picks_the_flop_model_path():
    # The limit is the root of the flop model that chose the MMSE path
    # before; this is that model, and the two agree on every (U, N) with
    # N <= 4096 and U <= 2048.
    def flop_model_picks_user_space(u, n):
        return 2.0 * u * u * n + 13.0 / 6.0 * u**3 < 3.0 * n * n * u + n**3 / 6.0

    users = np.arange(1, 2049, dtype=float)
    for n in range(1, 4097):
        limit = users < cdma.USER_SPACE_LOAD_LIMIT * n
        np.testing.assert_array_equal(limit, flop_model_picks_user_space(users, float(n)), f"{n=}")


def test_documented_path_threshold_is_the_limit():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    documented = re.findall(r"(\d\.\d+) N\b", readme + cdma.__doc__ + cdma.mmse_sinr_exact.__doc__)
    assert len(documented) >= 4
    assert set(documented) == {f"{cdma.USER_SPACE_LOAD_LIMIT:.2f}"}


def test_mmse_overflowing_system_is_numerical_error():
    # Every input is finite, but q / sigma2 = 4000 dB overflows the U x U
    # system to inf; the solve must fail closed on the inf and NaN that
    # follow, without a factorization that checks its operands.
    sigs = _signatures(20, n=64)
    assert 20 < cdma.USER_SPACE_LOAD_LIMIT * 64
    with pytest.raises(NumericalError):
        mmse_sinr_exact(sigs, 1e200, None, 1e-200)


@pytest.mark.parametrize(
    "with_self, residual, message",
    [(0.5, np.nan, "residual"), (np.nan, 0.0, "self-term")],
    ids=["nan-residual", "nan-self-term"],
)
def test_mmse_checks_fail_closed_on_nan(with_self, residual, message, monkeypatch):
    def nan_solve(signatures, *args):
        n_users = signatures.shape[0]
        return (
            np.full(n_users, with_self),
            np.full(n_users, 1.0 - with_self),
            np.full(n_users, residual),
        )

    monkeypatch.setattr(cdma, "_user_space_solve", nan_solve)
    with pytest.raises(NumericalError, match=message):
        mmse_sinr_exact(_signatures(3), Q, None, SIGMA2)


@pytest.mark.parametrize(
    "n_users, n, snr_db, model, draws", [(3, 4, 140, "awgn", 200), (4, 8, 100, "selective", 40)]
)
def test_user_space_mmse_matches_an_exact_oracle(n_users, n, snr_db, model, draws):
    # At 4 chips the AWGN signatures are exact Gaussian rationals (codes
    # +-1/2, DFT entries +-1/2 and +-i/2).  Passed draws were within
    # 1.2e-16 at 140 dB, and within 1.7e-15 over 200 selective draws;
    # dividing by 1 - (1 - X_uu) left them up to 8.0e-4 and 1.1e-6 off.
    # The 140 dB check refuses 76 of its 200 draws.
    rng = np.random.default_rng(0)
    cfg = SystemConfig(n_subcarriers=n, cdma_users=n_users, ofdma_users=0, multipath_taps=n // 2)
    q, passed = 10.0 ** (snr_db / 10), 0
    for _ in range(draws):
        channels = gen_channel_set(cfg, model, rng)
        signatures = effective_signatures(gen_spreading_codes(n_users, n, rng), channels)
        try:
            sinr = mmse_sinr_exact(signatures, q, None, SIGMA2)
        except NumericalError:
            continue
        passed += 1
        exact = [float(v) for v in exact_mmse_sinr(signatures, q, None, SIGMA2)]
        np.testing.assert_allclose(sinr, exact, rtol=1e-14)
    assert passed >= draws // 2


# Receiver and user count at N = 64 -> the relations' relative tolerance.
# At the parent commit they held within 3.2e-15 (MF), 5.0e-15 (MMSE
# U x U) and 1.2e-14 (MMSE N x N) over 10 draws like these at 20 dB; each
# tolerance is about four times that.
_METAMORPHIC = {
    "mf": (mf_sinr_exact, 20, 1e-14),
    "mmse-user-space": (mmse_sinr_exact, 20, 2e-14),
    "mmse-chip-space": (mmse_sinr_exact, 60, 5e-14),
}


@pytest.mark.parametrize("case", _METAMORPHIC.values(), ids=_METAMORPHIC.keys())
def test_sinr_respects_the_symmetries_of_the_problem(case):
    # A per-user phase, a permutation of subcarriers (signature columns and
    # profile together), a permutation of users and a joint change of the
    # units of q, sigma2 and the profile leave every user's SINR as it was.
    kernel, n_users, rtol = case
    n, rng = 64, np.random.default_rng(12)
    cfg = SystemConfig(n_subcarriers=n, cdma_users=n_users, ofdma_users=0, multipath_taps=8)
    for _ in range(5):
        channels = gen_channel_set(cfg, "selective", rng)
        sigs = effective_signatures(gen_spreading_codes(n_users, n, rng), channels)
        prof = rng.uniform(0.0, 5.0, n)
        base = kernel(sigs, Q, prof, SIGMA2)
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n_users))[:, None]
        columns, users = rng.permutation(n), rng.permutation(n_users)
        related = {
            "phase": kernel(sigs * phases, Q, prof, SIGMA2),
            "subcarriers": kernel(sigs[:, columns], Q, prof[columns], SIGMA2),
            "users": kernel(sigs[users], Q, prof, SIGMA2)[np.argsort(users)],
            "units-7.3": kernel(sigs, 7.3 * Q, 7.3 * prof, 7.3 * SIGMA2),
            "units-1e-3": kernel(sigs, 1e-3 * Q, 1e-3 * prof, 1e-3 * SIGMA2),
        }
        for name, values in related.items():
            np.testing.assert_allclose(values, base, rtol=rtol, atol=0, err_msg=name)


def test_sinr_concentrates_across_code_draws():
    # Fixed channels, codes redrawn: the user-averaged SINR fluctuates by
    # only a few percent at N=256.
    n, n_users = 256, 51
    rng = np.random.default_rng(11)
    cfg = SystemConfig(n_subcarriers=n, cdma_users=n_users, ofdma_users=0, multipath_taps=32)
    channels = gen_channel_set(cfg, "selective", rng)
    profile = InterferenceProfile.zero(n)
    means = {"mf": [], "mmse": []}
    for _ in range(100):
        sigs = effective_signatures(gen_spreading_codes(n_users, n, rng), channels)
        means["mf"].append(mf_sinr_exact(sigs, Q, profile, SIGMA2).mean())
        means["mmse"].append(mmse_sinr_exact(sigs, Q, profile, SIGMA2).mean())
    for values in means.values():
        assert np.std(values) / np.mean(values) < 0.10


# --- symbol-level oracle --------------------------------------------------

def test_noiseless_single_user_has_vanishing_residual():
    cfg = SystemConfig(n_subcarriers=32, cdma_users=1, ofdma_users=0, multipath_taps=4)
    rng = np.random.default_rng(12)
    channels = gen_channel_set(cfg, "selective", rng)
    codes = gen_spreading_codes(1, 32, rng)
    report = simulate_uplink_frame(
        cfg, codes, channels, None, rng, receiver="mf", n_slots=200, sigma2=0.0
    )
    assert report.residual_power[0] < 1e-20


@pytest.mark.parametrize("receiver", ["mf", "mmse"])
def test_symbol_level_sinr_matches_exact_formula(receiver):
    cfg = SystemConfig(n_subcarriers=64, cdma_users=13, ofdma_users=0, multipath_taps=8)
    rng = np.random.default_rng(13)
    channels = gen_channel_set(cfg, "selective", rng)
    codes = gen_spreading_codes(13, 64, rng)
    sigs = effective_signatures(codes, channels)
    profile = InterferenceProfile.zero(64)
    exact = (mf_sinr_exact if receiver == "mf" else mmse_sinr_exact)(
        sigs, cfg.q, profile, cfg.sigma2
    )
    measured = simulate_uplink_frame(
        cfg, codes, channels, None, rng, receiver=receiver, n_slots=4000
    )
    assert np.all(np.abs(measured.per_user - exact) <= 3.5 * measured.stderr)


def test_symbol_level_with_ofdma_interference_protects_target():
    # Allocation pinned at the matched-filter margin: the measured SINR
    # should sit at the target, up to finite-dimension convergence and
    # estimator noise.
    from refarm import interference_margin, solve_p3_channel_inverse, AllocationProblem

    alpha, n = 0.5, 256
    cfg = SystemConfig(n_subcarriers=n, alpha=alpha, ofdma_users=2, multipath_taps=32)
    rng = np.random.default_rng(14)
    channels = gen_channel_set(cfg, "selective", rng)
    margin = interference_margin(alpha, cfg.q, cfg.sigma2, cfg.beta_star, "mf")
    problem = AllocationProblem(
        gains=channels.ofdma_gains,
        noise_floor=cfg.noise_floor,
        margin=margin.margin,
        power_caps=np.asarray(cfg.power_caps) * 1e6,  # margin-limited on purpose
    )
    result = solve_p3_channel_inverse(problem)
    codes = gen_spreading_codes(cfg.cdma_users, n, rng)
    measured = simulate_uplink_frame(
        cfg, codes, channels, result.allocation, rng, receiver="mf", n_slots=2000
    )
    sigs = effective_signatures(codes, channels)
    profile = InterferenceProfile.from_allocation(result.allocation.powers, channels.ofdma_gains)
    exact = mf_sinr_exact(sigs, cfg.q, profile, cfg.sigma2)
    assert np.all(np.abs(measured.per_user - exact) <= 3.5 * measured.stderr)
    assert abs(measured.mean / cfg.beta_star - 1.0) < 0.08


def test_simulate_rejects_nonexclusive_allocation():
    cfg = SystemConfig(n_subcarriers=8, cdma_users=2, ofdma_users=2, multipath_taps=2)
    rng = np.random.default_rng(15)
    channels = gen_channel_set(cfg, "selective", rng)
    codes = gen_spreading_codes(2, 8, rng)
    bad = np.ones((2, 8))
    with pytest.raises(InvalidParameterError):
        simulate_uplink_frame(cfg, codes, channels, bad, rng)


@pytest.mark.parametrize("broken", ["power-nan", "power-inf", "response-nan"])
@pytest.mark.parametrize("receiver", ["mf", "mmse"])
def test_simulate_rejects_non_finite_ofdma_side(receiver, broken):
    cfg = SystemConfig(n_subcarriers=8, cdma_users=2, ofdma_users=2, multipath_taps=2)
    rng = np.random.default_rng(15)
    channels = gen_channel_set(cfg, "selective", rng)
    codes = gen_spreading_codes(2, 8, rng)
    powers = np.zeros((2, 8))
    if broken == "response-nan":
        channels.ofdma[1, 3] = np.nan
    else:
        powers[1, 3] = float(broken.split("-")[1])
    with pytest.raises(InvalidParameterError, match="powers must be finite"):
        simulate_uplink_frame(cfg, codes, channels, powers, rng, receiver, 10)


def test_symbol_level_mmse_refuses_a_singular_covariance():
    # Three users on eight chips with noise power 1e-300: the received
    # covariance has numerical rank 3, so its Cholesky factorization fails.
    cfg = SystemConfig(n_subcarriers=8, cdma_users=3, ofdma_users=0, multipath_taps=2)
    codes = gen_spreading_codes(3, 8, np.random.default_rng(0))
    with pytest.raises(NumericalError, match="not numerically positive definite"):
        simulate_uplink_frame(
            cfg, codes, awgn_channels(3, 8), None, np.random.default_rng(1), "mmse", 10, 1e-300
        )
