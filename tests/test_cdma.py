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
    simulate_uplink_frame,
)
from refarm import cdma
from refarm.cdma import _received_covariance, mf_filter_output_sinr

Q = 100.0
SIGMA2 = 1.0


def awgn_channels(n_users, n, k_ofdma=0):
    return ChannelSet(
        cdma=np.ones((n_users, n), dtype=complex),
        ofdma=np.ones((k_ofdma, n), dtype=complex),
        model="awgn",
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
    channels = ChannelSet(
        cdma=np.full((1, 32), 2.0 + 0j), ofdma=np.zeros((0, 32)), model="flat"
    )
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
    assert report.per_user[0] == pytest.approx(Q / SIGMA2, rel=1e-12)


def test_mf_orthogonal_codes_see_no_cross_term():
    codes = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    sigs = effective_signatures(codes, awgn_channels(2, 2))
    report = mf_sinr_exact(sigs, Q, InterferenceProfile.zero(2), SIGMA2)
    np.testing.assert_allclose(report.per_user, [Q, Q], rtol=1e-10)


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
        means.append(mf_sinr_exact(sigs, Q, profile, SIGMA2).mean)
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
        mf_sinr_exact(sigs, Q, profile, SIGMA2).per_user, base, rtol=1e-12
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


# --- linear MMSE ----------------------------------------------------------

def test_mmse_single_user_equals_matched_filter():
    codes = gen_spreading_codes(1, 16, np.random.default_rng(9))
    sigs = effective_signatures(codes, awgn_channels(1, 16))
    report = mmse_sinr_exact(sigs, Q, InterferenceProfile.zero(16), SIGMA2)
    assert report.per_user[0] == pytest.approx(Q / SIGMA2, rel=1e-10)


def test_mmse_orthogonal_codes():
    codes = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    sigs = effective_signatures(codes, awgn_channels(2, 2))
    report = mmse_sinr_exact(sigs, Q, InterferenceProfile.zero(2), SIGMA2)
    np.testing.assert_allclose(report.per_user, [Q, Q], rtol=1e-10)


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
        means.append(mmse_sinr_exact(sigs, Q, profile, SIGMA2).mean)
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
        mf = mf_sinr_exact(sigs, Q, profile, SIGMA2).per_user
        mmse = mmse_sinr_exact(sigs, Q, profile, SIGMA2).per_user
        assert np.all(mmse >= mf * (1 - 1e-10))


def test_mmse_below_interference_free_bound():
    sigs, profile = _random_instance(42)
    mmse = mmse_sinr_exact(sigs, Q, profile, SIGMA2).per_user
    noise = profile.per_subcarrier + SIGMA2
    bound = Q * np.sum(np.abs(sigs) ** 2 / noise[None, :], axis=1)
    assert np.all(mmse < bound)


def test_more_interference_never_helps():
    sigs, profile = _random_instance(3)
    bumped = profile.per_subcarrier.copy()
    bumped[7] += 2.5
    for solver in (mf_sinr_exact, mmse_sinr_exact):
        before = solver(sigs, Q, profile, SIGMA2).per_user
        after = solver(sigs, Q, InterferenceProfile(bumped), SIGMA2).per_user
        assert np.all(after <= before * (1 + 1e-12))


def _chip_space_reference(sigs, q, prof, sigma2):
    # The MMSE SINR straight from the N x N received covariance.
    solved = np.linalg.solve(_received_covariance(sigs, q, prof, sigma2), sigs.T)
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
        report.per_user, _chip_space_reference(sigs, Q, prof, SIGMA2), rtol=1e-10
    )


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
    assert not cdma._user_space_cheaper(16, 16)
    with pytest.raises(NumericalError, match="residual"):
        mmse_sinr_exact(sigs, 1.0, None, 1e-16)


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
        means["mf"].append(mf_sinr_exact(sigs, Q, profile, SIGMA2).mean)
        means["mmse"].append(mmse_sinr_exact(sigs, Q, profile, SIGMA2).mean)
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
    ).per_user
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
    exact = mf_sinr_exact(sigs, cfg.q, profile, cfg.sigma2).per_user
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
