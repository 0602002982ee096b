import numpy as np
import pytest

from refarm import (
    ChannelSet,
    InterferenceProfile,
    InvalidParameterError,
    SystemConfig,
    db_to_linear,
    gen_channel_set,
    interference_margin,
    jensen_reinforcement_gap,
    mf_asymptotic_selective,
    mf_asymptotic_uniform,
    mmse_fixed_point_uniform,
    proposition1_check,
    supportable_load,
)

Q = 100.0
SIGMA2 = 1.0
BETA = db_to_linear(2.0)
ROOT = (79.0 + np.sqrt(6641.0)) / 2.0  # unique positive root of x^2 - 79x - 100


def flat_ones(n_users, n):
    return ChannelSet(cdma=np.ones((n_users, n), dtype=complex), ofdma=np.zeros((0, n)))


# --- matched filter limits --------------------------------------------------

def test_mf_uniform_direct_value():
    assert mf_asymptotic_uniform(0.2, Q, 0.0, SIGMA2) == pytest.approx(100.0 / 21.0, rel=1e-12)


def test_mf_uniform_saturates_target_at_margin():
    margin = interference_margin(0.2, Q, SIGMA2, BETA, "mf").margin
    assert mf_asymptotic_uniform(0.2, Q, margin, SIGMA2) == pytest.approx(BETA, rel=1e-12)


def test_mf_uniform_no_interference():
    assert mf_asymptotic_uniform(0.0, Q, 0.0, SIGMA2) == pytest.approx(100.0, rel=1e-12)


def test_mf_selective_awgn_reduction():
    n_users, n = 5, 16
    expected = Q / ((n_users - 1) / n * Q + SIGMA2)
    values = mf_asymptotic_selective(flat_ones(n_users, n), Q, None, SIGMA2)
    np.testing.assert_allclose(values, expected, rtol=1e-10)


def test_mf_selective_constant_profile_collapses():
    n_users, n, level = 4, 8, 3.0
    expected = Q / ((n_users - 1) / n * Q + level + SIGMA2)
    values = mf_asymptotic_selective(
        flat_ones(n_users, n), Q, InterferenceProfile.uniform(level, n), SIGMA2
    )
    np.testing.assert_allclose(values, expected, rtol=1e-10)


def test_mf_selective_tracks_monte_carlo():
    from refarm import effective_signatures, gen_spreading_codes, mf_sinr_exact

    cfg = SystemConfig(n_subcarriers=256, cdma_users=51, ofdma_users=0, multipath_taps=32)
    rng = np.random.default_rng(0)
    channels = gen_channel_set(cfg, "selective", rng)
    predicted = mf_asymptotic_selective(channels, Q, None, SIGMA2)
    means = []
    for _ in range(60):
        sigs = effective_signatures(gen_spreading_codes(51, 256, rng), channels)
        means.append(mf_sinr_exact(sigs, Q, None, SIGMA2).mean())
    assert abs(np.mean(means) - predicted.mean()) / predicted.mean() < 0.05


# --- MMSE fixed points -------------------------------------------------------

def test_uniform_fixed_point_no_load():
    solution = mmse_fixed_point_uniform(0.0, Q, None, SIGMA2)
    assert solution.value == pytest.approx(100.0, rel=1e-10)


def test_uniform_fixed_point_quadratic_root():
    solution = mmse_fixed_point_uniform(0.2, Q, None, SIGMA2)
    assert solution.value == pytest.approx(ROOT, rel=1e-8)
    mapped = Q / (0.2 * Q / (1.0 + solution.value) + SIGMA2)
    assert mapped == pytest.approx(solution.value, rel=1e-10)


def test_uniform_fixed_point_saturates_target_at_margin():
    margin = interference_margin(0.2, Q, SIGMA2, BETA, "mmse").margin
    solution = mmse_fixed_point_uniform(0.2, Q, InterferenceProfile.uniform(margin, 256), SIGMA2)
    assert solution.value == pytest.approx(BETA, rel=1e-8)


def test_uniform_fixed_point_start_invariance():
    values = [
        mmse_fixed_point_uniform(0.2, Q, None, SIGMA2, x0=x0).value
        for x0 in (SIGMA2 / Q, 1.0, Q / SIGMA2)
    ]
    assert max(values) - min(values) <= 1e-8 * max(values)


@pytest.mark.parametrize("x0", [float("nan"), float("inf")])
def test_uniform_fixed_point_refuses_a_non_finite_start(x0):
    with pytest.raises(InvalidParameterError, match="x0"):
        mmse_fixed_point_uniform(0.2, Q, None, SIGMA2, x0=x0)


def test_uniform_map_monotone_from_below():
    profile = np.array([0.0, 1.0, 4.0, 0.5])
    x = 1e-9
    previous = x
    for _ in range(50):
        x = float(np.mean(Q / (0.2 * Q / (1.0 + x) + profile + SIGMA2)))
        assert x >= previous - 1e-12
        previous = x


def test_uniform_ratio_map_strictly_decreasing():
    # Uniqueness argument: f(x)/x strictly decreases, so the crossing with 1
    # is unique.
    profile = np.array([0.0, 2.0, 5.0])
    grid = np.linspace(0.1, 200.0, 400)
    f_over_x = [
        float(np.mean(Q / (0.2 * Q / (1.0 + x) + profile + SIGMA2))) / x for x in grid
    ]
    assert np.all(np.diff(f_over_x) < 0)


def test_mf_selective_flat_reduction_chain():
    # Per-user flat gains reduce the selective expression to the flat form,
    # and unit gains reduce it further to the load formula.
    rng = np.random.default_rng(3)
    n_users, n = 6, 32
    scalars = rng.uniform(0.2, 2.0, size=n_users)
    flat = ChannelSet(
        cdma=np.tile(scalars[:, None], (1, n)).astype(complex),
        ofdma=np.zeros((0, n)),
    )
    values = mf_asymptotic_selective(flat, Q, None, SIGMA2)
    gains = scalars**2
    expected = np.array(
        [
            Q * gains[u] / ((np.sum(gains) - gains[u]) * Q / n + SIGMA2)
            for u in range(n_users)
        ]
    )
    np.testing.assert_allclose(values, expected, rtol=1e-10)


# --- loads and margins -------------------------------------------------------

def test_supportable_load_values():
    mf = supportable_load(Q, SIGMA2, BETA, "mf")
    mmse = supportable_load(Q, SIGMA2, BETA, "mmse")
    assert mf == pytest.approx(1.0 / BETA - 0.01, rel=1e-12)
    assert mmse == pytest.approx(mf * (1.0 + BETA), rel=1e-12)


def test_supportable_load_noise_free_limit():
    assert supportable_load(1e12, SIGMA2, BETA, "mf") == pytest.approx(1.0 / BETA, abs=1e-6)


def test_margin_values_at_default_point():
    mf = interference_margin(0.2, Q, SIGMA2, BETA, "mf")
    mmse = interference_margin(0.2, Q, SIGMA2, BETA, "mmse")
    assert mf.margin == pytest.approx((mf.alpha_star - 0.2) * Q, rel=1e-12)
    assert mmse.margin == pytest.approx(
        (mmse.alpha_star - 0.2) * Q / (1.0 + BETA), rel=1e-12
    )
    assert mf.feasible and mmse.feasible
    assert mmse.margin > mf.margin


def test_margin_boundary_is_flagged_not_raised():
    alpha_star = supportable_load(Q, SIGMA2, BETA, "mf")
    result = interference_margin(alpha_star, Q, SIGMA2, BETA, "mf")
    assert not result.feasible
    assert result.margin == 0.0


def test_margin_scales_linearly_in_q():
    one = interference_margin(0.1, Q, SIGMA2, BETA, "mf")
    # At fixed loads the margin is (alpha* - alpha) q with alpha* depending
    # on q only through sigma2/q; check the explicit form.
    assert one.margin == pytest.approx((1.0 / BETA - SIGMA2 / Q - 0.1) * Q, rel=1e-12)


# --- target-feasibility check and reinforcement ------------------------------

def test_proposition_boundary_and_slack():
    margin = interference_margin(0.2, Q, SIGMA2, BETA, "mmse").margin
    uniform = InterferenceProfile.uniform(margin, 64)
    assert proposition1_check(BETA, 0.2, Q, SIGMA2, uniform)
    assert proposition1_check(BETA, 0.2, Q, SIGMA2, InterferenceProfile.zero(64))
    heavy = InterferenceProfile.uniform(10 * margin, 64)
    assert not proposition1_check(BETA, 0.2, Q, SIGMA2, heavy)


def test_proposition_equivalent_to_fixed_point():
    rng = np.random.default_rng(4)
    for _ in range(50):
        alpha = rng.uniform(0.05, 1.5)
        q = db_to_linear(rng.uniform(5, 25))
        beta = db_to_linear(rng.uniform(0, 6))
        profile = InterferenceProfile(rng.uniform(0.0, 10.0, size=32))
        fixed = mmse_fixed_point_uniform(alpha, q, profile, SIGMA2).value
        if abs(fixed - beta) / beta < 1e-9:
            continue  # skip knife-edge draws
        assert proposition1_check(beta, alpha, q, SIGMA2, profile) == (fixed >= beta)


def test_jensen_gap_uniform_equality():
    lhs, rhs = jensen_reinforcement_gap(BETA, 0.2, Q, SIGMA2, InterferenceProfile.uniform(3.0, 16))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_jensen_gap_strict_for_two_level_profile():
    profile = InterferenceProfile(np.tile([0.0, 6.0], 8))
    lhs, rhs = jensen_reinforcement_gap(BETA, 0.2, Q, SIGMA2, profile)
    assert lhs > rhs


def test_jensen_gap_nonnegative_over_random_profiles():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        profile = rng.uniform(0.0, 20.0, size=256)
        lhs, rhs = jensen_reinforcement_gap(BETA, 0.2, Q, SIGMA2, profile)
        assert lhs >= rhs * (1 - 1e-12)


@pytest.mark.parametrize(
    "profile", [-5.0, np.array([1.0, -0.5, 2.0])], ids=["scalar", "vector"]
)
@pytest.mark.parametrize(
    "check",
    [
        lambda p: mmse_fixed_point_uniform(0.2, Q, p, SIGMA2),
        lambda p: proposition1_check(1.5, 0.2, Q, SIGMA2, p),
        lambda p: jensen_reinforcement_gap(BETA, 0.2, Q, SIGMA2, p),
    ],
    ids=["fixed_point", "proposition1", "jensen"],
)
def test_negative_profile_rejected(check, profile):
    with pytest.raises(InvalidParameterError, match="interference powers"):
        check(profile)
