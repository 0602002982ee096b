from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from refarm import asymptotics
from refarm import (
    ChannelSet,
    InterferenceProfile,
    InvalidParameterError,
    NumericalError,
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


def _closed_form_root(alpha, q, level, sigma2):
    """The positive root of s x^2 + (alpha q + s - q) x - q = 0, s = sigma2 + level, to 60 digits.

    It is the uniform-profile MMSE fixed point.  Each branch avoids the
    cancellation of the other.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        s = Decimal(level) + Decimal(sigma2)
        q, alpha = Decimal(q), Decimal(alpha)
        b = alpha * q + s - q
        d = (b * b + 4 * s * q).sqrt()
        return (-b + d) / (2 * s) if b < 0 else 2 * q / (b + d)


def _relative_error(value, root):
    return float(abs(Decimal(value) - root) / root)


@pytest.mark.parametrize("snr_db", [0, 10, 20, 30, 40, 50, 60])
def test_uniform_fixed_point_is_the_closed_form_root(snr_db):
    # Within 4.3e-14 on this grid; the step-size stop of plain substitution
    # left 5.0e-8 at alpha = 1 and 60 dB.
    q = db_to_linear(snr_db)
    for alpha in (0.0, 0.05, 0.2, 0.5, 0.99, 1.0, 1.01, 1.55, 3.0):
        for level in (0.0, 5.0):
            root = _closed_form_root(alpha, q, level, SIGMA2)
            value = mmse_fixed_point_uniform(alpha, q, level, SIGMA2).value
            assert _relative_error(value, root) <= 1e-13, (alpha, level)


@pytest.mark.parametrize("alpha", [0.99, 1.0, 1.01])
@pytest.mark.parametrize("snr_db", [70, 80, 90, 100])
def test_uniform_fixed_point_near_unit_load_at_high_snr(snr_db, alpha):
    # Near alpha = 1 the slope of h at the root is about 1/sqrt(q), so
    # rounding in h bounds the root less tightly: within 3.1e-12 here.
    # Plain substitution refused alpha = 1 from 80 dB.
    q = db_to_linear(snr_db)
    value = mmse_fixed_point_uniform(alpha, q, None, SIGMA2).value
    assert _relative_error(value, _closed_form_root(alpha, q, 0.0, SIGMA2)) <= 1e-11


def test_uniform_fixed_point_rounding_left_of_the_root_is_stepped_back():
    # From q/sigma2 = 1e40 a rounded Newton step lands left of the root
    # 0.5; a stop at the first step that fails to decrease returned 0.0.
    value = mmse_fixed_point_uniform(3.0, 1e40, 5.0, SIGMA2).value
    assert _relative_error(value, _closed_form_root(3.0, 1e40, 5.0, SIGMA2)) <= 1e-13


@pytest.mark.parametrize("alpha", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("q", [1e100, 1e160, 1e200, 1e300])
def test_uniform_fixed_point_at_huge_q_raises_no_warning(q, alpha):
    # RuntimeWarnings are errors in this suite; the slope written as
    # alpha E[T_n^2] / (1 + x)^2 overflowed from q = 1e160.
    value = mmse_fixed_point_uniform(alpha, q, 5.0, SIGMA2).value
    assert _relative_error(value, _closed_form_root(alpha, q, 5.0, SIGMA2)) <= 1e-13


@pytest.mark.parametrize("q", [db_to_linear(110), 1e40, 1e300], ids=["110dB", "400dB", "3000dB"])
def test_uniform_fixed_point_unresolved_at_unit_load_is_refused_by_name(q):
    # At alpha = 1, 1 - T' at the root is about 2/sqrt(q), and from 110 dB
    # the rounding of h bounds the root only to more than FIXED_POINT_TOL.
    # Further up T' rounds to 1, where a Newton step would divide by 0.
    with pytest.raises(NumericalError, match="MMSE fixed point unresolved"):
        mmse_fixed_point_uniform(1.0, q, None, SIGMA2)


def test_uniform_fixed_point_refuses_a_slope_that_rounds_to_one(monkeypatch):
    monkeypatch.setattr(asymptotics, "_mmse_map", lambda x, *args: (x + 1.0, 1.0))
    with pytest.raises(NumericalError, match="not < 1"):
        mmse_fixed_point_uniform(0.2, Q, None, SIGMA2)


@pytest.mark.parametrize("q, sigma2", [(1e300, 1e-10), (np.inf, SIGMA2), (1.0, np.inf)])
def test_uniform_fixed_point_refuses_a_non_finite_start_by_name(q, sigma2):
    with pytest.raises(InvalidParameterError, match="q / sigma2 must be finite"):
        mmse_fixed_point_uniform(0.2, q, None, sigma2)


def _exact_h(x, alpha, q, profile, sigma2):
    """h(x) = T(x) - x in exact rational arithmetic on the floats given."""
    x, alpha, q, sigma2 = (Fraction(v) for v in (x, alpha, q, sigma2))
    terms = [q / (alpha * q / (1 + x) + Fraction(p) + sigma2) for p in profile]
    return sum(terms) / len(terms) - x


def test_uniform_fixed_point_brackets_the_exact_root_on_random_profiles():
    # The exact h changes sign within k ulps of the returned value, with
    # k = 4 / (1 - T'): a few ulps where h is steep.  Over 200 draws like
    # these, ulps times (1 - T') was at most 2.01.
    rng = np.random.default_rng(8)
    for _ in range(50):
        alpha, q = rng.uniform(0.0, 3.0), db_to_linear(rng.uniform(0.0, 60.0))
        profile = rng.uniform(0.0, 20.0, size=16)
        value = mmse_fixed_point_uniform(alpha, q, profile, SIGMA2).value
        slope = alpha * np.mean((q / (alpha * q + (profile + SIGMA2) * (1 + value))) ** 2)
        ulps = int(np.ceil(4 / (1 - slope)))
        spacing = Fraction(np.spacing(value))
        assert _exact_h(Fraction(value) - ulps * spacing, alpha, q, profile, SIGMA2) > 0
        assert _exact_h(Fraction(value) + ulps * spacing, alpha, q, profile, SIGMA2) < 0


@pytest.mark.parametrize("scale", [1e-3, 0.5, 2.0, 7.3])
def test_uniform_fixed_point_invariant_under_joint_scaling(scale):
    # q, sigma2 and the profile in other units give the same SINR: within
    # 1.5e-15 on these draws, and 5.9e-16 at the parent commit.
    rng = np.random.default_rng(9)
    for _ in range(20):
        alpha, q = rng.uniform(0.0, 3.0), db_to_linear(rng.uniform(0.0, 60.0))
        profile = rng.uniform(0.0, 20.0, size=16)
        base = mmse_fixed_point_uniform(alpha, q, profile, SIGMA2).value
        scaled = mmse_fixed_point_uniform(alpha, scale * q, scale * profile, scale * SIGMA2).value
        assert scaled == pytest.approx(base, rel=1e-14)


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
