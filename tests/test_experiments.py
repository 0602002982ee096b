import numpy as np
import pytest

from refarm import SolverOptions, SystemConfig, linear_to_db, solve_p2_waterfill
from refarm.experiments import (
    SweepSpec,
    run_allocation_snapshot,
    run_convergence_trace,
    run_load_sweep,
    run_sinr_validation,
    run_snr_sweep,
)

# Caps sized so the light/heavy loads are genuinely power- and
# interference-limited at this miniature band width.
SMALL = SystemConfig(
    n_subcarriers=32, alpha=0.2, ofdma_users=2, multipath_taps=4, power_caps=(200.0, 200.0)
)
FAST_SOLVER = SolverOptions(max_iterations=600, check_interval=150)


def small_spec(**kwargs):
    defaults = dict(
        parameter="alpha",
        grid=np.array([0.1, 0.3, 0.5]),
        receiver="mf",
        base=SMALL,
        trials=5,
        seed=11,
        solver=FAST_SOLVER,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_load_sweep_deterministic():
    first = run_load_sweep(small_spec())
    second = run_load_sweep(small_spec())
    assert first.rows == second.rows
    assert first.columns[0] == "alpha"


def test_load_sweep_flags_infeasible_points():
    result = run_load_sweep(small_spec(grid=np.array([0.3, 0.9])))
    feasible = result.column("feasible")
    assert feasible[0] == 1.0 and feasible[1] == 0.0
    assert result.rows[1]["ofdma_throughput"] == 0.0
    assert np.isnan(result.rows[1]["cdma_sinr_theory"])
    assert np.isnan(result.rows[1]["cdma_sinr_empirical_mean"])


def test_load_sweep_records_populated_pairs():
    result = run_load_sweep(small_spec())
    for row in result.rows:
        assert np.isnan(row["cdma_sinr_theory"]) == np.isnan(row["cdma_sinr_empirical_mean"])
        if row["feasible"]:
            assert row["margin"] > 0
            assert row["solver_iterations"] > 0


def test_snr_sweep_runs_and_is_monotone_in_theory_sinr():
    spec = small_spec(parameter="receive_snr_db", grid=np.array([8.0, 14.0, 20.0]), receiver="mmse")
    result = run_snr_sweep(spec)
    theory = result.column("cdma_sinr_theory")
    feasible = result.column("feasible").astype(bool)
    assert np.all(np.diff(theory[feasible]) >= -1e-9)


def test_trace_light_regime_consumes_full_power():
    result = run_convergence_trace(SMALL, "light", "mf", seed=3, solver=FAST_SOLVER)
    final = result.rows[-1]
    caps = np.asarray(SMALL.power_caps)
    for k, cap in enumerate(caps):
        assert final[f"power_{k + 1}"] == pytest.approx(cap, rel=1e-6)
        assert final[f"lambda_{k + 1}"] > 0
    assert final["delta"] == 0.0
    assert final["mean_interference"] < result.problem.margin
    # the raw iterate price of the slack constraint decays toward zero
    assert result.rows[-2]["delta"] <= 0.01


def test_trace_heavy_regime_pins_interference():
    cfg = SMALL
    result = run_convergence_trace(cfg, "heavy", "mf", seed=3, solver=FAST_SOLVER)
    final = result.rows[-1]
    assert final["mean_interference"] == pytest.approx(result.problem.margin, rel=1e-4)
    assert final["delta"] > 0
    caps = np.asarray(cfg.power_caps)
    totals = np.array([final[f"power_{k + 1}"] for k in range(len(caps))])
    assert np.all(totals < caps)
    assert np.all(np.array([final[f"lambda_{k + 1}"] for k in range(len(caps))]) == 0.0)


def test_trace_with_zero_caps_ends_on_zero_prices():
    cfg = SMALL.replace(power_caps=(0.0, 0.0))
    result = run_convergence_trace(cfg, "heavy", "mf", seed=3, solver=FAST_SOLVER)
    final = result.rows[-1]
    assert final["delta"] == 0.0 and final["throughput"] == 0.0
    assert final["lambda_1"] == 0.0 and final["lambda_2"] == 0.0


def test_trace_iteration_column_and_gap_trace():
    result = run_convergence_trace(SMALL, "heavy", "mf", seed=5, solver=FAST_SOLVER)
    iterations = [row["iteration"] for row in result.rows]
    assert iterations == sorted(iterations)
    gaps = np.array([row["duality_gap"] for row in result.rows])
    assert gaps[-1] <= gaps[0]


def test_snapshot_heavy_is_channel_inverse():
    result = run_allocation_snapshot(SMALL, "heavy", "mf", seed=7, solver=FAST_SOLVER)
    received = np.array([row["received_power"] for row in result.rows])
    active = received > 0
    cv = received[active].std() / received[active].mean()
    assert cv < 0.01


def test_snapshot_heavy_owner_has_better_gain():
    result = run_allocation_snapshot(SMALL, "heavy", "mf", seed=7, solver=FAST_SOLVER)
    for row in result.rows:
        if row["owner"] >= 0:
            gains = [row["gain_1"], row["gain_2"]]
            assert gains[row["owner"]] == max(gains)


def test_snapshot_light_water_filling_shape():
    result = run_allocation_snapshot(SMALL, "light", "mf", seed=7, solver=FAST_SOLVER)
    # Among one user's active subcarriers the power is increasing in gain.
    for user in (0, 1):
        rows = [r for r in result.rows if r["owner"] == user and r["power"] > 0]
        rows.sort(key=lambda r: r[f"gain_{user + 1}"])
        powers = [r["power"] for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(powers, powers[1:]))


def test_snapshot_light_single_user_equals_waterfill():
    cfg = SystemConfig(n_subcarriers=32, alpha=0.05, ofdma_users=1, multipath_taps=4)
    result = run_allocation_snapshot(cfg, "light", "mf", seed=9, solver=FAST_SOLVER)
    gains = np.array([row["gain_1"] for row in result.rows])
    reference = solve_p2_waterfill(gains, cfg.power_caps[0], result.problem.noise_floor)
    powers = np.array([row["power"] for row in result.rows])
    np.testing.assert_allclose(powers, reference.powers, rtol=1e-9, atol=1e-12)


def test_validation_table_consistency():
    rows = run_sinr_validation(SMALL, trials=100, seed=13, models=("awgn",))
    assert len(rows) == 2
    for row in rows:
        assert row["relative_error"] == pytest.approx(
            abs(row["sinr_empirical_mean"] - row["sinr_theory"]) / row["sinr_theory"]
        )
        assert row["spread_ratio"] == pytest.approx(
            row["sinr_empirical_std"] / row["sinr_empirical_mean"]
        )


def test_validation_requires_enough_trials():
    with pytest.raises(Exception):
        run_sinr_validation(SMALL, trials=10, seed=0)


def test_mmse_overprotection_shrinks_with_dimension():
    # At the heavy-load boundary the achieved-versus-target gap is a
    # finite-dimension effect and fades as the band widens.
    gaps = {}
    for n in (64, 256):
        cfg = SystemConfig(n_subcarriers=n, alpha=1.4, ofdma_users=2, multipath_taps=n // 8)
        from refarm import interference_margin, InterferenceProfile
        from refarm.experiments import empirical_cdma_sinr

        margin = interference_margin(cfg.alpha, cfg.q, cfg.sigma2, cfg.beta_star, "mmse")
        profile = InterferenceProfile.uniform(margin.margin, n)
        mean, _, _ = empirical_cdma_sinr(
            cfg, profile, "mmse", "selective", 60, np.random.default_rng(17)
        )
        gaps[n] = abs(linear_to_db(mean) - linear_to_db(cfg.beta_star))
    assert gaps[256] <= gaps[64] + 0.02
