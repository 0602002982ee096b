"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with ``pytest -s`` to see them
as they complete).  Criteria 7 and 8 share the sweep fixtures below and
dominate the runtime (about 50 s at 200 trials per grid point on 2 vCPUs
with BLAS pinned to one thread)."""

import numpy as np
import pytest

from refarm import (
    AllocationProblem,
    InterferenceProfile,
    SolverOptions,
    SystemConfig,
    db_to_linear,
    effective_signatures,
    gen_channel_set,
    gen_spreading_codes,
    interference_margin,
    jensen_reinforcement_gap,
    linear_to_db,
    mf_sinr_exact,
    mmse_fixed_point_uniform,
    mmse_sinr_exact,
    proposition1_check,
    solve_p1,
    solve_p3_channel_inverse,
    supportable_load,
)
from refarm.cdma import mf_filter_output_sinr
from refarm.channel import freq_response, gen_multipath_taps
from refarm.experiments import (
    RunSpec,
    empirical_cdma_sinr,
    run_convergence_trace,
    run_load_sweep,
    run_snr_sweep,
)

from oracles import brute_force_oracle

BETA = db_to_linear(2.0)
BETA_DB = 2.0
Q20 = db_to_linear(20.0)
DEFAULTS = SystemConfig()  # N=256, alpha=0.2, 20 dB SNR, 2 dB target, 30 dB caps

LOAD_GRID = np.round(np.arange(0.05, 1.56, 0.10), 10)
SNR_GRID = np.arange(4.0, 31.0, 2.0)


def report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS: {detail}")


@pytest.fixture(scope="module")
def load_sweeps_20db():
    return {
        receiver: run_load_sweep(
            RunSpec(system=DEFAULTS, receiver=receiver, grid=LOAD_GRID, trials=200, seed=42)
        )
        for receiver in ("mf", "mmse")
    }


@pytest.fixture(scope="module")
def load_sweeps_10db():
    base = DEFAULTS.replace(q=db_to_linear(10.0))
    return {
        receiver: run_load_sweep(
            RunSpec(system=base, receiver=receiver, grid=LOAD_GRID, trials=10, seed=42)
        )
        for receiver in ("mf", "mmse")
    }


@pytest.fixture(scope="module")
def snr_sweeps():
    out = {}
    for receiver in ("mf", "mmse"):
        for alpha in (0.05, 0.2):
            base = DEFAULTS.replace(alpha=alpha)
            out[(receiver, alpha)] = run_snr_sweep(
                RunSpec(system=base, receiver=receiver, grid=SNR_GRID, trials=20, seed=42)
            )
    return out


def test_criterion_1_margin_formulas():
    mf_load = supportable_load(Q20, 1.0, BETA, "mf")
    mmse_load = supportable_load(Q20, 1.0, BETA, "mmse")
    mf_margin = interference_margin(0.2, Q20, 1.0, BETA, "mf").margin
    mmse_margin = interference_margin(0.2, Q20, 1.0, BETA, "mmse").margin
    assert mf_load == pytest.approx(0.62096, rel=1e-4)
    assert mmse_load == pytest.approx(1.60511, rel=1e-4)
    assert mf_margin == pytest.approx(42.096, rel=1e-4)
    assert mmse_margin == pytest.approx(54.358, rel=1e-4)
    report(1, f"loads mf={mf_load:.5f} mmse={mmse_load:.5f}; "
              f"margins mf={mf_margin:.3f} mmse={mmse_margin:.3f}")


def test_criterion_2_fixed_point_correctness():
    root = (79.0 + np.sqrt(6641.0)) / 2.0
    free = mmse_fixed_point_uniform(0.2, 100.0, None, 1.0)
    assert free.value == pytest.approx(root, rel=1e-8)
    margin = interference_margin(0.2, Q20, 1.0, BETA, "mmse").margin
    loaded = mmse_fixed_point_uniform(
        0.2, 100.0, InterferenceProfile.uniform(margin, 256), 1.0
    )
    assert loaded.value == pytest.approx(BETA, rel=1e-8)
    report(2, f"free fixed point {free.value:.6f} (root {root:.6f}); "
              f"at margin -> {loaded.value:.8f} vs target {BETA:.8f}")


def test_criterion_3_asymptotic_vs_empirical():
    cfg = DEFAULTS  # N=256, L=32, alpha=0.2 (51 users), 20 dB
    profile = InterferenceProfile.zero(cfg.n_subcarriers)
    rng = np.random.default_rng(42)
    results = {}
    for receiver, bound in (("mf", 0.05), ("mmse", 0.10)):
        theory = (
            100.0 / (0.2 * 100.0 + 1.0)
            if receiver == "mf"
            else mmse_fixed_point_uniform(0.2, 100.0, None, 1.0).value
        )
        mean, std, _ = empirical_cdma_sinr(cfg, profile, receiver, "selective", 200, rng)
        rel = abs(mean - theory) / theory
        spread = std / mean
        assert rel < bound, f"{receiver}: relative error {rel:.4f}"
        assert spread < 0.10, f"{receiver}: spread {spread:.4f}"
        results[receiver] = (rel, spread)
    report(3, f"mf err={results['mf'][0]:.3%} spread={results['mf'][1]:.3%}; "
              f"mmse err={results['mmse'][0]:.3%} spread={results['mmse'][1]:.3%}")


def test_criterion_4_dual_solver_vs_oracle():
    rng = np.random.default_rng(7)
    options = SolverOptions(max_iterations=800)
    worst = 0.0
    for _ in range(100):
        problem = AllocationProblem(
            gains=rng.exponential(1.0, size=(2, 4)),
            noise_floor=rng.uniform(0.5, 30.0),
            margin=rng.uniform(0.05, 2.0) * 1.0,
            power_caps=rng.uniform(1.0, 50.0, size=2),
        )
        _, _, value = solve_p1(problem, options)
        _, oracle_value = brute_force_oracle(problem)
        worst = max(worst, abs(value - oracle_value) / max(oracle_value, 1e-12))
    assert worst < 0.01
    report(4, f"worst relative deviation from oracle over 100 instances: {worst:.2e}")


def test_criterion_5_regime_dichotomy():
    lines = []
    for regime in ("light", "heavy"):
        result = run_convergence_trace(RunSpec(system=DEFAULTS, receiver="mf", seed=42), regime)
        alloc, problem = result.allocation, result.problem
        totals = alloc.user_totals()
        sbar = alloc.mean_interference(problem.gains)
        caps = problem.power_caps
        assert result.duality_gap < 1e-3, f"{regime}: gap {result.duality_gap:.2e}"
        assert len(result.rows) - 1 <= 5000
        if regime == "light":
            np.testing.assert_allclose(totals, caps, rtol=1e-6)
            assert sbar < problem.margin
        else:
            assert sbar == pytest.approx(problem.margin, rel=1e-4)
            assert np.all(totals < caps)
        lines.append(
            f"{regime}: gap={result.duality_gap:.1e} sbar={sbar:.3f}/T={problem.margin:.3f} "
            f"power={totals.round(2)}/cap={caps.round(0)}"
        )
    report(5, "; ".join(lines))


def test_criterion_6_channel_inverse_closed_form():
    rng = np.random.default_rng(11)
    margin, floor, n = 42.096, 21.0, 256
    expected = n * np.log2(1.0 + margin / floor)
    values = []
    for _ in range(3):
        problem = AllocationProblem(
            gains=rng.exponential(1.0, size=(2, n)),
            noise_floor=floor,
            margin=margin,
            power_caps=[1e12, 1e12],
        )
        result = solve_p3_channel_inverse(problem)
        assert result.throughput == pytest.approx(expected, rel=1e-9)
        values.append(result.throughput)
    assert max(values) - min(values) <= 1e-9 * expected
    assert expected == pytest.approx(406.3, abs=0.05)
    report(6, f"closed form {values[0]:.4f} bits/symbol, gain-invariant across draws")


def test_criterion_7_protection_safety(load_sweeps_20db):
    floor_db = BETA_DB - 0.3
    details = []
    for receiver, sweep in load_sweeps_20db.items():
        feasible = sweep.column("feasible").astype(bool)
        emp_db = np.array(
            [linear_to_db(v) if feasible[i] else np.nan
             for i, v in enumerate(sweep.column("cdma_sinr_empirical_mean"))]
        )
        assert np.all(emp_db[feasible] >= floor_db), (
            f"{receiver}: min {np.nanmin(emp_db):.3f} dB below {floor_db} dB"
        )
        boundary = np.max(np.nonzero(feasible)[0])
        assert abs(emp_db[boundary] - BETA_DB) <= 0.3
        details.append(
            f"{receiver}: min={np.nanmin(emp_db):.2f} dB, boundary(alpha="
            f"{sweep.column('alpha')[boundary]:.2f})={emp_db[boundary]:.2f} dB"
        )
    report(7, "; ".join(details))


def test_criterion_8_trend_reproduction(load_sweeps_20db, load_sweeps_10db, snr_sweeps):
    # Throughput never increases with load (tiny numerical slack).
    for sweeps in (load_sweeps_20db, load_sweeps_10db):
        for receiver, sweep in sweeps.items():
            tput = sweep.column("ofdma_throughput")
            drops = np.diff(tput)
            assert np.all(drops <= 2e-3 * np.maximum(tput[:-1], 1.0)), receiver

    # The MMSE-feasible load range strictly contains the MF one.
    mf_feasible = load_sweeps_20db["mf"].column("feasible").astype(bool)
    mmse_feasible = load_sweeps_20db["mmse"].column("feasible").astype(bool)
    assert np.all(mmse_feasible[mf_feasible])
    assert mmse_feasible.sum() > mf_feasible.sum()

    # Interior throughput maximum along the receive-SNR axis.
    peaks = {}
    for key, sweep in snr_sweeps.items():
        tput = sweep.column("ofdma_throughput")
        arg = int(np.argmax(tput))
        assert 0 < arg < len(tput) - 1, f"{key}: maximum at the grid edge"
        peaks[key] = sweep.column("receive_snr_db")[arg]

    # At high load the low-SNR system out-earns the high-SNR one: somewhere
    # in the upper half of the jointly feasible range the 10 dB curve wins.
    crossings = {}
    for receiver in ("mf", "mmse"):
        t20 = load_sweeps_20db[receiver].column("ofdma_throughput")
        t10 = load_sweeps_10db[receiver].column("ofdma_throughput")
        both = (
            load_sweeps_20db[receiver].column("feasible").astype(bool)
            & load_sweeps_10db[receiver].column("feasible").astype(bool)
        )
        alphas = load_sweeps_20db[receiver].column("alpha")
        upper = both & (alphas >= 0.5 * alphas[both].max())
        assert np.any(t10[upper] > t20[upper]), f"{receiver}: no high-load crossing"
        crossings[receiver] = alphas[upper][t10[upper] > t20[upper]]
    report(8, f"SNR-peaks {dict((k, float(v)) for k, v in peaks.items())}; "
              f"10dB>20dB at mf alpha={crossings['mf']}, mmse alpha={crossings['mmse']}")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(23)

    # Band-average response power equals total tap power to 1e-12.
    for _ in range(100):
        taps = gen_multipath_taps(int(rng.integers(1, 33)), rng)
        response = freq_response(taps, 64)
        lhs = np.mean(np.abs(response) ** 2)
        rhs = np.sum(np.abs(taps) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    # Mean-profile bound: lhs >= rhs on 1000 random profiles, equality on
    # uniform ones.
    for _ in range(1000):
        profile = rng.uniform(0.0, 20.0, size=256)
        lhs, rhs = jensen_reinforcement_gap(BETA, 0.2, Q20, 1.0, profile)
        assert lhs >= rhs * (1.0 - 1e-12)
    lhs, rhs = jensen_reinforcement_gap(BETA, 0.2, Q20, 1.0, InterferenceProfile.uniform(3.0, 64))
    assert lhs == pytest.approx(rhs, rel=1e-12)

    # Feasibility shortcut agrees with the fixed point.
    for _ in range(40):
        alpha = rng.uniform(0.05, 1.5)
        q = db_to_linear(rng.uniform(5.0, 25.0))
        beta = db_to_linear(rng.uniform(0.0, 6.0))
        profile = InterferenceProfile(rng.uniform(0.0, 10.0, size=32))
        fixed = mmse_fixed_point_uniform(alpha, q, profile, 1.0).value
        if abs(fixed - beta) / beta < 1e-9:
            continue
        assert proposition1_check(beta, alpha, q, 1.0, profile) == (fixed >= beta)

    # Filter-scale invariance of the matched-filter quotient, and MMSE
    # dominance per realization.
    cfg = SystemConfig(n_subcarriers=64, cdma_users=13, ofdma_users=0, multipath_taps=8)
    channels = gen_channel_set(cfg, "selective", rng)
    sigs = effective_signatures(gen_spreading_codes(13, 64, rng), channels)
    profile = InterferenceProfile.uniform(1.5, 64)
    base = mf_filter_output_sinr(sigs, sigs, cfg.q, profile, 1.0)
    scaled = mf_filter_output_sinr((2.0 + 1.0j) * sigs, sigs, cfg.q, profile, 1.0)
    np.testing.assert_allclose(scaled, base, rtol=1e-10)
    mf = mf_sinr_exact(sigs, cfg.q, profile, 1.0)
    mmse = mmse_sinr_exact(sigs, cfg.q, profile, 1.0)
    assert np.all(mmse >= mf * (1.0 - 1e-10))
    report(9, "Parseval, mean-profile bound, feasibility shortcut, filter-scale "
              "invariance and MMSE dominance all hold")
