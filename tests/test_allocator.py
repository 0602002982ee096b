import numpy as np
import pytest

from refarm import (
    AllocationProblem,
    ChannelSet,
    InvalidParameterError,
    SolverOptions,
    brute_force_oracle,
    mmse_fixed_point_selective,
    mmse_fixed_point_uniform,
    solve_p1,
    solve_p2_waterfill,
    solve_p3_channel_inverse,
)
from refarm.allocator import (
    DualState,
    PowerAllocation,
    _assign_all,
    _candidate_matrix,
    _scores,
    subgradient_step,
    throughput,
)

LN2 = np.log(2.0)


def random_problem(rng, n_users=2, n=4, floor_range=(0.5, 30.0), cap_range=(1.0, 50.0)):
    gains = rng.exponential(1.0, size=(n_users, n))
    floor = rng.uniform(*floor_range)
    caps = rng.uniform(*cap_range, size=n_users)
    margin = rng.uniform(0.05, 2.0) * floor
    return AllocationProblem(gains=gains, noise_floor=floor, margin=margin, power_caps=caps)


def candidates(gains, delta, lambdas, noise_floor=1.0, caps=None):
    """Candidate powers for a (K, N) gain matrix; caps default to no clip."""
    gains = np.atleast_2d(np.asarray(gains, dtype=float))
    lambdas = np.asarray(lambdas, dtype=float)
    caps = np.full(gains.shape[0], np.inf) if caps is None else np.asarray(caps, dtype=float)
    return _candidate_matrix(gains, noise_floor, delta, lambdas, caps)


def owner_of(gains_column, lambdas, delta=0.0, noise_floor=1.0):
    """Owner the dual loop gives one subcarrier, -1 for nobody."""
    gains = np.asarray(gains_column, dtype=float)[:, None]
    problem = AllocationProblem(
        gains=gains, noise_floor=noise_floor, margin=1.0, power_caps=np.full(len(gains), 1e9)
    )
    _, owner, _ = _assign_all(problem, delta, np.asarray(lambdas, dtype=float))
    return int(owner[0])


# --- per-subcarrier pieces --------------------------------------------------

def test_power_candidate_water_level_form():
    expected = 1.0 / (0.1 * LN2) - 1.0
    assert candidates([1.0], 0.0, [0.1])[0, 0] == pytest.approx(expected, abs=1e-4)
    assert candidates([1.0], 0.0, [0.1])[0, 0] == pytest.approx(13.4270, abs=1e-4)


def test_power_candidate_clamps_to_zero():
    # Price high enough that the bracket goes negative.
    assert candidates([1.0], 0.0, [10.0])[0, 0] == 0.0


def test_power_candidate_channel_inverse_structure():
    gains = np.array([0.3, 1.0, 2.5])
    received = gains * candidates(gains, 0.1, [0.0])[0]
    assert max(received) - min(received) < 1e-12


def test_power_candidate_zero_prices_clip_at_cap():
    # With both prices zero the stationary power is unbounded; the clip at
    # the user's cap keeps it finite.
    np.testing.assert_array_equal(candidates([1.0, 2.0], 0.0, [0.0], caps=[7.0]), [[7.0, 7.0]])
    assert candidates([0.0], 0.0, [0.0], caps=[7.0])[0, 0] == 0.0  # zero-gain subcarrier


def test_assign_single_user():
    assert owner_of([1.0], [0.1]) == 0


def test_assign_prefers_higher_gain_at_equal_prices():
    lams = np.array([0.1, 0.1])
    gains = np.array([[1.5], [0.7]])
    scores = _scores(gains, 1.0, candidates(gains, 0.0, lams), 0.0, lams)
    assert scores[0, 0] > scores[1, 0] > 0.0
    assert owner_of(gains[:, 0], lams) == 0


def test_assign_breaks_exact_ties_low_index():
    assert owner_of([1.0, 1.0], [0.1, 0.1]) == 0


def test_assign_nobody_when_all_zero():
    lams = np.array([10.0, 10.0])
    gains = np.array([[0.5], [0.5]])
    np.testing.assert_array_equal(candidates(gains, 0.0, lams), np.zeros((2, 1)))
    np.testing.assert_array_equal(_scores(gains, 1.0, np.zeros((2, 1)), 0.0, lams), 0.0)
    assert owner_of(gains[:, 0], lams) == -1


def test_subgradient_signs():
    problem = AllocationProblem(
        gains=np.ones((2, 4)), noise_floor=1.0, margin=10.0, power_caps=[5.0, 5.0]
    )
    state = DualState(delta=0.5, lambdas=np.array([0.5, 0.5]), step_scale=0.1)
    # Interference slack, user 1 violates its cap.
    powers = np.array([[2.0, 2.0, 2.0, 2.0], [0.5, 0.5, 0.0, 0.0]])
    stepped = subgradient_step(state, powers, problem)
    assert stepped.delta < state.delta  # slack => price drops
    assert stepped.lambdas[0] > state.lambdas[0]  # violated => price rises
    assert stepped.lambdas[1] < state.lambdas[1]
    assert stepped.iteration == 1
    # Stationarity bound: no component moves more than step * |d|.
    d = np.concatenate(
        ([problem.margin - np.sum(powers * problem.gains) / 4], problem.power_caps - powers.sum(axis=1))
    )
    step = state.step_scale / (np.sqrt(1) * (1 + np.linalg.norm(d)))
    moved = np.concatenate(([stepped.delta - state.delta], stepped.lambdas - state.lambdas))
    assert np.all(np.abs(moved) <= step * np.abs(d) + 1e-15)


def test_duals_stay_nonnegative():
    problem = AllocationProblem(
        gains=np.ones((1, 2)), noise_floor=1.0, margin=100.0, power_caps=[100.0]
    )
    state = DualState(delta=1e-6, lambdas=np.array([1e-6]), step_scale=10.0)
    stepped = subgradient_step(state, np.zeros((1, 2)), problem)
    assert stepped.delta >= 0.0 and np.all(stepped.lambdas >= 0.0)


# --- water-filling -----------------------------------------------------------

def test_waterfill_flat_gains_split_evenly():
    result = solve_p2_waterfill(np.ones(8), 4.0, 1.0)
    np.testing.assert_allclose(result.powers, np.full(8, 0.5), rtol=1e-12)
    assert result.feasible


def test_waterfill_zero_cap():
    result = solve_p2_waterfill(np.array([1.0, 2.0]), 0.0, 1.0)
    np.testing.assert_array_equal(result.powers, np.zeros(2))


def test_waterfill_two_carrier_closed_form():
    # floors/g are 1 and 10; spending both carriers would need the level
    # above 10 yet sum 2, impossible, so everything goes to the good one.
    result = solve_p2_waterfill(np.array([1.0, 0.1]), 2.0, 1.0)
    np.testing.assert_allclose(result.powers, [2.0, 0.0], atol=1e-12)


def test_waterfill_spends_cap_exactly():
    rng = np.random.default_rng(0)
    for _ in range(25):
        gains = rng.exponential(1.0, size=12)
        cap = rng.uniform(0.1, 50.0)
        result = solve_p2_waterfill(gains, cap, rng.uniform(0.5, 20.0))
        assert abs(result.powers.sum() - cap) <= 1e-9 * max(1.0, cap)
        assert np.all(result.powers >= 0)


def test_waterfill_kkt_structure():
    rng = np.random.default_rng(1)
    gains = rng.exponential(1.0, size=10)
    floor = 2.0
    result = solve_p2_waterfill(gains, 5.0, floor)
    base = floor / gains
    active = result.powers > 0
    np.testing.assert_allclose(
        result.powers[active] + base[active], result.water_level, rtol=1e-9
    )
    assert np.all(base[~active] >= result.water_level - 1e-9)


def test_waterfill_all_zero_gains_flagged():
    result = solve_p2_waterfill(np.zeros(4), 3.0, 1.0)
    assert not result.feasible
    np.testing.assert_array_equal(result.powers, np.zeros(4))


# --- channel inverse ---------------------------------------------------------

def test_channel_inverse_zero_margin():
    problem = AllocationProblem(
        gains=np.ones((2, 4)), noise_floor=1.0, margin=0.0, power_caps=[10.0, 10.0]
    )
    result = solve_p3_channel_inverse(problem)
    assert result.throughput == 0.0
    np.testing.assert_array_equal(result.allocation.powers, np.zeros((2, 4)))


def test_channel_inverse_closed_form_value():
    rng = np.random.default_rng(2)
    margin, floor, n = 42.096, 21.0, 256
    expected = n * np.log2(1.0 + margin / floor)
    problem = AllocationProblem(
        gains=rng.exponential(1.0, size=(2, n)),
        noise_floor=floor,
        margin=margin,
        power_caps=[1e9, 1e9],
    )
    result = solve_p3_channel_inverse(problem)
    assert result.throughput == pytest.approx(expected, rel=1e-9)
    assert result.throughput == pytest.approx(406.3, abs=0.05)
    received = np.sum(result.allocation.powers * problem.gains, axis=0)
    assert np.ptp(received) < 1e-9 * received.max()
    assert np.mean(received) == pytest.approx(margin, rel=1e-12)


def test_channel_inverse_gain_independent():
    rng = np.random.default_rng(3)
    results = []
    for _ in range(2):
        problem = AllocationProblem(
            gains=rng.exponential(1.0, size=(2, 64)),
            noise_floor=5.0,
            margin=3.0,
            power_caps=[1e9, 1e9],
        )
        results.append(solve_p3_channel_inverse(problem).throughput)
    assert results[0] == pytest.approx(results[1], rel=1e-12)


def test_channel_inverse_excludes_dead_subcarriers():
    gains = np.array([[1.0, 0.0, 2.0, 0.0], [0.5, 0.0, 1.0, 0.0]])
    problem = AllocationProblem(gains=gains, noise_floor=1.0, margin=1.0, power_caps=[1e9, 1e9])
    result = solve_p3_channel_inverse(problem)
    assert result.excluded_subcarriers == 2
    # Average over all N still meets the margin exactly.
    assert result.allocation.mean_interference(gains) == pytest.approx(1.0, rel=1e-12)
    assert result.throughput == pytest.approx(2 * np.log2(1.0 + 2.0), rel=1e-9)


# --- brute force oracle ------------------------------------------------------

def test_brute_force_single_variable():
    problem = AllocationProblem(
        gains=np.array([[1.0]]), noise_floor=2.0, margin=0.5, power_caps=[100.0]
    )
    alloc, value = brute_force_oracle(problem)
    # Margin binds: (1/1) p g = 0.5.
    assert alloc.powers[0, 0] == pytest.approx(0.5, rel=1e-6)
    assert value == pytest.approx(np.log2(1.0 + 0.5 / 2.0), rel=1e-6)


def test_brute_force_symmetric_instance():
    gains = np.array([[1.0, 1.0], [1.0, 1.0]])
    problem = AllocationProblem(gains=gains, noise_floor=1.0, margin=5.0, power_caps=[2.0, 2.0])
    _, value = brute_force_oracle(problem)
    # Both users at their caps on one carrier each.
    assert value == pytest.approx(2 * np.log2(3.0), rel=1e-6)


def test_no_users_gives_unowned_subcarriers():
    problem = AllocationProblem(
        gains=np.zeros((0, 4)), noise_floor=1.0, margin=1.0, power_caps=np.zeros(0)
    )
    alloc, value = brute_force_oracle(problem)
    np.testing.assert_array_equal(alloc.assignment, [-1, -1, -1, -1])
    assert value == 0.0
    alloc, state, value = solve_p1(problem)
    np.testing.assert_array_equal(alloc.assignment, [-1, -1, -1, -1])
    assert value == 0.0 and state.trivial
    assert state.kkt_delta == 0.0 and state.kkt_lambdas.shape == (0,)


def test_brute_force_refuses_large_instances():
    with pytest.raises(InvalidParameterError):
        brute_force_oracle(
            AllocationProblem(
                gains=np.ones((2, 7)), noise_floor=1.0, margin=1.0, power_caps=[1.0, 1.0]
            )
        )


# --- full solver -------------------------------------------------------------

def test_solver_matches_oracle_on_random_instances():
    rng = np.random.default_rng(4)
    options = SolverOptions(max_iterations=800)
    for _ in range(20):
        problem = random_problem(rng)
        alloc, state, value = solve_p1(problem, options)
        alloc.validate(problem)
        _, oracle_value = brute_force_oracle(problem)
        assert abs(value - oracle_value) <= 0.01 * max(oracle_value, 1e-9)


def test_solver_trivial_when_nothing_to_give():
    problem = AllocationProblem(
        gains=np.ones((2, 4)), noise_floor=1.0, margin=0.0, power_caps=[0.0, 0.0]
    )
    alloc, state, value = solve_p1(problem)
    assert state.trivial and value == 0.0
    np.testing.assert_array_equal(alloc.powers, np.zeros((2, 4)))
    assert state.kkt_delta == 0.0
    np.testing.assert_array_equal(state.kkt_lambdas, [0.0, 0.0])


@pytest.mark.parametrize(
    "call, key",
    [
        (lambda: SolverOptions(max_iterations=0), "max_iterations"),
        (lambda: SolverOptions(gap_tolerance=0.0), "gap_tolerance"),
        (lambda: SolverOptions(check_interval=0), "check_interval"),
        (lambda: mmse_fixed_point_uniform(0.2, 100.0, None, 1.0, max_iter=0), "max_iter"),
        (
            lambda: mmse_fixed_point_selective(
                ChannelSet(np.ones((2, 4), complex), np.zeros((0, 4)), "awgn"),
                100.0, None, 1.0, max_iter=0,
            ),
            "max_iter",
        ),
    ],
    ids=["max_iterations", "gap_tolerance", "check_interval", "uniform_max_iter", "selective_max_iter"],
)
def test_iteration_limits_rejected_by_name(call, key):
    with pytest.raises(InvalidParameterError, match=key):
        call()


def test_solver_zero_margin_with_caps_is_zero():
    problem = AllocationProblem(
        gains=np.ones((2, 4)), noise_floor=1.0, margin=0.0, power_caps=[5.0, 5.0]
    )
    alloc, state, value = solve_p1(problem)
    assert value == 0.0 and state.trivial


def test_solver_feasible_and_exclusive_at_scale():
    rng = np.random.default_rng(5)
    problem = AllocationProblem(
        gains=rng.exponential(1.0, size=(3, 128)),
        noise_floor=11.0,
        margin=4.0,
        power_caps=[200.0, 150.0, 100.0],
    )
    alloc, state, value = solve_p1(problem, SolverOptions(max_iterations=2000))
    alloc.validate(problem)
    assert alloc.is_exclusive()
    assert value > 0


def test_gap_trace_monotone_nonincreasing():
    rng = np.random.default_rng(6)
    problem = AllocationProblem(
        gains=rng.exponential(1.0, size=(2, 64)),
        noise_floor=6.0,
        margin=2.0,
        power_caps=[100.0, 100.0],
    )
    _, state, _ = solve_p1(problem, SolverOptions(max_iterations=1500))
    trace = np.asarray(state.gap_trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_light_and_heavy_regimes_small_instance():
    rng = np.random.default_rng(7)
    gains = rng.exponential(1.0, size=(2, 64))
    caps = np.array([50.0, 50.0])
    light = AllocationProblem(gains=gains, noise_floor=2.0, margin=1e4, power_caps=caps)
    alloc, state, _ = solve_p1(light, SolverOptions(max_iterations=2000))
    np.testing.assert_allclose(alloc.user_totals(), caps, rtol=1e-6)
    assert alloc.mean_interference(gains) < 1e4
    assert state.kkt_delta == 0.0 and np.all(state.kkt_lambdas > 0)

    heavy = AllocationProblem(gains=gains, noise_floor=2.0, margin=0.05, power_caps=caps)
    alloc, state, _ = solve_p1(heavy, SolverOptions(max_iterations=2000))
    assert alloc.mean_interference(gains) == pytest.approx(0.05, rel=1e-4)
    assert np.all(alloc.user_totals() < caps)
    assert state.kkt_delta > 0.0


def test_throughput_monotone_in_margin_and_caps():
    rng = np.random.default_rng(8)
    gains = rng.exponential(1.0, size=(2, 4))
    values = []
    for margin in (0.2, 0.5, 1.0, 2.0):
        row = []
        for cap in (1.0, 3.0, 9.0):
            problem = AllocationProblem(
                gains=gains, noise_floor=2.0, margin=margin, power_caps=[cap, cap]
            )
            _, _, value = solve_p1(problem, SolverOptions(max_iterations=400))
            row.append(value)
        values.append(row)
    values = np.asarray(values)
    assert np.all(np.diff(values, axis=0) >= -1e-9)  # larger margin never hurts
    assert np.all(np.diff(values, axis=1) >= -1e-9)  # larger caps never hurt


def test_allocation_from_powers_assignment():
    powers = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
    alloc = PowerAllocation.from_powers(powers)
    np.testing.assert_array_equal(alloc.assignment, [1, 0, -1])
    assert alloc.is_exclusive()
