import copy

import numpy as np
import pytest

from refarm import InvalidParameterError, SystemConfig, freq_response, gen_channel_set, gen_multipath_taps
from refarm.channel import _substream_normals, seed_sequence
from refarm.experiments import empirical_cdma_sinr


def test_single_tap_has_unit_ensemble_power():
    rng = np.random.default_rng(1)
    draws = np.array([np.abs(gen_multipath_taps(1, rng)[0]) ** 2 for _ in range(10_000)])
    assert 0.97 <= draws.mean() <= 1.03


def test_total_tap_power_is_unit_normalized():
    rng = np.random.default_rng(2)
    totals = np.array([np.sum(np.abs(gen_multipath_taps(32, rng)) ** 2) for _ in range(10_000)])
    assert 0.98 <= totals.mean() <= 1.02


def test_zero_taps_rejected():
    with pytest.raises(InvalidParameterError):
        gen_multipath_taps(0, np.random.default_rng(0))


def test_single_tap_response_is_flat():
    response = freq_response(np.array([1.0 + 0j]), 4)
    np.testing.assert_allclose(np.abs(response) ** 2, np.ones(4), rtol=1e-12)


def test_response_power_matches_tap_power():
    # Direct DFT evaluation: |0.6|^2 + |0.8|^2 = 1 exactly.
    response = freq_response(np.array([0.6, 0.8]), 8)
    assert np.mean(np.abs(response) ** 2) == pytest.approx(1.0, rel=1e-12)


def test_more_taps_than_subcarriers_rejected():
    with pytest.raises(InvalidParameterError):
        freq_response(np.ones(9), 8)


def test_parseval_identity_random_taps():
    rng = np.random.default_rng(3)
    for _ in range(50):
        taps = gen_multipath_taps(16, rng)
        response = freq_response(taps, 64)
        lhs = np.mean(np.abs(response) ** 2)
        rhs = np.sum(np.abs(taps) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_awgn_model_is_all_ones():
    cfg = SystemConfig(n_subcarriers=4, cdma_users=3, ofdma_users=2, multipath_taps=2)
    channels = gen_channel_set(cfg, "awgn", np.random.default_rng(0))
    np.testing.assert_array_equal(channels.cdma_gains, np.ones((3, 4)))
    np.testing.assert_array_equal(channels.ofdma_gains, np.ones((2, 4)))


def test_flat_model_is_constant_per_user():
    cfg = SystemConfig(n_subcarriers=16, cdma_users=5, ofdma_users=1, multipath_taps=4)
    channels = gen_channel_set(cfg, "flat", np.random.default_rng(4))
    for row in channels.cdma:
        assert np.allclose(row, row[0])
    assert not np.allclose(channels.cdma[0], channels.cdma[1])


def test_channel_set_deterministic_for_fixed_seed():
    cfg = SystemConfig(n_subcarriers=32, cdma_users=6, ofdma_users=2, multipath_taps=4)
    first = gen_channel_set(cfg, "selective", np.random.default_rng(7))
    second = gen_channel_set(cfg, "selective", np.random.default_rng(7))
    np.testing.assert_array_equal(first.cdma, second.cdma)
    np.testing.assert_array_equal(first.ofdma, second.ofdma)


@pytest.mark.parametrize("model", ["selective", "flat"])
def test_channel_stream_layout(model):
    # CDMA users draw from the first of two substreams, one child each, in
    # user order; the batched transform equals the per-user response.
    cfg = SystemConfig(n_subcarriers=32, cdma_users=6, ofdma_users=2, multipath_taps=4)
    taps = 1 if model == "flat" else cfg.multipath_taps
    channels = gen_channel_set(cfg, model, np.random.default_rng(9))
    children = np.random.default_rng(9).spawn(2)[0].spawn(cfg.cdma_users)
    for row, child in zip(channels.cdma, children, strict=True):
        np.testing.assert_array_equal(row, freq_response(gen_multipath_taps(taps, child), 32))


def _spawned_normals(rng, n_children, size):
    rows = [child.standard_normal(size) for child in rng.spawn(n_children)]
    return np.stack(rows) if rows else np.empty((0, size))


def _two_draw_taps(n_taps, rng):
    # The per-user tap draw as first written: real parts, then imaginary.
    scale = np.sqrt(0.5 / n_taps)
    return scale * (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps))


_SEEDS = {
    "0": 0,
    "42": 42,
    "2^32": 2**32,
    "2^100+3": 2**100 + 3,
    "list": [1, 2, 3],
    "None": None,
    # More run entropy words than pool words.
    "list-longer-than-pool": [1, 2, 3, 4, 5, 6],
    "spawn-key-2^40": np.random.SeedSequence(7, spawn_key=(2**40, 3)),
    "int64-array": np.array([5, 2**40, 0], dtype=np.int64),
    "uint32-array": np.array([2**32 - 1, 0, 7, 8, 9], dtype=np.uint32),
    "pool-8-spawn-key": np.random.SeedSequence(42, pool_size=8, spawn_key=(5,)),
    # NumPy reads str items as decimal, or as hexadecimal after "0x".
    "decimal-str": np.random.SeedSequence(["5", 7]),
    "hex-str": np.random.SeedSequence(["0x10deadbeef", 7]),
}


@pytest.mark.parametrize("nested", [False, True], ids=["root", "nested"])
@pytest.mark.parametrize("seed", _SEEDS.values(), ids=_SEEDS.keys())
def test_substream_normals_match_spawned_children(seed, nested):
    # A SeedSequence seed is copied, as spawning advances its counter.
    rng = np.random.default_rng(copy.deepcopy(seed))
    if nested:
        rng = rng.spawn(3)[2].spawn(2)[1]
    for n_children in (0, 1, 13, 346):
        for size in (2, 64):
            spawned_before = rng.bit_generator.seed_seq.n_children_spawned
            normals = _substream_normals(rng.bit_generator.seed_seq, n_children, size)
            # The helper leaves the spawn counter alone, so spawn() now
            # hands out the very children the helper drew from.
            assert rng.bit_generator.seed_seq.n_children_spawned == spawned_before
            expected = _spawned_normals(rng, n_children, size)
            assert normals.shape == (n_children, size)
            np.testing.assert_array_equal(normals, expected)


def test_substream_normals_match_spawned_children_of_a_larger_pool():
    rng = np.random.default_rng(np.random.SeedSequence(42, pool_size=8))
    for n_children in (0, 1, 13, 346):
        for size in (2, 64):
            normals = _substream_normals(rng.bit_generator.seed_seq, n_children, size)
            np.testing.assert_array_equal(normals, _spawned_normals(rng, n_children, size))


def test_one_user_taps_match_two_draws():
    taps = gen_multipath_taps(7, np.random.default_rng(5))
    np.testing.assert_array_equal(taps, _two_draw_taps(7, np.random.default_rng(5)))


@pytest.mark.parametrize("model", ["selective", "flat"])
def test_channel_set_matches_per_user_generators(model):
    # Both sides equal one spawned Generator per user, drawing its taps in
    # two calls, then one stacked transform.
    cfg = SystemConfig(n_subcarriers=64, cdma_users=13, ofdma_users=3, multipath_taps=8)
    taps = 1 if model == "flat" else cfg.multipath_taps
    channels = gen_channel_set(cfg, model, np.random.default_rng(11))
    cdma_rng, ofdma_rng = np.random.default_rng(11).spawn(2)
    for responses, side_rng in ((channels.cdma, cdma_rng), (channels.ofdma, ofdma_rng)):
        rows = np.stack([_two_draw_taps(taps, child) for child in side_rng.spawn(len(responses))])
        np.testing.assert_array_equal(responses, np.fft.fft(rows, n=64, axis=1))


def test_channel_set_refuses_a_generator_it_cannot_reproduce():
    cfg = SystemConfig(n_subcarriers=8, cdma_users=2, ofdma_users=1, multipath_taps=2)
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(InvalidParameterError, match="PCG64"):
        gen_channel_set(cfg, "selective", rng)


@pytest.mark.parametrize("model", ["selective", "flat", "awgn"])
def test_channel_set_from_a_generator_with_no_seed_sequence(model):
    # Neither an MT19937 stream nor a Generator over a RandomState's stream
    # spawns PCG64 sides.  Every model refuses both, AWGN too though it
    # draws nothing, with the Monte Carlo's own message.
    cfg = SystemConfig(n_subcarriers=8, cdma_users=2, ofdma_users=1, multipath_taps=2)
    for bits in (np.random.MT19937(0), np.random.RandomState(0)._bit_generator):
        rng = np.random.Generator(bits)
        with pytest.raises(InvalidParameterError) as channels:
            gen_channel_set(cfg, model, rng)
        with pytest.raises(InvalidParameterError) as trials:
            empirical_cdma_sinr(cfg, None, "mf", model, 4, rng)
        assert str(channels.value) == str(trials.value) == (
            "rng must be a PCG64 generator seeded from a SeedSequence"
        )


@pytest.mark.parametrize("spawned", [False, True], ids=["root", "child"])
def test_seed_sequence_is_the_generators_own(spawned):
    rng = np.random.default_rng(42)
    if spawned:
        rng = rng.spawn(1)[0]
    assert seed_sequence(rng) is rng.bit_generator.seed_seq


def test_channel_set_rejects_more_taps_than_subcarriers():
    cfg = SystemConfig(n_subcarriers=8, cdma_users=2, ofdma_users=1, multipath_taps=8)
    cfg.multipath_taps = 9  # past SystemConfig's own check
    with pytest.raises(InvalidParameterError, match="more taps than subcarriers"):
        gen_channel_set(cfg, "selective", np.random.default_rng(0))


def test_unknown_model_rejected():
    cfg = SystemConfig(n_subcarriers=8, cdma_users=1, multipath_taps=1)
    with pytest.raises(InvalidParameterError):
        gen_channel_set(cfg, "rician", np.random.default_rng(0))


def test_mean_response_power_concentrates():
    cfg = SystemConfig(n_subcarriers=256, cdma_users=1000, ofdma_users=0, multipath_taps=32)
    channels = gen_channel_set(cfg, "selective", np.random.default_rng(8))
    per_user = channels.cdma_gains.mean(axis=1)
    assert 0.98 <= per_user.mean() <= 1.02


def test_response_power_spread_shrinks_with_tap_count():
    # Per-user band-average power equals total tap power, whose standard
    # deviation is 1/sqrt(L); doubling L four-fold halves the spread.
    spreads = {}
    for taps in (8, 32, 128):
        cfg = SystemConfig(
            n_subcarriers=8 * taps, cdma_users=400, ofdma_users=0, multipath_taps=taps
        )
        channels = gen_channel_set(cfg, "selective", np.random.default_rng(taps))
        per_user = channels.cdma_gains.mean(axis=1)
        spreads[taps] = per_user.std()
        assert abs(per_user.mean() - 1.0) < 4 * per_user.std() / np.sqrt(400)
        assert spreads[taps] < 1.5 / np.sqrt(taps)
    assert spreads[8] > spreads[32] > spreads[128]


def test_cross_user_gains_uncorrelated():
    cfg = SystemConfig(n_subcarriers=16, cdma_users=2, ofdma_users=0, multipath_taps=4)
    rng = np.random.default_rng(9)
    first, second = [], []
    for _ in range(1000):
        channels = gen_channel_set(cfg, "selective", rng)
        first.append(channels.cdma_gains[0, 3])
        second.append(channels.cdma_gains[1, 3])
    corr = np.corrcoef(first, second)[0, 1]
    assert abs(corr) < 0.05
