"""Multipath channel generation and frequency responses.

Each user's small-scale fading is a length-L tap vector with i.i.d.
CN(0, 1/L) entries (uniform power delay profile, unit average power).
The frequency response is the unnormalized N-point DFT of the zero-padded
taps, which under the unitary transform convention used throughout gives
the exact Parseval identity

    (1/N) * sum_n |lambda_n|^2 == sum_l |h_l|^2.

Every user draws its 2L standard normals (real parts, then imaginary
parts) from its own substream: the child that ``rng.spawn`` would give it.
Spawning one SeedSequence per user dominates the cost of a channel set,
so ``_substream_normals`` splits the seeding of the children.  NumPy gives
the pool that all children share (the parent's ``SeedSequence.pool``) and
seeds each child's PCG64 through the ``ISeedSequence`` interface; refarm
hashes only each child's spawn index into that pool, as NumPy's
documented SeedSequence hash does (NEP 19).  The streams are the
``rng.spawn`` ones bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import CHANNEL_MODELS, SystemConfig, check_choice
from .errors import InvalidParameterError


# NumPy's SeedSequence hash, from numpy/random/bit_generator.pyx.  All of
# its arithmetic is on uint32 words.
_MASK32 = 0xFFFFFFFF
_HASH_INIT_A = 0x43B0D7E5  # INIT_A: first hash constant of mix_entropy
_HASH_MULT_A = 0x931E8875  # MULT_A: mix_entropy's hash constant step
_HASH_INIT_B = 0x8B51F9DD  # INIT_B: first hash constant of generate_state
_HASH_MULT_B = 0x58F38DED  # MULT_B: generate_state's hash constant step
_MIX_MULT_L = 0xCA01F9DD  # MIX_MULT_L of mix(x, y)
_MIX_MULT_R = 0x4973F715  # MIX_MULT_R of mix(x, y)
_XSHIFT = 16  # XSHIFT: half a uint32 word
# PCG64 seeds from generate_state(4, np.uint64), which is 8 uint32 words.
_SEED_WORDS = 8
# generate_state's hash constants INIT_B * MULT_B**k mod 2**32, k = 0..8.
_STATE_HASH = np.array(
    [_HASH_INIT_B * pow(_HASH_MULT_B, k, 1 << 32) & _MASK32 for k in range(_SEED_WORDS + 1)],
    dtype=np.uint32,
)


@functools.cache
def _child_seed_type():
    """An ISeedSequence that hands PCG64 one child's ``generate_state(4, np.uint64)`` words.

    Built at first use: subclassing ISeedSequence loads numpy.random,
    which adds 11-15 ms to ``import refarm`` (2-vCPU Xeon, numpy 2.4),
    and ``margin`` never draws.
    """

    class ChildSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return ChildSeed


def _substream_normals(seq: np.random.SeedSequence, n_children: int, size: int) -> np.ndarray:
    """``size`` standard normals from each of the next ``n_children`` children of ``seq``.

    Returns an (n_children, size) array equal bit for bit to
    ``np.stack([np.random.default_rng(c).standard_normal(size) for c in
    seq.spawn(n_children)])``, without building a SeedSequence per child.
    Every child's entropy is the parent's, zero-padded to the pool size,
    with its spawn index appended, and ``mix_entropy`` hashes missing pool
    words as zeros; so the parent's own ``seq.pool`` is every child's pool
    before the index word is mixed in.  Only that last mix and the
    ``generate_state`` hash are done here, for all children in one
    vectorized pass; NumPy seeds each child's PCG64 from the hashed words.
    ``n_children_spawned`` is read-only, so unlike ``seq.spawn`` this does
    not advance it: a later ``seq.spawn`` returns these same children
    again.
    """
    # mix_entropy takes pool_size hash steps per word of the parent's
    # zero-padded entropy, so the index word's hash constants start after
    # pool_size * n_words steps.  The index is hashmix-ed and mixed into
    # each pool word in turn.
    words = np.random.bit_generator._coerce_to_uint32_array  # as SeedSequence counts them
    n_words = max(len(words(seq.entropy)), seq.pool_size) + len(words(seq.spawn_key))
    steps = range(seq.pool_size * n_words, seq.pool_size * (n_words + 1) + 1)
    consts = np.array(
        [_HASH_INIT_A * pow(_HASH_MULT_A, k, 1 << 32) & _MASK32 for k in steps], dtype=np.uint32
    )
    index = np.arange(seq.n_children_spawned, seq.n_children_spawned + n_children, dtype=np.uint32)
    hashed = (index[:, None] ^ consts[:-1]) * consts[1:]
    hashed ^= hashed >> _XSHIFT
    pool = seq.pool * np.uint32(_MIX_MULT_L) - hashed * np.uint32(_MIX_MULT_R)
    pool ^= pool >> _XSHIFT
    # generate_state cycles through the pool, hashing one word at a time,
    # and pairs the words little-endian into uint64s.
    words = (pool[:, np.arange(_SEED_WORDS) % seq.pool_size] ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    words ^= words >> _XSHIFT
    seeds = words.astype("<u4", order="C").view("<u8").astype(np.uint64)
    child_seed = _child_seed_type()
    normals = np.empty((n_children, size))
    for row, seed in zip(normals, seeds):
        np.random.Generator(np.random.PCG64(child_seed(seed))).standard_normal(out=row)
    return normals


def seed_sequence(rng: np.random.Generator) -> np.random.SeedSequence:
    """The SeedSequence that every stream drawn from ``rng`` is spawned from.

    Raises InvalidParameterError unless ``rng`` is a PCG64 generator
    seeded from a SeedSequence, as ``np.random.default_rng`` gives.
    """
    bits = rng.bit_generator
    seq = bits.seed_seq if type(bits) is np.random.PCG64 else None
    if type(seq) is not np.random.SeedSequence:
        raise InvalidParameterError("rng must be a PCG64 generator seeded from a SeedSequence")
    return seq


def _complex_taps(normals: np.ndarray) -> np.ndarray:
    """CN(0, 1/L) taps from rows of 2L standard normals: real parts, then imaginary."""
    n_taps = normals.shape[-1] // 2
    return np.sqrt(0.5 / n_taps) * (normals[..., :n_taps] + 1j * normals[..., n_taps:])


def gen_multipath_taps(n_taps: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one user's tap vector, CN(0, 1/L) per tap.

    Takes one ``standard_normal(2L)`` draw from ``rng``, as each user of
    ``gen_channel_set`` does from its own substream.  Ensemble mean of the
    total tap power is 1; individual realizations fluctuate around it by
    design (the asymptotics rely on ensemble statistics, not per-draw
    normalization).
    """
    if n_taps < 1:
        raise InvalidParameterError("n_taps must be >= 1")
    return _complex_taps(rng.standard_normal(2 * n_taps))


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

    @property
    def cdma_gains(self) -> np.ndarray:
        return np.abs(self.cdma) ** 2

    @property
    def ofdma_gains(self) -> np.ndarray:
        return np.abs(self.ofdma) ** 2


def _user_responses(n_users, n_subcarriers, n_taps, model, side):
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
    taps = _complex_taps(_substream_normals(side, n_users, 2 * taps_per_user))
    return np.fft.fft(taps, n=n_subcarriers, axis=1)


def gen_channel_set(cfg: SystemConfig, model: str, rng: np.random.Generator) -> ChannelSet:
    """Generate independent responses for all CDMA and OFDMA users.

    ``rng`` spawns one SeedSequence for the CDMA side and one for the
    OFDMA side, those of ``rng.spawn(2)``, and each user draws its taps
    from the matching child of its side, in user order.  Nothing draws
    from the sides themselves, so no Generator is built for them, and the
    children are seeded directly by ``_substream_normals``; a fixed master
    seed reproduces the set bit for bit and per-user generation may run in
    parallel.  ``rng`` must pass :func:`seed_sequence`, for every model.
    """
    seq = seed_sequence(rng)
    check_choice("channel model", model, CHANNEL_MODELS)
    sides = seq.spawn(2)
    cdma = _user_responses(cfg.cdma_users, cfg.n_subcarriers, cfg.multipath_taps, model, sides[0])
    ofdma = _user_responses(cfg.ofdma_users, cfg.n_subcarriers, cfg.multipath_taps, model, sides[1])
    return ChannelSet(cdma=cdma, ofdma=ofdma)
