"""Multipath channel generation and frequency responses.

Each user's small-scale fading is a length-L tap vector with i.i.d.
CN(0, 1/L) entries (uniform power delay profile, unit average power).
The frequency response is the unnormalized N-point DFT of the zero-padded
taps, which under the unitary transform convention used throughout gives
the exact Parseval identity

    (1/N) * sum_n |lambda_n|^2 == sum_l |h_l|^2.

Every user draws its 2L standard normals (real parts, then imaginary
parts) from its own substream: the child that ``rng.spawn`` would give it.
Spawning one Generator per user dominates the cost of a channel set, so
``_substream_normals`` seeds each child's PCG64 directly from NumPy's
documented SeedSequence hash (NEP 19) and PCG64 seeding, which reproduces
the ``rng.spawn`` streams bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CHANNEL_MODELS, SystemConfig
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
# PCG_DEFAULT_MULTIPLIER_128 of the 128-bit LCG, from numpy's pcg64.h.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(value) -> list:
    """SeedSequence's uint32 words of an int or nested int sequence.

    An int gives its words least significant first, and 0 gives one zero
    word; a sequence gives its items' words in order.
    """
    if isinstance(value, (int, np.integer)):
        value = int(value)
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    if isinstance(value, (list, tuple, range, np.ndarray)):
        return [word for item in value for word in _uint32_words(item)]
    raise InvalidParameterError(f"cannot reproduce SeedSequence entropy {value!r}")


def _hashmix(value, const):
    """SeedSequence's hashmix: the hashed word and the next hash constant."""
    next_const = (const * _HASH_MULT_A) & _MASK32
    value = ((value ^ const) * next_const) & _MASK32
    return value ^ (value >> _XSHIFT), next_const


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ (value >> _XSHIFT)


def _child_pool_prefix(seq):
    """A child's SeedSequence pool before its spawn index is mixed in.

    A child's entropy is ``seq``'s entropy words zero-padded to the pool
    size, then ``seq.spawn_key``'s words, then the child's index, so every
    hash step of ``mix_entropy`` but the last pool_size ones is shared by
    all children.  Returns that shared pool and the next hash constant.
    """
    size = seq.pool_size
    run = _uint32_words(seq.entropy)
    entropy = run + [0] * (size - len(run)) + _uint32_words(seq.spawn_key)
    pool, const = [], _HASH_INIT_A
    for word in entropy[:size]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(size):
        for dst in range(size):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[size:]:
        for dst in range(size):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, const


def _substream_normals(rng: np.random.Generator, n_children: int, size: int) -> np.ndarray:
    """``size`` standard normals from each of the next ``n_children`` children of ``rng``.

    Returns an (n_children, size) array equal bit for bit to
    ``np.stack([c.standard_normal(size) for c in rng.spawn(n_children)])``,
    without building a Generator per child: every child's SeedSequence
    pool and ``generate_state(4, np.uint64)`` words are hashed in one
    vectorized pass, each child's PCG64 state follows from them as in
    ``pcg_setseq_128_srandom_r``, and one Generator draws every row.
    ``SeedSequence.n_children_spawned`` is read-only, so unlike
    ``rng.spawn`` this does not advance it: a later ``rng.spawn`` returns
    these same children again.  Raises InvalidParameterError unless
    ``rng`` is backed by PCG64 seeded from a SeedSequence.
    """
    seq = rng.bit_generator.seed_seq
    if type(rng.bit_generator) is not np.random.PCG64 or type(seq) is not np.random.SeedSequence:
        raise InvalidParameterError(
            "user substreams need a PCG64 generator seeded from a SeedSequence"
        )
    # The spawn index is the last entropy word, hashed into every pool word.
    prefix, const = _child_pool_prefix(seq)
    consts = [const]
    for _ in prefix:
        consts.append((consts[-1] * _HASH_MULT_A) & _MASK32)
    consts = np.array(consts, dtype=np.uint32)
    index = np.arange(seq.n_children_spawned, seq.n_children_spawned + n_children, dtype=np.uint32)
    hashed = (index[:, None] ^ consts[:-1]) * consts[1:]
    hashed ^= hashed >> _XSHIFT
    pool = np.array([(_MIX_MULT_L * word) & _MASK32 for word in prefix], dtype=np.uint32)
    pool = pool - _MIX_MULT_R * hashed
    pool ^= pool >> _XSHIFT
    # generate_state cycles through the pool, hashing one word at a time,
    # and pairs the words little-endian into uint64s.
    words = (pool[:, np.arange(_SEED_WORDS) % len(prefix)] ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    words ^= words >> _XSHIFT
    seeds = words.astype("<u4", order="C").view("<u8").tolist()
    bit_generator = np.random.PCG64(0)  # state replaced for every child
    generator = np.random.Generator(bit_generator)
    normals = np.empty((n_children, size))
    # pcg_setseq_128_srandom_r: inc = (initseq << 1) | 1, and two LCG steps
    # from state 0 with initstate added between them.  Seed words 0-1 are
    # initstate and words 2-3 initseq, each (high, low).
    for row, (state_hi, state_lo, seq_hi, seq_lo) in zip(normals, seeds):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.standard_normal(out=row)
    return normals


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
    model: str

    @property
    def n_subcarriers(self) -> int:
        return self.cdma.shape[1] if self.cdma.size else self.ofdma.shape[1]

    @property
    def cdma_gains(self) -> np.ndarray:
        return np.abs(self.cdma) ** 2

    @property
    def ofdma_gains(self) -> np.ndarray:
        return np.abs(self.ofdma) ** 2


def _user_responses(n_users, n_subcarriers, n_taps, model, rng):
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
    taps = _complex_taps(_substream_normals(rng, n_users, 2 * taps_per_user))
    return np.fft.fft(taps, n=n_subcarriers, axis=1)


def gen_channel_set(cfg: SystemConfig, model: str, rng: np.random.Generator) -> ChannelSet:
    """Generate independent responses for all CDMA and OFDMA users.

    ``rng`` spawns one generator for the CDMA side and one for the OFDMA
    side, and each user draws its taps from the matching child of its
    side, in user order.  The children are the ones ``spawn`` would give,
    seeded directly by ``_substream_normals`` rather than built as
    Generators, so a fixed master seed reproduces the set bit for bit and
    per-user generation may run in parallel.  ``rng`` must be backed by
    PCG64 seeded from a SeedSequence, as ``np.random.default_rng`` gives;
    any other generator raises InvalidParameterError unless the model is
    ``awgn``, which draws nothing.
    """
    if model not in CHANNEL_MODELS:
        raise InvalidParameterError(f"unknown channel model {model!r}")
    cdma_rng, ofdma_rng = rng.spawn(2)
    cdma = _user_responses(cfg.cdma_users, cfg.n_subcarriers, cfg.multipath_taps, model, cdma_rng)
    ofdma = _user_responses(cfg.ofdma_users, cfg.n_subcarriers, cfg.multipath_taps, model, ofdma_rng)
    return ChannelSet(cdma=cdma, ofdma=ofdma, model=model)
