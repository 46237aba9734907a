"""Deterministic, replay-keyed direction sampling for zeroth-order perturbations.

Every perturbation direction is a pure function of
(base_seed, step, sample_index, block_index): the Philox stream of
``SeedSequence(entropy=base_seed, spawn_key=(step, sample, block))``. A step
draws each of its directions once, holds them for that step only and keeps
none in persistent state; any single draw can be replayed in O(1).

The Philox keys are derived in bulk. SeedSequence hashes the run entropy the
same way for every key of a run, so only the three spawn words are mixed per
key, for a chunk of steps at a time in one uint32 numpy pass, and a draw
re-keys one reused Philox instead of building a SeedSequence and a
generator. The streams are bit-identical to the per-key construction.
"""

import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

GAUSSIAN = "gaussian"
UNIFORM = "uniform"
RADEMACHER = "rademacher"
TERNARY = "ternary"

DISTRIBUTIONS = (GAUSSIAN, UNIFORM, RADEMACHER, TERNARY)

_MAX_KEY = 2**32  # SeedSequence spawn_key entries are 32-bit

# SeedSequence's hashing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)

# A key table holds _TABLE_KEYS keys of one block: every sample below the
# thread's width (a power of two: the widest step drawn so far) for a chunk
# of _TABLE_KEYS // width steps, so a chunk never crosses 2**32. Samples at
# or above _MAX_SAMPLES get their keys one at a time. A thread keeps
# _MAX_TABLES tables, 256 KiB at most.
_TABLE_KEYS = 4096
_MAX_SAMPLES = 1024
_MAX_TABLES = 4


@dataclass(frozen=True)
class PerturbationSpec:
    """Distribution tag, finite-difference scale, and the seed replay keys derive from."""

    distribution: str
    epsilon: float
    base_seed: int = 0

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise InvalidArgumentError(
                f"unknown distribution {self.distribution!r}, expected one of {DISTRIBUTIONS}"
            )
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise InvalidArgumentError(f"epsilon must be a positive finite real, got {self.epsilon}")
        if not (0 <= int(self.base_seed) < 2**64):
            raise InvalidArgumentError(f"base_seed must fit in 64 unsigned bits, got {self.base_seed}")


@dataclass(frozen=True)
class ReplayCoordinate:
    """Identifies one direction draw: optimizer step, sample index, block index."""

    step: int
    sample_index: int = 0
    block_index: int = 0

    def __post_init__(self):
        try:
            if (0 <= self.step < _MAX_KEY and 0 <= self.sample_index < _MAX_KEY
                    and 0 <= self.block_index < _MAX_KEY):
                return
        except TypeError:
            pass
        for name in ("step", "sample_index", "block_index"):
            value = getattr(self, name)
            if not (0 <= int(value) < _MAX_KEY):
                raise InvalidArgumentError(f"{name} must be a non-negative 32-bit integer, got {value}")


def keyed_generator(base_seed, *key):
    """Counter-based generator for the stream identified by (base_seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _hash_constants(start, mult, skip, n):
    """(xor, multiplier) pairs of n consecutive hashmix calls after ``skip`` calls."""
    h = start
    for _ in range(skip):
        h = h * mult & _MASK32
    out = []
    for _ in range(n):
        nxt = h * mult & _MASK32
        out.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return tuple(out)


# The spawn words are hashed after the padded run entropy (one call per pool
# word) and the pool's all-pairs mix (one call per ordered pair).
_SPAWN_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE, 3 * _POOL_SIZE)
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 0, _POOL_SIZE)


def _hashmix(word, constants):
    xor, mult = constants
    h = (word ^ xor) * mult
    return h ^ (h >> 16)


def _spawn_keys(pool, step_words, sample_words, block_words):
    """Philox keys of SeedSequence(entropy, spawn_key=(step, sample, block)).

    ``pool`` is the entropy pool of ``SeedSequence(entropy)`` and the word
    arrays broadcast against each other (uint32). Equal to
    ``generate_state(2, np.uint64)`` per key, as a ``(..., 2)`` uint64 array.
    """
    mixer = [np.full((1, 1), word, dtype=np.uint32) for word in pool]
    hashes = iter(_SPAWN_HASH)
    for words in (step_words, sample_words, block_words):
        for dst in range(_POOL_SIZE):
            m = _MIX_MULT_L * mixer[dst] - _MIX_MULT_R * _hashmix(words, next(hashes))
            mixer[dst] = m ^ (m >> 16)
    state = [_hashmix(m, c).astype(np.uint64) for m, c in zip(mixer, _STATE_HASH)]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


class _Replay(threading.local):
    """Per-thread Philox that draws re-key, plus the bulk key tables.

    A cache only: every draw is a pure function of its coordinate, whatever
    this holds. Each thread has its own, so concurrent draws never share a
    generator.
    """

    def __init__(self):
        # The Philox is made at the first draw, so importing this module does
        # not load numpy.random (which raises a run's peak memory).
        self.bit_generator = None
        self.generator = None
        # A fresh Philox: counter 0, empty buffer, no cached 32-bit half.
        self.key_state = {"counter": [0, 0, 0, 0], "key": None}
        self.state = {"bit_generator": "Philox", "state": self.key_state,
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.tables = {}
        self.width = 1
        self.row_id = None
        self.row = ()


_REPLAY = _Replay()


def _key_table(replay, base_seed, block_index, width, chunk):
    """Keys of chunk's steps x width samples of one block, as a (steps, width, 2) array."""
    key = (base_seed, block_index, width, chunk)
    table = replay.tables.pop(key, None)
    if table is None:
        n_steps = _TABLE_KEYS // width
        steps = np.arange(n_steps, dtype=np.uint32) + np.uint32(chunk * n_steps)
        # Without a spawn key SeedSequence does not pad the run entropy, but
        # it hashes a missing word exactly as a zero word, so this pool is the
        # one every spawned key of base_seed starts from.
        table = _spawn_keys(
            np.random.SeedSequence(base_seed).pool,
            steps[:, None],
            np.arange(width, dtype=np.uint32)[None, :],
            np.full((1, 1), block_index, dtype=np.uint32),
        )
        if len(replay.tables) >= _MAX_TABLES:
            del replay.tables[next(iter(replay.tables))]
    replay.tables[key] = table
    return table


def _philox_key(base_seed, step, sample_index, block_index):
    """The Philox key [k0, k1] of one replay coordinate."""
    replay = _REPLAY
    row = replay.row
    if replay.row_id == (base_seed, step, block_index) and sample_index < len(row):
        return row[sample_index]
    base_seed, step = int(base_seed), int(step)
    sample_index, block_index = int(sample_index), int(block_index)
    if sample_index >= _MAX_SAMPLES:
        ss = np.random.SeedSequence(entropy=base_seed,
                                    spawn_key=(step, sample_index, block_index))
        return ss.generate_state(2, np.uint64).tolist()
    if sample_index >= replay.width:
        replay.width = 1 << sample_index.bit_length()
    chunk, offset = divmod(step, _TABLE_KEYS // replay.width)
    table = _key_table(replay, base_seed, block_index, replay.width, chunk)
    replay.row = table[offset].tolist()
    replay.row_id = (base_seed, step, block_index)
    return replay.row[sample_index]


def _replay_generator(base_seed, step, sample_index, block_index):
    """The thread's Philox generator, re-keyed to one coordinate's fresh stream.

    Equal in state to keyed_generator(base_seed, step, sample_index,
    block_index); it is reused by the next draw, so use it at once.
    """
    replay = _REPLAY
    replay.key_state["key"] = _philox_key(base_seed, step, sample_index, block_index)
    if replay.bit_generator is None:
        replay.bit_generator = np.random.Philox(0)
        replay.generator = np.random.Generator(replay.bit_generator)
    replay.bit_generator.state = replay.state
    return replay.generator


def _draw(distribution, rng, shape):
    if distribution == GAUSSIAN:
        return rng.standard_normal(shape)
    if distribution == UNIFORM:
        z = rng.standard_normal(shape)
        norm = np.linalg.norm(z, axis=-1, keepdims=True)
        return z / norm
    if distribution == RADEMACHER:
        return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    if distribution == TERNARY:
        return rng.integers(0, 3, size=shape).astype(np.float64) - 1.0
    raise InvalidArgumentError(f"unknown distribution {distribution!r}")


def sample_direction(spec, coord, d):
    """Return the direction vector for one replay coordinate.

    Identical inputs return bit-identical vectors, equal to drawing from
    keyed_generator(base_seed, step, sample_index, block_index); distinct
    coordinates give statistically independent draws.
    """
    if d < 1:
        raise InvalidArgumentError(f"dimension must be >= 1, got {d}")
    rng = _replay_generator(spec.base_seed, coord.step, coord.sample_index, coord.block_index)
    return _draw(spec.distribution, rng, int(d))


def step_directions(spec, step, q, d):
    """The q directions of one step as a (q, d) array; row i is sample i, block 0.

    A step draws this block once and hands it to its estimator and its
    update; it lives for that step only.
    """
    if q < 1:
        raise InvalidArgumentError(f"q must be >= 1, got {q}")
    out = np.empty((int(q), int(d)))
    for i in range(q):
        out[i] = sample_direction(spec, ReplayCoordinate(step, i, 0), d)
    return out


def batch_directions(distribution, shape, d, rng):
    """Draw an array of directions of shape ``shape + (d,)`` from a sequential generator.

    Bulk sampling for Monte Carlo verification; optimizer loops use
    sample_direction so each draw stays individually replayable.
    """
    if d < 1:
        raise InvalidArgumentError(f"dimension must be >= 1, got {d}")
    full = tuple(shape) + (int(d),)
    return _draw(distribution, rng, full)


def second_moment_scale(distribution, d=None):
    """Scale sigma with E[u u^T] = sigma * I for the named distribution."""
    if distribution == GAUSSIAN or distribution == RADEMACHER:
        return 1.0
    if distribution == UNIFORM:
        if d is None or d < 1:
            raise InvalidArgumentError("uniform sphere second moment needs the dimension d")
        return 1.0 / float(d)
    if distribution == TERNARY:
        return 2.0 / 3.0
    raise InvalidArgumentError(f"unknown distribution {distribution!r}")
