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

from .errors import InvalidArgumentError, integer

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

# The bytes that one bulk working set may take: a Monte Carlo chunk
# (analysis.mc_squared_moment) and a chunk of a step's points
# (estimators._point_values). Read at call time, so a test can patch it.
BUFFER_BYTES = 1 << 18

# A key table holds _TABLE_KEYS keys of block 0: every sample below the
# thread's width (a power of two: the last step's q, rounded up) for a chunk
# of _TABLE_KEYS // width steps, so a chunk never crosses 2**32. Building one
# peaks at about 90 KiB, so it also fits BUFFER_BYTES (a tracemalloc test
# ties the two). Any other key is derived alone. A thread keeps the
# _MAX_TABLES tables it built last, 64 KiB at most: the first built goes first.
_TABLE_KEYS = 1024
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
        object.__setattr__(self, "base_seed", integer(self.base_seed, "base_seed", 0, 2**64))


@dataclass(frozen=True)
class ReplayCoordinate:
    """Identifies one direction draw: optimizer step, sample index, block index."""

    step: int
    sample_index: int = 0
    block_index: int = 0

    def __post_init__(self):
        # Every draw builds one, so three in-range Python ints pass one test.
        if not (type(self.step) is type(self.sample_index) is type(self.block_index) is int
                and 0 <= self.step < _MAX_KEY and 0 <= self.sample_index < _MAX_KEY
                and 0 <= self.block_index < _MAX_KEY):
            for name in ("step", "sample_index", "block_index"):
                object.__setattr__(self, name, integer(getattr(self, name), name, 0, _MAX_KEY))


def keyed_generator(base_seed, *key):
    """Counter-based generator for the stream identified by (base_seed, *key)."""
    ss = np.random.SeedSequence(entropy=integer(base_seed, "seed", 0),
                                spawn_key=tuple(integer(k, "key word", 0) for k in key))
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


_REPLAY = _Replay()


def _key_table(replay, base_seed, width, chunk):
    """Keys of chunk's steps x width samples of block 0, as a (steps, width, 2) array."""
    key = (base_seed, width, chunk)
    table = replay.tables.get(key)
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
            np.zeros((1, 1), dtype=np.uint32),
        )
        if len(replay.tables) >= _MAX_TABLES:
            del replay.tables[next(iter(replay.tables))]
        replay.tables[key] = table
    return table


def _philox_key(base_seed, step, sample_index, block_index):
    """The Philox key [k0, k1] of one replay coordinate."""
    width = _REPLAY.width
    if sample_index >= width or block_index:
        ss = np.random.SeedSequence(entropy=base_seed,
                                    spawn_key=(step, sample_index, block_index))
        return ss.generate_state(2, np.uint64).tolist()
    chunk, offset = divmod(step, _TABLE_KEYS // width)
    return _key_table(_REPLAY, base_seed, width, chunk)[offset, sample_index].tolist()


def _draw(distribution, rng, shape, out=None):
    if distribution == GAUSSIAN:
        return rng.standard_normal(shape, out=out)
    if distribution == UNIFORM:
        z = rng.standard_normal(shape, out=out)
        # np.linalg.norm's steps (x * x, add.reduce, sqrt) with one temporary, not two.
        z /= np.sqrt(np.add.reduce(np.square(z), axis=-1, keepdims=True))
        return z
    if distribution == RADEMACHER or distribution == TERNARY:
        ints = rng.integers(0, 2 if distribution == RADEMACHER else 3, size=shape)
        # A plain cast: a ufunc on int64 and float64 operands would cast
        # through numpy's iterator buffer, beside what _draw_scratch counts.
        if out is None:
            out = ints.astype(np.float64)
        else:
            np.copyto(out, ints)
        if distribution == RADEMACHER:
            out *= 2.0
        out -= 1.0
        return out
    raise InvalidArgumentError(f"unknown distribution {distribution!r}")


def _draw_scratch(distribution, rows, d):
    """Bytes of the temporaries _draw makes beside its output for rows directions of d:
    a uniform draw's squares and then norms, an integer law's int64 draws, none for a
    Gaussian one."""
    if distribution == GAUSSIAN:
        return 0
    return 8 * rows * (d + 1 if distribution == UNIFORM else d)


def sample_direction(spec, coord, d):
    """Return the direction vector for one replay coordinate.

    Identical inputs return bit-identical vectors, equal to drawing from
    keyed_generator(base_seed, step, sample_index, block_index); distinct
    coordinates give statistically independent draws.
    """
    d = integer(d, "dimension", 1)
    # The thread's Philox, re-keyed to the coordinate's fresh stream.
    replay = _REPLAY
    replay.key_state["key"] = _philox_key(spec.base_seed, coord.step, coord.sample_index,
                                          coord.block_index)
    if replay.bit_generator is None:
        replay.bit_generator = np.random.Philox(0)
        replay.generator = np.random.Generator(replay.bit_generator)
    replay.bit_generator.state = replay.state
    return _draw(spec.distribution, replay.generator, d)


def _empty(shape, what):
    """np.empty(shape), or InvalidArgumentError naming what when numpy cannot
    allocate it (MemoryError, or ValueError past its largest array)."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError) as exc:
        size = " x ".join(map(str, shape))
        raise InvalidArgumentError(f"cannot allocate {size} {what}: {exc}") from exc


def step_directions(spec, step, q, d):
    """The q directions of one step as a (q, d) array; row i is sample i, block 0.

    A step draws this block once and hands it to its estimator and its
    update; it lives for that step only.
    """
    q, d = integer(q, "q", 1), integer(d, "dimension", 1)
    if not (width := _REPLAY.width) >> 1 < q <= width:  # width is q rounded up to a power of two
        _REPLAY.width = min(1 << (q - 1).bit_length(), _TABLE_KEYS)
    out = _empty((q, d), "directions")
    for i in range(q):
        out[i] = sample_direction(spec, ReplayCoordinate(step, i, 0), d)
    return out


def batch_directions(distribution, shape, d, rng, out=None):
    """Draw an array of directions of shape ``shape + (d,)`` from a sequential generator.

    Bulk sampling for Monte Carlo verification; optimizer loops use
    sample_direction so each draw stays individually replayable. With
    ``out``, a float64 array of that shape, the directions are written into
    it and it is returned; the draws are the same as without it.
    """
    full = tuple(shape) + (integer(d, "dimension", 1),)
    if out is not None and (out.shape != full or out.dtype != np.float64):
        raise InvalidArgumentError(
            f"out must be a float64 array of shape {full}, got {out.dtype} {out.shape}"
        )
    return _draw(distribution, rng, full, out)


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
