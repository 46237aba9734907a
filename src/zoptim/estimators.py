"""Finite-difference gradient estimators.

Central-difference projected gradients, the q-sample estimator (with the
d-scaled uniform-sphere variant) and its grouped/block form, and the
prefix-caching grouped evaluation for layered objectives, with exact
forward-call accounting. The last makes one layer-wise LayeredChain.forward
call per step and books the pq(p+1) + p - 1 block forwards of resuming each
block's points from x's prefix. Each estimator takes the step's (q, d)
direction block from step_directions, or draws it when none is given; a
caller whose update needs the same directions passes the block, so each
direction is drawn once per step and held for that step only.

Each returns one thing: zo_scalars a step's projected-gradient scalars,
(q,) or (q, p) with a partition, efficient_grouped_eval the same (q, p) over
a chain, gradient_estimate the d-vector estimate of scalars and directions,
and zo_gradient the estimate of its own zo_scalars call. Only the
vector-state step rules build an estimate. zo_scalars evaluates its 2 q p
points a chunk of (sample, block) pairs at a time, each chunk within
STEP_BUFFER_BYTES, so a grouped step's working set does not grow with p.

_evaluate is the one place where perturbed points are evaluated, counted
and checked, projected_gradient's two included, so it is the one place a
batched oracle call will change; _direction_sum is the one sample-order sum
of c_i * u_i. The step rules use both, so every bit-identity claim rests on
one copy of each.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError
from .perturb import UNIFORM, step_directions
from .perturb import sample_direction  # noqa: F401  (still importable from this module)


_INTP = np.iinfo(np.intp)


def _indices(values, what):
    """values as an intp array, or InvalidArgumentError unless every entry is
    an integer in intp's range. Unless numpy reads values as signed integers,
    each entry is checked as given: numpy reads an integer past int64 as a
    float or an object, and a cast would wrap it."""
    raw = np.asarray(values)
    if raw.dtype.kind != "i" and not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            and (isinstance(v, numbers.Integral) or (math.isfinite(v) and v % 1 == 0))
            and _INTP.min <= v <= _INTP.max for v in values):
        raise InvalidArgumentError(f"{what} must be signed {_INTP.bits}-bit integers, got {values!r}")
    return raw.astype(np.intp)


class Partition:
    """Disjoint coordinate blocks covering {0..d-1}."""

    def __init__(self, d, blocks):
        d = int(d)
        if d < 1:
            raise InvalidArgumentError(f"dimension must be >= 1, got {d}")
        clean = []
        for block in blocks:
            if np.ndim(block) != 1 or np.size(block) == 0:
                raise InvalidArgumentError("each block must be a non-empty 1-D index set")
            clean.append(_indices(block, "block indices"))
        if not clean:
            raise InvalidArgumentError("a partition needs at least one block")
        flat = np.concatenate(clean)
        if flat.min() < 0 or flat.max() >= d:
            raise InvalidArgumentError(f"block indices must lie in [0, {d})")
        if not np.array_equal(np.sort(flat), np.arange(d)):
            raise InvalidArgumentError("blocks must be disjoint and cover every coordinate exactly once")
        self.d = d
        self.blocks = tuple(clean)
        self.block_of = np.empty(d, dtype=np.intp)  # the block of each coordinate
        for j, idx in enumerate(clean):
            self.block_of[idx] = j
        self.masks = np.arange(len(clean))[:, None] == self.block_of  # (p, d): row j is block j

    @property
    def p(self):
        return len(self.blocks)

    @classmethod
    def from_ranges(cls, d, ranges):
        """Partition from half-open [start, stop) index ranges within [0, d)."""
        blocks = []
        for a, b in ranges:
            a, b = _indices((a, b), "range bounds").tolist()
            if not 0 <= a < b <= d:
                raise InvalidArgumentError(
                    f"range [{a}, {b}) must satisfy 0 <= start < stop <= {d}"
                )
            blocks.append(np.arange(a, b))
        return cls(d, blocks)

    @classmethod
    def contiguous(cls, d, p):
        """Split {0..d-1} into p near-equal contiguous blocks."""
        if p < 1 or p > d:
            raise InvalidArgumentError(f"need 1 <= p <= d, got p={p}, d={d}")
        return cls(d, np.array_split(np.arange(d), p))


@dataclass
class EvalCounter:
    """Cumulative oracle-call counts; monotone within and across estimator calls."""

    full_forward_calls: int = 0
    block_forward_calls: int = 0

    def add_full(self, n=1):
        if n < 0:
            raise InvalidArgumentError("counts only increase")
        self.full_forward_calls += int(n)

    def add_block(self, n):
        if n < 0:
            raise InvalidArgumentError("counts only increase")
        self.block_forward_calls += int(n)


def _finite_or_raise(value, point):
    if not np.isfinite(value):
        raise NumericFailureError(f"objective returned non-finite value {value}", point=point, value=value)


def _evaluate(f, points, counter):
    """f at each row of points, in order, one float(f(row)) call each, as a
    float64 array; the counter books every value returned, also when f
    raises. The first non-finite value raises NumericFailureError naming a
    copy of its row."""
    values = []
    try:
        for row in points:
            value = float(f(row))
            values.append(value)
            if not math.isfinite(value):
                _finite_or_raise(value, row.copy())
    finally:
        if counter is not None:
            counter.add_full(len(values))
    return np.array(values)


def _direction_sum(coefs, directions, d):
    """sum_i c_i * u_i, added in sample order from zeros over any iterable of
    directions; c_i is one scalar or one value per coordinate."""
    directions = list(directions)
    if len(directions) != len(coefs):
        raise InvalidArgumentError(f"expected {len(coefs)} directions, got {len(directions)}")
    acc = np.zeros(d)
    for c, u in zip(coefs, directions):
        acc += c * u
    return acc


def projected_gradient(f, x, u, epsilon, counter=None):
    """Central finite difference (f(x+eps u) - f(x-eps u)) / (2 eps).

    Exactly two objective evaluations.
    """
    if not epsilon > 0:
        raise InvalidArgumentError(f"epsilon must be > 0, got {epsilon}")
    x = np.asarray(x, dtype=np.float64)
    fp, fm = _evaluate(f, np.array([x + epsilon * u, x - epsilon * u]), counter)
    return (fp - fm) / (2.0 * epsilon)


def _step_block(spec, step, q, d, directions):
    """The step's (q, d) direction block: the one given, or drawn from (step, i)."""
    if directions is None:
        return step_directions(spec, step, q, d)
    directions = np.asarray(directions, dtype=np.float64)
    if directions.shape != (q, d):
        raise InvalidArgumentError(f"directions must have shape ({q}, {d}), got {directions.shape}")
    return directions


STEP_BUFFER_BYTES = 1 << 18  # the bytes of one chunk of a step's points (_point_values)


def _point_values(f, x, epsilon, directions, masks, counter):
    """f at the step's 2 q p points: by sample, then block, then + before -.

    The points of sample i and block j are x + v and x - v for v = eps *
    where(m_j, u_i, 0.0) (without masks, p = 1 and m_1 is every coordinate).
    The points are built and evaluated a chunk of (sample, block) pairs at a
    time, each chunk in at most STEP_BUFFER_BYTES (or one pair's 24 d bytes).
    Per pair that is 8 d for its + row, 8 d for its - row and 8 d for what
    lives beside them: epsilon * u before the mask, or the iterator buffer
    numpy allocates to broadcast x or the masks over a chunk of n values,
    8 * min(n, np.getbufsize()) bytes, so at most 8 d per pair. A chunk
    holds whole samples when a sample's p pairs fit, and a run of one
    sample's blocks otherwise; a step that fits one chunk skips the loop.
    """
    q, d = directions.shape
    p = 1 if masks is None else len(masks)
    pairs = max(1, STEP_BUFFER_BYTES // (24 * d))
    if q * p <= pairs:
        return _evaluate(f, _point_rows(x, epsilon, directions[:, None], masks), counter)
    samples, blocks = (pairs // p, p) if pairs >= p else (1, pairs)
    return np.concatenate([
        _evaluate(f, _point_rows(x, epsilon, directions[i:i + samples, None],
                                 None if masks is None else masks[j:j + blocks]), counter)
        for i in range(0, q, samples) for j in range(0, p, blocks)])


def _point_rows(x, epsilon, u, masks):
    """The rows of _point_halves in evaluation order, each + point before its - point."""
    for plus, minus in zip(*_point_halves(x, epsilon, u, masks)):
        yield plus
        yield minus


def _point_halves(x, epsilon, u, masks):
    """(x + v, x - v) as two (samples * blocks, d) arrays of rows, for v = eps *
    where(m_j, u_i, 0.0) over each row u_i of u (samples, 1, d) and block m_j
    of masks (u_i whole without masks), by sample, then block.

    x - v is x + (-v) to the bit, and the + half, built in place in v as
    v + x, is x + v to the bit.
    """
    moved = epsilon * u if masks is None else np.where(masks, epsilon * u, 0.0)
    moved = moved.reshape(-1, x.size)
    minus = x - moved
    moved += x
    return moved, minus


def zo_scalars(f, x, spec, q, step, counter=None, directions=None, partition=None):
    """The step's projected-gradient scalars, (f(x+eps v) - f(x-eps v)) / (2 eps).

    v is sample i's direction u_i masked to block j of the partition (u_i
    itself without one). Returns shape (q,) without a partition and (q, p)
    with one. directions is the step's (q, d) block from step_directions,
    drawn here when omitted. The 2 q p points are evaluated by sample, then
    block, then + before -, one f call each, up to the first non-finite
    value, which NumericFailureError names.
    """
    if q < 1:
        raise InvalidArgumentError(f"q must be >= 1, got {q}")
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    if partition is not None and partition.d != d:
        raise InvalidArgumentError(f"partition is over {partition.d} coordinates, x has {d}")
    directions = _step_block(spec, step, q, d, directions)
    masks = None if partition is None else partition.masks
    values = _point_values(f, x, spec.epsilon, directions, masks, counter)
    scalars = (values[0::2] - values[1::2]) / (2.0 * spec.epsilon)
    return scalars if partition is None else scalars.reshape(q, -1)


def gradient_estimate(scalars, directions, distribution, partition=None):
    """(1/q) sum_i sum_j c_ij (m_j * u_i), d-scaled for uniform-sphere directions.

    scalars c are a step's (q,) scalars, or its (q, p) scalars with the
    partition whose block j m_j masks; directions u is its (q, d) block.
    Products are added in sample order from zeros, so one block gives the
    bits of no partition.
    """
    q, d = directions.shape
    shape = (q,) if partition is None else (q, partition.p)
    if np.shape(scalars) != shape:
        raise InvalidArgumentError(f"scalars must have shape {shape}, got {np.shape(scalars)}")
    if partition is not None:
        scalars = np.take(scalars, partition.block_of, axis=1)
    est = _direction_sum(scalars, directions, d) / q
    if distribution == UNIFORM:
        est = est * d
    return est


def zo_gradient(f, x, spec, q, step, counter=None, directions=None, partition=None):
    """The q-sample estimate: gradient_estimate of the step's zo_scalars.

    With a partition it is the block estimator, whose one-block case is
    bit-identical to none. directions is the step's (q, d) block from
    step_directions(spec, step, q, d), drawn here when omitted.
    """
    directions = _step_block(spec, step, q, np.size(x), directions)
    scalars = zo_scalars(f, x, spec, q, step, counter, directions, partition)
    return gradient_estimate(scalars, directions, spec.distribution, partition)


def efficient_grouped_eval(chain, x, spec, q, step, counter=None, directions=None):
    """Grouped estimator over a layered chain, in one layer-wise pass.

    Perturbing block j leaves blocks 1..j-1 untouched, so each of block j's
    2q points starts from x's activation h_{j-1} and forwards blocks j..p
    only. One chain.forward(x, moved=eps U) call runs every point layer by
    layer, next to x's own prefix: exactly p q (p+1) + p - 1 block
    forwards, and the (q, p) scalars it returns match zo_scalars with the
    chain's layers partition on the same replay stream bit for bit.
    directions is the step's (q, d) block, drawn here when omitted.
    """
    if q < 1:
        raise InvalidArgumentError(f"q must be >= 1, got {q}")
    if not (hasattr(chain, "forward") and hasattr(chain, "slices")):
        raise InvalidArgumentError("objective does not expose per-block sequential structure")
    if counter is None:
        counter = EvalCounter()
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    if d != chain.d:
        raise InvalidArgumentError(f"chain has {chain.d} parameters, x has {d}")
    p = chain.p
    epsilon = spec.epsilon
    directions = _step_block(spec, step, q, d, directions)
    moved = epsilon * directions

    losses, _, forwarded = chain.forward(x, moved=moved)
    counter.add_block(forwarded)
    bad = ~np.isfinite(losses.reshape(p, 2, q).transpose(2, 0, 1))
    if bad.any():
        # Name the point the per-point loop met first: by sample, block, + before -.
        i, j, minus = np.unravel_index(np.flatnonzero(bad)[0], bad.shape)
        start, stop = chain.slices[j]
        point = x.copy()
        point[start:stop] = (np.subtract if minus else np.add)(x[start:stop], moved[i, start:stop])
        _finite_or_raise(float(losses[j, minus * q + i]), point)

    return np.ascontiguousarray(((losses[:, :q] - losses[:, q:]) / (2.0 * epsilon)).T)
