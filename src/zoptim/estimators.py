"""Finite-difference gradient estimators.

Central-difference projected gradients, the q-sample estimator (with the
d-scaled uniform-sphere variant), the grouped/block estimator, and the
prefix-caching grouped evaluation for layered objectives, with exact
forward-call accounting. Each estimator takes the step's (q, d) direction
block from step_directions, or draws it when none is given; a caller whose
update needs the same directions passes the block, so each direction is
drawn once per step and held for that step only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError
from .perturb import UNIFORM, step_directions
from .perturb import sample_direction  # noqa: F401  (still importable from this module)


class Partition:
    """Disjoint coordinate blocks covering {0..d-1}."""

    def __init__(self, d, blocks):
        d = int(d)
        if d < 1:
            raise InvalidArgumentError(f"dimension must be >= 1, got {d}")
        clean = []
        for block in blocks:
            idx = np.asarray(block, dtype=np.intp)
            if idx.ndim != 1 or idx.size == 0:
                raise InvalidArgumentError("each block must be a non-empty 1-D index set")
            clean.append(idx)
        flat = np.concatenate(clean)
        if flat.min() < 0 or flat.max() >= d:
            raise InvalidArgumentError(f"block indices must lie in [0, {d})")
        if not np.array_equal(np.sort(flat), np.arange(d)):
            raise InvalidArgumentError("blocks must be disjoint and cover every coordinate exactly once")
        self.d = d
        self.blocks = tuple(clean)

    @property
    def p(self):
        return len(self.blocks)

    @classmethod
    def from_ranges(cls, d, ranges):
        """Partition from half-open [start, stop) index ranges."""
        return cls(d, [np.arange(int(a), int(b)) for a, b in ranges])

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


def projected_gradient(f, x, u, epsilon, counter=None):
    """Central finite difference (f(x+eps u) - f(x-eps u)) / (2 eps).

    Exactly two objective evaluations.
    """
    if not epsilon > 0:
        raise InvalidArgumentError(f"epsilon must be > 0, got {epsilon}")
    x = np.asarray(x, dtype=np.float64)
    plus = x + epsilon * u
    minus = x - epsilon * u
    fp = float(f(plus))
    if counter is not None:
        counter.add_full(1)
    _finite_or_raise(fp, plus)
    fm = float(f(minus))
    if counter is not None:
        counter.add_full(1)
    _finite_or_raise(fm, minus)
    return (fp - fm) / (2.0 * epsilon)


def _step_block(spec, step, q, d, directions):
    """The step's (q, d) direction block: the one given, or drawn from (step, i)."""
    if directions is None:
        return step_directions(spec, step, q, d)
    directions = np.asarray(directions, dtype=np.float64)
    if directions.shape != (q, d):
        raise InvalidArgumentError(f"directions must have shape ({q}, {d}), got {directions.shape}")
    return directions


def zo_gradient(f, x, spec, q, step, counter=None, directions=None):
    """q-sample estimator (1/q) sum_i pg_i u_i, d-scaled for uniform-sphere directions.

    directions is the step's (q, d) block from step_directions(spec, step,
    q, d); when omitted it is drawn here. Pass it when the update needs the
    same directions, so each is drawn once per step and never kept beyond
    it. Returns (estimate, the q projected-gradient scalars): downstream
    optimizers need the scalars and recomputing them would double the
    evaluation cost.
    """
    if q < 1:
        raise InvalidArgumentError(f"q must be >= 1, got {q}")
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    directions = _step_block(spec, step, q, d, directions)
    acc = np.zeros(d)
    scalars = np.empty(q)
    for i, u in enumerate(directions):
        s = projected_gradient(f, x, u, spec.epsilon, counter)
        scalars[i] = s
        acc += s * u
    est = acc / q
    if spec.distribution == UNIFORM:
        est = est * d
    return est, scalars


def grouped_zo_gradient(f, x, spec, q, partition, step, counter=None, directions=None):
    """Block estimator (1/q) sum_i sum_j pg_{ij} (m_j * u_i).

    One direction per sample, masked per block, so p=1 is bit-identical to
    zo_gradient on the same replay stream (including the uniform d-scaling).
    directions is the step's (q, d) block, drawn here when omitted.
    Returns (estimate, scalars of shape (q, p)).
    """
    if q < 1:
        raise InvalidArgumentError(f"q must be >= 1, got {q}")
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    if partition.d != d:
        raise InvalidArgumentError(f"partition is over {partition.d} coordinates, x has {d}")
    p = partition.p
    directions = _step_block(spec, step, q, d, directions)
    acc = np.zeros(d)
    scalars = np.empty((q, p))
    for i, u in enumerate(directions):
        for j, idx in enumerate(partition.blocks):
            masked = np.zeros(d)
            masked[idx] = u[idx]
            s = projected_gradient(f, x, masked, spec.epsilon, counter)
            scalars[i, j] = s
            acc[idx] += s * u[idx]
    est = acc / q
    if spec.distribution == UNIFORM:
        est = est * d
    return est, scalars


def efficient_grouped_eval(chain, x, spec, q, step, counter=None, directions=None):
    """Grouped estimator over a layered chain, reusing cached prefix activations.

    Perturbing block j leaves blocks 1..j-1 untouched, so their activations
    are computed once and each perturbed evaluation forwards only blocks
    j..p. Exactly p q (p+1) + p - 1 block forwards; the estimate matches
    grouped_zo_gradient on the same replay stream bit for bit.
    directions is the step's (q, d) block, drawn here when omitted.
    Returns (estimate, scalars of shape (q, p)).
    """
    if q < 1:
        raise InvalidArgumentError(f"q must be >= 1, got {q}")
    if not (hasattr(chain, "forward_prefix") and hasattr(chain, "make_prefix") and hasattr(chain, "slices")):
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

    acts, forwarded = chain.forward_prefix(x, p - 1)
    counter.add_block(forwarded)

    acc = np.zeros(d)
    scalars = np.empty((q, p))
    for i, u in enumerate(directions):
        for j in range(1, p + 1):
            start, stop = chain.slices[j - 1]
            idx = np.arange(start, stop)
            masked = np.zeros(d)
            masked[idx] = u[idx]
            prefix = chain.make_prefix(x, acts, j)
            plus = x + epsilon * masked
            minus = x - epsilon * masked
            fp, _, nb = chain.forward(plus, prefix)
            counter.add_block(nb)
            _finite_or_raise(fp, plus)
            fm, _, nb = chain.forward(minus, prefix)
            counter.add_block(nb)
            _finite_or_raise(fm, minus)
            s = (fp - fm) / (2.0 * epsilon)
            scalars[i, j - 1] = s
            acc[idx] += s * u[idx]
    est = acc / q
    if spec.distribution == UNIFORM:
        est = est * d
    return est, scalars
