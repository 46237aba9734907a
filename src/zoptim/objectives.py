"""Synthetic objectives with analytic oracles.

Three families:

* BlockQuadratic: F(x) = 0.5 x^T H x with a block-diagonal H of sqrt(d)
  blocks of size sqrt(d), eigenvalue centers either log-spaced over
  [1, 1000] (heterogeneous) or all at the geometric mean (homogeneous).
  Minimum F* = 0 at the origin, smoothness L = lambda_max(H), and a closed
  form for the smoothed objective.
* NoisySample: a stochastic wrapper f(x; xi) = F(x) + tilt(xi) . x whose
  gradient noise has mean zero and variance exactly sigma^2.
* LayeredChain: a p-block tanh chain whose prefix activations can be cached,
  the structure the efficient grouped estimator exploits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, StalePrefixError
from .perturb import _empty, keyed_generator

HETEROGENEOUS = "heterogeneous"
HOMOGENEOUS = "homogeneous"
REGIMES = (HETEROGENEOUS, HOMOGENEOUS)

BALL = "ball"
SPHERE_LIMIT = "sphere-limit"
SMOOTHINGS = (BALL, SPHERE_LIMIT)

_TILT_TAG = 0x7E17
_CHAIN_TAG = 0xC4A1


def _orthogonal(rng, n):
    """Haar-ish orthogonal matrix: QR of a Gaussian with the sign fix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class BlockQuadratic:
    """F(x) = 0.5 x^T H x with block-diagonal H: known gradient, smoothness and optimum."""

    def __init__(self, d, regime, seed):
        d = int(d)
        if d < 1:
            raise InvalidArgumentError(f"dimension must be >= 1, got {d}")
        root = math.isqrt(d)
        if root * root != d:
            raise InvalidArgumentError(f"d must be a perfect square for the block construction, got {d}")
        if regime not in REGIMES:
            raise InvalidArgumentError(f"unknown regime {regime!r}, expected one of {REGIMES}")

        self.d = d
        self.regime = regime
        self.seed = int(seed)
        self.n_blocks = root
        self.block_size = root
        # Only the diagonal blocks are stored, first as the largest array: an
        # (n_blocks, b, b) stack of d*sqrt(d) reals. Each block is 0.5 * (B +
        # B^T), exactly symmetric, so x_k^T H_k equals (H_k x_k)^T and one
        # batched row-times-block product serves both oracles.
        stack = _empty((root, root, root), "quadratic blocks")

        if regime == HETEROGENEOUS:
            centers = np.logspace(0.0, 3.0, self.n_blocks)
        else:
            centers = np.full(self.n_blocks, 10.0**1.5)
        self.block_centers = centers

        if self.block_size == 1:
            jitter = np.array([1.0])
        else:
            jitter = np.linspace(0.9, 1.1, self.block_size)

        eigenvalues = np.empty(d)
        bases = []
        blocks = []
        for b in range(self.n_blocks):
            start = b * self.block_size
            stop = start + self.block_size
            rng = keyed_generator(self.seed, b)
            q = _orthogonal(rng, self.block_size)
            eigs = centers[b] * jitter
            block = (q * eigs) @ q.T
            stack[b] = 0.5 * (block + block.T)
            eigenvalues[start:stop] = eigs
            bases.append(q)
            blocks.append((start, stop))

        self.stack = stack
        self.eigenvalues = eigenvalues
        self.bases = bases
        self.blocks = blocks
        self.trace_h = float(eigenvalues.sum())
        self.smoothness = float(eigenvalues.max())
        self.f_star = 0.0

    @property
    def hessian(self):
        """Dense d x d Hessian, assembled on demand (O(d^2) memory); no oracle uses it."""
        dense = np.zeros((self.d, self.d))
        for (start, stop), block in zip(self.blocks, self.stack):
            dense[start:stop, start:stop] = block
        return dense

    def _rows(self, x):
        return np.asarray(x, dtype=np.float64).reshape(self.n_blocks, 1, self.block_size)

    def value(self, x):
        xb = self._rows(x)
        return 0.5 * float(np.vdot(xb, xb @ self.stack))

    __call__ = value

    def gradient(self, x):
        return (self._rows(x) @ self.stack).reshape(self.d)


def smoothing_norm_moments(smoothing, d):
    """(E|v|, E|v|^2) of the perturbation law used for smoothing."""
    if smoothing == BALL:
        return d / (d + 1.0), d / (d + 2.0)
    if smoothing == SPHERE_LIMIT:
        return 1.0, 1.0
    raise InvalidArgumentError(f"unknown smoothing law {smoothing!r}, expected one of {SMOOTHINGS}")


def smoothed_value(quad, x, epsilon, smoothing=BALL):
    """Closed-form smoothed objective E_v[F(x + eps v)].

    For a quadratic this is F(x) + (eps^2/2) tr(H) E[v_1^2], with
    E[v_1^2] = E|v|^2 / d under any isotropic law.
    """
    if epsilon < 0:
        raise InvalidArgumentError(f"epsilon must be >= 0, got {epsilon}")
    _, second = smoothing_norm_moments(smoothing, quad.d)
    return quad.value(x) + 0.5 * epsilon**2 * quad.trace_h * (second / quad.d)


def smoothed_gradient(quad, x, epsilon, smoothing=BALL):
    """Gradient of the smoothed objective; equals H x exactly (constant Hessian)."""
    if epsilon < 0:
        raise InvalidArgumentError(f"epsilon must be >= 0, got {epsilon}")
    smoothing_norm_moments(smoothing, quad.d)
    return quad.gradient(x)


class NoisySample:
    """Stochastic oracle f(x; xi) = F(x) + tilt(xi) . x around the mean objective F = base.

    tilt(xi) ~ N(0, (sigma^2/d) I) is replay-keyed by xi, so
    E[grad f] = grad F and E|grad f - grad F|^2 = sigma^2 exactly;
    objective_at(xi) is f(.; xi), with gradient base.gradient(x) + tilt(xi).
    """

    def __init__(self, base, sigma, xi_seed):
        if not sigma >= 0:
            raise InvalidArgumentError(f"sigma must be >= 0, got {sigma}")
        self.base = base
        self.sigma = float(sigma)
        self.xi_seed = int(xi_seed)
        self.d = base.d

    def tilt(self, xi):
        rng = keyed_generator(self.xi_seed, _TILT_TAG, int(xi))
        return rng.standard_normal(self.d) * (self.sigma / math.sqrt(self.d))

    def objective_at(self, xi):
        """Deterministic single-sample objective f(.; xi)."""
        tilt = self.tilt(xi)

        def f(x):
            return self.base.value(x) + float(tilt @ np.asarray(x, dtype=np.float64))

        return f


def noise_for_run(base, sigma, noise_seed, seed):
    """Observation noise of the run with this seed, None when sigma is 0, and
    InvalidArgumentError when it is negative or NaN; runs sharing noise_seed
    still draw their own streams, keyed by (noise_seed, seed)."""
    if sigma == 0:
        return None
    xi_seed = int(np.random.SeedSequence(entropy=(noise_seed, seed)).generate_state(1)[0])
    return NoisySample(base, sigma, xi_seed)


@dataclass(frozen=True)
class Prefix:
    """Cached activation feeding block ``block``; valid while x[:start] is unchanged."""

    block: int
    activation: np.ndarray
    fingerprint: bytes


class LayeredChain:
    """Chain of p blocks h_j = tanh(W_j h_{j-1} + b_j) with loss |h_p - y|^2.

    Parameters of all blocks live in one flat vector; slice j holds
    (W_j, b_j) row-major. Evaluation from a cached prefix is bit-identical
    to a full pass because earlier blocks see unchanged parameters.
    """

    def __init__(self, p, widths, seed):
        p = int(p)
        if p < 1:
            raise InvalidArgumentError(f"block count must be >= 1, got {p}")
        if isinstance(widths, int):
            widths = [widths] * (p + 1)
        widths = [int(w) for w in widths]
        if len(widths) != p + 1:
            raise InvalidArgumentError(f"widths must have p+1 = {p + 1} entries (h_0..h_p), got {len(widths)}")
        if any(w < 1 for w in widths):
            raise InvalidArgumentError("all widths must be >= 1")

        self.p = p
        self.widths = widths
        self.seed = int(seed)

        slices = []
        start = 0
        for j in range(1, p + 1):
            size = widths[j] * widths[j - 1] + widths[j]
            slices.append((start, start + size))
            start += size
        self.slices = slices
        self.d = start
        _empty((start,), "chain parameters")  # refuse a parameter vector numpy cannot hold

        rng = keyed_generator(self.seed, _CHAIN_TAG)
        self.h0 = rng.standard_normal(widths[0])
        self.target = rng.standard_normal(widths[p])

    def _block_params(self, x, j):
        start, stop = self.slices[j - 1]
        w_out, w_in = self.widths[j], self.widths[j - 1]
        w = x[..., start:start + w_out * w_in].reshape(*x.shape[:-1], w_out, w_in)
        b = x[..., start + w_out * w_in:stop]
        return w, b

    def _parameters(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise InvalidArgumentError(
                f"parameters must have shape ({self.d},) or (n, {self.d}), got {x.shape}"
            )
        return x

    def _blocks(self, x, h, j0, upto, acts):
        """Forward blocks j0..upto from h_{j0-1}, keeping each activation in acts.

        With (n, d) parameters every row runs through np.matvec, whose rows
        equal the single-row product bit for bit, so a batch is n forwards.
        """
        for j in range(j0, upto + 1):
            w, b = self._block_params(x, j)
            h = np.tanh(np.matvec(w, h) + b)
            acts[j] = h
        return h

    def forward_prefix(self, x, upto):
        """Activations h_0..h_upto; forwards exactly ``upto`` blocks per row, no loss."""
        x = self._parameters(x)
        if not (0 <= upto <= self.p):
            raise InvalidArgumentError(f"upto must be in [0, {self.p}], got {upto}")
        acts = [None] * (self.p + 1)
        acts[0] = self.h0
        self._blocks(x, self.h0, 1, upto, acts)
        return acts, upto * (len(x) if x.ndim == 2 else 1)

    def forward(self, x, prefix=None, moved=None):
        """(loss, activations, blocks_forwarded), optionally resuming from a prefix.

        x is one parameter vector (d,) or a batch (n, d); a batch returns an
        array of n losses and counts the blocks of every row. A prefix must
        match every row.

        With moved, a (q, d) array M, x is one vector and the call forwards
        the grouped estimator's 2pq points instead: for each block j, x with
        block j's slice moved by +M_i (rows :q), then by -M_i. It returns
        their (p, 2q) losses, x's activations h_0..h_{p-1} and the
        p q (p+1) + p - 1 blocks forwarded, in one layer-wise pass; see
        _layerwise.
        """
        if moved is not None:
            if prefix is not None:
                raise InvalidArgumentError("moved points resume from x's own prefix only")
            return self._layerwise(x, moved)
        x = self._parameters(x)
        acts = [None] * (self.p + 1)
        if prefix is None:
            j0 = 1
            h = self.h0
        else:
            if not (1 <= prefix.block <= self.p):
                raise InvalidArgumentError(f"prefix block must be in [1, {self.p}], got {prefix.block}")
            start = self.slices[prefix.block - 1][0]
            # Bit patterns, not values: -0.0 and 0.0 are different parameters here.
            fingerprint = prefix.fingerprint
            if len(fingerprint) != 8 * start or not (
                x[..., :start].view(np.uint64) == np.frombuffer(fingerprint, dtype=np.uint64)
            ).all():
                raise StalePrefixError(
                    f"prefix at block {prefix.block} was built for different parameters before it"
                )
            j0 = prefix.block
            h = prefix.activation
        acts[j0 - 1] = h
        h = self._blocks(x, h, j0, self.p, acts)
        diff = h - self.target
        loss = np.vecdot(diff, diff)
        blocks = self.p - j0 + 1
        if x.ndim == 1:
            return float(loss), acts, blocks
        return loss, acts, len(x) * blocks

    def _layerwise(self, x, moved):
        """forward(x, moved=M): one pass over the layers for every moved point.

        A point moved in block j equals x before block j, so it starts from
        x's h_{j-1}, and after block j it uses x's own (W_k, b_k). At layer j
        the rows held so far (x's, then the points of blocks 1..j-1) take one
        product with x's W_j, broadcast, and block j's 2q points one product
        with their moved slice. np.matvec computes each row as the
        single-row product, so every loss equals a full forward of its point
        bit for bit. x's own row stops at h_{p-1}: p - 1 block forwards, plus
        2q (p - j + 1) for block j.
        """
        x = self._parameters(x)
        moved = np.asarray(moved, dtype=np.float64)
        if x.ndim != 1 or moved.ndim != 2 or moved.shape[1] != self.d or len(moved) < 1:
            raise InvalidArgumentError(
                f"moved points need x of shape ({self.d},) and moves of shape (q, {self.d}), "
                f"got {x.shape} and {moved.shape}"
            )
        q, p = len(moved), self.p
        acts = [None] * (p + 1)
        acts[0] = self.h0
        points = np.empty((2 * q, self.d))  # x + M_i, then x - M_i; only block j's slice is read
        np.add(x, moved, out=points[:q])
        np.subtract(x, moved, out=points[q:])
        h = self.h0[None]  # row 0 is x's activation, then each moved point's, block by block
        for j in range(1, p + 1):
            w, b = self._block_params(x, j)
            w_moved, b_moved = self._block_params(points, j)
            carried = h if j < p else h[1:]
            h = np.tanh(np.concatenate((np.matvec(w, carried) + b,
                                        np.matvec(w_moved, h[0]) + b_moved)))
            if j < p:
                acts[j] = h[0]
        diff = h - self.target
        losses = np.vecdot(diff, diff).reshape(p, 2 * q)
        return losses, acts, p * q * (p + 1) + p - 1

    def value(self, x):
        return self.forward(x)[0]

    __call__ = value

    def make_prefix(self, x, activations, j):
        """Prefix feeding block j, fingerprinted against the parameters before it."""
        if not (1 <= j <= self.p):
            raise InvalidArgumentError(f"block must be in [1, {self.p}], got {j}")
        if activations[j - 1] is None:
            raise InvalidArgumentError(f"activations do not contain h_{j - 1}")
        x = np.asarray(x, dtype=np.float64)
        start = self.slices[j - 1][0]
        return Prefix(j, activations[j - 1], x[:start].tobytes())


def equal_energy_point(quad, f0, seed):
    """Point with F(x) = f0 and equal energy f0/d in every Hessian eigenmode."""
    if f0 < 0:
        raise InvalidArgumentError(f"f0 must be >= 0, got {f0}")
    rng = keyed_generator(int(seed), 0xE4E6)
    signs = rng.integers(0, 2, size=quad.d) * 2.0 - 1.0
    y = signs * np.sqrt(2.0 * f0 / (quad.d * quad.eigenvalues))
    x = np.empty(quad.d)
    for (start, stop), basis in zip(quad.blocks, quad.bases):
        x[start:stop] = basis @ y[start:stop]
    return x
