"""Step rules for the zeroth-order optimizers.

All steps consume projected-gradient scalars and/or estimate vectors
produced by the estimators module. Directions are never kept in any state:
the scalar-state optimizers receive the step's (q, d) direction block, the
one its estimator used, and hold it for that step only. The Adam-family
steps double as first-order reference optimizers when fed an analytic
gradient.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateScaleError, InvalidArgumentError, NumericFailureError
from .perturb import PerturbationSpec, step_directions


def _require_finite(arr, what):
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericFailureError(f"non-finite {what}", value=arr)
    return arr


def _check_hyper(eta, zeta):
    if not eta > 0:
        raise InvalidArgumentError(f"eta must be > 0, got {eta}")
    if not zeta > 0:
        raise InvalidArgumentError(f"zeta must be > 0, got {zeta}")


def _check_beta(beta, name="beta"):
    if not 0.0 < beta < 1.0:
        raise InvalidArgumentError(f"{name} must lie in (0, 1), got {beta}")


@dataclass
class MeazoState:
    """Scalar second-moment state: one EMA scalar regardless of dimension."""

    eta: float
    beta: float = 0.999
    zeta: float = 1e-8
    v: float = 0.0
    t: int = 0

    def __post_init__(self):
        _check_hyper(self.eta, self.zeta)
        _check_beta(self.beta)


@dataclass
class GroupedMeazoState:
    """One EMA scalar per block, shared decay and step size."""

    p: int
    eta: float
    beta: float = 0.999
    zeta: float = 1e-8
    v: np.ndarray = None
    t: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise InvalidArgumentError(f"block count must be >= 1, got {self.p}")
        _check_hyper(self.eta, self.zeta)
        _check_beta(self.beta)
        if self.v is None:
            self.v = np.zeros(self.p)
        else:
            self.v = np.asarray(self.v, dtype=np.float64)
            if self.v.shape != (self.p,):
                raise InvalidArgumentError(f"v must have shape ({self.p},)")


@dataclass
class AdamState:
    """Full-vector first and second moment EMAs: 2d persistent reals."""

    dim: int
    eta: float
    beta1: float = 0.9
    beta2: float = 0.999
    zeta: float = 1e-8
    m: np.ndarray = None
    v: np.ndarray = None
    t: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidArgumentError(f"dimension must be >= 1, got {self.dim}")
        _check_hyper(self.eta, self.zeta)
        if not 0.0 <= self.beta1 < 1.0:
            raise InvalidArgumentError(f"beta1 must lie in [0, 1), got {self.beta1}")
        _check_beta(self.beta2, "beta2")
        if self.m is None:
            self.m = np.zeros(self.dim)
        if self.v is None:
            self.v = np.zeros(self.dim)


@dataclass
class FzooState:
    """Forward-only estimator state; needs q >= 2 so the loss std is defined."""

    eta: float
    spec: PerturbationSpec
    q: int

    def __post_init__(self):
        if not self.eta > 0:
            raise InvalidArgumentError(f"eta must be > 0, got {self.eta}")
        if self.q < 2:
            raise InvalidArgumentError(f"q must be >= 2, got {self.q}")

    @property
    def epsilon(self):
        return self.spec.epsilon


def zo_sgd_step(x, estimate, eta):
    """x' = x - eta * estimate."""
    if not eta > 0:
        raise InvalidArgumentError(f"eta must be > 0, got {eta}")
    estimate = _require_finite(estimate, "gradient estimate")
    return np.asarray(x, dtype=np.float64) - eta * estimate


def zo_adam_step(state, x, estimate):
    """Adam update with bias correction at the post-increment step count."""
    estimate = _require_finite(estimate, "gradient estimate")
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * estimate
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * estimate * estimate
    state.t += 1
    mhat = state.m / (1.0 - state.beta1**state.t)
    vhat = state.v / (1.0 - state.beta2**state.t)
    return np.asarray(x, dtype=np.float64) - state.eta * mhat / (np.sqrt(vhat) + state.zeta)


def radazo_step(state, x, estimate):
    """Adam variant whose second moment averages m^2 instead of the raw estimate squared."""
    estimate = _require_finite(estimate, "gradient estimate")
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * estimate
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * state.m * state.m
    state.t += 1
    mhat = state.m / (1.0 - state.beta1**state.t)
    vhat = state.v / (1.0 - state.beta2**state.t)
    return np.asarray(x, dtype=np.float64) - state.eta * mhat / (np.sqrt(vhat) + state.zeta)


def meazo_step(state, x, scalars, directions):
    """Scalar-adaptive update.

    scalars are the q projected gradients (already divided by 2 eps, once);
    directions holds the matching u_i: the step's (q, d) block from
    step_directions, or any iterable of q vectors. The persistent state
    mutation is one scalar EMA plus the counter.
    """
    scalars = _require_finite(scalars, "projected-gradient scalars")
    if scalars.ndim != 1 or scalars.size < 1:
        raise InvalidArgumentError("scalars must be a non-empty 1-D array")
    q = scalars.size
    g = float(scalars.mean())
    state.v = state.beta * state.v + (1.0 - state.beta) * g * g
    state.t += 1
    vhat = state.v / (1.0 - state.beta**state.t)

    x = np.asarray(x, dtype=np.float64)
    upd = np.zeros_like(x)
    count = 0
    for s, u in zip(scalars, directions):
        upd += s * u
        count += 1
    if count != q:
        raise InvalidArgumentError(f"expected {q} directions, got {count}")
    upd /= q
    return x - (state.eta / (math.sqrt(vhat) + state.zeta)) * upd


def grouped_meazo_step(state, x, scalars, partition, directions):
    """Per-block scalar-adaptive update; p=1 reproduces meazo_step exactly.

    directions is the step's (q, d) block (or any iterable of q vectors).
    """
    scalars = _require_finite(scalars, "projected-gradient scalars")
    if scalars.ndim != 2:
        raise InvalidArgumentError("scalars must have shape (q, p)")
    q, p = scalars.shape
    if p != state.p or p != partition.p:
        raise InvalidArgumentError(
            f"block mismatch: scalars have {p}, state has {state.p}, partition has {partition.p}"
        )
    x = np.asarray(x, dtype=np.float64)
    if partition.d != x.size:
        raise InvalidArgumentError(f"partition is over {partition.d} coordinates, x has {x.size}")

    g = scalars.mean(axis=0)
    state.v = state.beta * state.v + (1.0 - state.beta) * g * g
    state.t += 1
    vhat = state.v / (1.0 - state.beta**state.t)

    upd = np.zeros((p, x.size))
    count = 0
    for i, u in enumerate(directions):
        for j, idx in enumerate(partition.blocks):
            upd[j, idx] += scalars[i, j] * u[idx]
        count += 1
    if count != q:
        raise InvalidArgumentError(f"expected {q} directions, got {count}")
    upd /= q

    out = x.copy()
    for j in range(p):
        out -= (state.eta / (math.sqrt(vhat[j]) + state.zeta)) * upd[j]
    return out


def fzoo_step(f, x, state, step, counter=None):
    """Forward-only normalized step.

    Evaluates f at x and at q forward perturbations (q+1 evaluations),
    normalizes by the population std of the perturbed losses, and returns
    (x', sigma_t). The q directions are drawn once and serve both the
    evaluation and the update pass.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    q = state.q
    eps = state.epsilon

    f0 = float(f(x))
    if counter is not None:
        counter.add_full(1)
    if not np.isfinite(f0):
        raise NumericFailureError("objective returned non-finite value", point=x, value=f0)

    directions = step_directions(state.spec, step, q, d)
    losses = np.empty(q)
    for i, u in enumerate(directions):
        point = x + eps * u
        fi = float(f(point))
        if counter is not None:
            counter.add_full(1)
        if not np.isfinite(fi):
            raise NumericFailureError("objective returned non-finite value", point=point, value=fi)
        losses[i] = fi

    sigma = float(np.std(losses))
    if sigma == 0.0:
        raise DegenerateScaleError("all perturbed losses are equal; loss scale is undefined")

    acc = np.zeros(d)
    for i, u in enumerate(directions):
        acc += (losses[i] - f0) * u
    g = acc / (eps * q * sigma)
    return x - state.eta * g, sigma
