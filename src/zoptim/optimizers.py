"""Step rules for the zeroth-order optimizers, and the method table.

Every step reads a step's projected-gradient scalars and its (q, d)
direction block, held for that step only, never in any state. The
scalar-state rules sum c_i * u_i themselves; the vector-state rules step on
the estimate gradient_estimate builds. The Adam-family steps double as
first-order reference optimizers when fed an analytic gradient.

The methods differ only in the state they keep and in their update rule.
Method is the one place that maps an optimizer name to both; the harness,
the collapse study and the bound checks build their state and take their
steps through it. A state with a second moment exposes it as ``vhat``.
meazo and meazo-grouped share MeazoState and meazo_step: one second moment
per block, and MEAZO is the one-block case.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateScaleError, InvalidArgumentError, NumericFailureError
from .estimators import (
    Partition,
    _direction_sum,
    _evaluate,
    efficient_grouped_eval,
    gradient_estimate,
    zo_scalars,
)
from .perturb import PerturbationSpec, step_directions


def _require_finite(arr, what):
    arr = np.asarray(arr, dtype=np.float64)
    # A sum is finite only if every term is; the terms are looked at only when it is not.
    if not (math.isfinite(np.add.reduce(arr, axis=None)) or np.isfinite(arr).all()):
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
class SgdState:
    """Plain two-point SGD keeps no state beyond its step size."""

    eta: float

    def __post_init__(self):
        if not self.eta > 0:
            raise InvalidArgumentError(f"eta must be > 0, got {self.eta}")


@dataclass
class MeazoState:
    """One EMA scalar per block, shared decay and step size, whatever the
    dimension: p blocks for grouped MEAZO, and MEAZO itself is p = 1."""

    eta: float
    beta: float = 0.999
    zeta: float = 1e-8
    p: int = 1
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

    @property
    def vhat(self):
        """Bias-corrected per-block second moments (the raw EMAs divided by 1 - beta^t)."""
        return self.v / (1.0 - self.beta ** max(self.t, 1))


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

    @property
    def vhat(self):
        """Bias-corrected per-coordinate second moments."""
        return self.v / (1.0 - self.beta2 ** max(self.t, 1))


@dataclass
class FzooState:
    """Forward-only estimator state; needs q >= 2 so the loss std is defined."""

    eta: float
    spec: PerturbationSpec
    q: int
    sigma: float = None  # the loss scale sigma_t of the latest step

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
    return np.asarray(x, dtype=np.float64) - state.eta * mhat / (np.sqrt(state.vhat) + state.zeta)


def radazo_step(state, x, estimate):
    """Adam variant whose second moment averages m^2 instead of the raw estimate squared."""
    estimate = _require_finite(estimate, "gradient estimate")
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * estimate
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * state.m * state.m
    state.t += 1
    mhat = state.m / (1.0 - state.beta1**state.t)
    return np.asarray(x, dtype=np.float64) - state.eta * mhat / (np.sqrt(state.vhat) + state.zeta)


def meazo_step(state, x, scalars, directions, partition=None):
    """Scalar-adaptive update, one second moment per block.

    scalars are the step's projected gradients (already divided by 2 eps,
    once): (q,) without a partition, MEAZO's one block, and (q, p) with
    one; directions holds the matching u_i: the step's (q, d) block from
    step_directions, or any iterable of q vectors. The persistent state
    mutation is the (p,) EMA plus the counter. A one-block partition gives
    the bits of none; only a partition makes the (q, d) per-coordinate
    scalars.
    """
    scalars = _require_finite(scalars, "projected-gradient scalars")
    x = np.asarray(x, dtype=np.float64)
    p = 1 if partition is None else partition.p
    q = len(scalars) if scalars.ndim else 0
    if q < 1 or scalars.shape != ((q,) if partition is None else (q, p)):
        raise InvalidArgumentError(f"scalars must have shape (q,), or (q, p) with a partition of "
                                   f"p blocks, for q >= 1; got {scalars.shape}")
    if p != state.p:
        raise InvalidArgumentError(f"block mismatch: scalars have {p}, state has {state.p}")
    if partition is not None and partition.d != x.size:
        raise InvalidArgumentError(f"partition is over {partition.d} coordinates, x has {x.size}")

    g = np.add.reduce(scalars, axis=0) / q  # the bits of scalars.mean(axis=0)
    state.v = state.beta * state.v + (1.0 - state.beta) * g * g
    state.t += 1

    coef = state.eta / (np.sqrt(state.vhat) + state.zeta)
    if partition is not None:
        # Each sample's scalar and each coordinate's step size for its block.
        scalars, coef = scalars.take(partition.block_of, axis=1), coef.take(partition.block_of)
    upd = _direction_sum(scalars, directions, x.size) / q
    return x - coef * upd


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
    directions = step_directions(state.spec, step, q, d)
    values = _evaluate(f, np.vstack((x, x + eps * directions)), counter)
    f0, losses = values[0], values[1:]
    sigma = float(np.std(losses))
    if sigma == 0.0:
        raise DegenerateScaleError("all perturbed losses are equal; loss scale is undefined")
    g = _direction_sum(losses - f0, directions, d) / (eps * q * sigma)
    return x - state.eta * g, sigma


# name -> (state class, update(method, x, t, scalars, directions)).
# An update looks its step rule up when it runs, so a wrapper put on the
# module's function is the one called. The vector-state updates step on the
# estimate gradient_estimate builds from the scalars and directions; the
# scalar-state ones sum c_i u_i themselves. fo-adam steps on an analytic
# gradient passed to zo_adam_step; fzoo_step estimates and updates in one.
_METHODS = {
    "zo-sgd": (SgdState, lambda m, x, t, s, u: zo_sgd_step(x, m.estimate(s, u), m.state.eta)),
    "zo-adam": (AdamState, lambda m, x, t, s, u: zo_adam_step(m.state, x, m.estimate(s, u))),
    "radazo": (AdamState, lambda m, x, t, s, u: radazo_step(m.state, x, m.estimate(s, u))),
    "meazo": (MeazoState, lambda m, x, t, s, u: meazo_step(m.state, x, s, u)),
    # Draws its block a second time for the update: the benchmark's tracer
    # tests pin perturb.regen_ratio == 2.0 on it (ROADMAP item 6).
    "meazo-grouped": (MeazoState, lambda m, x, t, s, u: meazo_step(
        m.state, x, s, step_directions(m.spec, t, m.q, m.d), m.partition)),
    "fzoo": (FzooState, None),
    "fo-adam": (AdamState, None),
}


class Method:
    """One optimizer by name: the state it keeps and the step it takes.

    consts are hyper-parameters by state field name; the state takes those
    it declares. A step reads its scalars from efficient_grouped_eval over
    chain when a chain and its layers partition are given, and from
    zo_scalars (grouped with a partition) otherwise.
    """

    @staticmethod
    def hyperparameters(name):
        """The hyper-parameters besides eta that the named method's state takes."""
        return {f.name for f in fields(_METHODS[name][0])} & {"beta1", "beta2", "beta", "zeta"}

    @staticmethod
    def setup_error(name, q, partition):
        """Why the named method cannot take q samples and partition (None for
        none), or None: meazo-grouped needs a partition, meazo and fzoo take
        none, and fzoo needs q >= 2. Method and ExperimentConfig both check
        these rules here."""
        if name == "meazo-grouped" and partition is None:
            return f"{name} requires a partition"
        if name in ("meazo", "fzoo") and partition is not None:
            return f"{name} does not support a partition"
        if name == "fzoo" and q < 2:
            return f"fzoo requires q >= 2, got {q}"
        return None

    def __init__(self, name, eta, spec, q, d=1, partition=None, chain=None, **consts):
        if not isinstance(name, str) or name not in _METHODS:
            raise InvalidArgumentError(f"unknown optimizer {name!r}")
        cls, self._update = _METHODS[name]
        args = {"eta": eta, "spec": spec, "q": q, "dim": d,
                "p": partition.p if partition is not None else 1, **consts}
        # The state checks its own fields first, fzoo's q among them.
        self.state = cls(**{f.name: args[f.name] for f in fields(cls) if f.name in args})
        error = Method.setup_error(name, q, partition)
        if error is not None:
            raise InvalidArgumentError(error)
        if chain is not None and partition is not None and not np.array_equal(
                partition.block_of, Partition.from_ranges(chain.d, chain.slices).block_of):
            raise InvalidArgumentError("with a chain, the partition must be the chain's layers")
        self.name, self.spec, self.q, self.d = name, spec, q, d
        self.partition, self.chain = partition, chain

    def estimate(self, scalars, directions):
        """The step's gradient estimate from its scalars and directions."""
        return gradient_estimate(scalars, directions, self.spec.distribution, self.partition)

    def step(self, f, x, t, counter=None):
        """One step of f from x at step t; returns the next point."""
        if self.name == "fzoo":
            x, self.state.sigma = fzoo_step(f, x, self.state, t, counter)
            return x
        if self._update is None:
            raise InvalidArgumentError(f"{self.name} steps on an analytic gradient, not on f")
        spec, q = self.spec, self.q
        dirs = step_directions(spec, t, q, self.d)
        if self.chain is not None and self.partition is not None:
            scalars = efficient_grouped_eval(self.chain, x, spec, q, t, counter, dirs)
        else:
            scalars = zo_scalars(f, x, spec, q, t, counter, dirs, self.partition)
        return self._update(self, x, t, scalars, dirs)
