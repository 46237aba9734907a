"""Numerical verification: moment predictions, smoothing inequalities,
convergence-bound constants, and the dimension-free second-moment study.

Everything here is measurable: closed-form predictions come with Monte
Carlo or trajectory counterparts so each claim can be checked at an
explicit tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import perturb
from .errors import DegenerateScaleError, InvalidArgumentError, NumericFailureError, PreconditionError, integer
from .objectives import (
    BlockQuadratic,
    noise_for_run,
    smoothed_gradient,
    smoothed_value,
    smoothing_norm_moments,
)
from .optimizers import Method, zo_adam_step
from .perturb import (
    GAUSSIAN, UNIFORM, PerturbationSpec, _draw_scratch, _empty, batch_directions, keyed_generator,
)

MC_BATCH = 32768


def predicted_squared_moment(g, q, distribution):
    """Closed-form E[ghat_k^2] for the affine objective with gradient g."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 1 or g.size < 1:
        raise InvalidArgumentError("g must be a non-empty 1-D array")
    if q < 1:
        raise InvalidArgumentError(f"q must be >= 1, got {q}")
    d = g.size
    norm_sq = float(g @ g)
    if distribution == GAUSSIAN:
        return (norm_sq + g * g) / q + g * g
    if distribution == UNIFORM:
        return d * (norm_sq + 2.0 * g * g) / (q * (d + 2.0)) + ((q - 1.0) / q) * g * g
    raise InvalidArgumentError(
        f"no closed-form second moment for distribution {distribution!r}"
    )


def _mc_buffer_bytes(distribution, q, d):
    """(fixed, per_trial): with a chunk of rows trials, mc_squared_moment's
    working arrays take fixed + rows * per_trial bytes.

    Per trial: the q directions (8 q d), their projections (8 q), the estimate
    row (8 d) and _draw's temporaries. Fixed: the estimate buffer's carry row,
    the four (d,) sums and the four (d,) temporaries of the closing mean and
    standard error. At d = 1 the estimate buffer is the whole batch's column,
    which must be summed as one array; it is the one array left out.
    """
    fixed = 8 * d * ((1 if d > 1 else 0) + 4 + 4)
    per_trial = 8 * (q * d + q + (d if d > 1 else 0)) + _draw_scratch(distribution, q, d)
    return fixed, per_trial


def mc_squared_moment(g, q, distribution, n, seed=0):
    """Monte Carlo estimate of E[ghat_k^2] over n independent q-sample draws.

    On an affine objective the projected gradient equals the directional
    derivative exactly, so the estimator reduces to closed-form linear
    algebra over the sampled directions. A batch of up to MC_BATCH trials
    is summed as one array but estimated a chunk of trials at a time in
    reused buffers. A chunk holds as many trials as fit in
    perturb.BUFFER_BYTES across every working array (_mc_buffer_bytes), and
    at least one, so the working set stays within max(BUFFER_BYTES, one
    trial's bytes) whatever n is. Row 0 carries the batch's sums of est^2
    and est^4, as numpy adds the rows of a C-contiguous (rows, d >= 2) array
    in order; a (rows, 1) column is summed pairwise, so at d = 1 the
    estimate buffer holds a whole batch, 8 (MC_BATCH + 1) bytes beside the
    budget.
    """
    g = np.asarray(g, dtype=np.float64)
    d = g.size
    n, q = integer(n, "n", 1), integer(q, "q", 1)
    rng = keyed_generator(seed, 0x3C0)
    size = min(MC_BATCH, n)
    fixed, per_trial = _mc_buffer_bytes(distribution, q, d)
    rows = min(size, max(1, (perturb.BUFFER_BYTES - fixed) // per_trial))
    u = _empty((rows, q, d), "direction buffers")
    s = np.empty((rows, q))
    est = np.empty(((size if d == 1 else rows) + 1, d))
    sums = np.zeros((2, d))
    acc = np.zeros((2, d))
    done = 0
    while done < n:
        b = min(MC_BATCH, n - done)
        for lo in range(0, b, rows):
            k = min(rows, b - lo)
            at = 1 + lo if d == 1 else 1
            u_k, s_k, est_k = u[:k], s[:k], est[at:at + k]
            batch_directions(distribution, (k, q), d, rng, out=u_k)
            np.matmul(u_k, g, out=s_k)
            np.einsum("bq,bqd->bd", s_k, u_k, out=est_k)
            est_k /= q
            if distribution == UNIFORM:
                est_k *= d
            if d == 1 and lo + k < b:
                continue
            carry, fresh = int(d > 1 and lo > 0), est[1:at + k]
            for power in range(2):  # est^2, then est^4
                fresh *= fresh
                est[0] = sums[power]
                sums[power] = est[1 - carry:at + k].sum(axis=0)
        acc += sums
        done += b
    mean = acc[0] / n
    var = acc[1] / n - mean * mean
    se = np.sqrt(np.maximum(var, 0.0) / n)
    return mean, se


@dataclass
class MomentReport:
    empirical: np.ndarray
    predicted: np.ndarray
    max_rel_err: float
    n_trials: int
    standard_error: np.ndarray


def checked_moment_prediction(g, q, distribution):
    """predicted_squared_moment, or InvalidArgumentError if a coordinate's is
    zero (the relative error against a zero moment is 0/0) or not finite
    (g's squared norm overflows); computing it does not warn."""
    with np.errstate(over="ignore", invalid="ignore"):
        predicted = predicted_squared_moment(g, q, distribution)
    if not predicted.all():
        raise InvalidArgumentError("g predicts a zero second moment")
    if not np.isfinite(predicted).all():
        raise InvalidArgumentError("g predicts a non-finite second moment")
    return predicted


def moment_report(g, q, distribution, n, seed=0):
    """Compare the Monte Carlo coordinate-wise second moment to the formula.
    A trial's est^2 or est^4 past float64's range fails it as inf, unwarned."""
    predicted = checked_moment_prediction(g, q, distribution)
    with np.errstate(over="ignore", invalid="ignore"):
        empirical, se = mc_squared_moment(g, q, distribution, n, seed=seed)
        rel = np.abs(empirical - predicted) / np.abs(predicted)
    return MomentReport(
        empirical=empirical,
        predicted=predicted,
        max_rel_err=float(rel.max()),
        n_trials=n,
        standard_error=se,
    )


def vt_statistics(v):
    """Summary statistics of a second-moment vector: min, max, mean,
    population std, and Fisher excess kurtosis (0 for a constant vector)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise InvalidArgumentError("empty second-moment vector")
    mean = float(v.mean())
    std = float(v.std())
    if std == 0.0:
        kurt = 0.0
    else:
        kurt = float(np.mean((v - mean) ** 4) / std**4 - 3.0)
    return {
        "min": float(v.min()),
        "max": float(v.max()),
        "mean": mean,
        "std": std,
        "kurtosis": kurt,
    }


def vt_collapse_metric(vs, grad_norm_sq, q):
    """Spread of a second-moment vector and its error against norm^2/q.

    spread = (max - min) / mean; theory_target_err is the relative error of
    the mean against grad_norm_sq / q. A one-dimensional vector has spread 0.
    """
    vs = np.asarray(vs, dtype=np.float64)
    if vs.size == 0:
        raise InvalidArgumentError("empty second-moment vector")
    if grad_norm_sq is None:
        raise InvalidArgumentError("grad_norm_sq is required for the collapse target")
    if q < 1:
        raise InvalidArgumentError(f"q must be >= 1, got {q}")
    mean = float(vs.mean())
    spread = 0.0 if vs.size == 1 else float((vs.max() - vs.min()) / mean)
    target = float(grad_norm_sq) / q
    err = abs(mean - target) / target if target > 0 else math.inf
    return {"spread": spread, "theory_target_err": err}


def check_smoothing_inequalities(quad, epsilon, smoothing, points):
    """Verify the value and gradient bounds of the smoothed surrogate.

    Returns per-point slacks (bound minus actual gap), all of which must be
    nonnegative, along with the exact gradient error (identically zero for
    quadratics under symmetric smoothing).
    """
    if epsilon <= 0:
        raise InvalidArgumentError(f"epsilon must be > 0, got {epsilon}")
    e_norm, e_norm_sq = smoothing_norm_moments(smoothing, quad.d)
    l_const = quad.smoothness
    value_bound = 0.5 * epsilon**2 * l_const * e_norm_sq
    grad_bound = epsilon * l_const * e_norm
    rows = []
    for x in points:
        x = np.asarray(x, dtype=np.float64)
        gap = abs(smoothed_value(quad, x, epsilon, smoothing) - quad.value(x))
        grad_gap = float(
            np.linalg.norm(smoothed_gradient(quad, x, epsilon, smoothing) - quad.gradient(x))
        )
        rows.append(
            {
                "value_gap": gap,
                "value_bound": value_bound,
                "value_slack": value_bound - gap,
                "grad_gap": grad_gap,
                "grad_bound": grad_bound,
                "grad_slack": grad_bound - grad_gap,
            }
        )
    return rows


@dataclass
class TheoremConstants:
    sigma0_sq: float
    sigma1_sq: float
    G: float
    L: float
    alpha: float
    beta: float
    zeta: float


def _variance_constants(d, q, epsilon, L, sigma):
    """sigma0^2 and sigma1^2 of the two-point estimator's second-moment bound."""
    sigma0_sq = (d * epsilon**2 * L**2 / (2.0 * q)) * (8.0 + d) + (
        (2.0 * d - 1.0) / q + 1.0
    ) * sigma**2
    return sigma0_sq, (4.0 * d - 1.0) / q


def theorem_constants(d, q, epsilon, L, sigma, G, beta, zeta):
    """Constants entering the scalar-adaptive convergence bound."""
    if d < 1 or q < 1:
        raise InvalidArgumentError("d and q must be >= 1")
    if epsilon <= 0 or L <= 0 or zeta <= 0 or G <= 0:
        raise InvalidArgumentError("epsilon, L, zeta, G must be > 0")
    if not 0.0 < beta < 1.0:
        raise InvalidArgumentError(f"beta must lie in (0, 1), got {beta}")
    if sigma < 0:
        raise InvalidArgumentError(f"sigma must be >= 0, got {sigma}")
    sigma0_sq, sigma1_sq = _variance_constants(d, q, epsilon, L, sigma)
    alpha = math.sqrt(beta) * G + zeta
    return TheoremConstants(
        sigma0_sq=sigma0_sq,
        sigma1_sq=sigma1_sq,
        G=G,
        L=L,
        alpha=alpha,
        beta=beta,
        zeta=zeta,
    )


def check_meazo_condition(G, L, sigma1_sq, beta, eta, zeta):
    """Stationarity-bound precondition: both contraction terms at most 1/4."""
    term1 = G * (1.0 + sigma1_sq) * math.sqrt(1.0 - beta) / zeta
    term2 = L * eta / (2.0 * zeta)
    return max(term1, term2) <= 0.25


def meazo_bound(constants, f0_minus_fstar, eta, T, epsilon, L):
    """Bound on the average squared gradient norm for the scalar-adaptive
    method, valid only when the step-size condition holds."""
    if T < 1:
        raise InvalidArgumentError(f"T must be >= 1, got {T}")
    if eta <= 0:
        raise InvalidArgumentError(f"eta must be > 0, got {eta}")
    c = constants
    if not check_meazo_condition(c.G, c.L, c.sigma1_sq, c.beta, eta, c.zeta):
        raise PreconditionError(
            "step-size condition violated: "
            f"max(G(1+sigma1^2)sqrt(1-beta)/zeta, L eta/(2 zeta)) > 1/4 "
            f"(G={c.G}, L={c.L}, sigma1_sq={c.sigma1_sq}, beta={c.beta}, "
            f"eta={eta}, zeta={c.zeta})"
        )
    main = 2.0 * c.alpha * (f0_minus_fstar / (eta * T) + c.sigma0_sq / (2.0 * c.zeta))
    tail = epsilon**2 * L**2 * (c.alpha / (eta * T) + 2.0)
    return main + tail


def zosgd_bound(d, q, epsilon, L, sigma, eta, T, f0_minus_fstar):
    """Bound on the average squared gradient norm for plain two-point SGD."""
    if T < 1 or d < 1:
        raise InvalidArgumentError(f"T and d must be >= 1, got T={T}, d={d}")
    if not (q > 0 and L > 0 and eta > 0):
        raise InvalidArgumentError(f"q, L and eta must be > 0, got q={q}, L={L}, eta={eta}")
    sigma0_sq, sigma1_sq = _variance_constants(d, q, epsilon, L, sigma)
    if not eta < 2.0 / ((1.0 + sigma1_sq) * L):
        raise PreconditionError(
            f"eta must be below 2 / ((1 + sigma1^2) L) = {2.0 / ((1.0 + sigma1_sq) * L)}"
        )
    k0 = 1.0 / (eta * T * (1.0 - L * eta * (1.0 + sigma1_sq) / 2.0))
    k1 = L * eta * sigma0_sq / (2.0 - L * eta * (1.0 + sigma1_sq))
    return k0 * f0_minus_fstar + k1 + epsilon**2 * L**2 * (k0 / 2.0 + 2.0)


def classical_sgd_bound(L, sigma, eta, T, f0_minus_fstar):
    """First-order SGD stationarity bound that the two-point bound must
    approach as q grows and epsilon shrinks."""
    if T < 1:
        raise InvalidArgumentError(f"T must be >= 1, got {T}")
    if not (L > 0 and eta > 0):
        raise InvalidArgumentError(f"L and eta must be > 0, got L={L}, eta={eta}")
    if not eta < 2.0 / L:
        raise PreconditionError(f"eta must be below 2/L = {2.0 / L}")
    return f0_minus_fstar / (eta * T * (1.0 - L * eta / 2.0)) + L * eta * sigma**2 / (
        2.0 - L * eta
    )


def _study_method(optimizer, eta, spec, q, d, beta1, beta2, zeta):
    """The named optimizer's Method, or InvalidArgumentError if it keeps no second moment."""
    method = Method(optimizer, eta, spec, q, d, beta1=beta1, beta2=beta2, beta=beta2, zeta=zeta)
    if not hasattr(method.state, "vhat"):
        raise InvalidArgumentError(f"{optimizer} keeps no second moment to study")
    return method


def _run_one(quad, method, x0, threshold, max_steps, tail):
    """Drive one built run on quad from x0 until the loss threshold, recording
    v-hat spread; fo-adam steps on the analytic gradient."""
    state, q = method.state, method.q
    x = x0.copy()
    target_errs = []
    series = {"step": [], "loss": [], "grad_norm_sq": [], "spread": []}
    hit = None
    for t in range(max_steps):
        loss = float(quad.value(x))
        gvec = quad.gradient(x)
        gns = float(gvec @ gvec)

        if method.name == "fo-adam":
            x = zo_adam_step(state, x, gvec)
        else:
            x = method.step(quad.value, x, t)

        metric = vt_collapse_metric(state.vhat, gns, q) if gns > 0 else {
            "spread": 0.0, "theory_target_err": math.inf}
        series["step"].append(t)
        series["loss"].append(loss)
        series["grad_norm_sq"].append(gns)
        series["spread"].append(metric["spread"])
        target_errs.append(metric["theory_target_err"])
        if loss <= threshold:
            hit = t
            break

    return {
        "optimizer": method.name,
        "d": method.d,
        "steps_to_threshold": hit,
        "terminal_spread": float(np.mean(series["spread"][-tail:])),
        "terminal_target_err": float(np.mean(target_errs[-tail:])),
        "final_loss": float(quad.value(x)),
        "vhat_final": state.vhat,
        "series": series,
    }


def collapse_study(dims=(9, 25, 49, 100, 1024), optimizers=("fo-adam", "zo-adam", "meazo"),
                   eta=1e-4, q=10, threshold=1e-3, beta1=0.9, beta2=0.999, zeta=1e-8,
                   epsilon=1e-6, distribution=GAUSSIAN, x0_norm=0.3, seed=0,
                   max_steps=200_000, tail=100, regime="heterogeneous", quad_seed=0):
    """Track the second-moment spread across dimensions for three optimizers.

    Every optimizer runs the same schedule on the same quadratic per
    dimension, started from a random point of fixed norm, and records the
    spread of the bias-corrected second moment over the last `tail`
    recorded steps before the loss threshold is reached. Every run is built
    before the first step, so a bad dimension, then a bad optimizer in
    config order, raises before any run steps.
    """
    tail, max_steps = integer(tail, "tail", 1), integer(max_steps, "max_steps", 1)
    quads = [BlockQuadratic(d=d, regime=regime, seed=quad_seed) for d in dims]
    spec = PerturbationSpec(distribution=distribution, epsilon=epsilon, base_seed=seed)
    runs = []
    for quad in quads:
        x0 = keyed_generator(seed, 0xF162, quad.d).standard_normal(quad.d)
        x0 *= x0_norm / np.linalg.norm(x0)
        runs += [(quad, _study_method(opt, eta, spec, q, quad.d, beta1, beta2, zeta), x0)
                 for opt in optimizers]
    # A diverging run overflows its squared gradient norm, and fo-adam its second
    # moment, before a finiteness check raises; that error, not numpy's warnings,
    # reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        return [_run_one(quad, method, x0, threshold, max_steps, tail)
                for quad, method, x0 in runs]


def bound_check_run(quad, optimizer, eta, q, epsilon, distribution, sigma, noise_seed,
                    x0, T, seed, beta=0.999, zeta=1.0, radius=None):
    """Run T steps and return the trajectory-average squared gradient norm
    of the noiseless objective, for comparison against a stationarity bound.
    A step that overflows its iterate or its losses reports inf and diverged."""
    T = integer(T, "T", 1)
    spec = PerturbationSpec(distribution=distribution, epsilon=epsilon, base_seed=seed)
    method = Method(optimizer, eta, spec, q, quad.d, beta=beta, zeta=zeta)
    noisy = noise_for_run(quad, sigma, noise_seed, seed)

    x = np.asarray(x0, dtype=np.float64).copy()
    total = 0.0
    max_norm = 0.0
    diverged = {"avg_grad_norm_sq": math.inf, "max_point_norm": math.inf, "diverged": True}
    for t in range(T):
        g = quad.gradient(x)
        total += float(g @ g)
        max_norm = max(max_norm, float(np.linalg.norm(x)))
        fn = noisy.objective_at(t) if noisy is not None else quad.value
        try:
            x = method.step(fn, x, t)
        except (NumericFailureError, DegenerateScaleError):
            return diverged
        if not np.all(np.isfinite(x)):
            return diverged
    out = {
        "avg_grad_norm_sq": total / T,
        "max_point_norm": max_norm,
        "diverged": False,
    }
    if radius is not None:
        out["within_radius"] = max_norm <= radius
    return out
