"""Experiment harness: runs of checked configs, deterministic trace files,
coarse-to-fine step-size sweeps that keep every step size's summary row but
only the winner's traces, and robustness summaries.

A config fully determines a run. Two runs with the same config must write
byte-identical trace CSVs, so the elapsed column is a deterministic 0.0
unless wall_clock is requested; real wall time always lands in the summary.
"""

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig, load_json
from .errors import (
    ConfigError,
    DegenerateScaleError,
    InvalidArgumentError,
    NumericFailureError,
    invalid_config,
)
from .estimators import EvalCounter, Partition
from .objectives import BlockQuadratic, LayeredChain, equal_energy_point, noise_for_run
from .optimizers import Method
from .perturb import PerturbationSpec, keyed_generator

TRACE_HEADER = "step,loss,grad_norm_sq,v_min,v_max,v_mean,fn_evals,block_forwards,elapsed_s"
COARSE_GRID = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1)
DIVERGENCE_FACTOR = 1e6

_X0_TAG = 0x0A0


def load_config(path):
    return ExperimentConfig.from_dict(load_json(path))


def make_objective(obj):
    with invalid_config("objective"):
        if obj["kind"] == "quadratic":
            return BlockQuadratic(d=obj["d"], regime=obj["regime"], seed=obj["seed"])
        return LayeredChain(p=obj["p"], widths=obj["widths"], seed=obj["seed"])


def resolve_partition(partition, objective):
    """Turn the config partition field into a Partition over the objective."""
    if partition is None:
        return None
    d = objective.d
    if isinstance(partition, str):
        p = int(partition.split(":", 1)[1])
        if p != objective.p:
            raise ConfigError(
                f"partition 'layers:{p}' does not match the chain's {objective.p} blocks"
            )
        return Partition.from_ranges(d, list(objective.slices))
    with invalid_config("partition"):
        return Partition.from_ranges(d, partition)


def make_x0(x0, objective, seed):
    if x0["mode"] == "equal_energy":
        return equal_energy_point(objective, x0["f0"], seed)
    v = keyed_generator(seed, _X0_TAG).standard_normal(objective.d)
    if "norm" in x0:
        v *= x0["norm"] / np.linalg.norm(v)
    else:
        v *= x0["scale"]
    return v


def chain_as_objective(chain, counter=None):
    """Full-evaluation view of a chain that books p block forwards per call."""

    def f(x):
        loss, _, forwarded = chain.forward(x)
        if counter is not None:
            counter.add_block(forwarded)
        return loss

    return f


@dataclass
class Trace:
    seed: int
    eta: float
    steps: list
    losses: list
    grad_norm_sq: list
    v_min: list
    v_max: list
    v_mean: list
    fn_evals: list
    block_forwards: list
    elapsed: list
    sigmas: list
    diverged: bool
    initial_loss: float
    final_loss: float
    best_loss: float
    steps_to_threshold: object
    wall_time: float


def _vhat_stats(state):
    vhat = getattr(state, "vhat", None)
    if vhat is None or state.t == 0:
        return 0.0, 0.0, 0.0
    # The same bits as vhat.min(), .max() and .mean(), without their wrappers.
    return (float(np.minimum.reduce(vhat)), float(np.maximum.reduce(vhat)),
            float(np.add.reduce(vhat) / vhat.size))


def _run_seed(cfg, base, partition, seed):
    spec = PerturbationSpec(
        distribution=cfg.distribution, epsilon=cfg.epsilon, base_seed=seed
    )
    counter = EvalCounter()
    opt = dict(cfg.optimizer)
    if "eta" not in opt:
        raise ConfigError("optimizer.eta is required to run")
    chain = base if cfg.grouped_eval == "efficient" else None
    with invalid_config("optimizer"):
        method = Method(opt.pop("name"), spec=spec, q=cfg.q, d=base.d, partition=partition,
                        chain=chain, **opt)
    state = method.state
    obj = cfg.objective
    noisy = noise_for_run(base, obj.get("sigma", 0.0), obj.get("noise_seed", 0), seed)

    if cfg.objective["kind"] == "chain":
        counted = chain_as_objective(base, counter)
    else:
        counted = base.value
    grad = getattr(base, "gradient", None)

    x = make_x0(cfg.x0, base, seed)
    initial_loss = float(base.value(x))
    sentinel = DIVERGENCE_FACTOR * max(initial_loss, 1e-300)

    rows = []  # one (step, loss, grad_norm_sq, v_min, v_max, v_mean, fn, blk, elapsed) per record
    sigmas = []
    diverged = False
    steps_to_threshold = None
    best_loss = initial_loss
    started = time.perf_counter()
    wall_clock, eval_every, keeps_sigma = cfg.wall_clock, cfg.eval_every, hasattr(state, "sigma")

    def record(t, loss, x_at):
        g = grad(x_at) if grad is not None else None
        rows.append((t, loss, float(g @ g) if g is not None else 0.0, *_vhat_stats(state),
                     counter.full_forward_calls, counter.block_forward_calls,
                     time.perf_counter() - started if wall_clock else 0.0))

    # The one check of a run's noiseless loss: x_0 .. x_T each pass it once,
    # and a run ends here at step T, at its threshold stop or diverged.
    t, loss = 0, initial_loss
    while True:
        if not math.isfinite(loss) or loss > sentinel:
            diverged = True
            break
        best_loss = min(best_loss, loss)
        reached = steps_to_threshold is None and loss <= cfg.threshold
        if reached:
            steps_to_threshold = t
        if t == cfg.T or (reached and cfg.stop_at_threshold):
            record(t, loss, x)
            break
        fn = noisy.objective_at(t) if noisy is not None else counted
        try:
            x_next = method.step(fn, x, t, counter)
        except (NumericFailureError, DegenerateScaleError):
            diverged = True
            break
        except InvalidArgumentError as exc:  # e.g. q directions numpy cannot allocate
            raise ConfigError(f"invalid run: {exc}") from exc
        if keeps_sigma:
            sigmas.append(state.sigma)
        if t % eval_every == 0:
            record(t, loss, x)  # after the step: rows hold its counts and v-hat
        x, t = x_next, t + 1
        loss = float(base.value(x))

    final_loss = math.inf if diverged else loss
    # The record columns, in the order of Trace's fields from steps to elapsed.
    cols = [list(col) for col in zip(*rows)] if rows else [[] for _ in range(9)]
    return Trace(seed, state.eta, *cols, sigmas=sigmas, diverged=diverged,
                 initial_loss=initial_loss, final_loss=final_loss, best_loss=best_loss,
                 steps_to_threshold=steps_to_threshold, wall_time=time.perf_counter() - started)


def run(config):
    """Run every seed of the config; returns one Trace per seed."""
    base = make_objective(config.objective)
    partition = resolve_partition(config.partition, base)
    return [_run_seed(config, base, partition, seed) for seed in config.seeds]


def write_csv(path, header, columns):
    """columns, equal-length lists of Python ints and floats, as CSV rows under header;
    a value is written as its str, for a float its repr, which reads back as the same float."""
    lines = [header, *(",".join(map(str, row)) for row in zip(*columns))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(trace, path):
    write_csv(path, TRACE_HEADER, (trace.steps, trace.losses, trace.grad_norm_sq, trace.v_min,
                                   trace.v_max, trace.v_mean, trace.fn_evals,
                                   trace.block_forwards, trace.elapsed))


def trace_summary(trace):
    out = {
        "seed": trace.seed,
        "eta": trace.eta,
        "diverged": trace.diverged,
        "initial_loss": trace.initial_loss,
        "final_loss": trace.final_loss,
        "best_loss": trace.best_loss,
        "steps_to_threshold": trace.steps_to_threshold,
        "fn_evals": trace.fn_evals[-1] if trace.fn_evals else 0,
        "block_forwards": trace.block_forwards[-1] if trace.block_forwards else 0,
        "wall_time_s": trace.wall_time,
    }
    if trace.sigmas:
        out["mean_sigma"] = float(np.mean(trace.sigmas))
    return out


def write_json(payload, path):
    """payload as indented JSON at path; values JSON cannot hold are written as str()."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")


def write_summary(traces, path):
    payload = {"runs": [trace_summary(tr) for tr in traces]}
    write_json(payload, path)
    return payload


def _seed_metric(trace, metric):
    """The sentinel if the run diverged, else its final or best loss, which
    the run's loss check keeps finite and at most the sentinel."""
    if trace.diverged:
        return DIVERGENCE_FACTOR * max(trace.initial_loss, 1e-300)
    return trace.final_loss if metric == "final" else trace.best_loss


def _pow10(m, k):
    return float(f"{m}e{k}")


def _virtual_neighbors(eta):
    """Extend the 1-5 ladder one notch past a grid edge."""
    k = math.floor(math.log10(eta))
    m = eta / _pow10(1, k)
    if abs(m - 1.0) < 1e-9:
        return _pow10(5, k - 1), _pow10(5, k)
    if abs(m - 5.0) < 1e-9:
        return _pow10(1, k), _pow10(1, k + 1)
    return eta / 5.0, eta * 5.0


def _mantissa_points(lo, hi):
    pts = []
    k0 = math.floor(math.log10(lo)) - 1
    k1 = math.floor(math.log10(hi)) + 1
    for k in range(k0, k1 + 1):
        for m in range(1, 10):
            v = _pow10(m, k)
            if lo < v < hi:
                pts.append(v)
    return pts


def fine_candidates(grid, winner):
    """Integer-mantissa step sizes strictly inside the bracket around the
    coarse winner; grid edges get virtual neighbors on the 1-5 ladder."""
    grid = sorted(grid)
    if winner not in grid:
        raise InvalidArgumentError(f"winner {winner} is not a grid point")
    i = grid.index(winner)
    below, above = _virtual_neighbors(winner)
    lo = grid[i - 1] if i > 0 else below
    hi = grid[i + 1] if i < len(grid) - 1 else above
    cands = sorted(set(_mantissa_points(lo, winner) + _mantissa_points(winner, hi)))
    return cands, (lo, hi)


@dataclass
class SweepResult:
    rows: list
    best_eta: float
    bracket: tuple
    all_diverged: bool
    metric: str
    best_traces: list  # the winner's runs, one per seed


def _evaluate_eta(config, eta):
    cfg = replace(config, optimizer={**config.optimizer, "eta": eta})
    traces = run(cfg)
    vals = [_seed_metric(tr, config.metric) for tr in traces]
    row = {
        "eta": eta,
        "mean_metric": float(np.mean(vals)),
        "std_metric": float(np.std(vals)),
        "mean_best": float(np.mean([_seed_metric(tr, "best") for tr in traces])),
        "mean_final": float(np.mean([_seed_metric(tr, "final") for tr in traces])),
        "n_diverged": sum(tr.diverged for tr in traces),
    }
    return row, traces


def coarse_fine_sweep(config):
    """Two-stage step-size search; the winner minimizes the mean metric over
    every evaluated step size, ties to the smaller one. Only the running
    winner's traces are kept, so a sweep holds at most two step sizes' runs
    at once. When every coarse run diverges there is no fine stage and the
    bracket is the whole grid."""
    grid = sorted(config.coarse_grid or COARSE_GRID)
    rows = []
    best = None  # (mean metric, eta, traces) of the winner so far

    def evaluate(etas):
        nonlocal best
        for eta in etas:
            row, traces = _evaluate_eta(config, eta)
            rows.append(row)
            if best is None or (row["mean_metric"], eta) < best[:2]:
                best = (row["mean_metric"], eta, traces)
            del traces  # a loser's runs go before the next step size runs

    evaluate(grid)
    all_diverged = all(row["n_diverged"] == len(config.seeds) for row in rows)
    bracket = (grid[0], grid[-1])
    if not all_diverged:
        cands, bracket = fine_candidates(grid, best[1])
        evaluate(cands)
    return SweepResult(
        rows=sorted(rows, key=lambda r: r["eta"]),
        best_eta=best[1],
        bracket=bracket,
        all_diverged=all_diverged,
        metric=config.metric,
        best_traces=best[2],
    )


def robustness_curve(sweep):
    """Per-step-size means relative to the sweep winner."""
    if sweep.all_diverged:
        raise InvalidArgumentError("every run diverged; no robustness curve exists")
    out = []
    for row in sorted(sweep.rows, key=lambda r: r["eta"]):
        out.append(
            {
                "eta": row["eta"],
                "eta_ratio": row["eta"] / sweep.best_eta,
                "best": row["mean_best"],
                "final": row["mean_final"],
            }
        )
    return out


def robust_log_width(sweep, factor=10.0):
    """Width in decades of the contiguous step-size span around the winner
    whose mean metric stays within `factor` of the winner's."""
    if sweep.all_diverged:
        raise InvalidArgumentError("every run diverged; no robustness width exists")
    rows = sorted(sweep.rows, key=lambda r: r["eta"])
    etas = [row["eta"] for row in rows]
    i = etas.index(sweep.best_eta)
    cutoff = factor * rows[i]["mean_metric"]
    lo = i
    while lo > 0 and rows[lo - 1]["mean_metric"] <= cutoff:
        lo -= 1
    hi = i
    while hi < len(rows) - 1 and rows[hi + 1]["mean_metric"] <= cutoff:
        hi += 1
    return {
        "lo_eta": etas[lo],
        "hi_eta": etas[hi],
        "log10_width": math.log10(etas[hi] / etas[lo]),
    }


def transfer_step_size(trace):
    """Loss-scale-normalized step size of a run that tracked sigma_t."""
    if not trace.sigmas:
        raise InvalidArgumentError("trace has no sigma_t record")
    return trace.eta / float(np.mean(trace.sigmas))
