"""Experiment harness: validated configs, deterministic trace files, and
coarse-to-fine step-size sweeps with robustness summaries.

A config fully determines a run. Two runs with the same config must write
byte-identical trace CSVs, so the elapsed column is a deterministic 0.0
unless wall_clock is requested; real wall time always lands in the summary.
"""

import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateScaleError,
    InvalidArgumentError,
    NumericFailureError,
)
from .estimators import (
    EvalCounter,
    Partition,
    efficient_grouped_eval,
    grouped_zo_gradient,
    zo_gradient,
)
from .objectives import BlockQuadratic, LayeredChain, equal_energy_point, sample_noisy
from .optimizers import (
    AdamState,
    FzooState,
    GroupedMeazoState,
    MeazoState,
    fzoo_step,
    grouped_meazo_step,
    meazo_step,
    radazo_step,
    zo_adam_step,
    zo_sgd_step,
)
from .perturb import DISTRIBUTIONS, PerturbationSpec, keyed_generator, replay_directions

TRACE_HEADER = "step,loss,grad_norm_sq,v_min,v_max,v_mean,fn_evals,block_forwards,elapsed_s"
COARSE_GRID = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1)
DIVERGENCE_FACTOR = 1e6
OPTIMIZER_NAMES = ("zo-sgd", "zo-adam", "radazo", "meazo", "meazo-grouped", "fzoo")

_X0_TAG = 0x0A0

_TOP_KEYS = {
    "objective", "optimizer", "T", "q", "epsilon", "distribution", "partition",
    "seeds", "eval_every", "threshold", "stop_at_threshold", "x0", "wall_clock",
    "grouped_eval", "metric", "coarse_grid",
}
_QUAD_KEYS = {"kind", "d", "regime", "seed", "sigma", "noise_seed"}
_CHAIN_KEYS = {"kind", "p", "widths", "seed"}
_OPT_KEYS = {
    "zo-sgd": {"name", "eta"},
    "zo-adam": {"name", "eta", "beta1", "beta2", "zeta"},
    "radazo": {"name", "eta", "beta1", "beta2", "zeta"},
    "meazo": {"name", "eta", "beta", "zeta"},
    "meazo-grouped": {"name", "eta", "beta", "zeta"},
    "fzoo": {"name", "eta"},
}
_X0_KEYS = {"mode", "scale", "norm", "f0"}


def _check_keys(d, allowed, where):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _coerce(value, kind, name):
    """A JSON value as kind (int, float or bool), or ConfigError.

    Strings and booleans are never read as numbers, numbers never as
    booleans, and an int field takes a float only when it is integral.
    """
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if kind is float:
        return float(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _seed(value, name):
    seed = _coerce(value, int, name)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name} must be in [0, 2**64), got {seed}")
    return seed


@dataclass
class ExperimentConfig:
    objective: dict
    optimizer: dict
    T: int
    q: int = 1
    epsilon: float = 1e-6
    distribution: str = "gaussian"
    partition: object = None
    seeds: tuple = (0,)
    eval_every: int = 1
    threshold: float = 1e-3
    stop_at_threshold: bool = False
    x0: dict = field(default_factory=lambda: {"mode": "gaussian", "scale": 0.1})
    wall_clock: bool = False
    grouped_eval: str = "naive"
    metric: str = "final"
    coarse_grid: tuple = None

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a mapping")
        _check_keys(raw, _TOP_KEYS, "config")
        for key in ("objective", "optimizer", "T"):
            if key not in raw:
                raise ConfigError(f"config requires {key!r}")

        obj = dict(raw["objective"])
        kind = obj.get("kind")
        if kind == "quadratic":
            _check_keys(obj, _QUAD_KEYS, "objective")
            if "d" not in obj:
                raise ConfigError("quadratic objective requires d")
            obj.setdefault("regime", "heterogeneous")
            obj["d"] = _coerce(obj["d"], int, "objective.d")
            obj["seed"] = _seed(obj.get("seed", 0), "objective.seed")
            obj["sigma"] = _coerce(obj.get("sigma", 0.0), float, "objective.sigma")
            obj["noise_seed"] = _seed(obj.get("noise_seed", 0), "objective.noise_seed")
            if obj["sigma"] < 0:
                raise ConfigError(f"sigma must be >= 0, got {obj['sigma']}")
        elif kind == "chain":
            _check_keys(obj, _CHAIN_KEYS, "objective")
            for key in ("p", "widths"):
                if key not in obj:
                    raise ConfigError(f"chain objective requires {key!r}")
            obj["p"] = _coerce(obj["p"], int, "objective.p")
            widths = obj["widths"]
            if isinstance(widths, list):
                obj["widths"] = [_coerce(w, int, "objective.widths entry") for w in widths]
            else:
                obj["widths"] = _coerce(widths, int, "objective.widths")
            obj["seed"] = _seed(obj.get("seed", 0), "objective.seed")
        else:
            raise ConfigError(f"objective.kind must be 'quadratic' or 'chain', got {kind!r}")

        opt = dict(raw["optimizer"])
        name = opt.get("name")
        if name not in OPTIMIZER_NAMES:
            raise ConfigError(f"optimizer.name must be one of {OPTIMIZER_NAMES}, got {name!r}")
        _check_keys(opt, _OPT_KEYS[name], "optimizer")

        seeds = raw.get("seeds", 1)
        if isinstance(seeds, (list, tuple)):
            seeds = tuple(_seed(s, "seeds entry") for s in seeds)
            if not seeds:
                raise ConfigError("seeds list must be non-empty")
        else:
            seeds = _coerce(seeds, int, "seeds")
            if seeds < 1:
                raise ConfigError(f"seeds must be >= 1, got {seeds}")
            seeds = tuple(range(seeds))

        x0 = dict(raw.get("x0", {"mode": "gaussian", "scale": 0.1}))
        _check_keys(x0, _X0_KEYS, "x0")
        mode = x0.get("mode", "gaussian")
        if mode == "gaussian":
            x0.setdefault("mode", "gaussian")
            x0.setdefault("scale", 0.1)
        elif mode == "equal_energy":
            if "f0" not in x0:
                raise ConfigError("equal_energy x0 requires f0")
            if kind != "quadratic":
                raise ConfigError("equal_energy x0 requires a quadratic objective")
        else:
            raise ConfigError(f"x0.mode must be 'gaussian' or 'equal_energy', got {mode!r}")
        for key in ("scale", "norm", "f0"):
            if key in x0:
                x0[key] = _coerce(x0[key], float, f"x0.{key}")

        grid = raw.get("coarse_grid")
        if grid:
            if not isinstance(grid, (list, tuple)):
                raise ConfigError(f"coarse_grid must be a list of step sizes, got {grid!r}")
            grid = tuple(_coerce(g, float, "coarse_grid entry") for g in grid)

        cfg = cls(
            objective=obj,
            optimizer=opt,
            T=_coerce(raw["T"], int, "T"),
            q=_coerce(raw.get("q", 1), int, "q"),
            epsilon=_coerce(raw.get("epsilon", 1e-6), float, "epsilon"),
            distribution=raw.get("distribution", "gaussian"),
            partition=raw.get("partition"),
            seeds=seeds,
            eval_every=_coerce(raw.get("eval_every", 1), int, "eval_every"),
            threshold=_coerce(raw.get("threshold", 1e-3), float, "threshold"),
            stop_at_threshold=_coerce(raw.get("stop_at_threshold", False), bool, "stop_at_threshold"),
            x0=x0,
            wall_clock=_coerce(raw.get("wall_clock", False), bool, "wall_clock"),
            grouped_eval=raw.get("grouped_eval", "naive"),
            metric=raw.get("metric", "final"),
            coarse_grid=grid or None,
        )
        cfg.validate()
        return cfg

    def validate(self):
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if self.q < 1:
            raise ConfigError(f"q must be >= 1, got {self.q}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(
                f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}"
            )
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if not self.threshold > 0:
            raise ConfigError(f"threshold must be > 0, got {self.threshold}")
        if self.metric not in ("final", "best"):
            raise ConfigError(f"metric must be 'final' or 'best', got {self.metric!r}")
        if self.grouped_eval not in ("naive", "efficient"):
            raise ConfigError(
                f"grouped_eval must be 'naive' or 'efficient', got {self.grouped_eval!r}"
            )
        name = self.optimizer["name"]
        if name == "meazo-grouped" and self.partition is None:
            raise ConfigError("meazo-grouped requires a partition")
        if name == "fzoo":
            if self.partition is not None:
                raise ConfigError("fzoo does not support a partition")
            if self.q < 2:
                raise ConfigError(f"fzoo requires q >= 2, got {self.q}")
        if self.grouped_eval == "efficient":
            if self.objective["kind"] != "chain":
                raise ConfigError("efficient grouped evaluation requires a chain objective")
            if not (isinstance(self.partition, str) and self.partition.startswith("layers:")):
                raise ConfigError("efficient grouped evaluation requires partition 'layers:p'")
        if self.partition is not None:
            if isinstance(self.partition, str):
                prefix, _, p = self.partition.partition(":")
                if prefix != "layers" or not p.isdecimal():
                    raise ConfigError(
                        f"string partition must look like 'layers:p', got {self.partition!r}"
                    )
                if self.objective["kind"] != "chain":
                    raise ConfigError("'layers:p' partition requires a chain objective")
            elif not isinstance(self.partition, (list, tuple)):
                raise ConfigError("partition must be None, 'layers:p', or a list of ranges")
        if self.coarse_grid is not None:
            if len(self.coarse_grid) < 2:
                raise ConfigError("coarse_grid needs at least two step sizes")
            if any(not g > 0 for g in self.coarse_grid):
                raise ConfigError("coarse_grid entries must be > 0")


def load_config(path):
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def make_objective(obj):
    try:
        if obj["kind"] == "quadratic":
            return BlockQuadratic(d=obj["d"], regime=obj["regime"], seed=obj["seed"])
        return LayeredChain(p=obj["p"], widths=obj["widths"], seed=obj["seed"])
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid objective: {exc}") from exc


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
    try:
        return Partition.from_ranges(d, [(int(a), int(b)) for a, b in partition])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid partition: {exc}") from exc


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


def _vhat_stats(state, name):
    if name in ("zo-adam", "radazo"):
        if state.t == 0:
            return 0.0, 0.0, 0.0
        vhat = state.v / (1.0 - state.beta2**state.t)
        return float(vhat.min()), float(vhat.max()), float(vhat.mean())
    if name == "meazo":
        if state.t == 0:
            return 0.0, 0.0, 0.0
        vhat = state.v / (1.0 - state.beta**state.t)
        return float(vhat), float(vhat), float(vhat)
    if name == "meazo-grouped":
        if state.t == 0:
            return 0.0, 0.0, 0.0
        vhat = state.v / (1.0 - state.beta**state.t)
        return float(vhat.min()), float(vhat.max()), float(vhat.mean())
    return 0.0, 0.0, 0.0


def _make_state(cfg, spec, d, p):
    opt = cfg.optimizer
    name = opt["name"]
    if "eta" not in opt:
        raise ConfigError("optimizer.eta is required to run")
    eta = _coerce(opt["eta"], float, "optimizer.eta")

    def real(key, default):
        return _coerce(opt.get(key, default), float, f"optimizer.{key}")

    if name == "zo-sgd":
        if not eta > 0:
            raise ConfigError(f"eta must be > 0, got {eta}")
        return None, eta
    try:
        if name in ("zo-adam", "radazo"):
            state = AdamState(
                dim=d,
                eta=eta,
                beta1=real("beta1", 0.9),
                beta2=real("beta2", 0.999),
                zeta=real("zeta", 1e-8),
            )
        elif name == "meazo":
            state = MeazoState(eta=eta, beta=real("beta", 0.999), zeta=real("zeta", 1e-8))
        elif name == "meazo-grouped":
            state = GroupedMeazoState(
                p=p, eta=eta, beta=real("beta", 0.999), zeta=real("zeta", 1e-8)
            )
        else:
            state = FzooState(eta=eta, spec=spec, q=cfg.q)
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid optimizer: {exc}") from exc
    return state, eta


def _run_seed(cfg, base, partition, seed):
    name = cfg.optimizer["name"]
    d = base.d
    kind = cfg.objective["kind"]
    spec = PerturbationSpec(
        distribution=cfg.distribution, epsilon=cfg.epsilon, base_seed=seed
    )
    counter = EvalCounter()
    state, eta = _make_state(cfg, spec, d, partition.p if partition is not None else 1)

    sigma_noise = cfg.objective.get("sigma", 0.0) if kind == "quadratic" else 0.0
    noisy = None
    if sigma_noise > 0:
        xi_seed = int(
            np.random.SeedSequence(
                entropy=(cfg.objective["noise_seed"], seed)
            ).generate_state(1)[0]
        )
        noisy = sample_noisy(base, sigma_noise, xi_seed)

    if kind == "chain":
        counted = chain_as_objective(base, counter)
    else:
        counted = base.value
    grad = getattr(base, "gradient", None)

    x = make_x0(cfg.x0, base, seed)
    initial_loss = float(base.value(x))
    sentinel = DIVERGENCE_FACTOR * max(initial_loss, 1e-300)

    cols = {k: [] for k in ("steps", "losses", "gns", "vmin", "vmax", "vmean",
                            "fn", "blk", "el")}
    sigmas = []
    diverged = False
    steps_to_threshold = None
    best_loss = initial_loss
    started = time.perf_counter()

    def record(t, loss, x_at):
        g = grad(x_at) if grad is not None else None
        gns = float(g @ g) if g is not None else 0.0
        vmin, vmax, vmean = _vhat_stats(state, name)
        cols["steps"].append(t)
        cols["losses"].append(loss)
        cols["gns"].append(gns)
        cols["vmin"].append(vmin)
        cols["vmax"].append(vmax)
        cols["vmean"].append(vmean)
        cols["fn"].append(counter.full_forward_calls)
        cols["blk"].append(counter.block_forward_calls)
        cols["el"].append(time.perf_counter() - started if cfg.wall_clock else 0.0)

    t = 0
    loss = initial_loss
    stopped_early = False
    while t < cfg.T:
        loss = float(base.value(x))
        if not math.isfinite(loss) or loss > sentinel:
            diverged = True
            break
        best_loss = min(best_loss, loss)
        if steps_to_threshold is None and loss <= cfg.threshold:
            steps_to_threshold = t
            if cfg.stop_at_threshold:
                record(t, loss, x)
                stopped_early = True
                break
        x_before = x
        fn = noisy.objective_at(t) if noisy is not None else counted
        try:
            if name == "zo-sgd":
                if partition is None:
                    est, _ = zo_gradient(fn, x, spec, cfg.q, t, counter)
                elif cfg.grouped_eval == "efficient":
                    est, _, _ = efficient_grouped_eval(base, x, spec, cfg.q, t, counter)
                else:
                    est, _ = grouped_zo_gradient(fn, x, spec, cfg.q, partition, t, counter)
                x = zo_sgd_step(x, est, eta)
            elif name in ("zo-adam", "radazo"):
                if partition is None:
                    est, _ = zo_gradient(fn, x, spec, cfg.q, t, counter)
                elif cfg.grouped_eval == "efficient":
                    est, _, _ = efficient_grouped_eval(base, x, spec, cfg.q, t, counter)
                else:
                    est, _ = grouped_zo_gradient(fn, x, spec, cfg.q, partition, t, counter)
                step_fn = zo_adam_step if name == "zo-adam" else radazo_step
                x = step_fn(state, x, est)
            elif name == "meazo":
                _, scalars = zo_gradient(fn, x, spec, cfg.q, t, counter)
                x = meazo_step(state, x, scalars, replay_directions(spec, t, cfg.q, d))
            elif name == "meazo-grouped":
                if cfg.grouped_eval == "efficient":
                    _, scalars, _ = efficient_grouped_eval(base, x, spec, cfg.q, t, counter)
                else:
                    _, scalars = grouped_zo_gradient(fn, x, spec, cfg.q, partition, t, counter)
                x = grouped_meazo_step(
                    state, x, scalars, partition, replay_directions(spec, t, cfg.q, d)
                )
            else:
                x, sig = fzoo_step(fn, x, state, t, counter)
                sigmas.append(sig)
        except (NumericFailureError, DegenerateScaleError):
            diverged = True
            break
        if t % cfg.eval_every == 0:
            record(t, loss, x_before)
        t += 1

    if diverged:
        final_loss = math.inf
    elif stopped_early:
        final_loss = loss
    else:
        final_loss = float(base.value(x))
        best_loss = min(best_loss, final_loss)
        record(cfg.T, final_loss, x)
        if steps_to_threshold is None and final_loss <= cfg.threshold:
            steps_to_threshold = cfg.T

    return Trace(
        seed=seed,
        eta=eta,
        steps=cols["steps"],
        losses=cols["losses"],
        grad_norm_sq=cols["gns"],
        v_min=cols["vmin"],
        v_max=cols["vmax"],
        v_mean=cols["vmean"],
        fn_evals=cols["fn"],
        block_forwards=cols["blk"],
        elapsed=cols["el"],
        sigmas=sigmas,
        diverged=diverged,
        initial_loss=initial_loss,
        final_loss=final_loss,
        best_loss=best_loss,
        steps_to_threshold=steps_to_threshold,
        wall_time=time.perf_counter() - started,
    )


def run(config):
    """Run every seed of the config; returns one Trace per seed."""
    base = make_objective(config.objective)
    partition = resolve_partition(config.partition, base)
    return [_run_seed(config, base, partition, seed) for seed in config.seeds]


def write_trace_csv(trace, path):
    lines = [TRACE_HEADER]
    for i in range(len(trace.steps)):
        lines.append(
            ",".join(
                [
                    str(trace.steps[i]),
                    repr(trace.losses[i]),
                    repr(trace.grad_norm_sq[i]),
                    repr(trace.v_min[i]),
                    repr(trace.v_max[i]),
                    repr(trace.v_mean[i]),
                    str(trace.fn_evals[i]),
                    str(trace.block_forwards[i]),
                    repr(trace.elapsed[i]),
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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


def write_summary(traces, path):
    payload = {"runs": [trace_summary(tr) for tr in traces]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")
    return payload


def _seed_metric(trace, metric):
    sentinel = DIVERGENCE_FACTOR * max(trace.initial_loss, 1e-300)
    val = trace.final_loss if metric == "final" else trace.best_loss
    if trace.diverged or not math.isfinite(val):
        return sentinel
    return min(val, sentinel)


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
    traces_by_eta: dict


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


def _argmin_eta(rows):
    best = None
    for row in sorted(rows, key=lambda r: r["eta"]):
        if best is None or row["mean_metric"] < best["mean_metric"]:
            best = row
    return best["eta"]


def coarse_fine_sweep(config):
    """Two-stage step-size search; the final winner minimizes the mean
    metric over every evaluated step size, ties to the smaller one."""
    grid = sorted(config.coarse_grid or COARSE_GRID)
    rows = []
    traces_by_eta = {}
    for eta in grid:
        row, traces = _evaluate_eta(config, eta)
        rows.append(row)
        traces_by_eta[eta] = traces

    n_seeds = len(config.seeds)
    if all(row["n_diverged"] == n_seeds for row in rows):
        return SweepResult(
            rows=rows,
            best_eta=_argmin_eta(rows),
            bracket=(grid[0], grid[-1]),
            all_diverged=True,
            metric=config.metric,
            traces_by_eta=traces_by_eta,
        )

    coarse_winner = _argmin_eta(rows)
    cands, bracket = fine_candidates(grid, coarse_winner)
    for eta in cands:
        if eta in traces_by_eta:
            continue
        row, traces = _evaluate_eta(config, eta)
        rows.append(row)
        traces_by_eta[eta] = traces

    best_eta = _argmin_eta(rows)
    all_diverged = all(row["n_diverged"] == n_seeds for row in rows)
    return SweepResult(
        rows=sorted(rows, key=lambda r: r["eta"]),
        best_eta=best_eta,
        bracket=bracket,
        all_diverged=all_diverged,
        metric=config.metric,
        traces_by_eta=traces_by_eta,
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
