"""Config files: how every subcommand's JSON is read and checked.

A config object is read through a field table that maps each key to
(kind, default): read_fields reads every value as its kind, within the
kind's domain, fills in defaults and rejects unknown keys. ExperimentConfig
is the checked config of run, sweep and robustness; load_moment_cases,
load_bounds with bound_sections, and load_fig2 read the other three
subcommands' files. Each hyper-parameter's kind is written once, in
_HYPER_KINDS, and every table that takes one reads it there; the rules on
which methods take a partition and how many samples fzoo needs are
optimizers.Method.setup_error's.
"""

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .analysis import checked_moment_prediction
from .errors import ConfigError, invalid_config
from .objectives import REGIMES
from .optimizers import Method
from .perturb import DISTRIBUTIONS

REQUIRED = object()  # field default: the key must be present
OMIT = object()  # field default: an absent key is left out of what is read
# Field kinds with a domain, beside int and float: kind -> (int or float, test, domain).
SEED, COUNT, POSITIVE, NONNEG = "seed", "count", "positive", "nonneg"
DECAY, DECAY0 = "decay", "decay0"  # an EMA decay rate; DECAY0 also takes 0 (no memory)
NONEMPTY = "nonempty"  # [kind, NONEMPTY]: a list of kind with at least one entry
_DOMAINS = {
    SEED: (int, lambda v: 0 <= v < 2**64, "in [0, 2**64)"), COUNT: (int, lambda v: v >= 1, ">= 1"),
    POSITIVE: (float, lambda v: v > 0, "> 0"), NONNEG: (float, lambda v: v >= 0, ">= 0"),
    DECAY: (float, lambda v: 0 < v < 1, "in (0, 1)"),
    DECAY0: (float, lambda v: 0 <= v < 1, "in [0, 1)"),
}
MAX_SEEDS = 100_000  # the largest integer seeds count; a longer run needs a seed list


def _read(value, kind, name):
    """A JSON value read as kind (see read_fields), or ConfigError.

    Strings and booleans are never read as numbers, numbers never as
    booleans; a number must be finite (an integer past the float range is
    not), and an int field takes a float only when it is integral.
    """
    if kind is object:
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{name} must be one of {kind}, got {value!r}")
        return value
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        if NONEMPTY in kind[1:] and not value:
            raise ConfigError(f"{name} must list at least one entry")
        return [_read(v, kind[0], f"{name} entry") for v in value]
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    base, test, domain = _DOMAINS.get(kind, (kind, None, None))
    try:
        real = float(value)
    except OverflowError:  # an integer past the float range
        real = math.inf
    if not math.isfinite(real):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if base is int and not (isinstance(value, numbers.Integral) or real.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    value = real if base is float else int(value)
    if test is not None and not test(value):
        raise ConfigError(f"{name} must be {domain}, got {value}")
    return value


def read_fields(raw, fields, where):
    """The fields of a config object, each read as its kind, or ConfigError.

    fields maps each key to (kind, default). A kind is int, float, bool,
    SEED, COUNT, POSITIVE, NONNEG, DECAY, DECAY0, a tuple of allowed values,
    object (any value), [kind] (a list of that kind) or [kind, NONEMPTY]
    (such a list with at least one entry). An absent key takes its default:
    REQUIRED makes it an error and OMIT leaves it out. Keys not in fields are an error. where
    names raw in messages.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    out = {}
    for key, (kind, default) in fields.items():
        if key in raw:
            out[key] = _read(raw[key], kind, f"{where}.{key}")
        elif default is REQUIRED:
            raise ConfigError(f"{where} requires {key!r}")
        elif default is not OMIT:
            out[key] = default
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return out


def _read_tagged(raw, tag, tables, where):
    """read_fields with the field table that raw[tag], one of tables' keys, names."""
    name = raw.get(tag) if isinstance(raw, dict) else None
    fields = tables.get(name, {}) if isinstance(name, str) else {}
    return read_fields(raw, {tag: (tuple(tables), REQUIRED), **fields}, where)


def _int_or_list(value, kind, name):
    """value read as a list of kind if it is a list, else as an int."""
    return _read(value, [kind] if isinstance(value, (list, tuple)) else int, name)


def load_json(path):
    """A JSON config file's contents, or ConfigError: also for a path that is
    a directory or cannot be read, bytes that are not text, and JSON nested
    past the interpreter's recursion limit."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


_HYPER_KINDS = {"eta": POSITIVE, "zeta": POSITIVE, "beta": DECAY, "beta1": DECAY0, "beta2": DECAY}


def _hyper(**defaults):
    """Fields of the named hyper-parameters, each of its _HYPER_KINDS kind, in order."""
    return {key: (_HYPER_KINDS[key], default) for key, default in defaults.items()}


# --- run, sweep and robustness -----------------------------------------------

_CONFIG_FIELDS = {
    "objective": (object, REQUIRED),
    "optimizer": (object, REQUIRED),
    "T": (COUNT, REQUIRED),
    "q": (COUNT, 1),
    "epsilon": (POSITIVE, 1e-6),
    "distribution": (DISTRIBUTIONS, "gaussian"),
    "partition": (object, None),
    "seeds": (object, 1),
    "eval_every": (COUNT, 1),
    "threshold": (POSITIVE, 1e-3),
    "stop_at_threshold": (bool, False),
    "x0": (object, {}),
    "wall_clock": (bool, False),
    "grouped_eval": (("naive", "efficient"), "naive"),
    "metric": (("final", "best"), "final"),
    "coarse_grid": ([POSITIVE], ()),
}
_OBJECTIVE_FIELDS = {
    "quadratic": {
        "d": (int, REQUIRED), "regime": (REGIMES, "heterogeneous"), "seed": (SEED, 0),
        "sigma": (NONNEG, 0.0), "noise_seed": (SEED, 0),
    },
    "chain": {"p": (int, REQUIRED), "widths": (object, REQUIRED), "seed": (SEED, 0)},
}
# eta may be left out: a sweep searches it.
_OPTIMIZER_FIELDS = {
    name: _hyper(**dict.fromkeys(["eta", *sorted(Method.hyperparameters(name))], OMIT))
    for name in ("zo-sgd", "zo-adam", "radazo", "meazo", "meazo-grouped", "fzoo")
}
_X0_FIELDS = {
    "mode": (("gaussian", "equal_energy"), "gaussian"), "scale": (NONNEG, 0.1),
    "norm": (NONNEG, OMIT), "f0": (NONNEG, OMIT),
}


@dataclass
class ExperimentConfig:
    """A checked experiment config. Building one, directly, by
    dataclasses.replace or by from_dict, reads every field through its kind
    and the objective, optimizer and x0 sections through their tables,
    normalizes seeds, partition and coarse_grid, and applies the cross-field
    rules; a config that breaks one raises ConfigError. Re-reading a built
    config gives the same values."""

    objective: dict
    optimizer: dict
    T: int
    q: int
    epsilon: float
    distribution: str
    partition: object
    seeds: tuple
    eval_every: int
    threshold: float
    stop_at_threshold: bool
    x0: dict
    wall_clock: bool
    grouped_eval: str
    metric: str
    coarse_grid: tuple

    @classmethod
    def from_dict(cls, raw):
        """The config a JSON object describes; an absent key takes its default."""
        keys = {key: (object, default) for key, (_, default) in _CONFIG_FIELDS.items()}
        return cls(**read_fields(raw, keys, "config"))

    def __post_init__(self):
        top = read_fields(vars(self), _CONFIG_FIELDS, "config")
        obj = _read_tagged(top["objective"], "kind", _OBJECTIVE_FIELDS, "objective")
        if obj["kind"] == "chain":
            obj["widths"] = _int_or_list(obj["widths"], int, "objective.widths")

        seeds = _int_or_list(top["seeds"], SEED, "config.seeds")
        if not isinstance(seeds, list) and seeds > MAX_SEEDS:
            raise ConfigError(f"a seeds count must be <= {MAX_SEEDS}, got {seeds}")
        seeds = tuple(seeds if isinstance(seeds, list) else range(seeds))
        if not seeds:
            raise ConfigError(
                f"config.seeds must be >= 1 or a non-empty list, got {top['seeds']!r}")
        if len(set(seeds)) < len(seeds):
            raise ConfigError("config.seeds entries must be distinct")

        partition = top["partition"]
        if isinstance(partition, str):
            prefix, _, p = partition.partition(":")
            if prefix != "layers" or not p.isdecimal():
                raise ConfigError(f"string partition must look like 'layers:p', got {partition!r}")
            if obj["kind"] != "chain":
                raise ConfigError("'layers:p' partition requires a chain objective")
        elif partition is not None:
            partition = _read(partition, [[int]], "config.partition")
            if not partition:
                raise ConfigError("config.partition needs at least one [start, stop) range")
            if any(len(r) != 2 for r in partition):
                raise ConfigError(f"partition ranges must be [start, stop) pairs, got {partition}")

        x0 = read_fields(top["x0"], _X0_FIELDS, "x0")
        if x0["mode"] == "equal_energy":
            if "f0" not in x0:
                raise ConfigError("equal_energy x0 requires f0")
            if obj["kind"] != "quadratic":
                raise ConfigError("equal_energy x0 requires a quadratic objective")

        grid = tuple(top["coarse_grid"])  # () means the default grid
        if len(grid) == 1:
            raise ConfigError("coarse_grid needs at least two step sizes")
        if len(set(grid)) < len(grid):
            raise ConfigError("coarse_grid entries must be distinct")

        optimizer = _read_tagged(top["optimizer"], "name", _OPTIMIZER_FIELDS, "optimizer")
        error = Method.setup_error(optimizer["name"], top["q"], partition)
        if error is not None:
            raise ConfigError(error)
        if top["grouped_eval"] == "efficient":
            if obj["kind"] != "chain":
                raise ConfigError("efficient grouped evaluation requires a chain objective")
            if not isinstance(partition, str):
                raise ConfigError("efficient grouped evaluation requires partition 'layers:p'")
        top.update(objective=obj, optimizer=optimizer, seeds=seeds, partition=partition, x0=x0,
                   coarse_grid=grid)
        vars(self).update(top)


# --- verify-moments ----------------------------------------------------------

_MOMENT_CASE_FIELDS = {
    "g": ([float], REQUIRED), "q": (COUNT, 1), "distribution": (DISTRIBUTIONS, "gaussian"),
    "n": (COUNT, 200_000), "tol": (NONNEG, 0.05), "seed": (SEED, 0),
}


def load_moment_cases(path):
    """The moment cases of a verify-moments config file, each read through its
    table with g as a float64 array and checked to have a closed-form moment
    prediction, or ConfigError naming the first case that does not."""
    raw = read_fields(load_json(path), {"cases": ([object], REQUIRED)}, "config")["cases"]
    if not raw:
        raise ConfigError("verify-moments config requires a non-empty 'cases' list")
    cases = []
    for i, case in enumerate(raw):
        case = read_fields(case, _MOMENT_CASE_FIELDS, f"cases[{i}]")
        case["g"] = np.asarray(case["g"], dtype=np.float64)
        with invalid_config(f"moment case cases[{i}]"):
            checked_moment_prediction(case["g"], case["q"], case["distribution"])
        cases.append(case)
    return cases


# --- verify-bounds -----------------------------------------------------------

_BOUNDS_FIELDS = {
    "d": (COUNT, REQUIRED), "regime": (REGIMES, "heterogeneous"), "quad_seed": (SEED, 0),
    "q": (COUNT, 10), "epsilon": (POSITIVE, 1e-6), "distribution": (DISTRIBUTIONS, "gaussian"),
    "sigma": (NONNEG, 0.0), "noise_seed": (SEED, 0), "f0": (NONNEG, REQUIRED),
    "radius": (POSITIVE, REQUIRED), "seeds": (COUNT, 10), "meazo": (object, REQUIRED),
    "zosgd": (object, REQUIRED), "reduction": (object, REQUIRED),
}
# zo-sgd keeps no second moment, so its side takes no beta or zeta.
_ZOSGD_SIDE_FIELDS = {**_hyper(eta=REQUIRED), "T": (COUNT, REQUIRED)}
_MEAZO_SIDE_FIELDS = {**_ZOSGD_SIDE_FIELDS, **_hyper(beta=0.999, zeta=1.0)}
_REDUCTION_FIELDS = {
    "d": (COUNT, REQUIRED), "q": (POSITIVE, REQUIRED), "epsilon": (POSITIVE, REQUIRED),
    "L": (POSITIVE, REQUIRED), "sigma": (NONNEG, REQUIRED), **_hyper(eta=REQUIRED),
    "T": (COUNT, REQUIRED), "f0": (NONNEG, REQUIRED), "tol": (NONNEG, 1e-6),
}


def load_bounds(path):
    """The top-level fields of a verify-bounds config file, its meazo, zosgd
    and reduction sections unread, or ConfigError. bound_sections reads those
    once the quadratic is built, so that a non-square d is named first."""
    return read_fields(load_json(path), _BOUNDS_FIELDS, "config")


def bound_sections(cfg):
    """({"meazo": side, "zo-sgd": side}, reduction): the sections of a config
    load_bounds read, each read through its table, or ConfigError."""
    sides = {"meazo": read_fields(cfg["meazo"], _MEAZO_SIDE_FIELDS, "meazo"),
             "zo-sgd": read_fields(cfg["zosgd"], _ZOSGD_SIDE_FIELDS, "zosgd")}
    return sides, read_fields(cfg["reduction"], _REDUCTION_FIELDS, "reduction")


# --- fig2 --------------------------------------------------------------------

# Every key but series is a collapse_study argument; an absent one takes
# collapse_study's default.
_FIG2_FIELDS = {
    "dims": ([COUNT, NONEMPTY], OMIT), "optimizers": ([object, NONEMPTY], OMIT),
    **_hyper(eta=OMIT), "q": (COUNT, OMIT), "threshold": (POSITIVE, OMIT),
    **_hyper(beta1=OMIT, beta2=OMIT, zeta=OMIT),
    "epsilon": (POSITIVE, OMIT), "distribution": (DISTRIBUTIONS, OMIT),
    "x0_norm": (POSITIVE, OMIT), "seed": (SEED, OMIT), "max_steps": (COUNT, OMIT),
    "tail": (COUNT, OMIT), "regime": (REGIMES, OMIT), "quad_seed": (SEED, OMIT),
    "series": (bool, False),
}


def load_fig2(path):
    """The fields of a fig2 config file, or ConfigError; dims and optimizers
    each name every entry once."""
    study = read_fields(load_json(path), _FIG2_FIELDS, "config")
    dims = study.get("dims", ())
    if len(set(dims)) < len(dims):
        raise ConfigError("config.dims entries must be distinct")
    # An optimizers entry is any JSON value until collapse_study checks it,
    # so entries are compared with ==, not hashed.
    optimizers = study.get("optimizers", ())
    if any(name in optimizers[:i] for i, name in enumerate(optimizers)):
        raise ConfigError("config.optimizers entries must be distinct")
    return study
