"""Command-line front end.

Subcommands: run, sweep, robustness, verify-moments, verify-bounds, fig2.
Every subcommand takes --config (JSON file) and --out (directory). Exit
codes: 0 success, 2 bad config or arguments, 3 numeric failure or failed
verification, 4 sweep in which every run diverged.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, harness
from .errors import ConfigError, InvalidArgumentError, PreconditionError, ZoptimError
from .objectives import BlockQuadratic, equal_energy_point
from .perturb import DISTRIBUTIONS


_REQUIRED = object()


def _field(raw, key, kind, default=_REQUIRED, where=""):
    """raw[key] read as kind (int, float, bool or harness._seed), or ConfigError.

    Fields are checked as in the experiment config; a missing field takes
    default, or is an error when there is none.
    """
    name = f"{where}{key}"
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"config requires {name!r}")
        return default
    if kind is harness._seed:
        return harness._seed(raw[key], name)
    return harness._coerce(raw[key], kind, name)


def _numbers(value, kind, name):
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return [harness._coerce(v, kind, f"{name} entry") for v in value]


def _write_json(payload, out_dir, name):
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")
    return path


def cmd_run(args):
    config = harness.load_config(args.config)
    traces = harness.run(config)
    os.makedirs(args.out, exist_ok=True)
    for trace in traces:
        harness.write_trace_csv(trace, os.path.join(args.out, f"trace_seed{trace.seed}.csv"))
    harness.write_summary(traces, os.path.join(args.out, "summary.json"))
    if any(trace.diverged for trace in traces):
        print("numeric failure: at least one seed diverged", file=sys.stderr)
        return 3
    return 0


def _sweep(args):
    config = harness.load_config(args.config)
    sweep = harness.coarse_fine_sweep(config)
    os.makedirs(args.out, exist_ok=True)
    return config, sweep


def cmd_sweep(args):
    config, sweep = _sweep(args)
    payload = {
        "metric": sweep.metric,
        "best_eta": sweep.best_eta,
        "bracket": list(sweep.bracket),
        "all_diverged": sweep.all_diverged,
        "rows": sweep.rows,
    }
    _write_json(payload, args.out, "sweep.json")
    if sweep.all_diverged:
        print("every run diverged at every step size", file=sys.stderr)
        return 4
    for trace in sweep.traces_by_eta[sweep.best_eta]:
        harness.write_trace_csv(trace, os.path.join(args.out, f"trace_seed{trace.seed}.csv"))
    return 0


def cmd_robustness(args):
    config, sweep = _sweep(args)
    if sweep.all_diverged:
        _write_json({"all_diverged": True}, args.out, "robustness.json")
        print("every run diverged at every step size", file=sys.stderr)
        return 4
    payload = {
        "best_eta": sweep.best_eta,
        "curve": harness.robustness_curve(sweep),
        "width": harness.robust_log_width(sweep),
    }
    _write_json(payload, args.out, "robustness.json")
    return 0


def cmd_verify_moments(args):
    raw = harness._section(harness._load_json(args.config), "config")
    unknown = set(raw) - {"cases"}
    if unknown:
        raise ConfigError(f"unknown verify-moments keys: {sorted(unknown)}")
    if "cases" not in raw or not raw["cases"]:
        raise ConfigError("verify-moments config requires a non-empty 'cases' list")
    if not isinstance(raw["cases"], list):
        raise ConfigError("verify-moments 'cases' must be a list")
    results = []
    ok = True
    for case in raw["cases"]:
        harness._section(case, "moment case")
        allowed = {"g", "q", "distribution", "n", "tol", "seed"}
        unknown = set(case) - allowed
        if unknown:
            raise ConfigError(f"unknown moment-case keys: {sorted(unknown)}")
        if "g" not in case:
            raise ConfigError("each moment case requires g")
        g = _numbers(case["g"], float, "g")
        dist = case.get("distribution", "gaussian")
        if dist not in DISTRIBUTIONS:
            raise ConfigError(f"distribution must be one of {DISTRIBUTIONS}, got {dist!r}")
        q = _field(case, "q", int, 1)
        n = _field(case, "n", int, 200_000)
        seed = _field(case, "seed", harness._seed, 0)
        tol = _field(case, "tol", float, 0.05)
        try:
            report = analysis.moment_report(np.asarray(g), q, dist, n, seed=seed)
        except InvalidArgumentError as exc:
            raise ConfigError(f"invalid moment case: {exc}") from exc
        passed = report.max_rel_err <= tol
        ok = ok and passed
        results.append(
            {
                "g": g,
                "q": q,
                "distribution": dist,
                "n": report.n_trials,
                "predicted": report.predicted.tolist(),
                "empirical": report.empirical.tolist(),
                "max_rel_err": report.max_rel_err,
                "tol": tol,
                "pass": passed,
            }
        )
    os.makedirs(args.out, exist_ok=True)
    _write_json({"cases": results, "all_pass": ok}, args.out, "moments.json")
    if not ok:
        print("moment verification failed", file=sys.stderr)
        return 3
    return 0


def _bound_side(raw, quad, key, label):
    d = quad.d
    q = _field(raw, "q", int, 10)
    epsilon = _field(raw, "epsilon", float, 1e-6)
    distribution = raw.get("distribution", "gaussian")
    sigma = _field(raw, "sigma", float, 0.0)
    noise_seed = _field(raw, "noise_seed", harness._seed, 0)
    f0 = _field(raw, "f0", float)
    radius = _field(raw, "radius", float)
    n_seeds = _field(raw, "seeds", int, 10)
    G = quad.smoothness * radius
    side = harness._section(raw[key], key)
    where = f"{key}."
    eta = _field(side, "eta", float, where=where)
    T = _field(side, "T", int, where=where)
    beta = _field(side, "beta", float, 0.999, where=where)
    zeta = _field(side, "zeta", float, 1.0, where=where)
    if T < 1 or n_seeds < 1:
        raise ConfigError(f"{key}.T and seeds must be >= 1, got T={T}, seeds={n_seeds}")

    runs = []
    try:
        for seed in range(n_seeds):
            x0 = equal_energy_point(quad, f0, seed)
            runs.append(
                analysis.bound_check_run(
                    quad, label, eta, q, epsilon, distribution, sigma, noise_seed,
                    x0, T, seed, beta=beta, zeta=zeta, radius=radius,
                )
            )
        if label == "meazo":
            constants = analysis.theorem_constants(
                d, q, epsilon, quad.smoothness, sigma, G, beta, zeta,
            )
            bound = analysis.meazo_bound(constants, f0, eta, T, epsilon, quad.smoothness)
        else:
            bound = analysis.zosgd_bound(d, q, epsilon, quad.smoothness, sigma, eta, T, f0)
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid {label} bound setup: {exc}") from exc
    empirical = float(np.mean([r["avg_grad_norm_sq"] for r in runs]))
    within = all(r.get("within_radius", False) and not r["diverged"] for r in runs)
    passed = within and math.isfinite(empirical) and empirical <= bound
    return {
        "optimizer": label,
        "eta": eta,
        "T": T,
        "seeds": n_seeds,
        "bound": bound,
        "empirical_mean": empirical,
        "margin": bound / empirical if empirical > 0 else math.inf,
        "all_within_radius": within,
        "pass": passed,
    }


def cmd_verify_bounds(args):
    raw = harness._section(harness._load_json(args.config), "config")
    allowed = {
        "d", "regime", "quad_seed", "q", "epsilon", "distribution", "sigma",
        "noise_seed", "f0", "radius", "seeds", "meazo", "zosgd", "reduction",
    }
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown verify-bounds keys: {sorted(unknown)}")
    for key in ("d", "f0", "radius", "meazo", "zosgd", "reduction"):
        if key not in raw:
            raise ConfigError(f"verify-bounds config requires {key!r}")
    try:
        quad = BlockQuadratic(
            d=_field(raw, "d", int),
            regime=raw.get("regime", "heterogeneous"),
            seed=_field(raw, "quad_seed", harness._seed, 0),
        )
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid quadratic: {exc}") from exc

    sides = [
        _bound_side(raw, quad, "meazo", "meazo"),
        _bound_side(raw, quad, "zosgd", "zo-sgd"),
    ]

    red = harness._section(raw["reduction"], "reduction")
    r = {
        k: _field(red, k, kind, where="reduction.")
        for k, kind in (("d", int), ("q", float), ("epsilon", float), ("L", float),
                        ("sigma", float), ("eta", float), ("T", int), ("f0", float))
    }
    try:
        zb = analysis.zosgd_bound(
            r["d"], r["q"], r["epsilon"], r["L"], r["sigma"], r["eta"], r["T"], r["f0"]
        )
        cb = analysis.classical_sgd_bound(r["L"], r["sigma"], r["eta"], r["T"], r["f0"])
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid reduction setup: {exc}") from exc
    rel = abs(zb - cb) / cb if cb else math.inf
    red_pass = rel <= _field(red, "tol", float, 1e-6, where="reduction.")
    ok = red_pass and all(s["pass"] for s in sides)

    os.makedirs(args.out, exist_ok=True)
    _write_json(
        {
            "sides": sides,
            "reduction": {
                "two_point_bound": zb,
                "classical_bound": cb,
                "rel_err": rel,
                "pass": red_pass,
            },
            "all_pass": ok,
        },
        args.out,
        "bounds.json",
    )
    if not ok:
        print("bound verification failed", file=sys.stderr)
        return 3
    return 0


def cmd_fig2(args):
    raw = harness._section(harness._load_json(args.config), "config")
    allowed = {
        "dims", "optimizers", "eta", "q", "threshold", "max_steps", "x0_norm",
        "seed", "regime", "quad_seed", "tail", "epsilon", "beta1", "beta2",
        "zeta", "distribution", "series",
    }
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown fig2 keys: {sorted(unknown)}")
    dims = raw.get("dims", [9, 25, 49, 100, 1024])
    optimizers = raw.get("optimizers", ["fo-adam", "zo-adam", "meazo"])
    if not isinstance(optimizers, list):
        raise ConfigError(f"optimizers must be a list, got {optimizers!r}")
    series = _field(raw, "series", bool, False)
    try:
        results = analysis.collapse_study(
            dims=tuple(_numbers(dims, int, "dims")),
            optimizers=tuple(optimizers),
            eta=_field(raw, "eta", float, 1e-4),
            q=_field(raw, "q", int, 10),
            threshold=_field(raw, "threshold", float, 1e-3),
            beta1=_field(raw, "beta1", float, 0.9),
            beta2=_field(raw, "beta2", float, 0.999),
            zeta=_field(raw, "zeta", float, 1e-8),
            epsilon=_field(raw, "epsilon", float, 1e-6),
            distribution=raw.get("distribution", "gaussian"),
            x0_norm=_field(raw, "x0_norm", float, 0.3),
            seed=_field(raw, "seed", harness._seed, 0),
            max_steps=_field(raw, "max_steps", int, 200_000),
            tail=_field(raw, "tail", int, 100),
            regime=raw.get("regime", "heterogeneous"),
            quad_seed=_field(raw, "quad_seed", harness._seed, 0),
        )
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid collapse study: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for res in results:
        vhat = res["vhat_final"]
        rows.append(
            {
                "d": res["d"],
                "optimizer": res["optimizer"],
                "steps_to_threshold": res["steps_to_threshold"],
                "terminal_spread": res["terminal_spread"],
                "terminal_target_err": res["terminal_target_err"],
                "final_loss": res["final_loss"],
                "vhat_min": float(np.min(vhat)),
                "vhat_max": float(np.max(vhat)),
                "vhat_mean": float(np.mean(vhat)),
            }
        )
        if series:
            path = os.path.join(args.out, f"fig2_{res['optimizer']}_d{res['d']}.csv")
            with open(path, "w") as fh:
                fh.write("step,loss,grad_norm_sq,spread\n")
                s = res["series"]
                for i in range(len(s["step"])):
                    fh.write(
                        f"{s['step'][i]},{s['loss'][i]!r},"
                        f"{s['grad_norm_sq'][i]!r},{s['spread'][i]!r}\n"
                    )
    _write_json({"rows": rows}, args.out, "fig2.json")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zoptim",
        description="Zeroth-order optimization experiments and verifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "run": (cmd_run, "run one experiment config across its seeds"),
        "sweep": (cmd_sweep, "coarse-to-fine step-size search"),
        "robustness": (cmd_robustness, "step-size robustness curve around the sweep winner"),
        "verify-moments": (cmd_verify_moments, "check closed-form second moments by Monte Carlo"),
        "verify-bounds": (cmd_verify_bounds, "check stationarity bounds on trajectories"),
        "fig2": (cmd_fig2, "second-moment collapse study across dimensions"),
    }
    for name, (fn, help_text) in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except ZoptimError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
