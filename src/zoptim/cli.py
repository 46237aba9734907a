"""Command-line front end.

Subcommands: run, sweep, robustness, verify-moments, verify-bounds, fig2.
Every subcommand takes --config (JSON file) and --out (directory). Exit
codes: 0 success, 2 bad config or arguments, 3 numeric failure or failed
verification, 4 sweep in which every run diverged.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import analysis, config, harness
from .errors import ConfigError, InvalidArgumentError, PreconditionError, ZoptimError
from .harness import write_json
from .objectives import BlockQuadratic, equal_energy_point


def cmd_run(args):
    traces = harness.run(harness.load_config(args.config))
    os.makedirs(args.out, exist_ok=True)
    for trace in traces:
        harness.write_trace_csv(trace, os.path.join(args.out, f"trace_seed{trace.seed}.csv"))
    harness.write_summary(traces, os.path.join(args.out, "summary.json"))
    if any(trace.diverged for trace in traces):
        print("numeric failure: at least one seed diverged", file=sys.stderr)
        return 3
    return 0


def _sweep(args):
    sweep = harness.coarse_fine_sweep(harness.load_config(args.config))
    os.makedirs(args.out, exist_ok=True)
    return sweep


def cmd_sweep(args):
    sweep = _sweep(args)
    payload = {
        "metric": sweep.metric,
        "best_eta": sweep.best_eta,
        "bracket": list(sweep.bracket),
        "all_diverged": sweep.all_diverged,
        "rows": sweep.rows,
    }
    write_json(payload, os.path.join(args.out, "sweep.json"))
    if sweep.all_diverged:
        print("every run diverged at every step size", file=sys.stderr)
        return 4
    for trace in sweep.best_traces:
        harness.write_trace_csv(trace, os.path.join(args.out, f"trace_seed{trace.seed}.csv"))
    return 0


def cmd_robustness(args):
    sweep = _sweep(args)
    if sweep.all_diverged:
        write_json({"all_diverged": True}, os.path.join(args.out, "robustness.json"))
        print("every run diverged at every step size", file=sys.stderr)
        return 4
    payload = {
        "best_eta": sweep.best_eta,
        "curve": harness.robustness_curve(sweep),
        "width": harness.robust_log_width(sweep),
    }
    write_json(payload, os.path.join(args.out, "robustness.json"))
    return 0


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _moment_case_report(i, case):
    try:
        return analysis.moment_report(case["g"], case["q"], case["distribution"], case["n"],
                                      seed=case["seed"])
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid moment case cases[{i}]: {exc}") from exc


def cmd_verify_moments(args):
    # Imported here: run, sweep and fig2 never need it.
    from concurrent.futures import ThreadPoolExecutor

    cases = config.load_moment_cases(args.config)

    # Each case draws from its own generator and its numpy work releases the
    # GIL, so the cases run in parallel; map keeps the reports in case order.
    # A running case's working arrays stay within analysis.MC_BUFFER_BYTES
    # (or one trial's arrays) at any n, so the cases need no memory cap.
    with ThreadPoolExecutor(max_workers=min(len(cases), _cpu_count())) as pool:
        reports = list(pool.map(_moment_case_report, range(len(cases)), cases))

    results = []
    ok = True
    for case, report in zip(cases, reports):
        passed = report.max_rel_err <= case["tol"]
        ok = ok and passed
        results.append(
            {
                "g": case["g"].tolist(),
                "q": case["q"],
                "distribution": case["distribution"],
                "n": report.n_trials,
                "predicted": report.predicted.tolist(),
                "empirical": report.empirical.tolist(),
                "max_rel_err": report.max_rel_err,
                "tol": case["tol"],
                "pass": passed,
            }
        )
    os.makedirs(args.out, exist_ok=True)
    write_json({"cases": results, "all_pass": ok}, os.path.join(args.out, "moments.json"))
    if not ok:
        print("moment verification failed", file=sys.stderr)
        return 3
    return 0


def _side_bound(cfg, quad, label, side):
    """The stationarity bound one side's runs are checked against."""
    d, q, epsilon, sigma, L = quad.d, cfg["q"], cfg["epsilon"], cfg["sigma"], quad.smoothness
    try:
        if label == "meazo":
            constants = analysis.theorem_constants(
                d, q, epsilon, L, sigma, L * cfg["radius"], side["beta"], side["zeta"],
            )
            return analysis.meazo_bound(constants, cfg["f0"], side["eta"], side["T"], epsilon, L)
        return analysis.zosgd_bound(d, q, epsilon, L, sigma, side["eta"], side["T"], cfg["f0"])
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid {label} bound setup: {exc}") from exc


def _side_report(cfg, quad, label, side, bound):
    eta, T, n_seeds = side["eta"], side["T"], cfg["seeds"]
    try:
        runs = [
            analysis.bound_check_run(
                quad, label, eta, cfg["q"], cfg["epsilon"], cfg["distribution"], cfg["sigma"],
                cfg["noise_seed"], equal_energy_point(quad, cfg["f0"], seed), T, seed,
                **{k: side[k] for k in ("beta", "zeta") if k in side}, radius=cfg["radius"],
            )
            for seed in range(n_seeds)
        ]
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
    cfg = config.load_bounds(args.config)
    try:
        quad = BlockQuadratic(d=cfg["d"], regime=cfg["regime"], seed=cfg["quad_seed"])
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid quadratic: {exc}") from exc

    # Every section is read and every bound computed before the first run.
    sides, r = config.bound_sections(cfg)
    bounds = {label: _side_bound(cfg, quad, label, side) for label, side in sides.items()}
    try:
        zb = analysis.zosgd_bound(
            r["d"], r["q"], r["epsilon"], r["L"], r["sigma"], r["eta"], r["T"], r["f0"]
        )
        cb = analysis.classical_sgd_bound(r["L"], r["sigma"], r["eta"], r["T"], r["f0"])
    except InvalidArgumentError as exc:
        raise ConfigError(f"invalid reduction setup: {exc}") from exc
    rel = abs(zb - cb) / cb if cb else math.inf
    red_pass = rel <= r["tol"]

    reports = [_side_report(cfg, quad, label, side, bounds[label]) for label, side in sides.items()]
    ok = red_pass and all(s["pass"] for s in reports)

    os.makedirs(args.out, exist_ok=True)
    write_json(
        {
            "sides": reports,
            "reduction": {
                "two_point_bound": zb,
                "classical_bound": cb,
                "rel_err": rel,
                "pass": red_pass,
            },
            "all_pass": ok,
        },
        os.path.join(args.out, "bounds.json"),
    )
    if not ok:
        print("bound verification failed", file=sys.stderr)
        return 3
    return 0


def cmd_fig2(args):
    study = config.load_fig2(args.config)
    series = study.pop("series")
    try:
        results = analysis.collapse_study(**study)
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
    write_json({"rows": rows}, os.path.join(args.out, "fig2.json"))
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
