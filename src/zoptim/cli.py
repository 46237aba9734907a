"""Command-line front end.

Subcommands: run, sweep, robustness, verify-moments, verify-bounds, fig2.
Every subcommand takes --config (JSON file) and --out (directory). Exit
codes: 0 success, 2 bad config or arguments or unwritable --out, 3 numeric
failure or failed verification, 4 sweep in which every run diverged.

Each cmd_* returns (files, failure): by file name, the callable that writes
each output file at a path, and None or the (exit code, message) of a
finished subcommand that failed. Only main creates --out and writes files,
once the subcommand has finished, also when it failed; one that raised
writes nothing.
"""

import argparse
import math
import os
import sys
from functools import partial

import numpy as np

from . import analysis, config, harness
from .errors import ConfigError, PreconditionError, ZoptimError, invalid_config
from .objectives import BlockQuadratic, equal_energy_point

ALL_DIVERGED = (4, "every run diverged at every step size")


def _trace_files(traces):
    return {f"trace_seed{trace.seed}.csv": partial(harness.write_trace_csv, trace)
            for trace in traces}


def cmd_run(args):
    traces = harness.run(harness.load_config(args.config))
    files = {**_trace_files(traces), "summary.json": partial(harness.write_summary, traces)}
    if any(trace.diverged for trace in traces):
        return files, (3, "numeric failure: at least one seed diverged")
    return files, None


def cmd_sweep(args):
    sweep = harness.coarse_fine_sweep(harness.load_config(args.config))
    payload = {
        "metric": sweep.metric,
        "best_eta": sweep.best_eta,
        "bracket": list(sweep.bracket),
        "all_diverged": sweep.all_diverged,
        "rows": sweep.rows,
    }
    files = {"sweep.json": partial(harness.write_json, payload)}
    if sweep.all_diverged:
        return files, ALL_DIVERGED
    return {**files, **_trace_files(sweep.best_traces)}, None


def cmd_robustness(args):
    sweep = harness.coarse_fine_sweep(harness.load_config(args.config))
    if sweep.all_diverged:
        write = partial(harness.write_json, {"all_diverged": True})
        return {"robustness.json": write}, ALL_DIVERGED
    payload = {
        "best_eta": sweep.best_eta,
        "curve": harness.robustness_curve(sweep),
        "width": harness.robust_log_width(sweep),
    }
    return {"robustness.json": partial(harness.write_json, payload)}, None


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _moment_case_report(i, case):
    with invalid_config(f"moment case cases[{i}]"):
        return analysis.moment_report(case["g"], case["q"], case["distribution"], case["n"],
                                      seed=case["seed"])


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

    results = [
        {
            "g": case["g"].tolist(),
            "q": case["q"],
            "distribution": case["distribution"],
            "n": report.n_trials,
            "predicted": report.predicted.tolist(),
            "empirical": report.empirical.tolist(),
            "max_rel_err": report.max_rel_err,
            "tol": case["tol"],
            "pass": report.max_rel_err <= case["tol"],
        }
        for case, report in zip(cases, reports)
    ]
    ok = all(result["pass"] for result in results)
    files = {"moments.json": partial(harness.write_json, {"cases": results, "all_pass": ok})}
    return files, None if ok else (3, "moment verification failed")


def _side_bound(cfg, quad, label, side):
    """The stationarity bound one side's runs are checked against."""
    d, q, epsilon, sigma, L = quad.d, cfg["q"], cfg["epsilon"], cfg["sigma"], quad.smoothness
    with invalid_config(f"{label} bound setup"):
        if label == "meazo":
            constants = analysis.theorem_constants(
                d, q, epsilon, L, sigma, L * cfg["radius"], side["beta"], side["zeta"],
            )
            return analysis.meazo_bound(constants, cfg["f0"], side["eta"], side["T"], epsilon, L)
        return analysis.zosgd_bound(d, q, epsilon, L, sigma, side["eta"], side["T"], cfg["f0"])


def _side_report(cfg, quad, label, side, bound):
    eta, T, n_seeds = side["eta"], side["T"], cfg["seeds"]
    with invalid_config(f"{label} bound setup"):
        runs = [
            analysis.bound_check_run(
                quad, label, eta, cfg["q"], cfg["epsilon"], cfg["distribution"], cfg["sigma"],
                cfg["noise_seed"], equal_energy_point(quad, cfg["f0"], seed), T, seed,
                **{k: side[k] for k in ("beta", "zeta") if k in side}, radius=cfg["radius"],
            )
            for seed in range(n_seeds)
        ]
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
    with invalid_config("quadratic"):
        quad = BlockQuadratic(d=cfg["d"], regime=cfg["regime"], seed=cfg["quad_seed"])

    # Every section is read and every bound computed before the first run.
    sides, r = config.bound_sections(cfg)
    bounds = {label: _side_bound(cfg, quad, label, side) for label, side in sides.items()}
    with invalid_config("reduction setup"):
        zb = analysis.zosgd_bound(
            r["d"], r["q"], r["epsilon"], r["L"], r["sigma"], r["eta"], r["T"], r["f0"]
        )
        cb = analysis.classical_sgd_bound(r["L"], r["sigma"], r["eta"], r["T"], r["f0"])
    rel = abs(zb - cb) / cb if cb else math.inf
    red_pass = rel <= r["tol"]

    reports = [_side_report(cfg, quad, label, side, bounds[label]) for label, side in sides.items()]
    ok = red_pass and all(s["pass"] for s in reports)
    payload = {
        "sides": reports,
        "reduction": {
            "two_point_bound": zb,
            "classical_bound": cb,
            "rel_err": rel,
            "pass": red_pass,
        },
        "all_pass": ok,
    }
    failure = None if ok else (3, "bound verification failed")
    return {"bounds.json": partial(harness.write_json, payload)}, failure


def cmd_fig2(args):
    study = config.load_fig2(args.config)
    series = study.pop("series")
    with invalid_config("collapse study"):
        results = analysis.collapse_study(**study)
    rows = [{"d": res["d"], "optimizer": res["optimizer"],
             "steps_to_threshold": res["steps_to_threshold"],
             "terminal_spread": res["terminal_spread"],
             "terminal_target_err": res["terminal_target_err"], "final_loss": res["final_loss"],
             "vhat_min": float(np.min(res["vhat_final"])),
             "vhat_max": float(np.max(res["vhat_final"])),
             "vhat_mean": float(np.mean(res["vhat_final"]))} for res in results]
    files = {f"fig2_{res['optimizer']}_d{res['d']}.csv": partial(
        harness.write_csv, header=",".join(res["series"]), columns=list(res["series"].values()))
        for res in results if series}
    return {**files, "fig2.json": partial(harness.write_json, {"rows": rows})}, None


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
        files, failure = args.func(args)
    except ConfigError as exc:
        failure = (2, f"config error: {exc}")
    except PreconditionError as exc:
        failure = (3, f"precondition violated: {exc}")
    except ZoptimError as exc:
        failure = (3, f"numeric failure: {exc}")
    else:
        try:
            os.makedirs(args.out, exist_ok=True)
            for name, write in files.items():
                write(os.path.join(args.out, name))
        except OSError as exc:
            failure = (2, f"output error: {exc}")
    if failure is None:
        return 0
    code, message = failure
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
