"""Benchmark of the zoptim command-line program.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; zoptim is imported from its ``src``. With
``--trace 0`` the workload's CLI invocations run as child processes, one
after another, until ``--seconds`` have passed, and the end-to-end metrics
are the medians over the invocations, stated at a reference host speed
(see PROBE_REFERENCE_S). With ``--trace 1`` every invocation runs twice
inside this process, once plain and once under the tracer; the per-layer
metrics come from the traced runs and the tracing overhead from the pair.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Everything the run writes goes under
``.perfbench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Inherited thread settings would make two sides of a comparison run
# different BLAS configurations; cleared, the library default applies,
# which is what a user gets.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150.0

# The host is shared, and how fast it runs interpreter code drifts by ~15%
# from one 25 s run to the next. A fixed pure-Python loop of the benchmark's
# own, timed before every invocation, tracks that drift: each invocation time is
# scaled by PROBE_REFERENCE_S / (the run's median probe time), which states
# it at the speed the reference host (a 2-core 2.1 GHz Xeon VM) showed when
# the benchmark was written. The raw medians and the probe are in the table.
PROBE_LOOPS = 300_000
PROBE_REFERENCE_S = 0.025
# Process start-up and imports drift apart from interpreter speed, so the
# set-up time is scaled by its own probe instead: a child that starts Python
# and imports numpy, timed next to every set-up child.
STARTUP_PROBE = ("-c", "import numpy")
STARTUP_REFERENCE_S = 0.2


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv, env, log):
    """Run one child to exit; return (exit code, wall s, user+sys CPU s, max RSS MB)."""
    started = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def probe():
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - started


def cli_argv(call):
    return [sys.executable, "-m", "zoptim.cli"] + call.argv()


def source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "zoptim")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def machine_facts(env):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py"), "facts"],
                          env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    facts = json.loads(proc.stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    facts.update({
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256_16": source_digest(),
        "blas_env_cleared": {k: os.environ.get(k) for k in BLAS_ENV},
    })
    return facts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(name, values, unit, scale=1.0):
    """Median, quartiles and count of raw samples; ``value`` is the median times ``scale``."""
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return {"name": name, "value": median * scale, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "unit": unit}


def measure_setup(inv, env, log):
    """Wall times of the set-up children and of the start-up probes beside them."""
    argv = [sys.executable, os.path.join(HERE, "setup_child.py"), inv.setup_kind, inv.setup_config]
    walls, startups = [], []
    for i in range(SETUP_REPEATS + 1):
        code, startup, _, _ = run_child([sys.executable, *STARTUP_PROBE], env, log)
        if code == 0:
            code, wall, _, _ = run_child(argv, env, log)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}; see {log}")
        if i:  # the first child fills the bytecode cache, which users pay once
            walls.append(wall)
            startups.append(startup)
    return walls, startups


def run_invocation(inv, env, log):
    codes, wall, cpu, rss = [], 0.0, 0.0, 0.0
    for call in inv.calls:
        code, w, c, r = run_child(cli_argv(call), env, log)
        codes.append(code)
        wall += w
        cpu += c
        rss = max(rss, r)
    return codes, wall, cpu, rss


def load_reference(workload):
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["workloads"][workload]


def reference_checks(workload, outcomes):
    """Medians of the run's output statistics against the recorded reference."""
    checks = []
    for stat, ref in load_reference(workload).items():
        values = [o.stats[stat] for o in outcomes if stat in o.stats]
        got = statistics.median(values) if values else float("nan")
        ok = abs(got - ref["value"]) <= ref["rel_tol"] * abs(ref["value"])
        checks.append((f"reference: median {stat} {got:.6g} within {ref['rel_tol']:.0%} "
                       f"of {ref['value']:.6g}", ok))
    return checks


def untraced_run(workload, args, env, run_dir, log):
    inv0 = workload.invocation(args.seed, 0, os.path.join(run_dir, "inv0"))
    setup, startups = measure_setup(inv0, env, log)
    samples, outcomes, probes = [], [], []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        work = os.path.join(run_dir, f"inv{k}")
        inv = workload.invocation(args.seed, k, work)
        probes.append(probe())
        codes, wall, cpu, rss = run_invocation(inv, env, log)
        outcome = workload.outcome(inv, codes)
        outcomes.append(outcome)
        samples.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                        "steps_per_s": outcome.steps / wall})
        shutil.rmtree(work)
        k += 1
    checks = [c for o in outcomes for c in o.checks] + reference_checks(workload.name, outcomes)
    speed = PROBE_REFERENCE_S / statistics.median(probes)
    table = [
        summarize("wall_s", [s["wall_s"] for s in samples], "s", speed),
        summarize("cpu_s", [s["cpu_s"] for s in samples], "s", speed),
        summarize("steps_per_s", [s["steps_per_s"] for s in samples], "steps/s", 1 / speed),
        summarize("peak_rss_mb", [s["peak_rss_mb"] for s in samples], "MB"),
        summarize("setup_s", setup, "s", STARTUP_REFERENCE_S / statistics.median(startups)),
    ]
    pooled = [v for o in outcomes for v in o.steps_to_threshold]
    # Empty only when no invocation produced readable outputs; the failed
    # checks then make the result incorrect.
    table.append(summarize("steps_to_threshold_p50", pooled or [0], "steps"))
    return table, checks, {"invocations": samples, "setup_s": setup, "probe_s": probes,
                           "startup_probe_s": startups, "time_scale": speed}


def same_outputs(untraced_dir, traced_dir):
    """Output files equal byte for byte; summary.json compared without wall times."""
    names = sorted(os.listdir(untraced_dir))
    if names != sorted(os.listdir(traced_dir)):
        return False
    for name in names:
        with open(os.path.join(untraced_dir, name), "rb") as a, \
                open(os.path.join(traced_dir, name), "rb") as b:
            left, right = a.read(), b.read()
        if name == "summary.json":
            left, right = (json.loads(x) for x in (left, right))
            for run in left["runs"] + right["runs"]:
                run.pop("wall_time_s")
        if left != right:
            return False
    return True


def run_in_process(cli, inv, suffix):
    """Run an invocation's calls through zoptim.cli.main in this process."""
    codes, wall = [], 0.0
    for call in inv.calls:
        argv = call.argv()
        argv[-1] = call.out + suffix
        started = time.perf_counter()
        codes.append(cli.main(argv))
        wall += time.perf_counter() - started
    return codes, wall


def load_program():
    """Import zoptim.cli from the checkout into this process, under the children's BLAS setting."""
    for key in BLAS_ENV:  # numpy is not loaded yet, so this sets its BLAS default
        os.environ.pop(key, None)
    sys.path.insert(0, SRC)
    import zoptim.cli

    return zoptim.cli


def traced_run(workload, args, run_dir):
    from tracer import Tracer

    cli = load_program()
    tracer = Tracer()
    checks, untraced_wall, traced_wall = [], 0.0, 0.0
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        work = os.path.join(run_dir, f"inv{k}")
        inv = workload.invocation(args.seed, k, work)
        codes, wall = run_in_process(cli, inv, "")
        checks += workload.outcome(inv, codes).checks
        untraced_wall += wall
        with tracer:
            traced_codes, wall = run_in_process(cli, inv, "-traced")
        traced_wall += wall
        checks.append(("traced run: same exit codes", traced_codes == codes))
        outs = sorted({call.out for call in inv.calls})
        checks.append(("traced run: outputs identical to the untraced run",
                       all(same_outputs(o, o + "-traced") for o in outs)))
        shutil.rmtree(work)
        k += 1

    m = tracer.metrics()
    tracer.dump(os.path.join(run_dir, "spans.npz"))
    layer_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    checks.append(("tracer: layer self times sum to the traced wall time",
                   abs(layer_sum - traced_wall) <= 0.02 * traced_wall))
    if tracer.program_fn_evals or tracer.program_block_forwards:
        checks.append(("tracer: estimators.fn_evals equals the program's EvalCounter",
                       m["estimators.fn_evals"] == tracer.program_fn_evals))
        checks.append(("tracer: estimators.block_forwards equals the program's EvalCounter",
                       m["estimators.block_forwards"] == tracer.program_block_forwards))
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    table = [{"name": name, "value": value, "unit": per_layer_unit(name)}
             for name, value in m.items()]
    return table, checks, {"invocations": k, "untraced_wall_s": untraced_wall}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith(("perturb.us_", "objectives.value.us_", "optimizers.step.us_")):
        return "us"
    if name.endswith(("_ratio", "_frac", "_saving")):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="zoptim CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zoptim", "cli.py")):
        print(f"no zoptim sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    log = os.path.join(run_dir, "stderr.log")
    env = child_env()
    facts = machine_facts(env)
    if args.trace:
        table, checks, detail = traced_run(workload, args, run_dir)
    else:
        table, checks, detail = untraced_run(workload, args, env, run_dir, log)
    failed = [name for name, ok in checks if not ok]

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client")
    print("environment " + json.dumps(facts))
    if "time_scale" in detail:
        print(f"  probe median {statistics.median(detail['probe_s']):.6g} s, start-up probe "
              f"median {statistics.median(detail['startup_probe_s']):.6g} s; raw medians and "
              f"quartiles below, reported value = raw x {detail['time_scale']:.4g} "
              f"(setup_s: raw x start-up scale)")
    for row in table:
        if "n" in row:
            print(f"  {row['name']:<24} {row['value']:<12.6g} raw median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} n {row['n']:<4} {row['unit']}")
        else:
            print(f"  {row['name']:<36} {row['value']:<14.6g} {row['unit']}")
    print(f"  checks: {len(checks) - len(failed)}/{len(checks)} passed, "
          f"failed_frac {len(failed) / len(checks):.4g}")
    for name in failed:
        print(f"  FAILED {name}")
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                   "environment": facts, "table": table, "detail": detail,
                   "checks": checks}, fh, indent=1)

    metrics = {row["name"]: {"value": row["value"], "unit": row["unit"]} for row in table}
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
