"""The benchmark's workloads: inputs made from the workload seed, the CLI calls
that run them, the steps they complete and the checks on what they write.

Each workload is a closed loop of one client: invocation k of a run starts
only after invocation k-1 has exited. The inputs of invocation k are a pure
function of (workload, --seed, k), so a run's median averages over several
input draws while two runs with the same seed see the same inputs.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field

THRESHOLD = 1e-3

# The acceptance suite's block-coordinate config (tests/test_acceptance.py,
# bcgd_config("meazo-grouped")) with one seed per invocation instead of ten,
# so that a run holds several invocations, and without the threshold stop at
# T=300 instead of with it at T=3000: the sweep writes only the winning
# step size's traces, so only runs of a fixed length make its step count
# readable from the outputs.
BCGD_PARTITION = [[0, 3], [3, 6], [6, 9]]
BCGD_Q = 1
BCGD_T = 300
# The CLI's default coarse step-size grid, which the sweep always evaluates.
COARSE_GRID = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1)

# The acceptance collapse fixture's regime at d=1024, with a step budget
# the loss threshold is never reached in, so every invocation runs exactly
# 2 * COLLAPSE_STEPS optimizer steps.
COLLAPSE_D = 1024
COLLAPSE_STEPS = 100
COLLAPSE_OPTIMIZERS = ("zo-adam", "meazo")

CHAIN_P = 8
CHAIN_WIDTH = 16
CHAIN_Q = 4
CHAIN_T = 300

# (distribution, d, q) of the moment cases: both distributions, q in {1, 2, 4}, d in {2, 8}.
MOMENT_CASES = (("gaussian", 2, 1), ("gaussian", 8, 4), ("uniform", 2, 2), ("uniform", 8, 1))
MOMENT_N = 1_000_000
MOMENT_TOL = 0.05

# The README's verify-bounds config; only the quadratic's seed varies.
BOUNDS_CONFIG = {
    "d": 9, "regime": "heterogeneous", "q": 10, "epsilon": 1e-6,
    "distribution": "gaussian", "sigma": 0.0, "noise_seed": 0,
    "f0": 0.05, "radius": 0.4, "seeds": 5,
    "meazo": {"eta": 1e-4, "T": 200, "beta": 0.999999985, "zeta": 1.0},
    "zosgd": {"eta": 5e-5, "T": 100},
    "reduction": {"d": 9, "q": 1e9, "epsilon": 1e-12, "L": 1100.0,
                  "sigma": 0.0, "eta": 1e-6, "T": 1000, "f0": 1.0, "tol": 1e-6},
}


def input_seed(workload, seed, k):
    """Seed handed to the program for invocation k of a run."""
    return random.Random(f"{workload}/{seed}/{k}").randrange(2**31)


@dataclass
class Call:
    """One CLI child: ``python -m zoptim.cli <command> --config <config> --out <out>``."""

    command: str
    config: str
    out: str
    files: tuple

    def argv(self):
        return [self.command, "--config", self.config, "--out", self.out]


@dataclass
class Invocation:
    """The CLI calls of one invocation, and what its set-up child loads and builds."""

    calls: list
    setup_kind: str
    setup_config: str


@dataclass
class Outcome:
    """What the outputs of one invocation say: steps done, checks, statistics."""

    steps: int = 0
    steps_to_threshold: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))
        return bool(ok)


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return path


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def _check_files(out, call):
    written = [out.check(f"{call.command}: wrote {name}",
                         os.path.isfile(os.path.join(call.out, name)))
               for name in call.files]
    return all(written)


def _check_accounting(out, rows, per_step, column, zero_column):
    """Cumulative oracle counts: per_step * (t+1) after step t, per_step * t on the final row."""
    ok = True
    for i, row in enumerate(rows):
        t = int(row["step"])
        want = per_step * (t if i == len(rows) - 1 else t + 1)
        ok = ok and int(row[column]) == want and int(row[zero_column]) == 0
    out.check(f"{column} = {per_step} * steps on every trace row", ok)


def _trace_steps(rows):
    """Steps the run completed: the final row's step (threshold stop or budget)."""
    return int(rows[-1]["step"])


# --- bcgd-sweep -------------------------------------------------------------

def _bcgd_inputs(seed, k, work):
    s = input_seed("bcgd-sweep", seed, k)
    config = _write(os.path.join(work, "sweep.json"), {
        "objective": {"kind": "quadratic", "d": 9, "regime": "heterogeneous", "seed": 0},
        "optimizer": {"name": "meazo-grouped"},
        "partition": BCGD_PARTITION,
        "T": BCGD_T,
        "q": BCGD_Q,
        "distribution": "gaussian",
        "threshold": THRESHOLD,
        "stop_at_threshold": False,
        "x0": {"mode": "gaussian", "scale": 0.1},
        "seeds": [s],
        "metric": "final",
    })
    call = Call("sweep", config, os.path.join(work, "out"), ("sweep.json", f"trace_seed{s}.csv"))
    return [call], "experiment", config


def _bcgd_outcome(inv, out):
    call = inv.calls[0]
    if not _check_files(out, call):
        return
    with open(os.path.join(call.out, "sweep.json")) as fh:
        sweep = json.load(fh)
    out.check("sweep: no run diverged", all(r["n_diverged"] == 0 for r in sweep["rows"]))
    rows = _read_csv(os.path.join(call.out, call.files[1]))
    _check_accounting(out, rows, 2 * BCGD_Q * len(BCGD_PARTITION), "fn_evals", "block_forwards")
    out.check("sweep: the winning trace ran every step", _trace_steps(rows) == BCGD_T)
    hit = next((int(r["step"]) for r in rows if float(r["loss"]) <= THRESHOLD), None)
    out.check("sweep: the winning step size reaches the loss threshold", hit is not None)
    out.steps = BCGD_T * len(sweep["rows"])
    out.steps_to_threshold = [BCGD_T if hit is None else hit]
    coarse = [r for r in sweep["rows"] if r["eta"] in COARSE_GRID]
    out.check("sweep: every coarse step size was evaluated", len(coarse) == len(COARSE_GRID))
    out.stats = {"coarse_reaching_threshold": sum(r["mean_final"] <= THRESHOLD for r in coarse)}


# --- collapse-d1024 ---------------------------------------------------------

def _collapse_inputs(seed, k, work):
    s = input_seed("collapse-d1024", seed, k)
    config = _write(os.path.join(work, "fig2.json"), {
        "dims": [COLLAPSE_D],
        "optimizers": list(COLLAPSE_OPTIMIZERS),
        "eta": 1e-4,
        "q": 10,
        "threshold": THRESHOLD,
        "x0_norm": 1.0,
        "max_steps": COLLAPSE_STEPS,
        "seed": s,
        "series": True,
    })
    files = ("fig2.json",) + tuple(f"fig2_{o}_d{COLLAPSE_D}.csv" for o in COLLAPSE_OPTIMIZERS)
    call = Call("fig2", config, os.path.join(work, "out"), files)
    return [call], "fig2", config


def _collapse_outcome(inv, out):
    call = inv.calls[0]
    if not _check_files(out, call):
        return
    with open(os.path.join(call.out, "fig2.json")) as fh:
        rows = {r["optimizer"]: r for r in json.load(fh)["rows"]}
    out.check("fig2: meazo terminal_spread == 0", rows["meazo"]["terminal_spread"] == 0)
    out.check("fig2: zo-adam terminal_spread > 0", rows["zo-adam"]["terminal_spread"] > 0)
    for opt in COLLAPSE_OPTIMIZERS:
        series = _read_csv(os.path.join(call.out, f"fig2_{opt}_d{COLLAPSE_D}.csv"))
        out.check(f"fig2: {opt} ran the full step budget",
                  len(series) == COLLAPSE_STEPS and rows[opt]["steps_to_threshold"] is None)
        out.steps += len(series)
        hit = rows[opt]["steps_to_threshold"]
        out.steps_to_threshold.append(len(series) if hit is None else hit)
    out.stats = {
        "zo-adam_terminal_spread": rows["zo-adam"]["terminal_spread"],
        "zo-adam_final_loss": rows["zo-adam"]["final_loss"],
        "meazo_final_loss": rows["meazo"]["final_loss"],
    }


# --- chain-grouped ----------------------------------------------------------

def _chain_inputs(seed, k, work):
    s = input_seed("chain-grouped", seed, k)
    config = _write(os.path.join(work, "run.json"), {
        "objective": {"kind": "chain", "p": CHAIN_P, "widths": CHAIN_WIDTH, "seed": 0},
        "optimizer": {"name": "meazo-grouped", "eta": 1e-3},
        "partition": f"layers:{CHAIN_P}",
        "grouped_eval": "efficient",
        "T": CHAIN_T,
        "q": CHAIN_Q,
        "epsilon": 1e-4,
        "threshold": THRESHOLD,
        "seeds": [s],
    })
    call = Call("run", config, os.path.join(work, "out"), ("summary.json", f"trace_seed{s}.csv"))
    return [call], "experiment", config


def chain_block_forwards_per_step(p=CHAIN_P, q=CHAIN_Q):
    """Prefix-cached grouped evaluation: p q (p+1) + p - 1 block forwards per step."""
    return p * q * (p + 1) + p - 1


def _chain_outcome(inv, out):
    call = inv.calls[0]
    if not _check_files(out, call):
        return
    with open(os.path.join(call.out, "summary.json")) as fh:
        run = json.load(fh)["runs"][0]
    per_step = chain_block_forwards_per_step()
    out.check("run: no seed diverged", not run["diverged"])
    out.check("run: summary block_forwards = (pq(p+1)+p-1) * T",
              run["block_forwards"] == per_step * CHAIN_T and run["fn_evals"] == 0)
    rows = _read_csv(os.path.join(call.out, call.files[1]))
    _check_accounting(out, rows, per_step, "block_forwards", "fn_evals")
    steps = _trace_steps(rows)
    out.check("run: every step ran", steps == CHAIN_T)
    hit = run["steps_to_threshold"]
    out.steps = steps
    out.steps_to_threshold = [steps if hit is None else hit]
    out.stats = {"final_loss": run["final_loss"]}


# --- verify -----------------------------------------------------------------

def _verify_inputs(seed, k, work):
    s = input_seed("verify", seed, k)
    rng = random.Random(s)
    cases = []
    for dist, d, q in MOMENT_CASES:
        g = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norm = math.sqrt(sum(v * v for v in g))
        cases.append({"g": [v / norm for v in g], "q": q, "distribution": dist,
                      "n": MOMENT_N, "tol": MOMENT_TOL, "seed": rng.randrange(2**31)})
    moments = _write(os.path.join(work, "moments.json"), {"cases": cases})
    bounds = _write(os.path.join(work, "bounds.json"),
                    {**BOUNDS_CONFIG, "quad_seed": rng.randrange(2**31)})
    calls = [
        Call("verify-moments", moments, os.path.join(work, "out"), ("moments.json",)),
        Call("verify-bounds", bounds, os.path.join(work, "out"), ("bounds.json",)),
    ]
    return calls, "verify", bounds


def _verify_outcome(inv, out):
    moments_call, bounds_call = inv.calls
    if _check_files(out, moments_call):
        with open(os.path.join(moments_call.out, "moments.json")) as fh:
            moments = json.load(fh)
        out.check("verify-moments: all_pass", moments["all_pass"] is True)
    if _check_files(out, bounds_call):
        with open(os.path.join(bounds_call.out, "bounds.json")) as fh:
            bounds = json.load(fh)
        out.check("verify-bounds: all_pass", bounds["all_pass"] is True)
        for side in bounds["sides"]:
            out.steps += side["T"] * side["seeds"]
            out.steps_to_threshold += [side["T"]] * side["seeds"]
            out.stats[f"{side['optimizer']}_empirical_mean"] = side["empirical_mean"]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object
    read_outcome: object

    def invocation(self, seed, k, work):
        os.makedirs(work, exist_ok=True)
        return Invocation(*self.make_inputs(seed, k, work))

    def outcome(self, inv, exit_codes):
        out = Outcome()
        for call, code in zip(inv.calls, exit_codes):
            out.check(f"{call.command}: exit code 0", code == 0)
        if all(code == 0 for code in exit_codes):
            self.read_outcome(inv, out)
        return out


# Why each workload was chosen, and the layer it stresses, is in
# BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bcgd-sweep", _bcgd_inputs, _bcgd_outcome),
        Workload("collapse-d1024", _collapse_inputs, _collapse_outcome),
        Workload("chain-grouped", _chain_inputs, _chain_outcome),
        Workload("verify", _verify_inputs, _verify_outcome),
    )
}
