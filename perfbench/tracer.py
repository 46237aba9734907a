"""Outside-in tracer for zoptim.

``Tracer.install()`` replaces zoptim's functions, in every zoptim module
namespace that binds them, and the oracle methods of ``BlockQuadratic`` and
``LayeredChain`` with wrappers that record one span per call: name, start,
end and the enclosing span. Spans live in flat arrays in memory and are
written out only by ``dump``; ``metrics`` derives self times and counts per
layer from them. ``uninstall`` puts every original back, so the program's
code is never edited.

Span names are ``<layer>.<function>``, where the layer is the zoptim module
the function is defined in and a leading underscore is dropped.
"""

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("perturb", "objectives", "estimators", "optimizers", "harness", "analysis", "cli")

# Private functions wrapped because a per-layer metric needs their boundary.
PRIVATE = {
    "harness": ("_run_seed", "_vhat_stats"),
    "analysis": ("_run_one",),
}

# (class, method) -> span name; forward_prefix books its blocks like forward.
METHODS = {
    ("BlockQuadratic", "value"): "objectives.value",
    ("BlockQuadratic", "__call__"): "objectives.value",
    ("BlockQuadratic", "gradient"): "objectives.gradient",
    ("LayeredChain", "forward"): "objectives.chain_forward",
    ("LayeredChain", "forward_prefix"): "objectives.chain_forward",
    ("LayeredChain", "make_prefix"): "objectives.make_prefix",
}

# Per-seed step loops of the three run functions; oracle calls made directly from
# one of these are the loop's bookkeeping, not an estimator's evaluations.
RUN_LOOPS = ("harness.run_seed", "analysis.run_one", "analysis.bound_check_run")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.last = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self.replay_keys = set()
        self.diverged = set()
        self.program_fn_evals = 0
        self.program_block_forwards = 0
        self._stack = [-1]
        self._run_loop_ids = set()
        self._patches = []

    # --- recording ----------------------------------------------------------

    def _wrap(self, fn, name, hook=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_id, parent, last = self.name_id, self.parent, self.last
        start, end, amount, stack = self.start, self.end, self.amount, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            last.append(i)
            start.append(0.0)
            end.append(0.0)
            amount.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
                last[i] = len(name_id) - 1
            if hook is not None:
                hook(i, args, result)
            return result

        return wrapper

    def _sample_direction_hook(self, i, args, result):
        # Keys are counted per run loop: a sweep or study legitimately draws
        # the same stream again for every step size or optimizer.
        spec, coord, d = args
        run = next((j for j in reversed(self._stack)
                    if j >= 0 and self.name_id[j] in self._run_loop_ids), -1)
        self.replay_keys.add(hash((run, spec.base_seed, spec.distribution, coord.step,
                                   coord.sample_index, coord.block_index, int(d))))

    def _forward_hook(self, i, args, result):
        self.amount[i] = result[-1]

    def _efficient_hook(self, i, args, result):
        chain, q = args[0], args[3]
        self.amount[i] = 2 * q * chain.p * chain.p

    def _run_seed_hook(self, i, args, trace):
        if trace.diverged:
            self.diverged.add(i)
        if trace.fn_evals:
            self.program_fn_evals += trace.fn_evals[-1]
            self.program_block_forwards += trace.block_forwards[-1]

    def _bound_check_hook(self, i, args, result):
        if result["diverged"]:
            self.diverged.add(i)

    def install(self):
        """Wrap zoptim's functions wherever a zoptim module binds them."""
        package = importlib.import_module("zoptim")
        modules = {layer: importlib.import_module(f"zoptim.{layer}") for layer in LAYERS}
        hooks = {
            "perturb.sample_direction": self._sample_direction_hook,
            "estimators.efficient_grouped_eval": self._efficient_hook,
            "harness.run_seed": self._run_seed_hook,
            "analysis.bound_check_run": self._bound_check_hook,
        }
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # its body runs lazily, outside any span of its own
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                name = f"{layer}.{attr.lstrip('_')}"
                wrappers[obj] = self._wrap(obj, name, hooks.get(name))
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for (cls_name, attr), name in METHODS.items():
            cls = getattr(modules["objectives"], cls_name)
            hook = self._forward_hook if name == "objectives.chain_forward" else None
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name, hook))
        self._run_loop_ids = {self._name_ids[name] for name in RUN_LOOPS}
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # --- analysis -----------------------------------------------------------

    def arrays(self):
        import numpy as np

        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "last": np.frombuffer(self.last, dtype=np.intc).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "amount": np.frombuffer(self.amount, dtype=np.int64),
        }

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        import numpy as np

        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], dur[child])
        return dur - covered

    def dump(self, path):
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names), self_s=self.self_times(),
                            **self.arrays())

    def metrics(self):
        """Per-layer counts and self times, keyed by metric name."""
        import numpy as np

        a = self.arrays()
        nid, parent, amount = a["name_id"], a["parent"], a["amount"]
        n = nid.size
        if n == 0:
            raise ValueError("no spans were recorded")
        dur = a["end"] - a["start"]
        self_t = self.self_times()
        layer_of_name = np.array([LAYERS.index(name.split(".", 1)[0]) for name in self.names])
        layer = layer_of_name[nid]
        parent_nid = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)
        parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)

        def named(*wanted):
            ids = [self._name_ids[w] for w in wanted if w in self._name_ids]
            return np.isin(nid, ids)

        def in_layer(name):
            return layer == LAYERS.index(name)

        def calls(mask):
            return int(mask.sum())

        def self_s(mask):
            return float(self_t[mask].sum())

        def per_call_us(seconds, count):
            return 1e6 * seconds / count if count else 0.0

        run_loop_parent = np.isin(parent_nid, sorted(self._run_loop_ids))
        estimator_parent = np.isin(parent_layer, (LAYERS.index("estimators"),
                                                  LAYERS.index("optimizers")))

        m = {}
        for name in LAYERS:
            m[f"{name}.self_s"] = self_s(in_layer(name))

        keyed = named("perturb.keyed_generator")
        m["perturb.keyed_generator.calls"] = calls(keyed)
        m["perturb.keyed_generator.self_s"] = self_s(keyed)
        sample = named("perturb.sample_direction")
        m["perturb.sample_direction.calls"] = calls(sample)
        m["perturb.sample_direction.self_s"] = self_s(sample)
        m["perturb.us_per_direction"] = per_call_us(float(dur[sample].sum()), calls(sample))
        m["perturb.regen_ratio"] = (calls(sample) / len(self.replay_keys)
                                    if self.replay_keys else 0.0)
        m["perturb.batch_directions.self_s"] = self_s(named("perturb.batch_directions"))

        value = named("objectives.value")
        m["objectives.value.calls"] = calls(value)
        m["objectives.value.self_s"] = self_s(value)
        m["objectives.value.us_per_call"] = per_call_us(self_s(value), calls(value))
        gradient = named("objectives.gradient")
        m["objectives.gradient.calls"] = calls(gradient)
        m["objectives.gradient.self_s"] = self_s(gradient)
        forward = named("objectives.chain_forward")
        m["objectives.chain_forward.calls"] = calls(forward)
        m["objectives.chain_forward.self_s"] = self_s(forward)
        m["objectives.chain_forward.blocks"] = int(amount[forward].sum())
        m["objectives.make_prefix.self_s"] = self_s(named("objectives.make_prefix"))

        estimator = in_layer("estimators")
        m["estimators.calls"] = calls(estimator & (parent_layer != LAYERS.index("estimators")))
        m["estimators.fn_evals"] = calls(value & estimator_parent)
        m["estimators.block_forwards"] = int(amount[forward & estimator_parent].sum())
        efficient = named("estimators.efficient_grouped_eval")
        cached = forward & np.isin(parent, np.flatnonzero(efficient))
        cached_blocks = int(amount[cached].sum())
        m["estimators.block_forward_saving"] = (int(amount[efficient].sum()) / cached_blocks
                                                if cached_blocks else 0.0)

        step = in_layer("optimizers")
        m["optimizers.step.calls"] = calls(step)
        m["optimizers.step.self_s"] = self_s(step)
        m["optimizers.step.us_per_call"] = per_call_us(self_s(step), calls(step))

        m["harness.loss_eval.self_s"] = self_s((value | forward) & run_loop_parent)
        m["harness.grad_eval.self_s"] = self_s(gradient & run_loop_parent)
        m["harness.record.self_s"] = self_s(named("harness.vhat_stats"))
        m["harness.run_seed.self_s"] = self_s(named("harness.run_seed"))
        m["harness.write.self_s"] = self_s(named("harness.write_trace_csv",
                                                 "harness.write_summary"))
        runs = np.flatnonzero(named(*RUN_LOOPS))
        step_before = np.concatenate(([0], np.cumsum(step)))
        steps_in = step_before[a["last"][runs] + 1] - step_before[runs]
        diverged = np.isin(runs, sorted(self.diverged))
        m["harness.runs"] = int(runs.size)
        m["harness.runs_diverged"] = int(diverged.sum())
        total_steps = int(steps_in.sum())
        m["harness.diverged_step_frac"] = (int(steps_in[diverged].sum()) / total_steps
                                           if total_steps else 0.0)

        m["analysis.run_one.self_s"] = self_s(named("analysis.run_one"))
        m["analysis.collapse_metric.self_s"] = self_s(named("analysis.vt_collapse_metric"))
        m["analysis.bound_check_run.self_s"] = self_s(named("analysis.bound_check_run"))
        m["analysis.mc_squared_moment.self_s"] = self_s(named("analysis.mc_squared_moment"))

        m["trace.wall_s"] = float(dur[parent < 0].sum())
        m["trace.spans"] = int(n)
        return m
