"""Outside-in tracing of stepslope's public functions.

The tracer replaces each traced function with a wrapper in every stepslope
module namespace that binds it (``from .solver import solve_slope`` binds
the function in simlab too), so calls between modules pass through the
wrapper without touching the package source.  Every wrapped call records
one span in memory: name, start, end, parent span index and workload id,
plus the iteration count and convergence flag of fits.  ``uninstall``
puts the original functions back.

Span names are ``<module>.<function>``; ``LAYER_OF`` maps each name to the
per-layer metric key it feeds.  Self time of a span is its duration minus
the durations of its direct children; calls are single-threaded, so the
children never overlap and the self times of one tree sum to its root.
"""

import importlib
import time

# span name -> per-layer metric key
LAYER_OF = {
    "solver.operator_norm_sq": "solver.operator_norm_sq",
    "solver.solve_slope": "solver.solve_slope",
    "sorted_l1.prox_sorted_l1": "sorted_l1.prox",
    "sorted_l1.dual_infeasibility": "sorted_l1.dual_infeasibility",
    "sorted_l1.sorted_l1_norm": "sorted_l1.norm",
    "groups.solve_group_slope": "groups.solve_group_slope",
    "groups.group_prox": "groups.group_prox",
    "groups.standardize": "groups.standardize",
    "simlab.gen_orthogonal": "simlab.gen",
    "simlab.gen_gaussian": "simlab.gen",
    "simlab.gen_correlated_means": "simlab.gen",
    "simlab.gen_group": "simlab.gen",
    "simlab.resolve_schedule": "simlab.resolve_schedule",
    "simlab.run_experiment": "simlab.run_experiment",
    "schedules.bh_schedule": "schedules.build",
    "schedules.kfwer_schedule": "schedules.build",
    "schedules.fdp_schedule": "schedules.build",
    "schedules.gaussian_corrected_schedule": "schedules.build",
    "schedules.group_max_schedule": "schedules.build",
    "schedules.gk_schedule": "schedules.build",
    "schedules.gf_schedule": "schedules.build",
    "schedules.group_corrected_schedule": "schedules.build",
    "schedules.monte_carlo_corrected_schedule": "schedules.mc_correct",
    # the CDFs are left unwrapped: mixture inversion calls them thousands
    # of times per schedule entry, and their time is inside the quantiles
    "quantiles.normal_quantile": "quantiles",
    "quantiles.chi_quantile": "quantiles",
    "quantiles.mixture_quantile": "quantiles",
    "stepdown.kfwer_thresholds": "stepdown",
    "stepdown.fdp_thresholds": "stepdown",
    "stepdown.stepdown_reject": "stepdown",
    "stepdown.two_sided_pvalues": "stepdown",
}

# modules whose namespaces may bind a traced function
MODULES = (
    "stepslope",
    "stepslope.groups",
    "stepslope.quantiles",
    "stepslope.schedules",
    "stepslope.simlab",
    "stepslope.solver",
    "stepslope.sorted_l1",
    "stepslope.stepdown",
)

NAME, START, END, PARENT, WORKLOAD, FIT = range(6)


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        workload = self.workload
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, workload, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hasattr(out, "iterations") and hasattr(out, "converged"):
                span[FIT] = (int(out.iterations), bool(out.converged))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for name in LAYER_OF:
            mod_name, func_name = name.split(".")
            original = getattr(importlib.import_module("stepslope." + mod_name), func_name)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Write the spans as tab-separated lines with a header."""
        lines = ["index\tname\tstart\tend\tparent\tworkload\titerations\tconverged"]
        for i, s in enumerate(self.spans):
            it, conv = s[FIT] if s[FIT] is not None else ("", "")
            lines.append(
                f"{i}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\t"
                f"{s[WORKLOAD]}\t{it}\t{conv}"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def roots_of(spans):
    """Index of each span's root span."""
    root = []
    for i, s in enumerate(spans):
        root.append(i if s[PARENT] < 0 else root[s[PARENT]])
    return root


def layer_totals(spans, keep):
    """Per-layer inclusive seconds, self seconds and calls over spans whose
    index passes ``keep``.

    Inclusive time counts only spans without an ancestor of the same layer,
    so a quantile calling another quantile is not counted twice; calls count
    every span.
    """
    selfs = self_times(spans)
    layer = [LAYER_OF[s[NAME]] for s in spans]
    outer = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        nested = False
        while p >= 0:
            if layer[p] == layer[i]:
                nested = True
                break
            p = spans[p][PARENT]
        outer.append(not nested)
    totals = {}
    for i, s in enumerate(spans):
        if not keep(i):
            continue
        t = totals.setdefault(layer[i], {"s": 0.0, "self_s": 0.0, "calls": 0})
        if outer[i]:
            t["s"] += s[END] - s[START]
        t["self_s"] += selfs[i]
        t["calls"] += 1
    return totals


# layers whose work happens while schedules are resolved, reported per set-up;
# every other layer is reported per replication of the timed rounds
SETUP_LAYERS = ("simlab.resolve_schedule", "schedules.build", "quantiles")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("solver.operator_norm_sq.s", "s/rep", "lower"),
    ("solver.operator_norm_sq.calls", "count/rep", "lower"),
    ("solver.solve_slope.s", "s/rep", "lower"),
    ("solver.solve_slope.self_s", "s/rep", "lower"),
    ("solver.solve_slope.calls", "count/rep", "lower"),
    ("solver.fista_iters", "count/rep", "lower"),
    ("solver.converged_frac", "fraction", "higher"),
    ("sorted_l1.prox.s", "s/rep", "lower"),
    ("sorted_l1.prox.calls", "count/rep", "lower"),
    ("sorted_l1.dual_infeasibility.s", "s/rep", "lower"),
    ("sorted_l1.norm.s", "s/rep", "lower"),
    ("groups.solve_group_slope.s", "s/rep", "lower"),
    ("groups.solve_group_slope.self_s", "s/rep", "lower"),
    ("groups.solve_group_slope.calls", "count/rep", "lower"),
    ("groups.fista_iters", "count/rep", "lower"),
    ("groups.group_prox.s", "s/rep", "lower"),
    ("groups.group_prox.calls", "count/rep", "lower"),
    ("groups.standardize.s", "s/rep", "lower"),
    ("groups.standardize.calls", "count/rep", "lower"),
    ("simlab.gen.s", "s/rep", "lower"),
    ("simlab.gen.calls", "count/rep", "lower"),
    ("simlab.run_experiment.s", "s/rep", "lower"),
    ("simlab.run_experiment.self_s", "s/rep", "lower"),
    ("schedules.mc_correct.s", "s/rep", "lower"),
    ("schedules.mc_correct.calls", "count/rep", "lower"),
    ("stepdown.s", "s/rep", "lower"),
    ("stepdown.calls", "count/rep", "lower"),
    ("simlab.resolve_schedule.s", "s/setup", "lower"),
    ("schedules.build.s", "s/setup", "lower"),
    ("quantiles.s", "s/setup", "lower"),
    ("quantiles.calls", "count/setup", "lower"),
    ("trace_accounted_frac", "fraction", "higher"),
    ("trace_overhead_frac", "fraction", "lower"),
)


def layer_metrics(spans, reps, loop_seconds):
    """Per-layer metrics of one traced set-up followed by traced rounds.

    Spans under a resolve_schedule root belong to the set-up, spans under a
    run_experiment root to the rounds.  ``reps`` is the number of
    replications the rounds ran and ``loop_seconds`` their wall time.
    trace_overhead_frac needs an untraced run and is left to the caller.
    """
    root = roots_of(spans)
    in_setup = [spans[r][NAME] == "simlab.resolve_schedule" for r in root]
    setup = layer_totals(spans, lambda i: in_setup[i])
    rounds = layer_totals(spans, lambda i: not in_setup[i])

    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer in SETUP_LAYERS:
            out[name] = setup.get(layer, {}).get(stat, 0)
        elif layer and stat in ("s", "self_s", "calls"):
            out[name] = rounds.get(layer, {}).get(stat, 0) / reps

    def fits(name):
        return [s[FIT] for s in spans if s[NAME] == name and s[FIT] is not None]

    feature = fits("solver.solve_slope")
    out["solver.fista_iters"] = sum(it for it, _ in feature) / reps
    out["groups.fista_iters"] = sum(it for it, _ in fits("groups.solve_group_slope")) / reps
    # vacuously 1 when the workload fits no feature-level model
    out["solver.converged_frac"] = sum(c for _, c in feature) / len(feature) if feature else 1.0
    selfs = self_times(spans)
    out["trace_accounted_frac"] = (
        sum(t for i, t in enumerate(selfs) if not in_setup[i]) / loop_seconds
    )
    return out
