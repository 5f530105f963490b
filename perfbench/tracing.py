"""Layer tracing from outside the package.

Each traced function is replaced, in every ``graphon_games`` module namespace
that holds it, by a wrapper that records a span (id, name, start, end,
parent id, trial id). Callers inside the package look functions up in their
own module globals at call time, so replacing those references is enough to
see every call; nothing under ``src/`` is edited. Spans stay in memory and
are written out when the run ends.

A span's self time is its duration minus the durations of its direct
children. Summed over all spans, self times equal the total duration of the
root spans, so per-layer self times add up to the traced wall time up to the
benchmark's own glue between calls (reported as ``trace.unattributed_frac``).
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("kernels", "spectral", "sampling", "equilibrium", "interventions", "bayes",
          "experiments", "cli")


def _count_evaluate(tr, args, out):
    tr.count("kernels.evaluate.points", np.size(out))


def _count_discretize(tr, args, out):
    tr.count("spectral.discretize.computed_bytes", out.kernel_matrix.nbytes)


def _count_edges(tr, args, out):
    tr.count("sampling.simple_network.edges", np.count_nonzero(out.A) // 2)


def _count_solve(tr, args, out):
    tr.count("equilibrium.direct_solves" if out.method == "direct-solve"
             else "equilibrium.br_solves", 1)
    tr.count("equilibrium.br_iterations", out.iterations)
    tr.maximum("equilibrium.contraction_factor.max", out.contraction_factor)


def _count_draws(tr, args, out):
    tr.count("bayes.draws", out.trials)


def _count_trial(tr, args, out):
    tr.count("experiments.failed_trials", out[-1] is not None)


def _distance_trial_id(args):
    _, _, n, trial, _, _ = args[0]
    return f"N={n}/t={trial}"


def _intervention_trial_id(args):
    return f"N={args[0][4]}/t={args[0][5]}"


def _bne_trial_id(args):
    return f"bne/N={args[3]}"


# (module, function, span name, counter hook, trial-id hook). Private helpers
# appear where they are the unit of work a layer metric names: the per-trial
# workers, the batched welfare solve and the contraction check.
TRACED = (
    ("kernels", "evaluate", "kernels.evaluate", _count_evaluate, None),
    ("spectral", "discretize", "spectral.discretize", _count_discretize, None),
    ("spectral", "dominant_eigenpair", "spectral.dominant_eigenpair", None, None),
    ("spectral", "top_k_eigen", "spectral.top_k_eigen", None, None),
    ("sampling", "sample_types", "sampling.sample_types", None, None),
    ("sampling", "weighted_network", "sampling.weighted_network", None, None),
    ("sampling", "simple_network", "sampling.simple_network", _count_edges, None),
    ("equilibrium", "solve_network_lq", "equilibrium.solve_network", _count_solve, None),
    ("equilibrium", "solve_network_generic", "equilibrium.solve_network", _count_solve, None),
    ("equilibrium", "solve_graphon_lq", "equilibrium.solve_graphon", _count_solve, None),
    ("equilibrium", "solve_graphon_generic", "equilibrium.solve_graphon", _count_solve, None),
    ("equilibrium", "matrix_dominant_eigenvalue", "equilibrium.contraction_check", None, None),
    ("interventions", "optimal_intervention", "interventions.optimal_intervention", None, None),
    ("interventions", "network_heuristic", "interventions.network_heuristic", None, None),
    ("interventions", "graphon_heuristic", "interventions.graphon_heuristic", None, None),
    ("interventions", "_welfares", "interventions.welfares", None, None),
    ("bayes", "estimate_epsilon", "bayes.estimate_epsilon", _count_draws, _bne_trial_id),
    ("bayes", "expected_aggregate", "bayes.expected_aggregate", None, None),
    ("experiments", "distance_experiment", "experiments.distance_experiment", None, None),
    ("experiments", "intervention_experiment", "experiments.intervention_experiment", None, None),
    ("experiments", "_distance_trial", "experiments.trial", _count_trial, _distance_trial_id),
    ("experiments", "_intervention_trial", "experiments.trial", _count_trial,
     _intervention_trial_id),
    ("cli", "main", "cli.main", None, None),
)

# name -> (unit, better); the per-layer metrics a traced run reports.
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "kernels.evaluate.calls": ("count", "lower"),
    "kernels.evaluate.points": ("count", "lower"),
    "kernels.evaluate.self_s": ("s", "lower"),
    "spectral.discretize.calls": ("count", "lower"),
    "spectral.discretize.self_s": ("s", "lower"),
    "spectral.discretize.computed_bytes": ("B", "lower"),
    "spectral.dominant_eigenpair.calls": ("count", "lower"),
    "spectral.dominant_eigenpair.self_s": ("s", "lower"),
    "spectral.top_k_eigen.self_s": ("s", "lower"),
    "sampling.sample_types.self_s": ("s", "lower"),
    "sampling.weighted_network.self_s": ("s", "lower"),
    "sampling.simple_network.self_s": ("s", "lower"),
    "sampling.simple_network.edges": ("count", "lower"),
    "equilibrium.solve_network.calls": ("count", "lower"),
    "equilibrium.solve_network.self_s": ("s", "lower"),
    "equilibrium.contraction_check.self_s": ("s", "lower"),
    "equilibrium.solve_graphon.calls": ("count", "lower"),
    "equilibrium.solve_graphon.self_s": ("s", "lower"),
    "equilibrium.direct_solves": ("count", "higher"),
    "equilibrium.br_solves": ("count", "lower"),
    "equilibrium.br_iterations": ("count", "lower"),
    "equilibrium.contraction_factor.max": ("ratio", "lower"),
    "interventions.optimal_intervention.self_s": ("s", "lower"),
    "interventions.network_heuristic.self_s": ("s", "lower"),
    "interventions.graphon_heuristic.self_s": ("s", "lower"),
    "interventions.welfares.self_s": ("s", "lower"),
    "bayes.estimate_epsilon.calls": ("count", "lower"),
    "bayes.estimate_epsilon.self_s": ("s", "lower"),
    "bayes.expected_aggregate.calls": ("count", "lower"),
    "bayes.expected_aggregate.self_s": ("s", "lower"),
    "bayes.draws": ("count", "higher"),
    "experiments.trials": ("count", "higher"),
    "experiments.failed_trials": ("count", "lower"),
    "experiments.trial_ms.p50": ("ms", "lower"),
    "experiments.trial_ms.p90": ("ms", "lower"),
    "experiments.pool.wall_s": ("s", "lower"),
    "experiments.pool.speedup": ("x", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
}


# What a counter or trial-id hook may raise when the package's internals
# change shape (a renamed field, a new task tuple). Such a hook is skipped and
# reported, so a refactor loses a counter rather than the traced run.
HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, trial id)
        self.counters = defaultdict(float)
        self.maxima = {}
        self.missing = []  # TRACED entries the package no longer has
        self.hook_errors = set()
        self._stack = []
        self._trial = None

    def _hook(self, name, hook, *args):
        try:
            return hook(*args)
        except HOOK_ERRORS as exc:
            self.hook_errors.add(f"{name}: {exc!r}")
            return None

    def count(self, name, amount):
        self.counters[name] += float(amount)

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, -np.inf), float(value))

    def _wrap(self, fn, name, counter, trial_of):
        def wrapper(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else None
            outer_trial = self._trial
            if trial_of is not None:
                self._trial = self._hook(name, trial_of, args)
            trial = self._trial
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._trial = outer_trial
                self.spans.append((span_id, name, start, end, parent, trial))
            if counter is not None:
                self._hook(name, counter, self, args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every reference to a traced function in the package while active."""
        wrappers = {}
        for module, fn_name, span, counter, trial_of in TRACED:
            original = getattr(sys.modules.get(f"graphon_games.{module}"), fn_name, None)
            if original is None:
                self.missing.append(f"{module}.{fn_name}")
                continue
            wrappers[id(original)] = (original, self._wrap(original, span, counter, trial_of))
        patched = []
        for name, mod in list(sys.modules.items()):
            if name != "graphon_games" and not name.startswith("graphon_games."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start,end,parent,trial\n")
            for span_id, name, start, end, parent, trial in sorted(self.spans):
                fh.write(f"{span_id},{name},{start!r},{end!r},"
                         f"{'' if parent is None else parent},{trial or ''}\n")

    def metrics(self, passes: int, traced_wall: float) -> dict:
        """Per-layer metrics per traced pass (counts and self times averaged).

        ``traced_wall`` is the summed wall time of the traced passes.
        """
        durations = {sid: end - start for sid, _, start, end, _, _ in self.spans}
        child_time = defaultdict(float)
        for sid, _, _, _, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += durations[sid]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        trial_ms = []
        for sid, name, _, _, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += durations[sid] - child_time[sid]
            if name == "experiments.trial":
                trial_ms.append(1e3 * durations[sid])
        out = dict.fromkeys(PER_LAYER, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.startswith(layer + ".")) / passes
        for name in PER_LAYER:
            stem, _, stat = name.rpartition(".")
            if stem in calls and stat in ("calls", "self_s"):
                out[name] = (calls[stem] if stat == "calls" else self_s[stem]) / passes
        for name, total in self.counters.items():
            out[name] = total / passes
        out.update(self.maxima)
        out["experiments.trials"] = calls["experiments.trial"] / passes
        if trial_ms:
            p50, p90 = np.percentile(trial_ms, (50, 90))
            out["experiments.trial_ms.p50"] = float(p50)
            out["experiments.trial_ms.p90"] = float(p90)
        attributed = sum(self_s.values())
        out["trace.unattributed_frac"] = (traced_wall - attributed) / traced_wall
        return out
