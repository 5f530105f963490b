"""Seeded Monte Carlo pipelines and plot-ready CSV emission.

Two pipelines are provided. The distance experiment samples networks of
increasing size, solves each sampled game, and records the L2 distance of the
step-function equilibrium from the infinite-population equilibrium together
with the theoretical high-probability bounds. The intervention experiment
compares welfare under the policies of the interventions module on sampled
0-1 networks.

Every trial owns a seed derived deterministically from (root seed, N, trial
index), so results are reproducible bit for bit and independent of the worker
count. Failed trials are counted, never dropped silently.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    LqPayoff,
    bound_rho,
    comparative_statics_bound,
    l2_distance,
    lq_s_max,
    solve_graphon,
    solve_network,
    step_function_embed,
)
from .errors import ContractionError, IterationLimitError
from .interventions import (
    _welfares,
    graphon_heuristic,
    homogeneous_policy,
    network_heuristic,
    no_intervention,
    optimal_intervention,
)
from .kernels import GraphonSpec, lipschitz_metadata
from .sampling import sample_types, simple_network, weighted_network
from .spectral import GridFunction

__all__ = [
    "DistanceStats",
    "WelfareStats",
    "distance_experiment",
    "intervention_experiment",
    "rate_fit",
    "write_distance_csv",
    "write_welfare_csv",
    "DISTANCE_CSV_HEADER",
    "WELFARE_CSV_HEADER",
]

DISTANCE_CSV_HEADER = "N,trial,kind,distance,bound,d_N_event"
WELFARE_CSV_HEADER = "N,trial,T,T_hom,T_nh,T_gh,T_opt,gap"
_PCTS = (0, 25, 50, 75, 95)

_TRIAL_ERRORS = (ContractionError, IterationLimitError, np.linalg.LinAlgError)


@dataclass
class DistanceStats:
    """Distance percentiles for one population size and one network kind."""

    N: int
    trials: int
    kind: str  # "weighted" or "simple"
    percentiles: dict
    bound_weighted: float
    bound_simple: float
    failures: int = 0


@dataclass
class WelfareStats:
    """Welfare means and heuristic-gap percentiles for one population size."""

    N: int
    trials: int
    mean_T: float
    mean_T_hom: float
    mean_T_nh: float
    mean_T_gh: float
    mean_T_opt: float  # nan when the optimal solver was capped out
    gap_percentiles: dict
    ratio_percentiles: dict
    failures: int = 0


def subseed(root, *key) -> int:
    """Derive a deterministic child seed from a root seed and an index path."""
    ss = np.random.SeedSequence(entropy=[int(root)] + [int(k) for k in key])
    return int(ss.generate_state(1, np.uint64)[0])


def _percentile_dict(values: np.ndarray) -> dict:
    qs = np.percentile(values, _PCTS)
    return {f"p{p}": float(q) for p, q in zip(_PCTS, qs)}


def _s_max_for(payoff, lam: float) -> float:
    if isinstance(payoff, LqPayoff):
        return lq_s_max(payoff, lam)
    return payoff.bounds[1]


def _max_type_deviation(types: np.ndarray) -> float:
    # Worst distance from type i to any point of cell i; the maximum over a
    # cell is attained at one of its endpoints.
    N = types.shape[0]
    lefts = np.arange(N) / N
    rights = np.arange(1, N + 1) / N
    return float(np.max(np.maximum(np.abs(types - lefts), np.abs(types - rights))))


def _distance_trial(args):
    spec, payoff, N, trial, seed, sbar_values = args
    sbar = GridFunction(sbar_values)
    try:
        types = sample_types(N, subseed(seed, N, trial, 0))
        Pw = weighted_network(spec, types)
        Ps = simple_network(Pw, subseed(seed, N, trial, 1))
        rep_w = solve_network(Pw.P, payoff)
        rep_s = solve_network(Ps.A, payoff)
        dist_w = l2_distance(step_function_embed(rep_w.profile_array()), sbar)
        dist_s = l2_distance(step_function_embed(rep_s.profile_array()), sbar)
        return (N, trial, dist_w, dist_s, _max_type_deviation(types.types), None)
    except _TRIAL_ERRORS as exc:
        return (N, trial, math.nan, math.nan, math.nan, repr(exc))


def _run_tasks(worker, tasks, jobs):
    if jobs is None or jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))


def distance_experiment(spec: GraphonSpec, payoff, Ns, trials: int, delta: float, M: int,
                        seed, jobs: int = 1, csv_path=None):
    """Distance-to-limit statistics across population sizes.

    Solves the infinite-population game once at resolution M, then for each
    (N, trial) samples both network kinds, solves them, and records L2
    distances plus the applicable theoretical bounds at confidence delta.
    Returns one DistanceStats per (N, kind), weighted before simple, in the
    order of Ns. When csv_path is given, per-trial rows are also written in
    the fixed distances schema.
    """
    Ns = [int(n) for n in Ns]
    if trials < 1:
        raise ValueError("need at least one trial")
    if M < 2 * max(Ns):
        raise ValueError(f"reference resolution M={M} must be at least twice max N={max(Ns)}")

    limit = solve_graphon(spec, payoff, M)
    sbar, lam = limit.profile, limit.lambda_max
    Ktilde = comparative_statics_bound(payoff, lam, _s_max_for(payoff, lam))
    L, Omega = lipschitz_metadata(spec)
    per_n_bounds = {n: bound_rho(n, delta, L, Omega, Ktilde) for n in Ns}

    tasks = [(spec, payoff, n, t, seed, sbar.values) for n in Ns for t in range(trials)]
    results = _run_tasks(_distance_trial, tasks, jobs)

    rows = []
    stats = []
    for n in Ns:
        d_N, _, bound_w, bound_s = per_n_bounds[n]
        dists_w, dists_s, failures = [], [], 0
        for (rn, trial, dw, ds, dev, err) in results:
            if rn != n:
                continue
            if err is not None:
                failures += 1
                continue
            event = 1 if dev <= d_N else 0
            rows.append((n, trial, "w", dw, bound_w, event))
            rows.append((n, trial, "s", ds, bound_s, event))
            dists_w.append(dw)
            dists_s.append(ds)
        for kind, dists in (("weighted", dists_w), ("simple", dists_s)):
            stats.append(DistanceStats(
                N=n, trials=trials, kind=kind,
                percentiles=_percentile_dict(np.asarray(dists)) if dists else {},
                bound_weighted=bound_w, bound_simple=bound_s, failures=failures,
            ))
    if csv_path is not None:
        write_distance_csv(rows, csv_path)
    return stats


def _intervention_trial(args):
    spec, alpha, beta, c_per_agent, N, trial, seed, optimal_cap, M = args
    C = c_per_agent * N
    try:
        types = sample_types(N, subseed(seed, N, trial, 0))
        Pw = weighted_network(spec, types)
        Ps = simple_network(Pw, subseed(seed, N, trial, 1))
        A = Ps.A
        allocations = [
            no_intervention(beta, N).beta_hat,
            homogeneous_policy(beta, C, N).beta_hat,
            network_heuristic(A, beta, C).beta_hat,
            graphon_heuristic(spec, types, beta, C, M=M).beta_hat,
        ]
        T, T_hom, T_nh, T_gh = _welfares(A, alpha, allocations)
        T_opt = optimal_intervention(A, alpha, beta, C).welfare if N <= optimal_cap else math.nan
        return (N, trial, T, T_hom, T_nh, T_gh, T_opt, abs(T_nh - T_gh), None)
    except _TRIAL_ERRORS as exc:
        return (N, trial, *([math.nan] * 6), repr(exc))


def intervention_experiment(spec: GraphonSpec, alpha: float, beta: float, c_per_agent: float,
                            Ns, trials: int, optimal_cap: int, seed,
                            jobs: int = 1, M: int = 1000, csv_path=None):
    """Welfare comparison of intervention policies on sampled 0-1 networks.

    The per-agent budget scales the total budget as C = c_per_agent * N. The
    exact optimal policy is computed only for N up to optimal_cap (it needs a
    full eigendecomposition per trial). Returns one WelfareStats per N.
    """
    Ns = [int(n) for n in Ns]
    if trials < 1:
        raise ValueError("need at least one trial")
    if alpha <= 0.0:
        raise ValueError("intervention experiments require strategic complements (alpha > 0)")

    tasks = [(spec, alpha, beta, c_per_agent, n, t, seed, optimal_cap, M)
             for n in Ns for t in range(trials)]
    results = _run_tasks(_intervention_trial, tasks, jobs)

    rows = []
    stats = []
    for n in Ns:
        per_trial = [r for r in results if r[0] == n]
        ok = [r for r in per_trial if r[8] is None]
        failures = len(per_trial) - len(ok)
        for (_, trial, T, T_hom, T_nh, T_gh, T_opt, gap, _) in ok:
            rows.append((n, trial, T, T_hom, T_nh, T_gh, T_opt, gap))
        if ok:
            arr = np.asarray([[r[2], r[3], r[4], r[5], r[6], r[7]] for r in ok])
            opt_col = arr[:, 4]
            opt_mean = float(np.mean(opt_col)) if not np.isnan(opt_col).any() else math.nan
            gaps = arr[:, 5]
            ratios = arr[:, 3] / arr[:, 2]
            stats.append(WelfareStats(
                N=n, trials=trials,
                mean_T=float(arr[:, 0].mean()), mean_T_hom=float(arr[:, 1].mean()),
                mean_T_nh=float(arr[:, 2].mean()), mean_T_gh=float(arr[:, 3].mean()),
                mean_T_opt=opt_mean,
                gap_percentiles=_percentile_dict(gaps),
                ratio_percentiles=_percentile_dict(ratios),
                failures=failures,
            ))
        else:
            stats.append(WelfareStats(N=n, trials=trials, mean_T=math.nan, mean_T_hom=math.nan,
                                      mean_T_nh=math.nan, mean_T_gh=math.nan, mean_T_opt=math.nan,
                                      gap_percentiles={}, ratio_percentiles={}, failures=failures))
    if csv_path is not None:
        write_welfare_csv(rows, csv_path)
    return stats


def rate_fit(Ns, medians, delta: float):
    """Least-squares fit of log(median) against log sqrt(log(N/delta)/N).

    Returns (slope, intercept, r2). A slope near one means the medians decay
    at the theoretical sampling rate.
    """
    Ns = np.asarray(Ns, dtype=float)
    medians = np.asarray(medians, dtype=float)
    if np.any(medians <= 0.0):
        raise ValueError("medians must be positive for a log-log fit")
    x = np.log(np.sqrt(np.log(Ns / delta) / Ns))
    y = np.log(medians)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), float(r2)


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, header: str, rows) -> None:
    """Write the header, then one LF-terminated line per row of ``_fmt`` cells."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def write_distance_csv(rows, path) -> None:
    _write_csv(path, DISTANCE_CSV_HEADER, rows)


def write_welfare_csv(rows, path) -> None:
    _write_csv(path, WELFARE_CSV_HEADER, rows)
