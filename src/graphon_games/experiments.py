"""Seeded Monte Carlo pipelines and plot-ready CSV emission.

Two pipelines are provided. The distance experiment samples networks of
increasing size, solves each sampled game, and records the L2 distance of the
step-function equilibrium from the infinite-population equilibrium together
with the theoretical high-probability bounds. The intervention experiment
compares welfare under the policies of the interventions module on sampled
0-1 networks.

Every trial owns a seed derived deterministically from (root seed, N, trial
index), so results are reproducible bit for bit, whichever process runs which
population sizes; every trial runs in the calling process. Failed trials are
counted, never dropped silently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    LqPayoff,
    _solve,
    bound_rho,
    comparative_statics_bound,
    l2_distance,
    lq_s_max,
    solve_graphon,
    step_function_embed,
)
from .errors import ContractionError, IterationLimitError, _check_size
from .interventions import POLICIES, _policies
from .kernels import GraphonSpec, lipschitz_metadata
from .sampling import _kernel_links, sample_types
from .spectral import DiscretizedOperator

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


def _max_type_deviation(types: np.ndarray) -> float:
    # Worst distance from type i to any point of cell i; the maximum over a
    # cell is attained at one of its endpoints.
    N = types.shape[0]
    lefts = np.arange(N) / N
    rights = np.arange(1, N + 1) / N
    return float(np.max(np.maximum(np.abs(types - lefts), np.abs(types - rights))))


def _sizes(Ns, trials: int) -> tuple[list[int], int]:
    Ns = [_check_size(n, "each of Ns", 1) for n in Ns]
    if len(set(Ns)) < len(Ns):
        raise ValueError(f"population sizes must be distinct, got {Ns}")
    return Ns, _check_size(trials, "trials", 1)


def _trial_networks(spec: GraphonSpec, N: int, trial: int, seed):
    """Sorted types and A/N, the 0-1 matrix scaled, of one trial, each from its own subseed.

    A/N is ``simple_network(weighted_network(spec, types), seed).A / N`` bit for
    bit, drawn from the kernel at the types with no N x N P and written once. The
    trial owns it, symmetric, finite and >= 0: it is solved with no input checks.
    """
    types = sample_types(N, subseed(seed, N, trial, 0))
    return types, _kernel_links(spec, types, subseed(seed, N, trial, 1), 1.0 / N)


def _run_trials(trial_fn, head, tail, Ns, trials: int, seed):
    """Run ``trial_fn`` on each (*head, N, trial, seed, *tail); {N: (successes, failure count)}."""
    results = [trial_fn((*head, n, t, seed, *tail)) for n in Ns for t in range(trials)]
    ok = {n: [r for r in results if r[0] == n and r[-1] is None] for n in Ns}
    return {n: (ok[n], trials - len(ok[n])) for n in Ns}


def _distance_trial(args):
    """(N, trial, d_w, d_s, max type deviation, None or the error). Its solves read no
    lambda_max, so each may gate on the Collatz-Wielandt bound at its x (``_solve``)."""
    spec, payoff, N, trial, seed, sbar = args
    try:
        types, A_N = _trial_networks(spec, N, trial, seed)
        # The weighted game runs on the kernel's operator at the types, P/N applied without P.
        G = DiscretizedOperator(spec, N, types.types)
        reps = [_solve(X, True, payoff, lam_wanted=False) for X in (G, A_N)]
        dist_w, dist_s = (l2_distance(step_function_embed(r.profile_array()), sbar) for r in reps)
        return (N, trial, dist_w, dist_s, _max_type_deviation(types.types), None)
    except _TRIAL_ERRORS as exc:
        return (N, trial, math.nan, math.nan, math.nan, repr(exc))


def distance_experiment(spec: GraphonSpec, payoff, Ns, trials: int, delta: float, M: int,
                        seed, jobs: int = 1, csv_path=None):
    """Distance-to-limit statistics across population sizes.

    Solves the infinite-population game once at resolution M, then for each
    (N, trial) solves the weighted game on the kernel's operator at the
    sorted types (no N x N P) and the game on a sampled 0-1 network, and
    records L2 distances plus the applicable theoretical bounds at confidence
    delta. ``jobs`` is accepted for compatibility and ignored: every trial
    runs in the calling process.
    Returns one DistanceStats per (N, kind), weighted before simple, in the
    order of Ns. When csv_path is given, per-trial rows are also written in
    the fixed distances schema.
    """
    Ns, trials = _sizes(Ns, trials)
    if M < 2 * max(Ns):
        raise ValueError(f"reference resolution M={M} must be at least twice max N={max(Ns)}")

    limit = solve_graphon(spec, payoff, M)
    sbar, lam = limit.profile, limit.lambda_max
    s_max = lq_s_max(payoff, lam) if isinstance(payoff, LqPayoff) else payoff.bounds[1]
    Ktilde = comparative_statics_bound(payoff, lam, s_max)
    L, Omega = lipschitz_metadata(spec)
    per_n_bounds = {n: bound_rho(n, delta, L, Omega, Ktilde) for n in Ns}

    by_n = _run_trials(_distance_trial, (spec, payoff), (sbar,), Ns, trials, seed)

    rows = []
    stats = []
    for n in Ns:
        d_N, _, bound_w, bound_s = per_n_bounds[n]
        ok, failures = by_n[n]
        for (_, trial, dw, ds, dev, _) in ok:
            rows.append((n, trial, "w", dw, bound_w, int(dev <= d_N)))
            rows.append((n, trial, "s", ds, bound_s, int(dev <= d_N)))
        for kind, col in (("weighted", 2), ("simple", 3)):
            stats.append(DistanceStats(
                N=n, trials=trials, kind=kind,
                percentiles=_percentile_dict(np.asarray([r[col] for r in ok])) if ok else {},
                bound_weighted=bound_w, bound_simple=bound_s, failures=failures,
            ))
    if csv_path is not None:
        write_distance_csv(rows, csv_path)
    return stats


def _intervention_trial(args):
    spec, alpha, beta, c_per_agent, N, trial, seed, optimal_cap = args
    C = c_per_agent * N
    try:
        types, A_N = _trial_networks(spec, N, trial, seed)
        res = _policies(A_N, spec, types, alpha, beta, C,
                        POLICIES[1:] if N <= optimal_cap else POLICIES[1:4])
        T, T_hom, T_nh, T_gh, T_opt = (res[p].welfare if p in res else math.nan for p in POLICIES)
        return (N, trial, T, T_hom, T_nh, T_gh, T_opt, abs(T_nh - T_gh), None)
    except _TRIAL_ERRORS as exc:
        return (N, trial, *([math.nan] * 6), repr(exc))


def intervention_experiment(spec: GraphonSpec, alpha: float, beta: float, c_per_agent: float,
                            Ns, trials: int, optimal_cap: int, seed,
                            jobs: int = 1, csv_path=None):
    """Welfare comparison of intervention policies on sampled 0-1 networks.

    The total budget is C = c_per_agent * N; the graphon heuristic reads the
    kernel at its own resolution. The exact optimum (a Lanczos projection,
    certified, or exact once the run from 1 ends; T_opt read in its basis) is
    computed only for N up to optimal_cap (an integer >= 0). One WelfareStats per N. Like
    every policy, it requires alpha > 0 and beta >= 0: else, or at NaN, ValueError.
    ``jobs`` is ignored, as in ``distance_experiment``.
    """
    Ns, trials = _sizes(Ns, trials)
    optimal_cap = _check_size(optimal_cap, "optimal_cap", 0)
    by_n = _run_trials(_intervention_trial, (spec, alpha, beta, c_per_agent), (optimal_cap,),
                       Ns, trials, seed)

    rows = []
    stats = []
    for n in Ns:
        ok, failures = by_n[n]
        rows.extend(r[:-1] for r in ok)
        if ok:
            # each mean is a 1-D mean of its own column, so its summation order is fixed
            T, T_hom, T_nh, T_gh, T_opt, gaps = (np.asarray(col) for col in list(zip(*ok))[2:8])
            stats.append(WelfareStats(
                N=n, trials=trials,
                mean_T=float(T.mean()), mean_T_hom=float(T_hom.mean()),
                mean_T_nh=float(T_nh.mean()), mean_T_gh=float(T_gh.mean()),
                mean_T_opt=float(T_opt.mean()) if not np.isnan(T_opt).any() else math.nan,
                gap_percentiles=_percentile_dict(gaps),
                ratio_percentiles=_percentile_dict(T_gh / T_nh),
                failures=failures,
            ))
        else:
            stats.append(WelfareStats(n, trials, *[math.nan] * 5, {}, {}, failures))
    if csv_path is not None:
        write_welfare_csv(rows, csv_path)
    return stats


def rate_fit(Ns, medians, delta: float):
    """Least-squares fit of log(median) against log sqrt(log(N/delta)/N).

    Returns (slope, intercept, r2). A slope near one means the medians decay
    at the theoretical sampling rate. Each N is an integer >= 2 and delta lies in (0, e^-1],
    as in ``bound_rho``; two or more N, one median each. Anything else raises ValueError.
    """
    Ns = np.asarray([_check_size(n, "each of Ns", 2) for n in Ns], dtype=float)
    medians = np.asarray(medians, dtype=float)
    if medians.shape != Ns.shape or len(Ns) < 2:
        raise ValueError(f"Ns and medians must have one length >= 2, got {Ns.size}, {medians.size}")
    if not 0.0 < delta <= math.exp(-1.0):
        raise ValueError(f"delta must lie in (0, e^-1], got {delta}")
    if not np.all(medians > 0.0):
        raise ValueError("medians must be positive for a log-log fit")
    x = np.log(np.sqrt(np.log(Ns / delta) / Ns))
    y = np.log(medians)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), float(r2)


_CSV_BLOCK = 4096  # rows formatted at a time: a table's cell strings never all exist at once
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_reprs(a, spelling: dict) -> list:
    """repr of each float64 of the non-empty ``a``, made once per run of equal bits (0.0 and
    -0.0 apart), with 'nan', 'inf' and '-inf' respelled by ``spelling``."""
    a = np.asarray(a, dtype=np.float64)
    bits = a.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    heads = a[starts]
    strs = list(map(repr, heads.tolist()))
    if not np.isfinite(heads).all():
        strs = [spelling.get(s, s) for s in strs]
    if len(strs) == len(a):
        return strs
    return np.repeat(np.array(strs, dtype=object), np.diff(starts, append=len(a))).tolist()


def _cells(block) -> list:
    """Lists and tuples cell by cell: floats by repr, NaN and None as empty cells, anything
    else by str. Float arrays by ``_float_reprs``, NaN empty; other arrays and ranges by str."""
    if isinstance(block, (list, tuple)):
        return ["" if v is None or v != v else repr(float(v)) if isinstance(v, float) else str(v)
                for v in block]
    if isinstance(block, np.ndarray) and block.dtype.kind == "f":
        return _float_reprs(block, {"nan": ""})
    return list(map(str, block.tolist() if isinstance(block, np.ndarray) else block))


def _write_csv(path, header: str, columns) -> None:
    """The header, then one LF-terminated line per row of the equal-length ``columns``. Cells
    go by ``_cells`` a block of rows at a time, a float column's once per run of equal values."""
    _write_csv_parts(path, header, [columns])


def _write_csv_parts(path, header: str, parts) -> None:
    """``_write_csv`` of the ``parts`` in turn, each a list of equal-length columns: the rows of
    one part, then the next's, so that a caller can make the parts one at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for columns in parts:
            for i in range(0, len(columns[0]) if columns else 0, _CSV_BLOCK):
                block = [_cells(col[i:i + _CSV_BLOCK]) for col in columns]
                fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _json_chunks(doc, pad: str = ""):
    """``json.dumps(doc, indent=2)`` in pieces, each line after the first indented by ``pad``,
    a float64 array as its ``tolist()`` a row at a time; list floats by ``_float_reprs``."""
    if isinstance(doc, np.ndarray) and doc.dtype == np.float64 and doc.ndim:
        doc = list(doc) if doc.ndim > 1 else doc.tolist()
    inner = pad + "  "
    if isinstance(doc, dict) and doc and all(isinstance(key, str) for key in doc):
        for i, (key, value) in enumerate(doc.items()):
            yield ("{\n" if i == 0 else ",\n") + inner + json.dumps(key) + ": "
            yield from _json_chunks(value, inner)
        yield "\n" + pad + "}"
    elif isinstance(doc, (list, tuple)) and doc:
        for i in range(0, len(doc), _CSV_BLOCK):
            block = doc[i:i + _CSV_BLOCK]
            if set(map(type, block)) == {float}:
                yield ("[\n" if i == 0 else ",\n") + inner + (",\n" + inner).join(
                    _float_reprs(block, _JSON_SPELLING))
                continue
            for j, value in enumerate(block, i):
                yield ("[\n" if j == 0 else ",\n") + inner
                yield from _json_chunks(value, inner)
        yield "\n" + pad + "]"
    else:  # a leaf, an empty container or a dict with a key json must convert
        yield json.dumps(doc, indent=2).replace("\n", "\n" + pad)


def write_distance_csv(rows, path) -> None:
    _write_csv(path, DISTANCE_CSV_HEADER, list(zip(*rows)))


def write_welfare_csv(rows, path) -> None:
    _write_csv(path, WELFARE_CSV_HEADER, list(zip(*rows)))
