"""Command-line front end.

Every subcommand writes its artifacts under --out together with a
manifest.json recording the resolved configuration, the seed and the library
versions, which is enough to reproduce the run exactly. Options may also be
supplied through a JSON config file (--config); explicit flags win over
config values.

Exit codes: 0 success, 1 validation or usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import estimate_epsilon, lq_L_U
from .equilibrium import LqPayoff, report_to_json, solve_graphon, solve_network
from .errors import ContractionError, IterationLimitError
from .experiments import _fmt, distance_experiment, intervention_experiment, subseed
from .interventions import (
    evaluate_policy,
    graphon_heuristic,
    homogeneous_policy,
    network_heuristic,
    no_intervention,
    optimal_intervention,
    result_to_json,
)
from .kernels import erdos_renyi, from_json as graphon_from_json, minmax, sbm
from .sampling import (
    load_network_json,
    network_to_json,
    sample_types,
    simple_network,
    weighted_network,
    write_edge_csv,
)
from .spectral import discretize, midpoints, top_k_eigen

__all__ = ["main", "entrypoint", "build_parser"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub):
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--seed", type=int, default=0, help="root RNG seed")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--config", default=None, help="JSON config file; flags override it")


def _add_graphon(sub):
    sub.add_argument("--graphon", choices=("er", "sbm", "minmax", "grid"), default=None)
    sub.add_argument("--er", type=float, default=None, help="shorthand: constant kernel with this p")
    sub.add_argument("--p", type=float, default=None, help="edge probability for --graphon er")
    sub.add_argument("--gin", type=float, default=None, help="within-community probability")
    sub.add_argument("--gout", type=float, default=None, help="across-community probability")
    sub.add_argument("--w", default=None, help="comma-separated community masses")
    sub.add_argument("--Q", default=None, help="JSON K x K community matrix (overrides gin/gout)")
    sub.add_argument("--graphon-json", default=None, help="file with a serialized graphon")


def build_graphon(args):
    if getattr(args, "graphon_json", None):
        with open(args.graphon_json) as fh:
            return graphon_from_json(json.load(fh))
    if getattr(args, "er", None) is not None:
        return erdos_renyi(args.er)
    kind = getattr(args, "graphon", None)
    if kind is None:
        raise UsageError("no graphon given: use --graphon, --er or --graphon-json")
    if kind == "minmax":
        return minmax()
    if kind == "er":
        if args.p is None:
            raise UsageError("--graphon er requires --p")
        return erdos_renyi(args.p)
    if kind == "sbm":
        if args.w is None:
            raise UsageError("--graphon sbm requires --w")
        w = [float(x) for x in args.w.split(",")]
        if args.Q is not None:
            Q = json.loads(args.Q)
        else:
            if args.gin is None or args.gout is None:
                raise UsageError("--graphon sbm requires --Q or both --gin and --gout")
            K = len(w)
            Q = [[args.gin if i == j else args.gout for j in range(K)] for i in range(K)]
        return sbm(Q, w)
    raise UsageError("--graphon grid requires --graphon-json with the cell values")


def _parse_ns(text) -> list[int]:
    return [int(x) for x in str(text).split(",")]


def _write_json(outdir: Path, name: str, doc) -> None:
    with open(outdir / name, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _manifest(outdir: Path, command: str, args) -> None:
    skip = {"func", "config", "required_params"}
    params = {k: v for k, v in vars(args).items() if k not in skip}
    _write_json(outdir, "manifest.json", {
        "command": command,
        "params": params,
        "versions": {
            "graphon_games": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    })


def _cmd_sample(args, outdir: Path) -> int:
    spec = build_graphon(args)
    types = sample_types(args.N, args.seed)
    Pw = weighted_network(spec, types)
    if args.simple:
        matrix = simple_network(Pw, subseed(args.seed, 1)).A
    else:
        matrix = Pw.P
    _write_json(outdir, "network.json", network_to_json(matrix, types))
    if args.format == "csv":
        write_edge_csv(matrix, outdir / "edges.csv")
    return 0


def _cmd_eigen(args, outdir: Path) -> int:
    spec = build_graphon(args)
    pairs = top_k_eigen(discretize(spec, args.M), args.k)
    if args.format == "json":
        _write_json(outdir, "eigen.json", {
            "values": [p.value for p in pairs],
            "functions": [p.function.to_json() for p in pairs],
        })
    else:
        with open(outdir / "eigenvalues.csv", "w") as fh:
            fh.write("rank,value\n")
            for i, p in enumerate(pairs, start=1):
                fh.write(f"{i},{_fmt(p.value)}\n")
        with open(outdir / "eigenfunctions.csv", "w") as fh:
            fh.write("midpoint," + ",".join(f"psi{i}" for i in range(1, len(pairs) + 1)) + "\n")
            mids = midpoints(args.M)
            for row, x in enumerate(mids):
                vals = ",".join(_fmt(float(p.function.values[row])) for p in pairs)
                fh.write(f"{_fmt(float(x))},{vals}\n")
    return 0


def _network_from_args(args, spec):
    if getattr(args, "network_json", None):
        matrix, types = load_network_json(args.network_json)
        return matrix, types
    if args.N is None:
        raise UsageError("either --N (to sample) or --network-json is required")
    types = sample_types(args.N, args.seed)
    Pw = weighted_network(spec, types)
    if getattr(args, "simple", False):
        return simple_network(Pw, subseed(args.seed, 1)).A, types
    return Pw.P, types


def _cmd_solve_network(args, outdir: Path) -> int:
    spec = None if args.network_json else build_graphon(args)
    matrix, _ = _network_from_args(args, spec)
    report = solve_network(matrix, LqPayoff(args.alpha, args.beta))
    _write_json(outdir, "equilibrium.json", report_to_json(report))
    if args.format == "csv":
        with open(outdir / "profile.csv", "w") as fh:
            fh.write("index,value\n")
            for i, v in enumerate(report.profile_array()):
                fh.write(f"{i},{_fmt(float(v))}\n")
    return 0


def _cmd_solve_graphon(args, outdir: Path) -> int:
    spec = build_graphon(args)
    report = solve_graphon(spec, LqPayoff(args.alpha, args.beta), args.M)
    _write_json(outdir, "equilibrium.json", report_to_json(report))
    if args.format == "csv":
        with open(outdir / "profile.csv", "w") as fh:
            fh.write("midpoint,value\n")
            for x, v in zip(midpoints(args.M), report.profile_array()):
                fh.write(f"{_fmt(float(x))},{_fmt(float(v))}\n")
    return 0


def _cmd_intervene(args, outdir: Path) -> int:
    spec = build_graphon(args)
    types = sample_types(args.N, args.seed)
    Pw = weighted_network(spec, types)
    A = simple_network(Pw, subseed(args.seed, 1)).A
    C = args.C if args.C is not None else args.c_per_agent * args.N

    results = []
    wanted = ("homogeneous", "network", "graphon", "optimal") if args.policy == "all" else (args.policy,)
    results.append(evaluate_policy(no_intervention(args.beta, args.N), A, args.alpha))
    for name in wanted:
        if name == "homogeneous":
            res = homogeneous_policy(args.beta, C, args.N)
        elif name == "network":
            res = network_heuristic(A, args.beta, C)
        elif name == "graphon":
            res = graphon_heuristic(spec, types, args.beta, C, M=args.M)
        else:
            res = optimal_intervention(A, args.alpha, args.beta, C)
        if math.isnan(res.welfare):
            res = evaluate_policy(res, A, args.alpha)
        results.append(res)

    _write_json(outdir, "interventions.json", [result_to_json(r) for r in results])
    if args.format == "csv":
        with open(outdir / "interventions.csv", "w") as fh:
            fh.write("policy,welfare,budget_used\n")
            for r in results:
                fh.write(f"{r.policy},{_fmt(r.welfare)},{_fmt(r.budget_used)}\n")
        with open(outdir / "allocations.csv", "w") as fh:
            fh.write("index," + ",".join(r.policy for r in results) + "\n")
            for i in range(args.N):
                row = ",".join(_fmt(float(r.beta_hat[i])) for r in results)
                fh.write(f"{i},{row}\n")
    return 0


def _cmd_distance_exp(args, outdir: Path) -> int:
    spec = build_graphon(args)
    payoff = LqPayoff(args.alpha, args.beta)
    stats = distance_experiment(
        spec, payoff, _parse_ns(args.Ns), args.trials, args.delta, args.M, args.seed,
        jobs=args.jobs or os.cpu_count(), csv_path=outdir / "distances.csv",
    )
    with open(outdir / "summary.csv", "w") as fh:
        fh.write("N,kind,p0,p25,p50,p75,p95,bound_weighted,bound_simple,failures\n")
        for st in stats:
            pct = ",".join(_fmt(st.percentiles.get(f"p{p}", math.nan)) for p in (0, 25, 50, 75, 95))
            fh.write(f"{st.N},{st.kind},{pct},{_fmt(st.bound_weighted)},"
                     f"{_fmt(st.bound_simple)},{st.failures}\n")
    if args.format == "json":
        _write_json(outdir, "summary.json", [vars(st) for st in stats])
    return 0


def _cmd_welfare_exp(args, outdir: Path) -> int:
    spec = build_graphon(args)
    stats = intervention_experiment(
        spec, args.alpha, args.beta, args.c_per_agent, _parse_ns(args.Ns), args.trials,
        args.optimal_cap, args.seed, jobs=args.jobs or os.cpu_count(), M=args.M,
        csv_path=outdir / "welfare.csv",
    )
    with open(outdir / "summary.csv", "w") as fh:
        fh.write("N,mean_T,mean_T_hom,mean_T_nh,mean_T_gh,mean_T_opt,gap_p50,ratio_p50,failures\n")
        for st in stats:
            fh.write(f"{st.N},{_fmt(st.mean_T)},{_fmt(st.mean_T_hom)},{_fmt(st.mean_T_nh)},"
                     f"{_fmt(st.mean_T_gh)},{_fmt(st.mean_T_opt)},"
                     f"{_fmt(st.gap_percentiles.get('p50', math.nan))},"
                     f"{_fmt(st.ratio_percentiles.get('p50', math.nan))},{st.failures}\n")
    if args.format == "json":
        _write_json(outdir, "summary.json", [vars(st) for st in stats])
    return 0


def _cmd_bne_epsilon(args, outdir: Path) -> int:
    spec = build_graphon(args)
    payoff = LqPayoff(args.alpha, args.beta)
    limit = solve_graphon(spec, payoff, args.M)
    L_U = lq_L_U(payoff, limit.lambda_max) if args.L_U is None else args.L_U
    rows = []
    for n in _parse_ns(args.Ns):
        est = estimate_epsilon(spec, payoff, L_U, n, args.trials,
                               subseed(args.seed, n), sbar=limit.profile, M=args.M)
        rows.append(est)
    with open(outdir / "epsilon.csv", "w") as fh:
        fh.write("N,epsilon_hat,stderr\n")
        for est in rows:
            fh.write(f"{est.N},{_fmt(est.epsilon_hat)},{_fmt(est.stderr)}\n")
    if args.format == "json":
        _write_json(outdir, "epsilon.json", [est.to_json() for est in rows])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="graphon-games", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("sample", help="sample a network from a graphon")
    _add_graphon(sp)
    _add_common(sp)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--simple", action="store_true", help="draw the 0-1 network")
    sp.set_defaults(func=_cmd_sample, required_params=("N",))

    sp = subs.add_parser("eigen", help="leading spectrum of the discretized kernel")
    _add_graphon(sp)
    _add_common(sp)
    sp.add_argument("--M", type=int, default=2000)
    sp.add_argument("--k", type=int, default=1)
    sp.set_defaults(func=_cmd_eigen)

    sp = subs.add_parser("solve-network", help="equilibrium of a sampled or given network game")
    _add_graphon(sp)
    _add_common(sp)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--simple", action="store_true")
    sp.add_argument("--network-json", default=None, help="load the network instead of sampling")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.set_defaults(func=_cmd_solve_network, required_params=("alpha", "beta"))

    sp = subs.add_parser("solve-graphon", help="equilibrium of the discretized graphon game")
    _add_graphon(sp)
    _add_common(sp)
    sp.add_argument("--M", type=int, default=2000)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.set_defaults(func=_cmd_solve_graphon, required_params=("alpha", "beta"))

    sp = subs.add_parser("intervene", help="budget allocation policies on a sampled network")
    _add_graphon(sp)
    _add_common(sp)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--C", type=float, default=None, help="total budget")
    sp.add_argument("--c-per-agent", type=float, default=0.01, help="per-agent budget, C = c N")
    sp.add_argument("--M", type=int, default=1000)
    sp.add_argument("--policy", choices=("optimal", "network", "graphon", "homogeneous", "all"),
                    default="all")
    sp.set_defaults(func=_cmd_intervene, required_params=("N", "alpha", "beta"))

    sp = subs.add_parser("distance-exp", help="equilibrium distance statistics vs population size")
    _add_graphon(sp)
    _add_common(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--Ns", default=None, help="comma-separated population sizes")
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--M", type=int, default=2000)
    sp.add_argument("--jobs", type=int, default=0,
                    help="worker processes, 0 = all cores; results do not depend on it")
    sp.set_defaults(func=_cmd_distance_exp, required_params=("alpha", "beta", "Ns"))

    sp = subs.add_parser("welfare-exp", help="welfare of intervention policies vs population size")
    _add_graphon(sp)
    _add_common(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--c-per-agent", type=float, default=0.01)
    sp.add_argument("--Ns", default=None)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--optimal-cap", type=int, default=150)
    sp.add_argument("--M", type=int, default=1000)
    sp.add_argument("--jobs", type=int, default=0, help="worker processes, 0 = all cores")
    sp.set_defaults(func=_cmd_welfare_exp, required_params=("alpha", "beta", "Ns"))

    sp = subs.add_parser("bne-epsilon", help="Monte Carlo Bayesian suboptimality estimates")
    _add_graphon(sp)
    _add_common(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--Ns", default=None)
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--M", type=int, default=1000)
    sp.add_argument("--L-U", type=float, default=None, dest="L_U")
    sp.set_defaults(func=_cmd_bne_epsilon, required_params=("alpha", "beta", "Ns"))

    return parser


def _apply_config(args, argv) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        config = json.load(fh)
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        given = any(tok == flag or tok.startswith(flag + "=") for tok in argv)
        if not given and hasattr(args, key):
            setattr(args, key, value)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args, argv)
        missing = [k for k in getattr(args, "required_params", ())
                   if getattr(args, k, None) is None]
        if missing:
            raise UsageError("missing required parameters: " + ", ".join(missing))
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        code = args.func(args, outdir)
        _manifest(outdir, args.command, args)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ContractionError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (IterationLimitError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse -h
        return int(exc.code or 0)


def entrypoint() -> None:
    sys.exit(main())
