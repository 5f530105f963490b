"""Command-line front end.

Every subcommand writes its artifacts under --out together with a
manifest.json recording the resolved configuration, the seed and the library
versions, which is enough to reproduce the run exactly. Options may also be
supplied through a JSON config file (--config); explicit flags win over
config values.

Exit codes: 0 success, 1 usage, validation or memory error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import estimate_epsilon, lq_L_U
from .equilibrium import LqPayoff, _solve, report_to_json, solve_graphon, solve_network
from .errors import ContractionError, IterationLimitError
from .experiments import (_PCTS, _json_chunks, _write_csv, distance_experiment,
                          intervention_experiment, subseed)
from .interventions import POLICIES, _policies, result_to_json
from .kernels import erdos_renyi, from_json as graphon_from_json, minmax, sbm
from .sampling import (
    _kernel_links,
    load_network_json,
    sample_types,
    weighted_network,
    write_edge_csv,
)
from .spectral import DiscretizedOperator, discretize, midpoints, top_k_eigen

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


def _parse_ns(value: str) -> list[int]:
    return [int(x) for x in value.split(",")]


def _write_json(outdir: Path, name: str, doc) -> None:
    """The bytes of ``json.dump(doc, fh, indent=2)`` plus a newline, written a piece at a
    time; the floats of a list are formatted once per run of equal values."""
    with open(outdir / name, "w") as fh:
        fh.writelines(_json_chunks(doc))
        fh.write("\n")


def _write_table(args, outdir: Path, name: str, header: str, rows, docs) -> None:
    # name.csv always; name.json as well under --format json
    _write_csv(outdir / f"{name}.csv", header, list(zip(*rows)))
    if args.format == "json":
        _write_json(outdir, f"{name}.json", docs)


_NOT_PARAMS = {"func", "config", "required_params"}


def _manifest(outdir: Path, command: str, args) -> None:
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    _write_json(outdir, "manifest.json", {
        "command": command,
        "params": params,
        "versions": {
            "graphon_games": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    })


def _sample(spec, N: int, seed, simple: bool, value: float = 1.0):
    """Sampled network matrix and its types: P, or if ``simple`` the 0-1 network times ``value``."""
    types = sample_types(N, seed)
    if simple:  # drawn from the kernel at the types, as simple_network draws from P
        return _kernel_links(spec, types, subseed(seed, 1), value), types
    return weighted_network(spec, types).P, types


def _cmd_sample(args, outdir: Path) -> int:
    matrix, types = _sample(build_graphon(args), args.N, args.seed, args.simple)
    _write_json(outdir, "network.json", {"types": types.types, "matrix": matrix})  # by rows
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
        _write_csv(outdir / "eigenvalues.csv", "rank,value",
                   [range(1, len(pairs) + 1), [p.value for p in pairs]])
        header = "midpoint," + ",".join(f"psi{i}" for i in range(1, len(pairs) + 1))
        _write_csv(outdir / "eigenfunctions.csv", header,
                   [midpoints(args.M), *(p.function.values for p in pairs)])
    return 0


def _cmd_solve_network(args, outdir: Path) -> int:
    payoff = LqPayoff(args.alpha, args.beta)
    if args.network_json:
        report = solve_network(load_network_json(args.network_json)[0], payoff)
    elif args.N is None:
        raise UsageError("either --N (to sample) or --network-json is required")
    elif args.simple:  # A/N written by the draw, symmetric, finite and >= 0: no copy, no checks
        A_N = _sample(build_graphon(args), args.N, args.seed, True, 1.0 / args.N)[0]
        report = _solve(A_N, True, payoff)
    else:  # the weighted network's P/N, applied at the types without P
        types = sample_types(args.N, args.seed).types
        report = _solve(DiscretizedOperator(build_graphon(args), args.N, types), True, payoff)
    _write_json(outdir, "equilibrium.json", report_to_json(report))
    if args.format == "csv":
        _write_csv(outdir / "profile.csv", "index,value",
                   [range(len(report.profile)), report.profile_array()])
    return 0


def _cmd_solve_graphon(args, outdir: Path) -> int:
    spec = build_graphon(args)
    report = solve_graphon(spec, LqPayoff(args.alpha, args.beta), args.M)
    _write_json(outdir, "equilibrium.json", report_to_json(report))
    if args.format == "csv":
        report.profile.write_csv(outdir / "profile.csv")
    return 0


def _cmd_intervene(args, outdir: Path) -> int:
    spec = build_graphon(args)
    A_N, types = _sample(spec, args.N, args.seed, True, 1.0 / args.N)
    C = args.C if args.C is not None else args.c_per_agent * args.N
    names = POLICIES[1:] if args.policy == "all" else (args.policy,)
    results = list(_policies(A_N, spec, types, args.alpha, args.beta, C, names).values())
    _write_json(outdir, "interventions.json", [result_to_json(r) for r in results])
    if args.format == "csv":
        _write_csv(outdir / "interventions.csv", "policy,welfare,budget_used",
                   list(zip(*[(r.policy, r.welfare, r.budget_used) for r in results])))
        _write_csv(outdir / "allocations.csv", "index," + ",".join(r.policy for r in results),
                   [range(args.N), *(r.beta_hat for r in results)])
    return 0


def _check_jobs(args) -> None:  # accepted for compatibility; trials run in this process
    if args.jobs < 0:
        raise UsageError(f"--jobs must be nonnegative, got {args.jobs}")


def _cmd_distance_exp(args, outdir: Path) -> int:
    _check_jobs(args)
    spec = build_graphon(args)
    payoff = LqPayoff(args.alpha, args.beta)
    stats = distance_experiment(spec, payoff, _parse_ns(args.Ns), args.trials, args.delta,
                                args.M, args.seed, csv_path=outdir / "distances.csv")
    rows = [(st.N, st.kind, *(st.percentiles.get(f"p{p}", math.nan) for p in _PCTS),
             st.bound_weighted, st.bound_simple, st.failures) for st in stats]
    _write_table(args, outdir, "summary",
                 "N,kind,p0,p25,p50,p75,p95,bound_weighted,bound_simple,failures",
                 rows, [vars(st) for st in stats])
    return 0


def _cmd_welfare_exp(args, outdir: Path) -> int:
    _check_jobs(args)
    spec = build_graphon(args)
    stats = intervention_experiment(
        spec, args.alpha, args.beta, args.c_per_agent, _parse_ns(args.Ns), args.trials,
        args.optimal_cap, args.seed, csv_path=outdir / "welfare.csv",
    )
    rows = [(st.N, st.mean_T, st.mean_T_hom, st.mean_T_nh, st.mean_T_gh, st.mean_T_opt,
             st.gap_percentiles.get("p50", math.nan), st.ratio_percentiles.get("p50", math.nan),
             st.failures) for st in stats]
    _write_table(args, outdir, "summary",
                 "N,mean_T,mean_T_hom,mean_T_nh,mean_T_gh,mean_T_opt,gap_p50,ratio_p50,failures",
                 rows, [vars(st) for st in stats])
    return 0


def _cmd_bne_epsilon(args, outdir: Path) -> int:
    spec = build_graphon(args)
    payoff = LqPayoff(args.alpha, args.beta)
    limit = solve_graphon(spec, payoff, args.M)
    L_U = lq_L_U(payoff, limit.lambda_max) if args.L_U is None else args.L_U
    ests = [estimate_epsilon(spec, payoff, L_U, n, args.trials, subseed(args.seed, n),
                             sbar=limit.profile) for n in _parse_ns(args.Ns)]
    _write_table(args, outdir, "epsilon", "N,epsilon_hat,stderr",
                 [(e.N, e.epsilon_hat, e.stderr) for e in ests], [e.to_json() for e in ests])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="graphon-games", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    graphon = argparse.ArgumentParser(add_help=False)
    _add_graphon(graphon)
    _add_common(graphon)
    game = argparse.ArgumentParser(add_help=False)
    game.add_argument("--alpha", type=float, default=None)
    game.add_argument("--beta", type=float, default=None)
    jobs_help = "ignored, kept for compatibility: every trial runs in this process"

    def add(name, summary, func, required=None, parents=(graphon, game)):
        sp = subs.add_parser(name, help=summary, parents=list(parents))
        sp.set_defaults(func=func, required_params=required)
        return sp

    sp = add("sample", "sample a network from a graphon", _cmd_sample, ("N",), (graphon,))
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--simple", action="store_true", help="draw the 0-1 network")

    sp = add("eigen", "leading spectrum of the discretized kernel", _cmd_eigen, None, (graphon,))
    sp.add_argument("--M", type=int, default=2000)
    sp.add_argument("--k", type=int, default=1)

    sp = add("solve-network", "equilibrium of a sampled or given network game",
             _cmd_solve_network, ("alpha", "beta"))
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--simple", action="store_true")
    sp.add_argument("--network-json", default=None, help="load the network instead of sampling")

    sp = add("solve-graphon", "equilibrium of the discretized graphon game",
             _cmd_solve_graphon, ("alpha", "beta"))
    sp.add_argument("--M", type=int, default=2000)

    sp = add("intervene", "budget allocation policies on a sampled network",
             _cmd_intervene, ("N", "alpha", "beta"))
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--C", type=float, default=None, help="total budget")
    sp.add_argument("--c-per-agent", type=float, default=0.01, help="per-agent budget, C = c N")
    sp.add_argument("--policy", choices=("optimal", "network", "graphon", "homogeneous", "all"),
                    default="all")

    sp = add("distance-exp", "equilibrium distance statistics vs population size",
             _cmd_distance_exp, ("alpha", "beta", "Ns"))
    sp.add_argument("--Ns", default=None, help="comma-separated population sizes")
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--M", type=int, default=2000)
    sp.add_argument("--jobs", type=int, default=0, help=jobs_help)

    sp = add("welfare-exp", "welfare of intervention policies vs population size",
             _cmd_welfare_exp, ("alpha", "beta", "Ns"))
    sp.add_argument("--c-per-agent", type=float, default=0.01)
    sp.add_argument("--Ns", default=None)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--optimal-cap", type=int, default=150)
    sp.add_argument("--jobs", type=int, default=0, help=jobs_help)

    sp = add("bne-epsilon", "Monte Carlo Bayesian suboptimality estimates",
             _cmd_bne_epsilon, ("alpha", "beta", "Ns"))
    sp.add_argument("--Ns", default=None)
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--M", type=int, default=1000)
    sp.add_argument("--L-U", type=float, default=None, dest="L_U")

    return parser


def _config_flags(path) -> list[str]:
    """A JSON config as the flags it stands for; true is the bare flag, false and null none."""
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise UsageError(f"{path} must hold a JSON object")
    flags = []
    for key, value in config.items():
        if isinstance(value, list) and not any(isinstance(v, (list, dict)) for v in value):
            value = ",".join(map(str, value))
        elif not isinstance(value, (str, bool)) and value is not None:
            value = json.dumps(value)
        if value is not False and value is not None:
            flags.append("--" + key.replace("_", "-") + ("" if value is True else f"={value}"))
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # re-parsed so that config values are checked like flags and flags win
            args = parser.parse_args([argv[0], *_config_flags(args.config), *argv[1:]])
        missing = [k for k in args.required_params or () if getattr(args, k) is None]
        if missing:
            raise UsageError("missing required parameters: " + ", ".join(missing))
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _manifest(outdir, args.command, args)
        return args.func(args, outdir)
    except (UsageError, OSError, MemoryError) as exc:  # bad input or output path; huge array
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


if __name__ == "__main__":
    entrypoint()
