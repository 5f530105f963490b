"""Benchmark of the graphon-games pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload distance --seed 2024 --seconds 20 --trace 0

With ``--trace 0`` it repeats the workload's pass for ``--seconds`` seconds and
reports the end-to-end metrics (median pass wall time as a multiple of a
calibration loop timed beside it, set-up time, peak resident memory). With
``--trace 1`` it runs untraced and traced passes for half the time each, then
the distance configuration at ``--jobs 1`` and at all cores, and reports the
per-layer metrics. Every pass is checked (see workloads.py). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report, and a
fuller report (host record, every pass time, spans of a traced run) is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("distance", "welfare", "spectrum", "bne")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed; defaults to the workload's acceptance-suite seed")
    p.add_argument("--seconds", type=float, default=20.0, help="measurement time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every size, for the benchmark's own smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, build the inputs and exit (timed by setup_s)")
    return p.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_report(r, units) -> None:
    print(f"perfbench workload={r['workload']} seed={r['seed']} scale={r['scale']} "
          f"trace={r['trace']}")
    print("host " + json.dumps(r["host"], sort_keys=True))
    for key, label in (("walls_s", "wall_s"), ("setups_s", "setup_s"),
                       ("calibrations_s", "calibration"), ("walls_traced_s", "traced wall_s"),
                       ("walls_untraced_s", "untraced wall_s")):
        if key in r:
            q1, q2, q3 = quartiles(r[key])
            print(f"  {label}: median {q2:.6g} s over {len(r[key])} samples "
                  f"(q1 {q1:.6g}, q3 {q3:.6g})")
    for name, value in r["metrics"].items():
        print(f"{name:42s} {value:.6g} {units[name]}")
    frac = r["failed"] / r["attempted"]
    print(f"{'failed_frac':42s} {frac:.6g} ratio ({r['failed']} failed of {r['attempted']})")
    print(f"{'oracle_err':42s} {r['oracle_err']:.6g} abs (gate {r['oracle_tol']:.3g})")
    print(f"outputs_identical {str(r['outputs_identical']).lower()} (information only)")
    print("reference checked: " + (", ".join(r["references_checked"]) or "none"))
    print(f"loadavg before {r['host']['loadavg_before']} after {r['loadavg_after']}")
    for problem in r["problems"]:
        print("problem: " + problem)
    for name in r.get("untraced_functions", []):
        print(f"not traced (absent from the package): {name}")
    for error in r.get("trace_hook_errors", []):
        print(f"trace counter skipped: {error}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphon_games" / "__init__.py").is_file():
        print(f"perfbench: no graphon_games package under {SRC}; "
              "run from the root of a graphon-games checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import graphon_games

    if Path(graphon_games.__file__).resolve().parent != SRC / "graphon_games":
        print(f"perfbench: imported graphon_games from {graphon_games.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    if args.setup_only:
        cls(seed, args.scale, OUT_DIR / "setup")
        return 0
    import harness

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}"
    work = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT_DIR))
    try:
        report = harness.measure(args, seed, work, OUT_DIR / f"{stem}-spans.csv.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report_path = OUT_DIR / f"{stem}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report, harness.UNITS)
    print(f"report {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": harness.UNITS[k]}
                    for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
