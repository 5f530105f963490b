"""Measurement: timed passes, set-up time, the traced run and the host record."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

RUN_PY = Path(__file__).resolve().with_name("run.py")
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")

# name -> unit; reported with --trace 0
END_TO_END = {"wall_cal": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = {**END_TO_END, **{k: unit for k, (unit, _) in tracing.PER_LAYER.items()}}


def loadavg():
    path = Path("/proc/loadavg")
    return path.read_text().split()[:3] if path.exists() else None


def host_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {"name": "unknown"}
    cpu_model = None
    if Path("/proc/cpuinfo").exists():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "loadavg_before": loadavg(),
    }


class Ledger:
    """Counts operations and failures and collects every check problem."""

    def __init__(self, scale):
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.identical = True
        self.references_checked = set()
        self.first = {}  # (workload, seed) -> outputs of the first pass
        self._baselines = {}
        self._references = {}

    def reference(self, name):
        if name not in self._references:
            self._references[name] = workloads.load_reference(name, self.scale)
        return self._references[name]

    def fail(self, wl, message):
        self.attempted += wl.ops()
        self.failed += wl.ops()
        self.problems.append(f"{wl.name} seed {wl.seed}: {message}")

    def check(self, wl, out):
        problems, failed_trials = wl.check(out)
        ref = self.reference(wl.name)
        key = (wl.name, wl.seed)
        if key not in self.first:
            self.first[key] = out
            self._baselines[key] = workloads.snapshot(out)
        else:
            problems += [f"differs from the first pass: {p}" for p in workloads.compare(
                out, self._baselines[key], wl.tolerance, ref["columns"])]
            self.identical &= all(workloads.sha256(out[n]) == b["sha256"]
                                  for n, b in self._baselines[key].items())
        if wl.seed == ref["seed"] or not wl.seeded:
            problems += [f"differs from the reference: {p}" for p in workloads.compare(
                out, ref["files"], wl.tolerance, ref["columns"])]
            self.identical &= all(workloads.sha256(out.get(n, "")) == r["sha256"]
                                  for n, r in ref["files"].items())
            self.references_checked.add(key)
        self.attempted += wl.ops()
        self.failed += wl.ops() if problems else failed_trials
        self.problems += [f"{wl.name} seed {wl.seed}: {p}" for p in problems]


def _interpreter_work():
    total = 0
    for i in range(300_000):
        total += i


_SYMMETRIC = np.random.default_rng(0).random((300, 300))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T


def _blas_work():
    for _ in range(2):
        np.linalg.eigh(_SYMMETRIC)


# Fixed work that runs no program code, in the two kinds the workloads spend
# their time on: interpreted Python, and multithreaded LAPACK/BLAS at the
# default thread count. About 11 ms and 20 ms on a 2-vCPU Xeon VM.
CALIBRATIONS = {"interpreter": _interpreter_work, "blas": _blas_work}


def calibrate(kind: str) -> float:
    """Wall time of a fixed calibration kernel, a gauge of the machine's current speed.

    On a shared machine CPU speed drifts by tens of percent over seconds to
    minutes with other tenants' load, and interpreted code and BLAS drift
    differently. A pass time divided by the time of the kernel of its kind,
    measured beside it, moves with the program and not with that drift.
    """
    t0 = time.perf_counter()
    CALIBRATIONS[kind]()
    return time.perf_counter() - t0


def run_passes(wl, until, ledger, cals=None) -> list[float]:
    """Repeat the pass while another typical pass fits before ``until`` (at least once).

    Returns each pass's wall time; outputs are read and checked between passes,
    outside the timed region. With a ``cals`` list, the workload's calibration
    kernel is timed before the first pass and after every pass and appended to it.
    """
    walls = []
    if cals is not None:
        calibrate(wl.calibration)  # warm-up: the first LAPACK call starts the BLAS threads
        cals.append(calibrate(wl.calibration))
    while not walls or time.perf_counter() + statistics.median(walls) <= until:
        wl.reset()
        t0 = time.perf_counter()
        try:
            wl.run()
        except workloads.PassFailed as exc:
            walls.append(time.perf_counter() - t0)
            ledger.fail(wl, str(exc))
        else:
            walls.append(time.perf_counter() - t0)
            ledger.check(wl, wl.outputs())
        if cals is not None:
            cals.append(calibrate(wl.calibration))
    return walls


def time_setups(workload, seed, scale) -> list[float]:
    """Wall time of fresh processes that import the package and build the inputs."""
    cmd = [sys.executable, str(RUN_PY), "--setup-only", "--workload", workload,
           "--seed", str(seed), "--scale", scale]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=RUN_PY.parents[1], check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def measure(args, seed, work: Path, spans_path: Path) -> dict:
    """One benchmark run; returns the report (metrics, problems, counts, host)."""
    cls = workloads.WORKLOADS[args.workload]
    report = {"workload": args.workload, "seed": seed, "scale": args.scale,
              "seconds": args.seconds, "trace": args.trace, "host": host_record()}
    ledger = Ledger(args.scale)
    wl = cls(seed, args.scale, work / "pass")
    if args.trace == 0:
        setups = time_setups(args.workload, seed, args.scale)
    deadline = time.perf_counter() + args.seconds
    ref = ledger.reference(args.workload)
    if wl.seeded and seed != ref["seed"]:
        # one untimed pass at the reference seed, inside the measured time
        run_passes(cls(ref["seed"], args.scale, work / "reference"), 0, ledger)
    if args.trace == 0:
        cals = []
        walls = run_passes(wl, deadline, ledger, cals)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # each pass against the mean of the calibrations on either side of it
        ratios = [w / (0.5 * (a + b)) for w, a, b in zip(walls, cals, cals[1:])]
        report.update(walls_s=walls, setups_s=setups, calibrations_s=cals,
                      wall_s=statistics.median(walls))
        metrics = {"wall_cal": statistics.median(ratios), "setup_s": statistics.median(setups),
                   "peak_rss_mb": peak_mb}
    else:
        untraced = run_passes(wl, (time.perf_counter() + deadline) / 2, ledger)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_passes(wl, deadline, ledger)
        metrics = tracer.metrics(len(traced), sum(traced))
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
        # The distance configuration serially and on every core, untraced: forked
        # workers' spans would not reach this process. Outputs must not depend on it.
        nproc = report["host"]["nproc"]
        serial = run_passes(workloads.Distance(seed, args.scale, work / "pool1"), 0, ledger)[0]
        pooled = run_passes(workloads.Distance(seed, args.scale, work / "pool", jobs=nproc), 0,
                            ledger)[0]
        metrics["experiments.pool.wall_s"] = pooled
        metrics["experiments.pool.speedup"] = serial / pooled
        tracer.write_spans(spans_path)
        report.update(walls_untraced_s=untraced, walls_traced_s=traced, spans=str(spans_path),
                      untraced_functions=tracer.missing,
                      trace_hook_errors=sorted(tracer.hook_errors),
                      pool={"jobs": nproc, "serial_s": serial, "pooled_s": pooled})

    first = ledger.first.get((args.workload, seed))
    oracle = wl.oracle_err(first) if first is not None else float("nan")
    if not oracle <= wl.oracle_tol():
        ledger.problems.append(f"closed-form deviation {oracle:.3g} beyond {wl.oracle_tol():.3g}")
    report.update(metrics=metrics, oracle_err=oracle, oracle_tol=wl.oracle_tol(),
                  attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems,
                  outputs_identical=ledger.identical,
                  references_checked=sorted(f"{n} seed {s}" for n, s in ledger.references_checked),
                  loadavg_after=loadavg())
    return report
