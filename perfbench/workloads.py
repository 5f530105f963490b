"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload drives the package the way a user does, through the in-process
CLI (``graphon_games.cli.main``) at ``--jobs 1`` plus, for ``spectrum``, one
public-API call. A pass writes its CSV artifacts under the workload's output
directory; ``outputs()`` reads them back as text, outside the timed region.

Outputs are checked three ways, all by tolerance rather than by digest, since
CSV bytes change with the BLAS thread count:

* ``check()``: seed-independent invariants (criterion 7's sampling bound,
  criterion 8's exact homogeneous scaling, criterion 9's shrinking epsilon,
  closed-form spectra), so a pass at any seed can be checked;
* ``oracle_err()``: the largest deviation from a closed form, gated at an
  M^-2-scaled tolerance;
* ``compare()``: against reference outputs produced by graphon_games 0.1.0
  at the workload's reference seed (``reference/<scale>/<workload>.json``),
  and between the passes of one run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import graphon_games as gg
from graphon_games import cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_ROWS = 200  # rows kept per reference file; longer files are strided
DEFAULT_TOL = (1e-9, 1e-12)  # (rtol, atol)
ORACLE_CONSTANT = 4.0  # oracle gate is ORACLE_CONSTANT / M^2; graphon_games 0.1.0 needs 0.78


class PassFailed(Exception):
    """A CLI command of the pass exited with a nonzero code."""


def run_cli(argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise PassFailed(f"graphon-games {argv[0]} exited with code {code}")


def rows_of(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def table_of(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def midpoints(M: int) -> np.ndarray:
    return (np.arange(M) + 0.5) / M


def lq_closed_form(alpha: float, M: int, beta: float = 1.0) -> np.ndarray:
    """Continuum minmax LQ equilibrium at the M grid midpoints.

    The minmax kernel is the Dirichlet Green's function of -d^2/dx^2, so
    s = beta + alpha K s gives s'' = -alpha (s - beta) with s(0) = s(1) = beta.
    """
    x = midpoints(M) - 0.5
    if alpha > 0.0:
        r = math.sqrt(alpha)
        return beta * np.cos(r * x) / math.cos(r / 2.0)
    r = math.sqrt(-alpha)
    return beta * np.cosh(r * x) / math.cosh(r / 2.0)


def _floats(values: list[str]) -> np.ndarray | None:
    try:
        return np.array([float(v) if v != "" else math.nan for v in values])
    except ValueError:
        return None


def compare(out: dict, reference: dict, tolerance, columns: dict) -> list[str]:
    """Problems found comparing outputs with a reference snapshot.

    ``reference`` maps file name to a snapshot (header, strided rows, row
    count); ``tolerance(file, column, ref_values)`` gives (rtol, atol);
    ``columns[file][column]`` is "skip" (not compared) or "sign" (compared up
    to a sign flip, for eigenfunctions whose orientation is a basis choice).
    """
    problems = []
    for name, ref in reference.items():
        if name not in out:
            problems.append(f"{name}: missing")
            continue
        header, rows = table_of(out[name])
        if header != ref["header"] or len(rows) != ref["nrows"]:
            problems.append(f"{name}: header or row count differs "
                            f"({len(rows)} rows, reference {ref['nrows']})")
            continue
        rows = rows[::ref["stride"]]
        ref_rows = list(csv.reader(ref["rows"]))
        rules = columns.get(name, {})
        for j, col in enumerate(header):
            rule = rules.get(col)
            if rule == "skip":
                continue
            got = [r[j] for r in rows]
            want = [r[j] for r in ref_rows]
            a, b = _floats(got), _floats(want)
            if a is None or b is None:
                if got != want:
                    problems.append(f"{name}:{col}: values differ")
                continue
            rtol, atol = tolerance(name, col, b)
            if not np.array_equal(np.isnan(a), np.isnan(b)):
                problems.append(f"{name}:{col}: empty cells differ")
                continue
            ok = ~np.isnan(b)
            err = np.abs(a[ok] - b[ok])
            if rule == "sign":
                err = min(err, np.abs(a[ok] + b[ok]), key=lambda e: float(np.max(e, initial=0.0)))
            excess = err - (atol + rtol * np.abs(b[ok]))
            if err.size and float(np.max(excess)) > 0.0:
                k = int(np.argmax(excess))
                problems.append(f"{name}:{col}: deviation {float(err[k]):.3g} beyond tolerance "
                                f"(rtol {rtol:g}, atol {atol:g})")
    return problems


def snapshot(out: dict, max_rows: int | None = None) -> dict:
    """Reference snapshot of outputs: header, row count, strided CSV lines, digest."""
    snap = {}
    for name, text in out.items():
        lines = text.splitlines()
        header, rows = next(csv.reader(lines[:1])), lines[1:]
        stride = 1 if max_rows is None else max(1, math.ceil(len(rows) / max_rows))
        snap[name] = {"sha256": sha256(text), "header": header, "nrows": len(rows),
                      "stride": stride, "rows": rows[::stride]}
    return snap


class Workload:
    """One named workload at a seed and scale, writing under ``outdir``."""

    name = ""
    default_seed = 0
    seeded = True  # whether the seed changes the inputs
    calibration = "blas"  # where a pass spends its time; see harness.CALIBRATIONS
    sizes: dict = {}

    def __init__(self, seed: int, scale: str, outdir: Path):
        self.seed = seed
        self.scale = scale
        self.size = self.sizes[scale]
        self.outdir = Path(outdir)
        self.commands = self.build()

    def build(self) -> list[list[str]]:
        """The CLI argument lists of one pass (the workload's inputs)."""
        raise NotImplementedError

    def run(self) -> None:
        """One timed pass."""
        for argv in self.commands:
            run_cli(argv)

    def files(self) -> list[str]:
        raise NotImplementedError

    def outputs(self) -> dict:
        return {name: (self.outdir / name).read_text() for name in self.files()}

    def reset(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)

    def ops(self) -> int:
        """Operations one pass attempts: trials, or commands where there are none."""
        raise NotImplementedError

    def check(self, out: dict) -> tuple[list[str], int]:
        """Seed-independent invariants: (problems, failed trials)."""
        raise NotImplementedError

    def oracle_err(self, out: dict) -> float:
        raise NotImplementedError

    def oracle_tol(self) -> float:
        return ORACLE_CONSTANT / self.size["M"] ** 2

    def tolerance(self, name: str, column: str, ref: np.ndarray) -> tuple[float, float]:
        return DEFAULT_TOL

    def _Ns(self) -> list[int]:
        return [int(n) for n in self.size["Ns"].split(",")]


class Distance(Workload):
    name = "distance"
    default_seed = 2024
    sizes = {"full": {"Ns": "50,100,200,400,800", "M": 2000, "trials": 5},
             "tiny": {"Ns": "10,20,40", "M": 80, "trials": 2}}
    alphas = ("0.5", "-0.5")

    def __init__(self, seed, scale, outdir, jobs: int = 1):
        self.jobs = jobs
        super().__init__(seed, scale, outdir)

    def build(self):
        s = self.size
        return [["distance-exp", "--graphon", "minmax", "--alpha", a, "--beta", "1",
                 "--Ns", s["Ns"], "--M", s["M"], "--trials", s["trials"], "--seed", self.seed,
                 "--jobs", self.jobs, "--out", self.outdir / f"alpha{a}"] for a in self.alphas]

    def files(self):
        return [f"alpha{a}/{f}" for a in self.alphas for f in ("distances.csv", "summary.csv")]

    def ops(self):
        return len(self.alphas) * len(self._Ns()) * self.size["trials"]

    def check(self, out):
        problems, failed = [], 0
        for a in self.alphas:
            rows = rows_of(out[f"alpha{a}/distances.csv"])
            fails = {int(r["N"]): int(r["failures"])
                     for r in rows_of(out[f"alpha{a}/summary.csv"]) if r["kind"] == "weighted"}
            if sorted(fails) != sorted(self._Ns()):
                problems.append(f"alpha={a}: summary covers N={sorted(fails)}")
                continue
            failed += sum(fails.values())
            expected = 2 * sum(self.size["trials"] - f for f in fails.values())
            if len(rows) != expected:
                problems.append(f"alpha={a}: {len(rows)} distance rows, expected {expected}")
            checked = 0
            for r in rows:
                dist, bound = float(r["distance"]), float(r["bound"])
                if not (math.isfinite(dist) and dist >= 0.0 and math.isfinite(bound)
                        and bound > 0.0 and r["d_N_event"] in ("0", "1")):
                    problems.append(f"alpha={a}: malformed row {r}")
                    break
                # criterion 7: on the d_N event the weighted distance respects the bound
                if r["kind"] == "w" and r["d_N_event"] == "1":
                    checked += 1
                    if dist > bound + 1e-2:
                        problems.append(f"alpha={a}: N={r['N']} trial {r['trial']} distance "
                                        f"{dist:.4g} exceeds its bound {bound:.4g}")
            if checked == 0:
                problems.append(f"alpha={a}: no trial fell in the d_N event")
        return problems, failed

    def oracle_err(self, out):
        M = self.size["M"]
        return max(float(np.max(np.abs(
            gg.solve_graphon(gg.minmax(), gg.LqPayoff(float(a), 1.0), M).profile_array()
            - lq_closed_form(float(a), M)))) for a in self.alphas)


class Welfare(Workload):
    name = "welfare"
    default_seed = 42
    sizes = {"full": {"Ns": "100,200,400,800", "cap": 800, "trials": 5},
             "tiny": {"Ns": "20,40", "cap": 40, "trials": 2}}
    HOMOGENEOUS_SCALE = 1.21  # (1 + sqrt(0.01))^2 for c_per_agent = 0.01
    HOMOGENEOUS_TOL = 1e-9

    def build(self):
        s = self.size
        return [["welfare-exp", "--graphon", "minmax", "--alpha", "5", "--beta", "1",
                 "--c-per-agent", "0.01", "--Ns", s["Ns"], "--optimal-cap", s["cap"],
                 "--trials", s["trials"], "--seed", self.seed, "--jobs", "1",
                 "--out", self.outdir]]

    def files(self):
        return ["welfare.csv", "summary.csv"]

    def ops(self):
        return len(self._Ns()) * self.size["trials"]

    def check(self, out):
        problems = []
        fails = {int(r["N"]): int(r["failures"]) for r in rows_of(out["summary.csv"])}
        if sorted(fails) != sorted(self._Ns()):
            return [f"summary covers N={sorted(fails)}"], 0
        rows = rows_of(out["welfare.csv"])
        expected = sum(self.size["trials"] - f for f in fails.values())
        if len(rows) != expected:
            problems.append(f"{len(rows)} welfare rows, expected {expected}")
        for r in rows:
            T, T_hom, T_nh, T_gh = (float(r[k]) for k in ("T", "T_hom", "T_nh", "T_gh"))
            where = f"N={r['N']} trial {r['trial']}"
            if not all(math.isfinite(v) and v > 0.0 for v in (T, T_hom, T_nh, T_gh)):
                problems.append(f"{where}: nonpositive or non-finite welfare")
                continue
            # criterion 8(a): the homogeneous split scales welfare by exactly 1.21
            if abs(T_hom / T - self.HOMOGENEOUS_SCALE) > self.HOMOGENEOUS_TOL:
                problems.append(f"{where}: T_hom/T = {T_hom / T!r}")
            if float(r["gap"]) != abs(T_nh - T_gh):
                problems.append(f"{where}: gap is not |T_nh - T_gh|")
            if int(r["N"]) <= self.size["cap"]:
                # criterion 8(c): the optimum dominates every heuristic
                if r["T_opt"] == "" or float(r["T_opt"]) < max(T_hom, T_nh, T_gh) - 1e-9:
                    problems.append(f"{where}: T_opt {r['T_opt']!r} below a heuristic")
        return problems, sum(fails.values())

    def oracle_err(self, out):
        rows = rows_of(out["welfare.csv"])
        return max((abs(float(r["T_hom"]) / float(r["T"]) - self.HOMOGENEOUS_SCALE)
                    for r in rows), default=math.nan)

    def oracle_tol(self):
        return self.HOMOGENEOUS_TOL


class Spectrum(Workload):
    name = "spectrum"
    default_seed = 0
    seeded = False
    sizes = {"full": {"M": 2000, "k": 3}, "tiny": {"M": 200, "k": 3}}
    sbm_Q = [[0.8, 0.1], [0.1, 0.8]]  # --gin 0.8 --gout 0.1
    sbm_w = [0.75, 0.25]
    alphas = ("0.5", "-0.5")

    def build(self):
        M, k = self.size["M"], self.size["k"]
        self.spec = gg.minmax()
        self.br_payoff = gg.lq_as_generic(gg.LqPayoff(-0.5, 1.0), hi=1.0)
        cmds = [["eigen", "--graphon", "minmax", "--M", M, "--k", k,
                 "--out", self.outdir / "eigen_minmax"],
                ["eigen", "--graphon", "sbm", "--gin", self.sbm_Q[0][0], "--gout",
                 self.sbm_Q[0][1], "--w", ",".join(map(str, self.sbm_w)), "--M", M, "--k", k,
                 "--out", self.outdir / "eigen_sbm"]]
        cmds += [["solve-graphon", "--graphon", "minmax", "--M", M, "--alpha", a, "--beta", "1",
                  "--out", self.outdir / f"graphon_alpha{a}"] for a in self.alphas]
        return cmds

    def run(self):
        super().run()
        self.br_profile = gg.solve_graphon(self.spec, self.br_payoff, self.size["M"]).profile_array()

    def files(self):
        return ([f"eigen_{g}/{f}" for g in ("minmax", "sbm")
                 for f in ("eigenvalues.csv", "eigenfunctions.csv")]
                + [f"graphon_alpha{a}/profile.csv" for a in self.alphas])

    def outputs(self):
        out = super().outputs()
        mids = midpoints(self.size["M"])
        out["br/profile.csv"] = "midpoint,value\n" + "".join(
            f"{float(x)!r},{float(v)!r}\n" for x, v in zip(mids, self.br_profile))
        return out

    def ops(self):
        return len(self.commands) + 1

    def _profile(self, out, name):
        return np.array([float(r["value"]) for r in rows_of(out[name])])

    def oracle_err(self, out):
        """Minmax eigenvalues against 1/(pi h)^2 and the three profiles against s(x)."""
        M = self.size["M"]
        values = [float(r["value"]) for r in rows_of(out["eigen_minmax/eigenvalues.csv"])]
        errs = [abs(v - 1.0 / (math.pi * h) ** 2) for h, v in enumerate(values, start=1)]
        for name, alpha in [(f"graphon_alpha{a}/profile.csv", float(a)) for a in self.alphas] \
                + [("br/profile.csv", -0.5)]:
            errs.append(float(np.max(np.abs(self._profile(out, name)
                                            - lq_closed_form(alpha, M)))))
        return max(errs)

    def check(self, out):
        problems = []
        M, k = self.size["M"], self.size["k"]
        mm = rows_of(out["eigen_minmax/eigenvalues.csv"])
        if len(mm) != k:
            return [f"{len(mm)} minmax eigenvalues, expected {k}"], 0
        mids = midpoints(M)
        # closed-form minmax eigenfunctions sqrt(2) sin(h pi x), up to orientation
        psi = rows_of(out["eigen_minmax/eigenfunctions.csv"])
        for h in range(1, k + 1):
            got = np.array([float(r[f"psi{h}"]) for r in psi])
            want = math.sqrt(2.0) * np.sin(h * math.pi * mids)
            if got.shape != want.shape or min(np.max(np.abs(got - want)),
                                              np.max(np.abs(got + want))) > 1e-10:
                problems.append(f"minmax psi{h} differs from sqrt(2) sin({h} pi x)")
        # block kernel: rank 2, so lambda_3 is round-off; compare on the scale of lambda_1
        analytic = gg.sbm_eigen_analytic(self.sbm_Q, self.sbm_w)
        want = [lam for lam, _ in analytic] + [0.0] * k
        got = [float(r["value"]) for r in rows_of(out["eigen_sbm/eigenvalues.csv"])]
        if len(got) != k or max(abs(g - w) for g, w in zip(got, want)) > 1e-10 * want[0]:
            problems.append(f"sbm eigenvalues {got} differ from {want[:k]}")
        blocks = (mids >= self.sbm_w[0]).astype(int)
        psi = rows_of(out["eigen_sbm/eigenfunctions.csv"])
        for i, (_, vals) in enumerate(analytic, start=1):  # separated eigenpairs only
            got = np.array([float(r[f"psi{i}"]) for r in psi])
            ref = vals[blocks]
            if min(np.max(np.abs(got - ref)), np.max(np.abs(got + ref))) > 1e-10:
                problems.append(f"sbm psi{i} differs from its block values")
        return problems, 0

    def tolerance(self, name, column, ref):
        if name.endswith("eigenvalues.csv") and column == "value":
            return 0.0, 1e-10 * float(np.max(np.abs(ref)))
        if name.endswith("eigenfunctions.csv") and column.startswith("psi"):
            return 0.0, 1e-8
        return DEFAULT_TOL


class Bne(Workload):
    name = "bne"
    default_seed = 51
    calibration = "interpreter"
    sizes = {"full": {"Ns": "100,400,1600", "M": 1000, "trials": 2000},
             "tiny": {"Ns": "20,80", "M": 100, "trials": 200}}
    alpha = 3.0

    def build(self):
        s = self.size
        return [["bne-epsilon", "--graphon", "minmax", "--alpha", "3", "--beta", "1",
                 "--Ns", s["Ns"], "--M", s["M"], "--trials", s["trials"], "--seed", self.seed,
                 "--out", self.outdir]]

    def files(self):
        return ["epsilon.csv"]

    def ops(self):
        return len(self._Ns())

    def check(self, out):
        rows = rows_of(out["epsilon.csv"])
        Ns = self._Ns()
        if [int(r["N"]) for r in rows] != Ns:
            return [f"epsilon rows for N={[r['N'] for r in rows]}, expected {Ns}"], 0
        eps = [float(r["epsilon_hat"]) for r in rows]
        se = [float(r["stderr"]) for r in rows]
        if not all(math.isfinite(v) and v > 0.0 for v in eps + se):
            return [f"non-finite or nonpositive estimates {eps}, {se}"], 0
        # criterion 9: epsilon shrinks from the smallest to the largest population
        z = (eps[0] - eps[-1]) / math.hypot(se[0], se[-1])
        return ([] if z >= 1.645 else [f"epsilon does not shrink with N (z = {z:.2f})"]), 0

    def oracle_err(self, out):
        M = self.size["M"]
        s = gg.solve_graphon(gg.minmax(), gg.LqPayoff(self.alpha, 1.0), M).profile_array()
        return float(np.max(np.abs(s - lq_closed_form(self.alpha, M))))


WORKLOADS = {w.name: w for w in (Distance, Welfare, Spectrum, Bne)}


def reference_path(name: str, scale: str) -> Path:
    return REFERENCE_DIR / scale / f"{name}.json"


def load_reference(name: str, scale: str) -> dict:
    with open(reference_path(name, scale)) as fh:
        return json.load(fh)
