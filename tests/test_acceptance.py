"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py`; the verbose listing gives the
per-criterion pass/fail status and the prints (visible with -s or on failure)
carry the measured values.
"""

import csv
import math
import time

import numpy as np
import pytest

from graphon_games import bayes, cli, kernels, spectral
from graphon_games import equilibrium as eq
from graphon_games import interventions as iv
from graphon_games.experiments import distance_experiment, intervention_experiment, rate_fit

DELTA = 0.05
DISTANCE_NS = [50, 100, 200, 400, 800]
DISTANCE_TRIALS = 50


def report(num, name, note=""):
    print(f"[criterion {num:02d}] PASS {name}" + (f" ({note})" if note else ""))


def random_network(rng, N):
    P = rng.random((N, N))
    P = (P + P.T) / 2.0
    np.fill_diagonal(P, 0.0)
    return P


@pytest.fixture(scope="module")
def distance_runs(tmp_path_factory):
    """Criterion 6 configuration, run once for both peer-effect signs."""
    outdir = tmp_path_factory.mktemp("distance_runs")
    runs = {}
    for alpha in (0.5, -0.5):
        csv_path = outdir / f"distances_alpha_{alpha}.csv"
        t0 = time.perf_counter()
        stats = distance_experiment(
            kernels.minmax(), eq.LqPayoff(alpha, 1.0),
            Ns=DISTANCE_NS, trials=DISTANCE_TRIALS, delta=DELTA, M=2000,
            seed=2024, jobs=2, csv_path=csv_path,
        )
        elapsed = time.perf_counter() - t0
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        runs[alpha] = (stats, rows, elapsed)
    return runs


def test_criterion_01_analytic_spectra():
    t0 = time.perf_counter()
    op = spectral.discretize(kernels.minmax(), 2000)
    dom = spectral.dominant_eigenpair(op)
    assert abs(dom.value - 1.0 / np.pi**2) < 1e-3
    top = spectral.top_k_eigen(op, 3)
    for h, pair in enumerate(top, start=1):
        assert abs(pair.value - 1.0 / (np.pi**2 * h**2)) < 1e-3
    _, psi1 = spectral.minmax_eigen_analytic(1, 2000)
    assert eq.l2_distance(dom.function, psi1) < 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(1, "minmax spectra match the closed form", f"{elapsed:.1f}s")


def test_criterion_02_sbm_spectrum():
    E_trace = 0.8 * 0.75 + 0.8 * 0.25
    E_det = (0.8 * 0.75) * (0.8 * 0.25) - (0.1 * 0.25) * (0.1 * 0.75)
    lam1 = (E_trace + math.sqrt(E_trace**2 - 4.0 * E_det)) / 2.0  # (0.8+sqrt(0.1675))/2
    spec = kernels.sbm([[0.8, 0.1], [0.1, 0.8]], [0.75, 0.25])
    dom = spectral.dominant_eigenpair(spectral.discretize(spec, 400))
    assert abs(dom.value - lam1) < 1e-3
    report(2, "sbm dominant eigenvalue matches the 2x2 characteristic root",
           f"numeric {dom.value:.6f} vs exact {lam1:.6f}")


def test_criterion_03_closed_form_equilibria():
    for alpha, p in ((0.5, 0.5), (-0.8, 0.6)):
        rep = eq.solve_graphon_lq(kernels.erdos_renyi(p), eq.LqPayoff(alpha, 1.0), 256)
        assert np.max(np.abs(rep.profile_array() - 1.0 / (1.0 - alpha * p))) <= 1e-10
    rep = eq.solve_network_lq(np.ones((25, 25)), eq.LqPayoff(0.5, 1.0))
    assert np.max(np.abs(rep.profile_array() - 2.0)) <= 1e-10
    report(3, "constant-kernel and complete-graph equilibria are exact")


def minmax_continuum_equilibrium(alpha, x):
    # min(x, y) - xy is the Green's function of -d^2/dx^2 on [0, 1] with
    # Dirichlet ends, so s = 1 + alpha K s solves s'' = -alpha s with s = 1 at
    # both ends: a cosine profile for 0 < alpha < pi^2, a cosh one for alpha < 0.
    r = math.sqrt(abs(alpha))
    if alpha > 0.0:
        return np.cos(r * (x - 0.5)) / math.cos(r / 2.0)
    return np.cosh(r * (x - 0.5)) / math.cosh(r / 2.0)


@pytest.mark.parametrize("alpha", [5.0, 0.5, -0.5, -3.0])
def test_criterion_03_minmax_continuum_closed_form(alpha):
    errs = {}
    for M in (125, 250, 500, 1000):
        rep = eq.solve_graphon_lq(kernels.minmax(), eq.LqPayoff(alpha, 1.0), M)
        exact = minmax_continuum_equilibrium(alpha, spectral.midpoints(M))
        errs[M] = float(np.max(np.abs(rep.profile_array() - exact)))
    for M in (125, 250, 500):
        assert errs[M] <= 4.0 / M**2
        assert 3.9 <= errs[M] / errs[2 * M] <= 4.1
    report(3, f"minmax equilibrium at alpha={alpha} converges to the continuum at O(M^-2)",
           f"M^2 err = {125**2 * errs[125]:.3g}")


def test_criterion_04_equivalence_oracle():
    rng = np.random.default_rng(16)
    checked = 0
    while checked < 25:
        N = int(rng.integers(2, 31))
        P = random_network(rng, N)
        alpha = float(rng.choice([0.75, -0.75]))
        if abs(alpha) * eq.matrix_dominant_eigenvalue(P / N) >= 1.0:
            continue
        payoff = eq.LqPayoff(alpha, 1.0)
        s_net = eq.solve_network_lq(P, payoff).profile_array()
        s_gra = eq.solve_graphon_lq(kernels.step_graphon_from_matrix(P), payoff, N).profile_array()
        assert np.max(np.abs(s_net - s_gra)) <= 1e-8
        checked += 1
    report(4, "network and step-kernel solves agree on 25 seeded instances")


def test_criterion_05_contraction_rate():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 25:
        N = int(rng.integers(8, 25))
        P = random_network(rng, N)
        payoff = eq.LqPayoff(-0.9, 1.0)
        q = abs(payoff.alpha) * eq.matrix_dominant_eigenvalue(P / N)
        if q >= 1.0:
            continue
        rep = eq.solve_network_generic(P, eq.lq_as_generic(payoff, hi=5.0))
        steps = [s for s in rep.step_norms if s > 1e-8]
        ratios = [b / a for a, b in zip(steps, steps[1:])]
        assert ratios and max(ratios) <= q + 0.05
        checked += 1
    report(5, "best-response iteration contracts at the predicted rate")


def test_criterion_06_convergence_trend(distance_runs):
    for alpha, (stats, _, elapsed) in distance_runs.items():
        assert elapsed < 600.0
        w_med = {s.N: s.percentiles["p50"] for s in stats if s.kind == "weighted"}
        s_med = {s.N: s.percentiles["p50"] for s in stats if s.kind == "simple"}
        medians = [w_med[n] for n in DISTANCE_NS]
        assert all(a > b for a, b in zip(medians, medians[1:])), \
            f"weighted medians not strictly decreasing at alpha={alpha}: {medians}"
        assert all(s_med[n] >= w_med[n] for n in DISTANCE_NS)
        slope, _, r2 = rate_fit(DISTANCE_NS, medians, DELTA)
        assert 0.5 <= slope <= 1.5
        assert r2 >= 0.8
        report(6, f"distance trend holds for alpha={alpha}",
               f"slope {slope:.2f}, r2 {r2:.3f}, {elapsed:.0f}s")


def test_criterion_07_bound_validity(distance_runs):
    for alpha, (_, rows, _) in distance_runs.items():
        n_checked = 0
        for row in rows:
            if row["kind"] != "w" or row["d_N_event"] != "1":
                continue
            assert float(row["distance"]) <= float(row["bound"]) + 1e-2
            n_checked += 1
        assert n_checked > 0
        report(7, f"weighted distances respect the sampling bound for alpha={alpha}",
               f"{n_checked} trials")


def test_criterion_08_interventions(tmp_path):
    # (a) homogeneous split with c_per_agent = 0.01 scales welfare by exactly 1.21
    csv_path = tmp_path / "welfare.csv"
    intervention_experiment(kernels.minmax(), alpha=5.0, beta=1.0, c_per_agent=0.01,
                            Ns=[50, 100], trials=5, optimal_cap=60, seed=31,
                            csv_path=csv_path)
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        assert float(row["T_hom"]) / float(row["T"]) == pytest.approx(1.21, abs=1e-9)
        # (c) optimality dominates every heuristic wherever it was computed
        if row["T_opt"]:
            others = max(float(row["T_nh"]), float(row["T_gh"]), float(row["T_hom"]))
            assert float(row["T_opt"]) >= others - 1e-9

    # (b) exact solver against a dense sphere search at N = 2 ...
    rng = np.random.default_rng(32)
    for _ in range(10):
        P = np.zeros((2, 2))
        P[0, 1] = P[1, 0] = rng.random()
        alpha = 0.2 + 0.7 * rng.random()
        C = 0.05 + rng.random()
        res = iv.optimal_intervention(P, alpha, 1.0, C)
        Minv = np.linalg.inv(np.eye(2) - (alpha / 2.0) * P)
        theta = np.linspace(0.0, 2.0 * np.pi, 400_001)
        S = Minv @ (1.0 + math.sqrt(C) * np.vstack([np.cos(theta), np.sin(theta)]))
        brute = float(np.max(np.sum(S**2, axis=0) / 4.0))
        assert abs(res.welfare - brute) <= 1e-6
    # ... and the KKT certificate at N = 50
    for k in range(10):
        P = random_network(np.random.default_rng(300 + k), 50)
        res = iv.optimal_intervention(P, 0.8, 1.0, 0.5)
        lam, U = np.linalg.eigh(P / 50)
        d = 1.0 / (1.0 - 0.8 * lam) ** 2
        y, c = U.T @ res.beta_hat, U.T @ np.ones(50)
        assert np.max(np.abs(d * y - res.kkt_multiplier * (y - c))) <= 1e-8
        assert np.sum((y - c) ** 2) == pytest.approx(0.5, abs=1e-8)

    # (d) the heuristic welfare gap shrinks with the population
    stats = intervention_experiment(kernels.minmax(), alpha=5.0, beta=1.0,
                                    c_per_agent=0.01, Ns=[100, 800], trials=20,
                                    optimal_cap=0, seed=42, jobs=2)
    gap = {s.N: s.gap_percentiles["p50"] for s in stats}
    ratio = {s.N: s.ratio_percentiles["p50"] for s in stats}
    assert gap[800] < gap[100]
    assert abs(ratio[800] - 1.0) < abs(ratio[100] - 1.0)
    report(8, "intervention criteria hold",
           f"gap p50 {gap[100]:.4f} -> {gap[800]:.4f}")


def test_criterion_09_bayesian():
    payoff = eq.LqPayoff(3.0, 1.0)
    sbar = eq.solve_graphon_lq(kernels.minmax(), payoff, 1000).profile
    small = bayes.estimate_epsilon(kernels.minmax(), payoff, None, 100, 3000, seed=51, sbar=sbar)
    large = bayes.estimate_epsilon(kernels.minmax(), payoff, None, 1600, 3000, seed=52, sbar=sbar)
    z = (small.epsilon_hat - large.epsilon_hat) / math.hypot(small.stderr, large.stderr)
    assert z >= 1.645

    # realized aggregates are unbiased for the kernel-weighted average
    spec = kernels.minmax()
    x, N, trials = 0.3, 200, 10_000
    rng = np.random.default_rng(53)
    TJ = rng.random((trials, N - 1))
    links = rng.random((trials, N - 1)) < np.asarray(kernels.evaluate(spec, x, TJ))
    zetas = (links * sbar.value_at(TJ)).sum(axis=1) / (N - 1)
    se = zetas.std(ddof=1) / math.sqrt(trials)
    assert abs(zetas.mean() - bayes.expected_aggregate(spec, sbar, x)) <= 3.0 * se
    report(9, "epsilon shrinks with population and aggregates are unbiased",
           f"eps {small.epsilon_hat:.4f} -> {large.epsilon_hat:.4f}, z={z:.1f}")


def test_criterion_10_determinism(tmp_path):
    base = ["distance-exp", "--graphon", "minmax", "--alpha", "0.5", "--beta", "1",
            "--Ns", "30,60", "--trials", "4", "--M", "150", "--seed", "7"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(base + ["--out", str(out1)]) == 0
    assert cli.main(base + ["--out", str(out2)]) == 0
    for name in ("distances.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    wbase = ["welfare-exp", "--graphon", "minmax", "--alpha", "5", "--beta", "1",
             "--c-per-agent", "0.01", "--Ns", "25", "--trials", "3",
             "--optimal-cap", "30", "--seed", "9"]
    out3, out4 = tmp_path / "w1", tmp_path / "w2"
    assert cli.main(wbase + ["--out", str(out3)]) == 0
    assert cli.main(wbase + ["--out", str(out4)]) == 0
    for name in ("welfare.csv", "summary.csv"):
        assert (out3 / name).read_bytes() == (out4 / name).read_bytes()
    report(10, "experiment reruns are byte-identical")
