import math

import numpy as np
import pytest

from graphon_games import experiments as ex
from graphon_games import kernels, sampling, spectral
from graphon_games.equilibrium import (
    LqPayoff,
    l2_distance,
    lq_as_generic,
    solve_graphon,
    solve_graphon_lq,
    solve_network,
    solve_network_lq,
    step_function_embed,
)
from graphon_games.errors import ContractionError
from graphon_games.spectral import midpoints


# --- rate fit -----------------------------------------------------------------

def test_rate_fit_exact_rate():
    Ns = [50, 100, 200, 400]
    delta = 0.05
    medians = [3.0 * math.sqrt(math.log(n / delta) / n) for n in Ns]
    slope, intercept, r2 = ex.rate_fit(Ns, medians, delta)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_constant_medians():
    slope, _, _ = ex.rate_fit([50, 100, 200], [0.7, 0.7, 0.7], 0.05)
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_rejects_nonpositive():
    with pytest.raises(ValueError):
        ex.rate_fit([50, 100], [0.1, 0.0], 0.05)


def test_rate_fit_rejects_a_nan_median():
    # A NaN median once passed the test medians <= 0 and gave (nan, nan, nan).
    with pytest.raises(ValueError, match="medians must be positive"):
        ex.rate_fit([10, 20, 40], [0.1, math.nan, 0.05], 0.05)


@pytest.mark.parametrize("Ns, medians, delta, name", [
    ([50, math.nan, 200], [0.3, 0.2, 0.1], 0.05, "each of Ns"),
    ([0, 100, 200], [0.3, 0.2, 0.1], 0.05, "each of Ns"),
    ([1, 100, 200], [0.3, 0.2, 0.1], 0.05, "each of Ns"),
    ([50.0, 100, 200], [0.3, 0.2, 0.1], 0.05, "each of Ns"),
    ([50, 100, 200], [0.3, 0.2, 0.1], math.nan, "delta"),
    ([50, 100, 200], [0.3, 0.2, 0.1], 0.0, "delta"),
    ([50, 100, 200], [0.3, 0.2, 0.1], 0.5, "delta"),
    ([50], [0.3], 0.05, "Ns and medians"),
    ([50, 100, 200], [0.3, 0.2], 0.05, "Ns and medians"),
], ids=["nan-N", "zero-N", "one-N", "float-N", "nan-delta", "zero-delta", "large-delta",
        "one-point", "length-mismatch"])
def test_rate_fit_rejects_bad_inputs_where_they_enter(Ns, medians, delta, name):
    # A NaN N or delta once raised LinAlgError from LAPACK, N = 0 a RuntimeWarning,
    # and a single point gave r2 = 1 after a RankWarning.
    with pytest.raises(ValueError, match=name):
        ex.rate_fit(Ns, medians, delta)


# --- distance experiment ---------------------------------------------------------

def test_midpoint_types_give_zero_weighted_distance():
    # A network whose types sit exactly at the cell midpoints of its own step
    # kernel reproduces the infinite-population equilibrium exactly.
    rng = np.random.default_rng(0)
    N = 8
    P0 = rng.random((N, N))
    P0 = (P0 + P0.T) / 2.0
    np.fill_diagonal(P0, 0.0)
    spec = kernels.step_graphon_from_matrix(P0)
    payoff = LqPayoff(0.6, 1.0)
    sbar = solve_graphon_lq(spec, payoff, N).profile

    types = sampling.TypeVector(types=midpoints(N))
    Pw = sampling.weighted_network(spec, types)
    assert np.array_equal(Pw.P, P0)
    rep = solve_network_lq(Pw.P, payoff)
    assert l2_distance(step_function_embed(rep.profile_array()), sbar) <= 1e-10


def test_er_weighted_distance_is_discretization_error():
    stats = ex.distance_experiment(
        kernels.erdos_renyi(0.5), LqPayoff(0.5, 1.0),
        Ns=[100], trials=5, delta=0.05, M=400, seed=123,
    )
    weighted = [s for s in stats if s.kind == "weighted"][0]
    assert weighted.percentiles["p95"] < 1e-2
    assert weighted.failures == 0


def test_distance_experiment_structure_and_bounds():
    stats = ex.distance_experiment(
        kernels.minmax(), LqPayoff(0.5, 1.0),
        Ns=[40, 80], trials=4, delta=0.05, M=200, seed=7,
    )
    assert [(s.N, s.kind) for s in stats] == [
        (40, "weighted"), (40, "simple"), (80, "weighted"), (80, "simple")]
    for s in stats:
        pct = s.percentiles
        assert pct["p0"] <= pct["p25"] <= pct["p50"] <= pct["p75"] <= pct["p95"]
        assert s.bound_weighted <= s.bound_simple


def test_distance_experiment_validates_resolution():
    with pytest.raises(ValueError):
        ex.distance_experiment(kernels.minmax(), LqPayoff(0.5, 1.0),
                               Ns=[300], trials=1, delta=0.05, M=400, seed=0)


@pytest.mark.parametrize("sizes,name", [
    (dict(Ns=[20.7]), "each of Ns"), (dict(Ns=[np.float64(20)]), "each of Ns"),
    (dict(trials=2.5), "trials"), (dict(trials=0), "trials"),
])
def test_experiment_sizes_must_be_integers(sizes, name):
    # a float N would run int(N) agents under the label N; a float trial count
    # would fail later, in range()
    args = {"Ns": [20], "trials": 1, **sizes}
    with pytest.raises(ValueError, match=name):
        ex.distance_experiment(kernels.minmax(), LqPayoff(0.5, 1.0), **args, delta=0.05, M=60,
                               seed=0)
    with pytest.raises(ValueError, match=name):
        ex.intervention_experiment(kernels.minmax(), 5.0, 1.0, 0.01, **args, optimal_cap=20,
                                   seed=0)


@pytest.mark.parametrize("cap", [-3, math.nan, 2.5, True, None])
def test_optimal_cap_is_checked_where_it_enters(cap):
    # a negative or NaN cap would compare false against every N and skip the optimum
    with pytest.raises(ValueError, match="optimal_cap"):
        ex.intervention_experiment(kernels.minmax(), 5.0, 1.0, 0.01, [20], 1, cap, seed=0)


def test_numpy_integer_sizes_run_the_int_experiment():
    args = dict(spec=kernels.minmax(), payoff=LqPayoff(0.5, 1.0), delta=0.05, M=60, seed=0)
    as_numpy = ex.distance_experiment(**args, Ns=np.array([20, 30]), trials=np.int64(2))
    assert as_numpy == ex.distance_experiment(**args, Ns=[20, 30], trials=2)
    assert all(type(s.N) is int and type(s.trials) is int for s in as_numpy)


def test_distance_csv_reproducible(tmp_path):
    args = dict(spec=kernels.minmax(), payoff=LqPayoff(0.5, 1.0),
                Ns=[30, 60], trials=3, delta=0.05, M=150, seed=99)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ex.distance_experiment(**args, csv_path=p1)
    ex.distance_experiment(**args, csv_path=p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "N,trial,kind,distance,bound,d_N_event"


def test_a_generic_payoff_pickles_and_runs_the_same_distance_trials(tmp_path):
    # Payoffs pickle (lq_as_generic's gradient is a class, not a closure), and the
    # copy runs the generic distance trials to the same bytes.
    import pickle
    payoff = lq_as_generic(LqPayoff(-0.5, 1.0), hi=2.0)
    args = dict(spec=kernels.minmax(), Ns=[10, 20], trials=2, delta=0.05, M=40, seed=5)
    p1, p2 = tmp_path / "original.csv", tmp_path / "unpickled.csv"
    ex.distance_experiment(**args, payoff=payoff, csv_path=p1)
    ex.distance_experiment(**args, payoff=pickle.loads(pickle.dumps(payoff)), csv_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("spec", [kernels.minmax(),
                                  kernels.sbm([[0.8, 0.1], [0.1, 0.5]], [0.75, 0.25])],
                         ids=["minmax", "sbm"])
@pytest.mark.parametrize("alpha", [0.5, -0.5])
def test_distance_trial_matches_the_public_solver(spec, alpha):
    # The trial solves the weighted game on the kernel's operator at the types
    # and the 0-1 game on the matrix A/N it drew; the public solve_network on P
    # and on the 0-1 network of P, with all its checks, gives the same tuple, the
    # weighted distance to round-off (the operator sums in another order than
    # P @ s) and the rest bit for bit.
    payoff = LqPayoff(alpha, 1.0)
    sbar = solve_graphon(spec, payoff, 300).profile
    for N, trial in ((1, 0), (40, 2), (150, 5)):
        types = ex._trial_networks(spec, N, trial, 31)[0]
        P = sampling.weighted_network(spec, types).P
        A = sampling.simple_network(sampling.WeightedNetwork(P, types),
                                    ex.subseed(31, N, trial, 1)).A
        reps = [solve_network(X, payoff) for X in (P, A)]
        dist_w, dist_s = (l2_distance(step_function_embed(r.profile_array()), sbar) for r in reps)
        got = ex._distance_trial((spec, payoff, N, trial, 31, sbar))
        assert got[2] == pytest.approx(dist_w, rel=1e-12, abs=0)
        assert got[:2] + got[3:] == (N, trial, dist_s, ex._max_type_deviation(types.types), None)


@pytest.mark.parametrize("spec", [kernels.minmax(),
                                  kernels.sbm([[0.8, 0.1], [0.1, 0.5]], [0.75, 0.25])],
                         ids=["minmax", "sbm"])
def test_a_distance_trial_holds_no_weighted_matrix(spec):
    # The trial keeps A (8 N^2 bytes) and its link mask (N^2), plus scratch of
    # a block of rows. A trial that also held a dense P and its draws would
    # peak at 2.6 to 3.0 times 8 N^2 (13.4 to 15.4 MB at N = 800): the bound
    # leaves room for A and its mask, not for one more N x N float64.
    import tracemalloc
    N, payoff = 800, LqPayoff(0.5, 1.0)
    args = (spec, payoff, N, 0, 3, solve_graphon(spec, payoff, 2 * N).profile)
    ex._distance_trial(args)
    tracemalloc.start()
    try:
        result = ex._distance_trial(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result[-1] is None
    assert peak <= 1.5 * 8 * N * N


def lanczos_runs(monkeypatch):
    """Every Lanczos run started, kept for its counters (steps, end reason)."""
    runs = []

    class Spy(spectral._Run):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    monkeypatch.setattr(spectral, "_Run", Spy)
    return runs


def with_the_pair(monkeypatch):
    """Make the trial's solves read the top pair, as the public solvers do."""
    solve = ex._solve
    monkeypatch.setattr(ex, "_solve", lambda *args, **kwargs: solve(*args))


@pytest.mark.parametrize("N", [50, 800])
@pytest.mark.parametrize("alpha", [0.5, -0.5])
def test_each_run_of_a_distance_trial_ends_where_its_solve_is_read(monkeypatch, N, alpha):
    # The Collatz-Wielandt bound at x = (I - alpha G)^-1 1 certifies both games
    # of a minmax trial, so neither run goes on to settle the top pair, and
    # neither calls eigh: the O(1) solve reads x.
    spec, payoff = kernels.minmax(), LqPayoff(alpha, 1.0)
    args = (spec, payoff, N, 1, 9, solve_graphon(spec, payoff, 2 * N).profile)
    runs, calls, eigh = lanczos_runs(monkeypatch), [], np.linalg.eigh
    with monkeypatch.context() as m:  # no eigendecomposition: neither run reads a pair
        m.setattr(np.linalg, "eigh", lambda T: calls.append(len(T)) or eigh(T))
        got = ex._distance_trial(args)
    assert got[-1] is None and len(runs) == 2 and calls == []
    assert all(run.reason == "solved" for run in runs)  # certified by the bound at the solve
    with_the_pair(monkeypatch)
    assert ex._distance_trial(args) == got
    paired = runs[2:]
    assert all(a.k <= b.k for a, b in zip(runs, paired))
    assert runs[1].k < paired[1].k  # the 0-1 network's pair settles last


@pytest.mark.parametrize("spec", [
    kernels.erdos_renyi(0.3), kernels.sbm([[0.8, 0.1], [0.1, 0.5]], [0.75, 0.25]), kernels.minmax(),
    kernels.grid_kernel([[0.3, 0.1, 0.2], [0.1, 0.4, 0.1], [0.2, 0.1, 0.5]])],
    ids=["er", "sbm", "minmax", "grid"])
@pytest.mark.parametrize("scale", [0.5, -0.5, 0.98, -0.98])
def test_a_distance_trial_keeps_its_bits_without_the_pair(monkeypatch, spec, scale):
    # Nonzero scales other than +-0.5 put alpha at that fraction of 1 / lambda_max of the
    # kernel: sampled networks near or past the boundary fail the gate with the pair
    # read as without it, and substitutes fall back to the pair where min x <= 1/2.
    lam = solve_graphon(spec, LqPayoff(0.0, 1.0), 200).lambda_max
    payoff = LqPayoff(scale if abs(scale) == 0.5 else scale / lam, 1.0)
    sbar = solve_graphon(spec, payoff, 200).profile
    tasks = [(spec, payoff, N, trial, 13, sbar) for N in (2, 10, 60) for trial in range(3)]
    got = [ex._distance_trial(t) for t in tasks]
    with_the_pair(monkeypatch)
    assert repr([ex._distance_trial(t) for t in tasks]) == repr(got)


# --- intervention experiment -------------------------------------------------------

def test_intervention_experiment_ratios_and_ordering(tmp_path):
    csv_path = tmp_path / "welfare.csv"
    stats = ex.intervention_experiment(
        kernels.minmax(), alpha=5.0, beta=1.0, c_per_agent=0.01,
        Ns=[30, 60], trials=3, optimal_cap=40, seed=11, csv_path=csv_path,
    )
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "N,trial,T,T_hom,T_nh,T_gh,T_opt,gap"
    saw_opt = 0
    for line in lines[1:]:
        parts = line.split(",")
        N = int(parts[0])
        T, T_hom, T_nh, T_gh = map(float, parts[2:6])
        # equal split scales the equilibrium by 1.1, so welfare scales by 1.21
        assert T_hom / T == pytest.approx(1.21, abs=1e-9)
        if parts[6]:
            T_opt = float(parts[6])
            saw_opt += 1
            assert N <= 40
            assert T_opt >= max(T_nh, T_gh, T_hom) - 1e-9
    assert saw_opt == 3  # every N = 30 trial carries the optimal welfare

    by_n = {s.N: s for s in stats}
    assert math.isnan(by_n[60].mean_T_opt)
    assert not math.isnan(by_n[30].mean_T_opt)
    for s in stats:
        assert s.failures == 0


def test_intervention_experiment_requires_complements():
    with pytest.raises(ValueError):
        ex.intervention_experiment(kernels.minmax(), alpha=-1.0, beta=1.0,
                                   c_per_agent=0.01, Ns=[20], trials=1,
                                   optimal_cap=10, seed=0)


def test_grid_intervention_experiment_computes_the_eigenpairs_once(monkeypatch):
    # The grid kernel's dominant eigenpairs depend on the spec alone, so a
    # serial multi-trial run computes them once, not once per trial.
    calls = []
    real = kernels.sbm_eigen_analytic

    def counting(Q, w, k=None):
        calls.append(len(w))
        return real(Q, w, k)

    monkeypatch.setattr(kernels, "sbm_eigen_analytic", counting)
    spec = kernels.grid_kernel([[0.3, 0.1, 0.2], [0.1, 0.4, 0.1], [0.2, 0.1, 0.5]])
    stats = ex.intervention_experiment(spec, 2.0, 1.0, 0.01, [20, 30], 3, 0, 5, jobs=1)
    assert [s.failures for s in stats] == [0, 0]
    assert calls == [3]


# --- seeding -----------------------------------------------------------------------

def test_subseed_deterministic_and_distinct():
    a = ex.subseed(7, 100, 3, 0)
    assert a == ex.subseed(7, 100, 3, 0)
    assert a != ex.subseed(7, 100, 3, 1)
    assert a != ex.subseed(8, 100, 3, 0)


# --- trial runner ------------------------------------------------------------------

def test_repeated_population_size_is_rejected(tmp_path):
    csv_path = tmp_path / "distances.csv"
    with pytest.raises(ValueError, match="distinct"):
        ex.distance_experiment(kernels.minmax(), LqPayoff(0.5, 1.0), [20, 20], 2, 0.05, 60, 1,
                               csv_path=csv_path)
    with pytest.raises(ValueError, match="distinct"):
        ex.intervention_experiment(kernels.minmax(), 5.0, 1.0, 0.01, [20, 20], 2, 30, 1,
                                   csv_path=csv_path)
    assert not csv_path.exists()


def test_failed_trials_are_counted_per_population_size():
    # p = 1 samples the complete graph, where lambda_max(P/N) = 1 - 1/N: alpha = 1.2
    # contracts at N = 4 (q = 0.9) and fails every trial at N = 40 (q = 1.17).
    stats = ex.intervention_experiment(kernels.erdos_renyi(1.0), 1.2, 1.0, 0.01, [4, 40], 2,
                                       0, 3)
    assert [(s.N, s.failures) for s in stats] == [(4, 0), (40, 2)]
    assert math.isnan(stats[1].mean_T) and stats[1].gap_percentiles == {}
    assert stats[0].mean_T > 0.0


def test_a_failed_distance_trial_is_counted_not_dropped(monkeypatch, tmp_path):
    # A trial whose solve fails counts as a failure of its N and writes no rows;
    # the other population sizes are untouched.
    args = (kernels.minmax(), LqPayoff(0.5, 1.0), [10, 20, 40], 2, 0.05, 80, 5)
    ref = ex.distance_experiment(*args, jobs=1, csv_path=tmp_path / "ref.csv")
    solve = ex._solve

    def failing_at_20(G, *rest, **kwargs):
        if len(G) == 20:
            raise ContractionError(1.5, "contraction violated")
        return solve(G, *rest, **kwargs)

    monkeypatch.setattr(ex, "_solve", failing_at_20)
    stats = ex.distance_experiment(*args, jobs=1, csv_path=tmp_path / "failed.csv")
    assert [(s.N, s.failures) for s in stats] == [(10, 0), (10, 0), (20, 2), (20, 2), (40, 0), (40, 0)]
    assert all(s.trials == 2 and s.percentiles == {} for s in stats if s.N == 20)
    assert [s for s in stats if s.N != 20] == [s for s in ref if s.N != 20]
    rows = [r for r in (tmp_path / "ref.csv").read_text().splitlines() if not r.startswith("20,")]
    assert (tmp_path / "failed.csv").read_text().splitlines() == rows


def test_intervention_experiment_rejects_a_nan_alpha():
    with pytest.raises(ValueError, match="complements"):
        ex.intervention_experiment(kernels.minmax(), math.nan, 1.0, 0.01, [10], 1, 10, 0)
