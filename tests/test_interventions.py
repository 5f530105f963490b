import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphon_games import interventions as iv
from graphon_games import equilibrium, experiments, kernels, sampling, spectral
from graphon_games.errors import ContractionError
from graphon_games.experiments import rate_fit


def random_network(rng, N):
    P = rng.random((N, N))
    P = (P + P.T) / 2.0
    np.fill_diagonal(P, 0.0)
    return P


def sampled_instance(spec, N, seed):
    types = sampling.sample_types(N, seed)
    Pw = sampling.weighted_network(spec, types)
    Ps = sampling.simple_network(Pw, seed + 10_000)
    return types, Pw, Ps


# --- welfare ------------------------------------------------------------------

def test_welfare_complete_graph():
    N = 10
    T = iv.welfare(np.ones((N, N)), 0.5, np.ones(N))
    assert T == pytest.approx(2.0, abs=1e-12)  # s = 2 everywhere, (1/2N) * 4N


def test_welfare_scaling_square():
    rng = np.random.default_rng(0)
    P = random_network(rng, 20)
    base = iv.welfare(P, 0.7, np.ones(20))
    scaled = iv.welfare(P, 0.7, 1.1 * np.ones(20))
    assert scaled / base == pytest.approx(1.21, abs=1e-9)


def test_welfare_no_network():
    T = iv.welfare(np.zeros((5, 5)), 0.9, np.full(5, 1.4))
    assert T == pytest.approx(1.4**2 / 2.0, abs=1e-14)


def test_welfare_contraction_checked():
    with pytest.raises(ContractionError):
        iv.welfare(np.ones((4, 4)), 1.5, np.ones(4))


@pytest.mark.parametrize("beta_hat", [np.ones(3), np.ones((4, 1)), [1.0, math.nan, 1.0, 1.0],
                                      [1.0, math.inf, 1.0, 1.0]])
def test_welfare_rejects_a_beta_hat_that_is_not_n_finite_values(beta_hat):
    # A beta_hat of the wrong length once surfaced numpy's matmul message.
    with pytest.raises(ValueError, match="beta_hat must be 4 finite values"):
        iv.welfare(np.ones((4, 4)) / 2.0, 0.5, beta_hat)


# --- homogeneous policy ----------------------------------------------------------

def test_homogeneous_zero_budget():
    res = iv.homogeneous_policy(1.0, 0.0, 8)
    assert np.all(res.beta_hat == 1.0)
    assert res.budget_used == 0.0


def test_homogeneous_ten_percent():
    N = 50
    res = iv.homogeneous_policy(1.0, 0.01 * N, N)
    assert np.allclose(res.beta_hat, 1.1, atol=1e-14)
    assert res.budget_used == pytest.approx(0.01 * N, abs=1e-12)


@pytest.mark.parametrize("C,N", [(0.3, 7), (2.0, 40), (5.5, 13)])
def test_homogeneous_budget_identity(C, N):
    res = iv.homogeneous_policy(1.0, C, N)
    assert np.sum((res.beta_hat - 1.0) ** 2) == pytest.approx(C, abs=1e-9)


# --- network heuristic -------------------------------------------------------------

def test_network_heuristic_zero_budget():
    rng = np.random.default_rng(1)
    res = iv.network_heuristic(random_network(rng, 9), 1.0, 0.0)
    assert np.all(res.beta_hat == 1.0)


def test_network_heuristic_complete_graph_is_homogeneous():
    N = 16
    res = iv.network_heuristic(np.ones((N, N)), 1.0, 0.64)
    hom = iv.homogeneous_policy(1.0, 0.64, N)
    assert np.allclose(res.beta_hat, hom.beta_hat, atol=1e-10)


def test_network_heuristic_budget_identity_and_orientation():
    rng = np.random.default_rng(2)
    for _ in range(5):
        P = random_network(rng, 15)
        res = iv.network_heuristic(P, 1.0, 1.7)
        assert res.budget_used == pytest.approx(1.7, abs=1e-9)
        assert np.all(res.beta_hat >= 1.0 - 1e-9)  # nonnegative eigenvector


# --- graphon heuristic ----------------------------------------------------------------

def test_graphon_heuristic_zero_budget():
    types, _, _ = sampled_instance(kernels.minmax(), 20, seed=3)
    res = iv.graphon_heuristic(kernels.minmax(), types, 1.0, 0.0)
    assert np.all(res.beta_hat == 1.0)


def test_graphon_heuristic_sbm_piecewise_constant():
    spec = kernels.sbm([[0.8, 0.1], [0.1, 0.8]], [0.75, 0.25])
    types, _, _ = sampled_instance(spec, 120, seed=4)
    res = iv.graphon_heuristic(spec, types, 1.0, 1.2)
    first = types.types < 0.75
    assert len(set(res.beta_hat[first])) == 1
    assert len(set(res.beta_hat[~first])) == 1
    assert res.budget_used == pytest.approx(1.2, abs=1e-9)


def test_graphon_heuristic_budget_identity_minmax():
    types, _, _ = sampled_instance(kernels.minmax(), 75, seed=5)
    res = iv.graphon_heuristic(kernels.minmax(), types, 1.0, 0.75)
    assert res.budget_used == pytest.approx(0.75, abs=1e-9)


def test_graphon_heuristic_warns_without_gap():
    spec = kernels.sbm(0.6 * np.eye(2), [0.5, 0.5])  # two identical blocks: lam1 == lam2
    types, _, _ = sampled_instance(spec, 30, seed=6)
    with pytest.warns(UserWarning, match="spectral gap"):
        iv.graphon_heuristic(spec, types, 1.0, 0.5)


# --- optimal intervention ---------------------------------------------------------------

def brute_force_circle(P, alpha, beta, C, n_theta=400_001):
    """Dense search over the budget circle for N = 2 planner problems."""
    Minv = np.linalg.inv(np.eye(2) - (alpha / 2.0) * P)
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta)
    offsets = math.sqrt(C) * np.vstack([np.cos(theta), np.sin(theta)])
    S = Minv @ (beta + offsets)
    return float(np.max(np.sum(S**2, axis=0) / 4.0))


def test_optimal_zero_budget_is_baseline():
    rng = np.random.default_rng(7)
    P = random_network(rng, 10)
    res = iv.optimal_intervention(P, 0.8, 1.0, 0.0)
    assert np.all(res.beta_hat == 1.0)
    assert res.welfare == pytest.approx(iv.welfare(P, 0.8, np.ones(10)), abs=1e-12)


def test_optimal_single_agent():
    res = iv.optimal_intervention(np.zeros((1, 1)), 0.5, 1.0, 0.49)
    assert res.beta_hat[0] == pytest.approx(1.7, abs=1e-10)


def test_optimal_matches_circle_search():
    rng = np.random.default_rng(8)
    for k in range(10):
        P = np.zeros((2, 2))
        P[0, 1] = P[1, 0] = rng.random()
        alpha = 0.2 + 0.7 * rng.random()
        C = 0.05 + rng.random()
        res = iv.optimal_intervention(P, alpha, 1.0, C)
        brute = brute_force_circle(P, alpha, 1.0, C)
        assert res.welfare == pytest.approx(brute, abs=1e-6)
        assert res.welfare >= brute - 1e-6


def test_optimal_kkt_certificate():
    rng = np.random.default_rng(9)
    N = 50
    for k in range(10):
        P = random_network(rng, N)
        alpha = 0.8
        C = 0.01 * N
        res = iv.optimal_intervention(P, alpha, 1.0, C)
        lam, U = np.linalg.eigh(P / N)
        d = 1.0 / (1.0 - alpha * lam) ** 2
        y = U.T @ res.beta_hat
        c = U.T @ np.ones(N)
        mu = res.kkt_multiplier
        assert np.max(np.abs(d * y - mu * (y - c))) <= 1e-8
        assert np.sum((y - c) ** 2) == pytest.approx(C, abs=1e-8)
        assert res.budget_used <= C + 1e-9


def test_optimal_degenerate_spectrum():
    # An empty network makes every eigendirection equivalent; the solver must
    # still consume the budget exactly and not lose to the homogeneous split.
    P = np.zeros((4, 4))
    res = iv.optimal_intervention(P, 0.5, 1.0, 1.0)
    assert res.budget_used == pytest.approx(1.0, abs=1e-9)
    assert res.welfare >= iv.welfare(P, 0.5, iv.homogeneous_policy(1.0, 1.0, 4).beta_hat) - 1e-9


def test_optimal_hard_case_allocates_to_top_shell():
    # On a nonnegative network the Perron direction overlaps the baseline
    # beta 1, so only beta = 0 makes the hard case: c = U^T (beta 1) vanishes,
    # no direction absorbs budget through the secular equation, the
    # multiplier pins to d_max and the whole budget goes into the top-shell
    # eigenvector, the Perron vector. Checked against the dense circle search.
    P = np.array([[0.0, 0.5], [0.5, 0.0]])
    alpha, beta = 0.5, 0.0
    for C in (8.0, 20.0):
        res = iv.optimal_intervention(P, alpha, beta, C)
        lam_max = np.max(np.linalg.eigvalsh(P / 2.0))
        d_max = 1.0 / (1.0 - alpha * lam_max) ** 2
        assert res.kkt_multiplier == pytest.approx(d_max, rel=1e-12)
        assert res.budget_used == pytest.approx(C, abs=1e-8)
        assert res.beta_hat == pytest.approx(np.full(2, math.sqrt(C / 2.0)), rel=1e-12)
        assert res.welfare == pytest.approx(brute_force_circle(P, alpha, beta, C), abs=1e-6)


def test_optimal_dominates_heuristics():
    spec = kernels.minmax()
    for seed in range(5):
        types, Pw, Ps = sampled_instance(spec, 60, seed=20 + seed)
        A = Ps.A
        alpha, beta, C = 2.0, 1.0, 0.6
        opt = iv.optimal_intervention(A, alpha, beta, C)
        nh = iv.evaluate_policy(iv.network_heuristic(A, beta, C), A, alpha)
        gh = iv.evaluate_policy(iv.graphon_heuristic(spec, types, beta, C), A, alpha)
        hom = iv.evaluate_policy(iv.homogeneous_policy(beta, C, 60), A, alpha)
        assert opt.welfare >= max(nh.welfare, gh.welfare, hom.welfare) - 1e-9


def test_optimal_requires_complements():
    with pytest.raises(ValueError):
        iv.optimal_intervention(np.zeros((3, 3)), -0.5, 1.0, 1.0)


# --- welfare gap -------------------------------------------------------------------------

def test_welfare_gap_zero_budget():
    types, Pw, Ps = sampled_instance(kernels.minmax(), 40, seed=30)
    T_nh, T_gh, gap = iv.welfare_gap(Ps, kernels.minmax(), 2.0, 1.0, 0.0)
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_welfare_gap_er_heuristics_coincide():
    # Constant kernel: both heuristics reduce to (nearly) homogeneous splits.
    spec = kernels.erdos_renyi(0.9)
    types, Pw, Ps = sampled_instance(spec, 80, seed=31)
    T_nh, T_gh, gap = iv.welfare_gap(Ps, spec, 0.5, 1.0, 0.8)
    assert gap <= 5e-3 * max(T_nh, T_gh)


def test_heuristic_allocation_distance_rate():
    # ||beta_nh - beta_gh|| / sqrt(C) falls at roughly sqrt(log N / N).
    spec = kernels.minmax()
    Ns = [100, 200, 400, 800]
    medians = []
    for N in Ns:
        dists = []
        for seed in range(10):
            types, Pw, Ps = sampled_instance(spec, N, seed=40 + seed)
            C = 0.01 * N
            nh = iv.network_heuristic(Ps.A, 1.0, C)
            gh = iv.graphon_heuristic(spec, types, 1.0, C)
            dists.append(np.linalg.norm(nh.beta_hat - gh.beta_hat) / math.sqrt(C))
        medians.append(float(np.median(dists)))
    assert medians[-1] < medians[0]
    slope, _, _ = rate_fit(Ns, medians, delta=0.05)
    assert 0.5 <= slope <= 1.5


@given(N=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 1.8),
       c_per_agent=st.sampled_from([0.0, 0.001, 0.01, 0.5]))
@settings(max_examples=60, deadline=None)
def test_optimal_welfare_is_the_welfare_of_its_allocation(N, seed, alpha, c_per_agent):
    # The optimum reads its welfare off the eigendecomposition; solving the
    # game at the returned allocation must give the same number.
    P = random_network(np.random.default_rng(seed), N)
    assume(alpha * np.linalg.eigvalsh(P / N)[-1] < 0.95)
    res = iv.optimal_intervention(P, alpha, 1.0, c_per_agent * N)
    assert res.welfare == pytest.approx(iv.welfare(P, alpha, res.beta_hat), rel=1e-12)


def test_optimal_welfare_in_the_hard_case():
    # The pair at beta = 0 of test_optimal_hard_case_allocates_to_top_shell:
    # the budget put into the top shell, past the secular equation, has the
    # welfare C mu / (2N) of its allocation.
    P = np.array([[0.0, 0.5], [0.5, 0.0]])
    for C in (8.0, 20.0):
        res = iv.optimal_intervention(P, 0.5, 0.0, C)
        assert res.welfare == pytest.approx(iv.welfare(P, 0.5, res.beta_hat), rel=1e-12)


@pytest.mark.parametrize("policy", ["welfare", "optimal"])
def test_contraction_failure_reports_ratio_and_radius(policy):
    # lambda_max(ones / 4) = 1, so alpha = 1.5 gives q = 1.5 on both paths.
    P = np.ones((4, 4))
    with pytest.raises(ContractionError, match="lipschitz ratio 1.5 times spectral radius") as err:
        if policy == "welfare":
            iv.welfare(P, 1.5, np.ones(4))
        else:
            iv.optimal_intervention(P, 1.5, 1.0, 1.0)
    assert err.value.factor == pytest.approx(1.5)


@pytest.mark.parametrize("P", [[[0.0, 1.0], [0.0, 0.0]], [[0.0, math.nan], [math.nan, 0.0]]],
                         ids=["non-symmetric", "nan"])
@pytest.mark.parametrize("policy", ["welfare", "network-heuristic", "optimal"])
def test_interventions_reject_non_symmetric_or_non_finite_networks(policy, P):
    with pytest.raises(ValueError, match="network matrix"):
        if policy == "welfare":
            iv.welfare(P, 0.5, np.ones(2))
        elif policy == "network-heuristic":
            iv.network_heuristic(P, 1.0, 0.5)
        else:
            iv.optimal_intervention(P, 0.5, 1.0, 0.5)


@pytest.mark.parametrize("policy", ["welfare", "optimal"])
def test_welfare_gates_on_the_spectral_radius(policy):
    # P/N has eigenvalues -4 and 0.2: lambda_max gives a factor of 0.1, but
    # the best-response map expands along the -4 direction (q = 2), as in
    # solve_network. With alpha = -0.5, I - alpha G is even indefinite and
    # the "equilibrium" [-1, 0.909] has a negative strategy. The planner
    # rejects the signed network before any gate.
    P = np.diag([-8.0, 0.4])
    if policy == "optimal":
        with pytest.raises(ValueError, match="require a nonnegative network") as info:
            iv.optimal_intervention(P, 0.5, 1.0, 1.0)
        assert not isinstance(info.value, ContractionError)
        return
    with pytest.raises(ContractionError) as info:
        iv.welfare(P, -0.5, np.ones(2))
    assert info.value.factor == pytest.approx(2.0, abs=1e-9)


def test_welfare_matches_a_dense_solve_for_every_allocation():
    rng = np.random.default_rng(3)
    P = random_network(rng, 60)
    P[5] = P[:, 5] = 0.0
    G = P / 60
    for alpha in (0.9, -0.9):
        alpha /= np.linalg.eigvalsh(G)[-1]
        for b in (np.ones(60), rng.uniform(0.0, 2.0, 60), np.eye(60)[5], np.zeros(60)):
            s = np.linalg.solve(np.eye(60) - alpha * G, b)
            assert iv.welfare(P, alpha, b) == pytest.approx(np.sum(s**2) / 120.0, rel=1e-12, abs=0)


# --- optimal intervention: the Lanczos run from 1 against a dense reference -------------

def _dense_optimum(P, alpha, beta, C):
    """The optimum from a full eigendecomposition of G = P/N, the tests' oracle.

    ``_secular_solve`` on d = (1 - alpha lambda)^-2 and c = U^T (beta 1), with
    T_opt = sum d y^2 / (2N); at beta = 0 the allocation is sqrt(C) times a
    top eigenvector of either sign, oriented to the Perron vector by ``_orient``."""
    N = len(P)
    lam, U = np.linalg.eigh(P / N)
    d = 1.0 / (1.0 - alpha * lam) ** 2
    mu, y = iv._secular_solve(d, U.T @ np.full(N, float(beta)), C)
    beta_hat = spectral._orient(U @ y)
    return iv.InterventionResult(beta_hat, float(np.sum(d * y**2)) / (2.0 * N),
                                 float(np.sum((beta_hat - beta) ** 2)), "optimal", float(mu))


def _without_eigh(monkeypatch):
    """Allow np.linalg.eigh only on a Lanczos run's tridiagonal T, never on the network."""
    eigh = np.linalg.eigh

    def tridiagonal_only(T, *args, **kwargs):
        if np.any(np.triu(T, 2)):
            raise AssertionError("np.linalg.eigh called on a matrix that is not tridiagonal")
        return eigh(T, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", tridiagonal_only)


def _optimum_and_reference(monkeypatch, P, alpha, beta, C):
    """(result with eigh only on tridiagonals, path served, dense reference).

    The path is "perron" at beta = 0, "certified" when ``_certified`` accepted
    a projection, and "end" when the run served it at its end uncertified."""
    ref = _dense_optimum(P, alpha, beta, C)
    certified, verdicts = iv._certified, []
    with monkeypatch.context() as m:
        _without_eigh(m)
        m.setattr(iv, "_certified", lambda *args: verdicts.append(certified(*args)) or verdicts[-1])
        res = iv.optimal_intervention(P, alpha, beta, C)
    path = "perron" if beta == 0.0 else "certified" if any(verdicts) else "end"
    return res, path, ref


def _assert_same_optimum(res, ref):
    assert res.welfare == pytest.approx(ref.welfare, rel=1e-12, abs=0)
    assert res.kkt_multiplier == pytest.approx(ref.kkt_multiplier, rel=1e-12, abs=0)
    assert np.max(np.abs(res.beta_hat - ref.beta_hat)) <= 1e-10
    assert res.budget_used == pytest.approx(ref.budget_used, rel=1e-10)


@pytest.mark.parametrize("kind", ["simple", "weighted"])
@pytest.mark.parametrize("spec, alpha", [(kernels.minmax(), 5.0),
                                         (kernels.sbm([[0.8, 0.1], [0.1, 0.8]], [0.75, 0.25]), 1.0)],
                         ids=["minmax", "sbm"])
def test_projected_optimum_matches_the_dense_reference(monkeypatch, spec, alpha, kind):
    # The weighted network of a two-block sbm has rank 2, so the run from 1
    # is invariant at its second step and serves the optimum uncertified.
    rank_two = kind == "weighted" and spec.kind == "sbm"
    for N, seed in ((60, 1), (150, 2), (300, 3)):
        _, Pw, Ps = sampled_instance(spec, N, seed)
        P = Ps.A if kind == "simple" else Pw.P
        res, path, ref = _optimum_and_reference(monkeypatch, P, alpha, 1.0, 0.01 * N)
        assert path == ("end" if rank_two else "certified")
        _assert_same_optimum(res, ref)
        assert res.welfare == pytest.approx(iv.welfare(P, alpha, res.beta_hat), rel=1e-12, abs=0)


def _two_components():
    block = random_network(np.random.default_rng(5), 12)
    return np.kron(np.eye(2), block)


def _isolated_nodes():
    P = random_network(np.random.default_rng(6), 20)
    P[[3, 11]] = 0.0
    P[:, [3, 11]] = 0.0
    return P


@pytest.mark.parametrize("P, beta, path", [
    (random_network(np.random.default_rng(4), 20), 0.0, "perron"),
    (np.array([[0.0, -0.5], [-0.5, 0.0]]), 1.0, "rejected"),
    (_two_components(), 1.0, "certified"),
    (_isolated_nodes(), 1.0, "certified"),
    (np.zeros((1, 1)), 1.0, "end"),
    (np.zeros((5, 5)), 1.0, "end"),
], ids=["beta-zero", "signed", "two-identical-components", "isolated-nodes", "one-agent",
        "empty-network"])
def test_optimal_edge_cases_match_the_dense_reference(monkeypatch, P, beta, path):
    # One agent and the empty network make K(G, 1) invariant at the first step.
    N = len(P)
    if path == "rejected":  # a signed network is outside the planner's domain
        with pytest.raises(ValueError, match="require a nonnegative network"):
            iv.optimal_intervention(P, 0.5, beta, 0.3 * N)
        return
    res, served, ref = _optimum_and_reference(monkeypatch, P, 0.5, beta, 0.3 * N)
    assert served == path
    _assert_same_optimum(res, ref)
    assert res.welfare == pytest.approx(iv.welfare(P, 0.5, res.beta_hat), rel=1e-12)


def test_welfare_trials_need_no_full_eigendecomposition(monkeypatch):
    # eigh takes only the runs' tridiagonals, never the network, and the error
    # is not one a trial records.
    _without_eigh(monkeypatch)
    stats = experiments.intervention_experiment(kernels.minmax(), 5.0, 1.0, 0.01, [200], 2,
                                                optimal_cap=200, seed=42)
    assert stats[0].failures == 0
    assert stats[0].mean_T_opt >= max(stats[0].mean_T_hom, stats[0].mean_T_nh,
                                      stats[0].mean_T_gh)


def test_welfare_of_a_constant_allocation_matches_a_dense_solve():
    P = random_network(np.random.default_rng(8), 30)
    s = np.linalg.solve(np.eye(30) - 1.5 * P / 30, np.full(30, 1.1))
    assert iv.welfare(P, 1.5, np.full(30, 1.1)) == pytest.approx(np.sum(s**2) / 60.0, rel=1e-12)
    with pytest.raises(ValueError):
        iv.welfare(P, 1.5, np.ones(29))


# --- parameters that NaN must not slip past ---------------------------------------

def test_welfare_rejects_a_nan_alpha():
    P = random_network(np.random.default_rng(9), 30)
    with pytest.raises(ContractionError):
        iv.welfare(P, math.nan, np.linspace(0.5, 1.5, 30))


def test_optimal_rejects_a_nan_alpha():
    P = random_network(np.random.default_rng(9), 30)
    with pytest.raises(ValueError, match="complements"):
        iv.optimal_intervention(P, math.nan, 1.0, 1.0)


@pytest.mark.parametrize("policy", ["homogeneous", "network", "graphon", "optimal"])
@pytest.mark.parametrize("C", [math.nan, math.inf, -1.0])
def test_every_policy_rejects_a_nan_infinite_or_negative_budget(policy, C):
    types, _, Ps = sampled_instance(kernels.minmax(), 20, 3)
    run = {
        "homogeneous": lambda: iv.homogeneous_policy(1.0, C, 20),
        "network": lambda: iv.network_heuristic(Ps.A, 1.0, C),
        "graphon": lambda: iv.graphon_heuristic(kernels.minmax(), types, 1.0, C),
        "optimal": lambda: iv.optimal_intervention(Ps.A, 0.5, 1.0, C),
    }[policy]
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        run()


@pytest.mark.parametrize("N", [0, -3, 2.5, True])
def test_constant_policies_check_the_population_size(N):
    # N = 0 once raised ZeroDivisionError in the homogeneous split and gave
    # an empty allocation with no intervention.
    with pytest.raises(ValueError, match="N must be an integer of at least 1"):
        iv.homogeneous_policy(1.0, 1.0, N)
    with pytest.raises(ValueError, match="N must be an integer of at least 1"):
        iv.no_intervention(1.0, N)


# --- branches of the projection, the graphon heuristic and the secular solve -------

def test_graphon_heuristic_rejects_types_where_the_eigenfunction_vanishes():
    # The dominant eigenfunction of this block kernel is zero on the first block.
    spec = kernels.sbm([[0.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    types = sampling.TypeVector(np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="vanishes at every sampled type"):
        iv.graphon_heuristic(spec, types, 1.0, 0.5)


def _path_graph(N):
    P = np.diag(np.ones(N - 1), 1)
    return P + P.T


def _sparse_er(N, p, seed):
    types = sampling.sample_types(N, seed)
    return sampling.simple_network(sampling.weighted_network(kernels.erdos_renyi(p), types),
                                   seed + 1000).A


def lanczos_runs(monkeypatch, *modules):
    """Every Lanczos run that ``modules`` start, kept for its counters (steps, end reason)."""
    runs = []

    class Spy(spectral._Run):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    for module in modules:
        monkeypatch.setattr(module, "_Run", Spy)
    return runs


def _projection_spies(monkeypatch):
    """Record the Lanczos runs from 1, the solves, the Collatz-Wielandt bounds (one G x
    each) and the certificate's verdicts, eigh only on tridiagonals."""
    seen = {"runs": lanczos_runs(monkeypatch, iv), "solves": 0, "bounds": 0, "verdicts": []}
    solve, certified, bound = iv._lq_solve, iv._certified, iv._collatz_wielandt

    def counting_bounds(*args):
        seen["bounds"] += 1
        return bound(*args)

    def counting_solves(*args):
        seen["solves"] += 1
        return solve(*args)

    def recording_verdicts(*args):
        seen["verdicts"].append(certified(*args))
        return seen["verdicts"][-1]

    monkeypatch.setattr(iv, "_lq_solve", counting_solves)
    monkeypatch.setattr(iv, "_collatz_wielandt", counting_bounds)
    monkeypatch.setattr(iv, "_certified", recording_verdicts)
    _without_eigh(monkeypatch)
    return seen


@pytest.mark.parametrize("case", ["path-graph", "sparse-er"])
def test_an_uncertified_projection_runs_on_to_the_end(monkeypatch, case):
    # A path graph's clustered spectrum keeps the projection open until the
    # run from 1 turns invariant at step 100, where the projection is exact
    # and its welfare is read in the basis. On this sparse ER network near the
    # contraction limit (1 - alpha lam_bar = 0.01) the certificate rejects the
    # projections of steps 26-31, first on KKT and the basis residual, then on
    # the residual alone, and accepts at step 32; the run ends at step 35,
    # where its O(1) solve reads x1, not at k = n = 120. Neither case solves,
    # and each computes the bound lam_bar at v1 once, where it reads v1.
    P = _path_graph(200) if case == "path-graph" else _sparse_er(120, 0.05, 0)
    N = len(P)
    alpha = (0.5 if case == "path-graph" else 0.99) / np.linalg.eigvalsh(P / N)[-1]
    ref = _dense_optimum(P, alpha, 1.0, 0.01 * N)
    seen = _projection_spies(monkeypatch)
    res = iv.optimal_intervention(P, alpha, 1.0, 0.01 * N)
    seen["steps"] = seen.pop("runs")[-1].k
    assert seen == ({"steps": 100, "solves": 0, "bounds": 1, "verdicts": []} if case == "path-graph"
                    else {"steps": 35, "solves": 0, "bounds": 1, "verdicts": [False] * 6 + [True]})
    _assert_same_optimum(res, ref)
    assert res.welfare == pytest.approx(iv.welfare(P, alpha, res.beta_hat), rel=1e-12, abs=0)


def test_collatz_wielandt_rejects_where_v1_vanishes(monkeypatch):
    # rho(A/N) = 19/200 = 0.095 is the 20-clique's, and v1 vanishes on the star
    # (hub 20, leaves 21-170). At x = max(|v1|, 1e-8 max |v1|) the hub reads
    # (G x)_20 / x_20 = 150/200 = 0.75, so alpha lam_bar = 3.9 >= 1: the
    # certificate rejects the global optimum. A false rejection, pinned until
    # the gate is certified. The run needs no certificate: K(G, 1) is
    # invariant at step 4, where the projection is exact and its welfare is
    # read in the basis.
    N = 200
    P = np.zeros((N, N))
    P[:20, :20] = 1.0
    np.fill_diagonal(P, 0.0)
    P[20, 21:171] = P[21:171, 20] = 1.0
    alpha = 0.5 / 0.095
    v1 = iv._welfares(P / N, alpha, [])[1]
    x = np.maximum(np.abs(v1), 1e-8 * np.abs(v1).max())
    lam_bar = np.max(P / N @ x / x)
    assert lam_bar == pytest.approx(0.75, rel=1e-12) and alpha * lam_bar == pytest.approx(3.9, abs=0.05)
    ref = _dense_optimum(P, alpha, 1.0, 2.0)
    s = np.linalg.solve(np.eye(N) - alpha * P / N, ref.beta_hat)
    assert iv._collatz_wielandt(P / N, alpha, x) is None
    assert not iv._certified(P / N, alpha, 1.0, 2.0, ref.beta_hat, ref.kkt_multiplier, None, s, 0.0)
    seen = _projection_spies(monkeypatch)
    res = iv.optimal_intervention(P, alpha, 1.0, 2.0)
    seen["steps"] = seen.pop("runs")[-1].k
    assert seen == {"steps": 4, "solves": 0, "bounds": 1, "verdicts": []}
    _assert_same_optimum(res, ref)


def test_the_certificate_requires_the_basis_residual_to_bound_the_error():
    # The response s read in the basis is accepted only if its residual norm r
    # bounds its error: r / (1 - alpha lam_bar) <= 1e-13 ||s||. As
    # 1 - alpha lam_bar <= 1, r = 1e-12 ||s|| fails on a network the exact
    # response certifies.
    N, alpha = 100, 5.0
    P = sampled_instance(kernels.minmax(), N, 7)[2].A
    ref = _dense_optimum(P, alpha, 1.0, 1.0)
    s = np.linalg.solve(np.eye(N) - alpha * P / N, ref.beta_hat)
    v1 = iv._welfares(P / N, alpha, [])[1]
    x = np.maximum(np.abs(v1), 1e-8 * np.abs(v1).max())
    lam_bar = iv._collatz_wielandt(P / N, alpha, x)
    args = (P / N, alpha, 1.0, 1.0, ref.beta_hat, ref.kkt_multiplier, lam_bar, s)
    assert iv._certified(*args, 0.0) and not iv._certified(*args, 1e-12 * np.linalg.norm(s))


def test_an_indefinite_run_raises_from_the_run_that_found_it(monkeypatch):
    # With the gate stubbed out, alpha rho(G) = 2 reaches the solves. The run
    # that finds I - alpha T indefinite raises itself: a rerun of the same run
    # from 1 could only raise the same error.
    G = np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]])
    runs = lanczos_runs(monkeypatch, spectral, iv)
    for module in (equilibrium, iv):
        monkeypatch.setattr(module, "_check_contraction", lambda ratio, rho: ratio * rho)
    for call in (lambda: iv._welfares(G, 2.0, [np.ones(3)]),
                 lambda: equilibrium._contraction_gate(G, True, 2.0, 2.0),
                 lambda: equilibrium._lq_solve(G, 2.0, np.array([1.0, 0.0, 0.0]))):
        runs.clear()
        with pytest.raises(ContractionError, match="not positive definite"):
            call()
        assert len(runs) == 1 and runs[0].reason == "indefinite"


def test_a_run_indefinite_after_x1_is_read_raises_from_that_run(monkeypatch):
    # The run reads x1 = (I - alpha G)^-1 1 at step 7 and is made indefinite at the
    # next step, before the pair settles and the heuristic's allocation is solved.
    # An indefinite I - alpha T_k shows |alpha| rho(G) >= 1 (interlacing), so with the
    # gate stubbed out the call raises from that one run: no second run re-solves the
    # heuristic's allocation, and _lanczos returns no x from such a run.
    G = sampled_instance(kernels.minmax(), 40, 1)[1].P / 40
    runs = []

    class TurnsIndefinite(spectral._Run):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.read = False
            runs.append(self)

        def solve(self, c=None):
            x = super().solve(c)
            self.read = self.read or (c is None and x is not None)
            return x

        def step(self):
            super().step()
            self.definite = self.definite and not self.read

    for module in (spectral, iv):
        monkeypatch.setattr(module, "_Run", TurnsIndefinite)
    for module in (equilibrium, iv):
        monkeypatch.setattr(module, "_check_contraction", lambda ratio, rho: ratio * rho)
    for call in (lambda: iv._welfares(G, 1.0, [np.ones(40)], 1.0, 0.4, nh=True),
                 lambda: equilibrium._contraction_gate(G, True, 1.0, 1.0)):
        runs.clear()
        with pytest.raises(ContractionError, match="not positive definite"):
            call()
        assert len(runs) == 1 and runs[0].read and runs[0].reason == "indefinite"
    lam, v, x = spectral._lanczos(G, np.ones(40), spectral.POWER_TOL, alpha=1.0)
    assert x is None and lam > 0.0 and runs[-1].read


# --- the welfare trial: one Lanczos run from 1 per network --------------------------

def _trial(spec, alpha, N, seed, trial=0):
    """One welfare trial at beta = 1 and C = 0.01 N, with the optimum."""
    return experiments._intervention_trial((spec, alpha, 1.0, 0.01, N, trial, seed, N))


def test_a_welfare_trial_at_n_800_takes_at_most_32_lanczos_steps(monkeypatch):
    # The gate, x1, v1, the heuristic's solve and the projected optimum with its
    # certificate share one run; only T_gh solves apart (85 steps in all when
    # each reader ran Lanczos of its own, 44 when the certificate re-solved).
    runs = lanczos_runs(monkeypatch, spectral, iv)
    _without_eigh(monkeypatch)
    for trial in range(5):
        runs.clear()
        row = _trial(kernels.minmax(), 5.0, 800, 42, trial)
        assert row[-1] is None and sum(run.k for run in runs) <= 32


def test_a_welfare_trial_starts_two_lanczos_runs_and_certifies_with_no_solve(monkeypatch):
    # The run from 1 and T_gh's solve: the optimum's response and its residual
    # are read in the basis of the run from 1, so the certificate needs none.
    runs = lanczos_runs(monkeypatch, spectral, iv)
    certified, verdicts = iv._certified, []

    def certify_without_solves(*args):
        with monkeypatch.context() as m:
            for module in (equilibrium, iv):
                m.setattr(module, "_lq_solve", lambda *a: pytest.fail("the certificate solved"))
            verdicts.append(certified(*args))
        return verdicts[-1]

    monkeypatch.setattr(iv, "_certified", certify_without_solves)
    for N, trial in ((100, 0), (800, 0), (800, 1)):
        runs.clear()
        verdicts.clear()
        row = _trial(kernels.minmax(), 5.0, N, 42, trial)
        assert row[-1] is None and len(runs) == 2 and verdicts == [True]


def test_a_welfare_trial_calls_eigh_only_from_the_step_where_its_pair_settles(monkeypatch):
    # top() reads the run from 1 until its pair settles and the O(1) solve
    # reads x1 and T_gh's solve, so a full eigendecomposition serves only the
    # pair, the heuristic's basis solve and the projection, from that step on.
    runs, calls, eigh = lanczos_runs(monkeypatch, spectral, iv), [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda T: calls.append((len(runs), len(T))) or eigh(T))
    for trial in range(3):
        runs.clear()
        calls.clear()
        assert _trial(kernels.minmax(), 5.0, 800, 42, trial)[-1] is None
        first, gh = runs
        for settled in range(1, first.k + 1):  # the rule on a full eigendecomposition of T_j
            theta, S = eigh(spectral._tridiagonal(first.a[:settled], first.b))
            if first.b[settled - 1] * abs(S[-1, -1]) <= 1e-13 * max(1.0, abs(theta[-1])):
                break
        assert calls and all(run == 1 and settled <= k <= first.k for run, k in calls)
        assert gh.reason == "solved" and first.k - settled <= 3


def test_the_welfare_trial_does_not_validate_the_network_it_built(monkeypatch):
    calls = []
    validate = kernels._validate_symmetric
    for module in (kernels, sampling, equilibrium, iv):
        monkeypatch.setattr(module, "_validate_symmetric",
                            lambda *args: calls.append(args) or validate(*args))
    assert _trial(kernels.minmax(), 5.0, 100, 42)[-1] is None
    assert calls == []


@pytest.mark.parametrize("kind", ["simple", "weighted"])
@pytest.mark.parametrize("spec, alpha", [(kernels.minmax(), 5.0),
                                         (kernels.sbm([[0.8, 0.1], [0.1, 0.8]], [0.75, 0.25]), 1.0)],
                         ids=["minmax", "sbm"])
def test_the_shared_run_matches_dense_references(spec, alpha, kind):
    # T, T_hom, T_nh, T_gh and T_opt from one Lanczos run from 1 (and the
    # solve of T_gh) against np.linalg.solve and eigh of the dense G.
    for N, seed in ((100, 7), (400, 8)):
        types, Pw, Ps = sampled_instance(spec, N, seed)
        G = (Ps.A if kind == "simple" else Pw.P) / N
        beta, C = 1.0, 0.01 * N
        allocations = [iv.no_intervention(beta, N).beta_hat,
                       iv.homogeneous_policy(beta, C, N).beta_hat,
                       iv.graphon_heuristic(spec, types, beta, C).beta_hat]
        Ts, v1, (_, _, T_opt) = iv._welfares(G, alpha, allocations, beta, C, nh=True, opt=True)
        lam, U = np.linalg.eigh(G)
        v_ref = spectral._orient(U[:, -1])
        assert np.max(np.abs(v1 - v_ref)) <= 1e-10
        M = np.eye(N) - alpha * G
        for T, b in zip(Ts, allocations + [beta + math.sqrt(C) * v_ref]):
            s = np.linalg.solve(M, b)
            assert T == pytest.approx(np.sum(s**2) / (2 * N), rel=1e-12, abs=0)
        d = 1.0 / (1.0 - alpha * lam) ** 2
        _, y = iv._secular_solve(d, U.T @ np.full(N, beta), C)
        assert T_opt == pytest.approx(np.sum(d * y**2) / (2 * N), rel=1e-12, abs=0)


def test_welfare_gap_and_network_heuristic_read_the_trial_values():
    spec, N, seed = kernels.minmax(), 200, 42
    T_nh, T_gh, T_opt, gap = _trial(spec, 5.0, N, seed)[4:8]
    types = experiments._trial_networks(spec, N, 0, seed)[0]  # the trial holds A/N: A drawn again
    A = sampling._kernel_links(spec, types, experiments.subseed(seed, N, 0, 1), 1.0)
    Ps = sampling.SimpleNetwork(A, types)
    assert iv.welfare_gap(Ps, spec, 5.0, 1.0, 0.01 * N) == (T_nh, T_gh, gap)
    nh = iv.evaluate_policy(iv.network_heuristic(A, 1.0, 0.01 * N), A, 5.0)
    assert nh.welfare == pytest.approx(T_nh, rel=1e-12, abs=0)
    assert iv.optimal_intervention(A, 5.0, 1.0, 0.01 * N).welfare == T_opt


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
def test_welfare_gap_requires_complements(alpha):
    # At alpha <= 0 the linear response can have negative strategies, so it is
    # no LQ equilibrium and its "welfare" means nothing.
    types, _, Ps = sampled_instance(kernels.minmax(), 40, 3)
    with pytest.raises(ValueError, match="strategic complements"):
        iv.welfare_gap(Ps, kernels.minmax(), alpha, 1.0, 0.2)


def test_evaluate_policy_requires_complements():
    # At alpha = -6.5 the linear response to the equal split has -0.117 as its
    # smallest entry: no LQ equilibrium, so no welfare of a policy to report.
    # welfare itself keeps its linear-response meaning.
    types = sampling.sample_types(40, 3)
    A = sampling.simple_network(sampling.weighted_network(kernels.minmax(), types), 4).A
    hom = iv.homogeneous_policy(1.0, 0.2, 40)
    s = np.linalg.solve(np.eye(40) + 6.5 * A / 40, hom.beta_hat)
    assert s.min() == pytest.approx(-0.117, abs=1e-3)
    assert iv.welfare(A, -6.5, hom.beta_hat) == pytest.approx(np.sum(s**2) / 80, rel=1e-12, abs=0)
    for alpha in (-6.5, 0.0, math.nan):
        with pytest.raises(ValueError, match="strategic complements"):
            iv.evaluate_policy(hom, A, alpha)


@pytest.mark.parametrize("signed", [False, True], ids=["nonnegative", "signed"])
def test_the_network_heuristic_is_the_one_the_policies_read(signed):
    # network_heuristic takes v1 from power_method with no welfare run; the
    # policies read it off the gate's run, bit for bit. A signed network is
    # outside the planner's domain: the heuristic rejects it.
    for N in (5, 60, 300):
        P = random_network(np.random.default_rng(N), N)
        P = P - 0.5 if signed else P
        np.fill_diagonal(P, 0.0)
        if signed:
            with pytest.raises(ValueError, match="require a nonnegative network"):
                iv.network_heuristic(P, 1.0, 0.01 * N)
            continue
        alpha = 0.5 / np.max(np.abs(np.linalg.eigvalsh(P / N)))
        res = iv._policies(P / N, None, None, alpha, 1.0, 0.01 * N, ("network",))
        nh = iv.network_heuristic(P, 1.0, 0.01 * N)
        assert np.array_equal(res["network"].beta_hat, nh.beta_hat)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_welfare_on_a_signed_network_takes_the_gate_and_one_solve(monkeypatch, sign):
    # The gate's one run, which reads both ends of G's spectrum, then the solve
    # from the allocation: 2 Lanczos runs (3 when a run from 1 served the planner's gate too).
    N = 40
    P = random_network(np.random.default_rng(11), N) - 0.5
    np.fill_diagonal(P, 0.0)
    alpha = sign * 0.5 / np.max(np.abs(np.linalg.eigvalsh(P / N)))
    b = np.linspace(0.5, 1.5, N)
    runs = lanczos_runs(monkeypatch, spectral, iv)
    T = iv.welfare(P, alpha, b)
    assert len(runs) == 2
    s = np.linalg.solve(np.eye(N) - alpha * P / N, b)
    assert T == pytest.approx(np.sum(s**2) / (2 * N), rel=1e-12, abs=0)


def _signed_instance():
    types, _, Ps = sampled_instance(kernels.minmax(), 30, 3)
    A = Ps.A.copy()
    A[0, 1] = A[1, 0] = -1.0
    return types, A


@pytest.mark.parametrize("entry", ["optimal", "welfare_gap", "network", "evaluate"])
def test_every_planner_entry_rejects_a_signed_network(entry):
    # With a signed network the linear response can go negative: no LQ
    # equilibrium, so no welfare of a policy to report.
    types, A = _signed_instance()
    run = {
        "optimal": lambda: iv.optimal_intervention(A, 0.5, 1.0, 0.3),
        "welfare_gap": lambda: iv.welfare_gap(sampling.SimpleNetwork(A, types), kernels.minmax(),
                                              0.5, 1.0, 0.3),
        "network": lambda: iv.network_heuristic(A, 1.0, 0.3),
        "evaluate": lambda: iv.evaluate_policy(iv.homogeneous_policy(1.0, 0.3, 30), A, 0.5),
    }[entry]
    with pytest.raises(ValueError, match="require a nonnegative network matrix"):
        run()


def test_evaluate_policy_accepts_the_builders_allocations_and_rejects_negative_ones():
    # At beta = 0 on sparse ER networks the network heuristic's allocation
    # carries Perron-vector round-off below equilibrium._ACCEPT_NEG = -1e-12
    # (-2.5e-12 at C = 100); the floor is -1e-9 max |beta_hat|.
    spec, lowest = kernels.erdos_renyi(0.05), 0.0
    for seed in range(40):
        types = sampling.sample_types(100, seed)
        A = sampling.simple_network(sampling.weighted_network(spec, types), seed + 1).A
        for r in (iv.no_intervention(0.0, 100), iv.homogeneous_policy(0.0, 100.0, 100),
                  iv.network_heuristic(A, 0.0, 100.0), iv.graphon_heuristic(spec, types, 0.0, 100.0),
                  iv.optimal_intervention(A, 0.5, 0.0, 100.0)):
            lowest = min(lowest, r.beta_hat.min())
            assert iv.evaluate_policy(r, A, 0.5).welfare >= 0.0
    assert lowest < equilibrium._ACCEPT_NEG
    given = lambda b: iv.InterventionResult(b, math.nan, 0.0, "given")
    b = np.linspace(0.0, 1.0, 100)  # max |beta_hat| = 1: the floor is -1e-9
    assert iv.evaluate_policy(given(np.r_[-0.5e-9, b[1:]]), A, 0.5).welfare > 0.0
    for bad in (np.r_[-2e-9, b[1:]], np.full(100, -1.0)):
        with pytest.raises(ValueError, match="nonnegative allocation"):
            iv.evaluate_policy(given(bad), A, 0.5)


def test_the_optimum_at_beta_zero_is_the_perron_direction():
    # At beta = 0 the optimum is sqrt(C) times a top eigenvector, whose sign
    # eigh leaves open: oriented, it is the nonnegative Perron vector, the
    # network heuristic's own.
    for N in range(5, 25):
        P = random_network(np.random.default_rng(N), N)
        res = iv.optimal_intervention(P, 0.5, 0.0, 1.0)
        v = spectral._orient(np.linalg.eigh(P / N)[1][:, -1])
        assert np.max(np.abs(res.beta_hat - v)) <= 1e-12 and res.beta_hat.min() > 0.0
        assert np.array_equal(res.beta_hat, iv.network_heuristic(P, 0.0, 1.0).beta_hat)


@pytest.mark.parametrize("types", [[0.2, 1.7], [0.2, math.nan], [-0.7, 0.3]])
@pytest.mark.parametrize("spec", [kernels.erdos_renyi(0.4), kernels.sbm([[0.8, 0.2], [0.2, 0.5]],
                                                                         [0.5, 0.5]),
                                  kernels.minmax(), kernels.grid_kernel([[0.8, 0.2], [0.2, 0.5]])],
                         ids=["er", "sbm", "minmax", "grid"])
def test_graphon_heuristic_rejects_types_outside_the_unit_interval(spec, types):
    # minmax's sine would go below beta at 1.7, NaN would spread to every
    # allocation, and -0.7 would wrap to a grid's last cell.
    with pytest.raises(ValueError, match="types outside"):
        iv.graphon_heuristic(spec, sampling.TypeVector(types), 1.0, 1.0)


def test_a_spec_does_not_outlive_its_caller():
    # The step kernel's dominant pair is kept with the spec, so nothing holds
    # the spec, or its 400 x 400 cell values, once the caller drops it.
    import weakref

    V = np.random.default_rng(0).random((400, 400))
    spec = kernels.grid_kernel(np.triu(V) + np.triu(V, 1).T)
    iv.graphon_heuristic(spec, sampling.sample_types(50, 1), 1.0, 1.0)
    ref = weakref.ref(spec)
    del spec
    assert ref() is None


def test_graphon_heuristic_on_a_grid_kernel_matches_its_blocks():
    # A grid kernel takes the discretized operator; the same blocks as an sbm
    # take the closed form.
    Q = [[0.8, 0.2], [0.2, 0.5]]
    types = sampling.sample_types(60, 4)
    grid = iv.graphon_heuristic(kernels.grid_kernel(Q), types, 1.0, 0.6)
    block = iv.graphon_heuristic(kernels.sbm(Q, [0.5, 0.5]), types, 1.0, 0.6)
    assert np.max(np.abs(grid.beta_hat - block.beta_hat)) <= 1e-12


def test_graphon_heuristic_reads_a_grid_kernel_at_its_own_cells():
    # At a resolution that 3 does not divide, such as 1000 or 200, a cell
    # straddles each block boundary and the types in it read the wrong block.
    Q = [[0.8, 0.1, 0.3], [0.1, 0.6, 0.2], [0.3, 0.2, 0.5]]
    types = sampling.sample_types(400, 6)
    grid = iv.graphon_heuristic(kernels.grid_kernel(Q), types, 1.0, 4.0)
    block = iv.graphon_heuristic(kernels.sbm(Q, [1 / 3] * 3), types, 1.0, 4.0)
    assert np.max(np.abs(grid.beta_hat - block.beta_hat)) <= 1e-12


def test_graphon_heuristic_on_the_step_kernel_of_a_network_is_exact():
    N = 400
    P = sampling.weighted_network(kernels.minmax(), sampling.sample_types(N, 3)).P
    types = sampling.sample_types(N, 9)
    res = iv.graphon_heuristic(kernels.step_graphon_from_matrix(P), types, 1.0, 0.01 * N)
    blocks = spectral.sbm_eigen_analytic(P, np.full(N, 1.0 / N))[0][1]
    psi = blocks[kernels._cell_index(types.types, N)]
    expected = 1.0 + math.sqrt(0.01 * N / np.sum(psi**2)) * psi
    assert np.max(np.abs(res.beta_hat - expected)) <= 1e-12


def test_graphon_heuristic_on_a_one_cell_grid_is_the_constant_kernel():
    types = sampling.sample_types(50, 2)
    grid = iv.graphon_heuristic(kernels.grid_kernel([[0.4]]), types, 1.0, 0.5)
    er = iv.graphon_heuristic(kernels.erdos_renyi(0.4), types, 1.0, 0.5)
    assert np.max(np.abs(grid.beta_hat - er.beta_hat)) <= 1e-12


def _zero_budget_network():
    types = sampling.sample_types(800, 3)
    return sampling.simple_network(sampling.weighted_network(kernels.minmax(), types), 4).A


def test_zero_budget_optimum_has_the_welfare_of_its_allocation():
    A = _zero_budget_network()
    res = iv.optimal_intervention(A, 5.0, 1.0, 0.0)
    assert np.array_equal(res.beta_hat, np.ones(800)) and res.budget_used == 0.0
    assert res.welfare == iv.welfare(A, 5.0, np.ones(800))


def test_zero_budget_optimum_needs_no_full_eigendecomposition(monkeypatch):
    A = _zero_budget_network()
    _without_eigh(monkeypatch)
    assert iv.optimal_intervention(A, 5.0, 1.0, 0.0).welfare > 0.0


def test_secular_solve_at_a_budget_beyond_the_spectral_scale():
    d, c = np.array([1.0, 2.0, 4.0]), np.array([0.3, 0.2, 0.1])
    C = 100.0 * d.max() ** 2 * np.sum(c**2)
    mu, y = iv._secular_solve(d, c, C)
    assert mu > d.max()
    assert np.allclose(y, mu * c / (mu - d), rtol=1e-15)
    assert np.sum((y - c) ** 2) == pytest.approx(C, rel=1e-12)


def test_secular_solve_with_a_baseline_far_below_the_budget():
    # sum c^2 d_max / C is below round-off, so a bracket d_max (1 + sum c^2 d_max / C)
    # rounds to d_max and divides by zero; tier-1 turns that warning into an error.
    mu, y = iv._secular_solve(np.array([1.0, 2.0]), np.array([1e-9, 1e-9]), 1.0)
    assert mu > 2.0 and np.all(np.isfinite(y))
    types = sampling.sample_types(50, 1)
    A = sampling.simple_network(sampling.weighted_network(kernels.minmax(), types), 2).A
    res = iv.optimal_intervention(A, 5.0, 1e-10, 1.0)
    assert np.all(np.isfinite(res.beta_hat)) and res.welfare > 0.0


@pytest.mark.parametrize("policy", ["none", "homogeneous", "network", "graphon", "optimal"])
@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0])
def test_every_policy_rejects_a_non_finite_beta(policy, beta):
    types, _, Ps = sampled_instance(kernels.minmax(), 20, 3)
    run = {
        "none": lambda b: iv.no_intervention(b, 20),
        "homogeneous": lambda b: iv.homogeneous_policy(b, 1.0, 20),
        "network": lambda b: iv.network_heuristic(Ps.A, b, 1.0),
        "graphon": lambda b: iv.graphon_heuristic(kernels.minmax(), types, b, 1.0),
        "optimal": lambda b: iv.optimal_intervention(Ps.A, 0.5, b, 1.0),
    }[policy]
    # A negative baseline can make the linear response negative: no equilibrium.
    with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
        run(beta)
    assert np.all(np.isfinite(run(0.0).beta_hat))


@pytest.mark.parametrize("beta", [1e-13, 1e-12, 1e-10, 1e-9, 1e-6])
def test_optimal_spends_the_budget_exactly_near_the_hard_case(beta):
    # A baseline this small leaves the multiplier within about 1e-9 d_max of
    # d_max, where mu - d_max loses its digits unless it is the variable solved for.
    # At 1e-12 and below the certificate rejects and the run goes on to its
    # end; at 1e-13 the projected problem takes the hard-case branch.
    types = sampling.sample_types(50, 1)
    A = sampling.simple_network(sampling.weighted_network(kernels.minmax(), types), 2).A
    res = iv.optimal_intervention(A, 5.0, beta, 1.0)
    assert res.budget_used == pytest.approx(1.0, rel=1e-12)


def test_secular_solve_on_random_problems():
    # Problems shaped like projected ones: d = (1 - lambda)^-2, baselines over
    # fourteen decades, a near-vanishing top-shell baseline in a fifth of the
    # cases (hard or near-hard), budgets over ten decades. Above mu = 10 d_max,
    # y - c cancels in the budget check itself, so those cases are skipped. In a
    # hard case the shell's KKT residual is d_max |c_shell| <= 1e-12 d_max sqrt(C),
    # the probe's own threshold, hence the KKT tolerance.
    rng = np.random.default_rng(2024)
    checked = hard = 0
    for _ in range(3000):
        k = int(rng.integers(5, 26))
        d = (1.0 - rng.uniform(-0.9, 0.9, k)) ** -2
        c = 10.0 ** rng.uniform(-12, 2, k) * rng.choice([-1.0, 1.0], k)
        if rng.random() < 0.2:
            c[np.argmax(d)] *= 1e-12
        C = 10.0 ** rng.uniform(-6, 4)
        mu, y = iv._secular_solve(d, c, C)
        if mu > 10.0 * d.max():
            continue
        checked += 1
        hard += mu == d.max()
        assert mu >= d.max()
        assert np.sum((y - c) ** 2) == pytest.approx(C, rel=1e-12)
        assert np.linalg.norm(d * y - mu * (y - c)) <= 1e-12 * np.linalg.norm(d * y)
    assert checked > 1000 and hard > 0
