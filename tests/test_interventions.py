import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphon_games import interventions as iv
from graphon_games import kernels, sampling
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
    # A dominant eigendirection orthogonal to the ones baseline cannot absorb
    # budget through the secular equation; past the point where the remaining
    # directions saturate, the multiplier pins to d_max and the leftover goes
    # straight into the top-shell eigenvector. Nonnegative networks never hit
    # this (their Perron direction overlaps the baseline), so drive the solver
    # with a signed matrix and check it against the dense circle search.
    P = np.array([[0.0, -0.5], [-0.5, 0.0]])
    alpha, beta = 0.5, 1.0
    for C in (8.0, 20.0):
        res = iv.optimal_intervention(P, alpha, beta, C)
        lam_max = np.max(np.linalg.eigvalsh(P / 2.0))
        d_max = 1.0 / (1.0 - alpha * lam_max) ** 2
        assert res.kkt_multiplier == pytest.approx(d_max, rel=1e-12)
        assert res.budget_used == pytest.approx(C, abs=1e-8)
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
    # The signed pair of test_optimal_hard_case_allocates_to_top_shell: the
    # budget left over past the secular equation still has its welfare read
    # off the eigenbasis correctly.
    P = np.array([[0.0, -0.5], [-0.5, 0.0]])
    for C in (8.0, 20.0):
        res = iv.optimal_intervention(P, 0.5, 1.0, C)
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
    # the "equilibrium" [-1, 0.909] has a negative strategy.
    P = np.diag([-8.0, 0.4])
    with pytest.raises(ContractionError) as info:
        if policy == "welfare":
            iv.welfare(P, -0.5, np.ones(2))
        else:
            iv.optimal_intervention(P, 0.5, 1.0, 1.0)
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
