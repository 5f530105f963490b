import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphon_games import equilibrium as eq
from graphon_games import kernels, sampling, spectral
from graphon_games.errors import ContractionError, IterationLimitError


def random_network(rng, N):
    """Symmetric matrix in [0,1] with zero diagonal."""
    P = rng.random((N, N))
    P = (P + P.T) / 2.0
    np.fill_diagonal(P, 0.0)
    return P


# --- local aggregate ---------------------------------------------------------

def test_local_aggregate_zero():
    P = np.ones((4, 4)) - np.eye(4)
    assert np.all(eq.local_aggregate(P, np.zeros(4)) == 0.0)


def test_local_aggregate_complete_graph():
    N = 6
    P = np.ones((N, N)) - np.eye(N)
    z = eq.local_aggregate(P, np.ones(N))
    assert np.allclose(z, (N - 1) / N, atol=0)


def test_local_aggregate_hand():
    z = eq.local_aggregate(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([2.0, 4.0]))
    assert np.array_equal(z, np.array([2.0, 1.0]))


def test_local_aggregate_dimension_mismatch():
    with pytest.raises(ValueError):
        eq.local_aggregate(np.ones((3, 3)), np.ones(4))


# --- scalar best response -----------------------------------------------------

def test_br_lq():
    p = eq.LqPayoff(alpha=0.8, beta=1.0)
    assert eq.br_lq(0.0, p) == 1.0
    assert eq.br_lq(0.5, p) == pytest.approx(1.4, abs=1e-15)
    assert eq.br_lq(3.0, eq.LqPayoff(alpha=-0.5, beta=1.0)) == 0.0
    assert eq.br_lq(10.0, p, hi=2.0) == 2.0


def test_lq_payoff_requires_positive_beta():
    with pytest.raises(ValueError):
        eq.LqPayoff(alpha=0.5, beta=0.0)


# --- contraction factor ---------------------------------------------------------

def test_contraction_factor_values():
    assert eq.contraction_factor(eq.LqPayoff(3.0, 1.0), 1.0 / np.pi**2) == pytest.approx(
        3.0 / np.pi**2, abs=1e-14
    )
    assert eq.contraction_factor(eq.LqPayoff(0.0, 1.0), 0.9) == 0.0
    assert eq.contraction_factor(eq.LqPayoff(0.5, 1.0), 1.0) == 0.5
    gen = eq.lq_as_generic(eq.LqPayoff(-0.4, 1.0), hi=2.0)
    assert eq.contraction_factor(gen, 0.5) == pytest.approx(0.2, abs=1e-15)


# --- network LQ solver ------------------------------------------------------------

def test_network_lq_complete_graph_with_self_loops():
    # P = ones (self loops kept): s solves (I - 0.5/N * 11^T) s = 1, so s = 2.
    for N in (1, 5, 40):
        rep = eq.solve_network_lq(np.ones((N, N)), eq.LqPayoff(0.5, 1.0))
        assert np.allclose(rep.profile_array(), 2.0, atol=1e-10)
        assert rep.method == "direct-solve"


def test_network_lq_empty_network():
    rep = eq.solve_network_lq(np.zeros((7, 7)), eq.LqPayoff(0.9, 1.3))
    assert np.allclose(rep.profile_array(), 1.3, atol=0)


def test_network_lq_substitutes_pair():
    # Symmetric fixed point of s = 1 - 0.25 s is s = 0.8.
    rep = eq.solve_network_lq(np.array([[0.0, 1.0], [1.0, 0.0]]), eq.LqPayoff(-0.5, 1.0))
    assert np.allclose(rep.profile_array(), 0.8, atol=1e-10)


def test_network_lq_contraction_error():
    P = np.ones((4, 4))
    with pytest.raises(ContractionError) as err:
        eq.solve_network_lq(P, eq.LqPayoff(1.2, 1.0))
    assert err.value.factor == pytest.approx(1.2, abs=1e-9)


def test_network_lq_fixed_point_residual():
    rng = np.random.default_rng(0)
    for _ in range(5):
        P = random_network(rng, 25)
        for alpha in (0.7, -0.7):
            rep = eq.solve_network_lq(P, eq.LqPayoff(alpha, 1.0))
            s = rep.profile_array()
            br = eq.br_lq(eq.local_aggregate(P, s), eq.LqPayoff(alpha, 1.0))
            assert np.max(np.abs(s - br)) <= 1e-10
            assert rep.residual <= 1e-10


def test_network_lq_substitutes_projection():
    # Strong substitutes on a star force the hub to the boundary; the direct
    # solve goes negative there and the solver must fall back to projected
    # iteration while staying feasible.
    N = 12
    P = np.zeros((N, N))
    P[0, 1:] = 1.0
    P[1:, 0] = 1.0
    p = eq.LqPayoff(-1.8, 1.0)
    direct = np.linalg.solve(np.eye(N) - (p.alpha / N) * P, np.ones(N))
    assert direct.min() < -1e-3  # the unprojected solution is infeasible
    # a star has a +/- dominant pair; the contraction check must still see
    # the true spectral radius sqrt(N-1)/N
    assert eq.matrix_dominant_eigenvalue(P / N) == pytest.approx(
        math.sqrt(N - 1) / N, abs=1e-10)
    rep = eq.solve_network_lq(P, p)
    s = rep.profile_array()
    assert rep.method == "br-iteration"
    assert np.all(s >= 0.0)
    assert rep.residual <= 1e-10
    assert s[0] == 0.0  # hub is driven to inactivity
    # spokes best-respond to the hub: s_j = 1 + alpha/N * 0 = 1
    assert np.allclose(s[1:], 1.0, atol=1e-10)


# --- generic solver ------------------------------------------------------------

def test_generic_matches_lq():
    rng = np.random.default_rng(1)
    for alpha in (0.6, -0.6):
        p = eq.LqPayoff(alpha, 1.0)
        for _ in range(5):
            P = random_network(rng, 20)
            rep_lq = eq.solve_network_lq(P, p)
            rep_gen = eq.solve_network_generic(P, eq.lq_as_generic(p, hi=10.0))
            assert np.max(np.abs(rep_lq.profile_array() - rep_gen.profile_array())) <= 1e-8


def test_generic_no_network_standalone_br():
    gen = eq.lq_as_generic(eq.LqPayoff(0.4, 1.5), hi=10.0)
    rep = eq.solve_network_generic(np.zeros((6, 6)), gen)
    assert np.allclose(rep.profile_array(), 1.5, atol=1e-10)


def test_generic_geometric_rate():
    # Per-iteration step ratios stay below the contraction factor (plus slack).
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(25):
        P = random_network(rng, 15)
        p = eq.LqPayoff(-0.8, 1.0)
        lam = eq.matrix_dominant_eigenvalue(P / 15)
        q = abs(p.alpha) * lam
        if q >= 1.0:
            continue
        rep = eq.solve_network_generic(P, eq.lq_as_generic(p, hi=5.0))
        steps = [s for s in rep.step_norms if s > 1e-8]
        ratios = [b / a for a, b in zip(steps, steps[1:])]
        assert ratios, "iteration did not record steps"
        assert max(ratios) <= q + 0.05
        checked += 1
    assert checked >= 20


def test_generic_spot_check_rejects_bad_constants():
    with pytest.raises(ValueError):
        eq.GenericPayoff(grad_s=lambda s, z: 1.0 - 0.1 * s, alpha_U=1.0, ell_U=0.0,
                         bounds=(0.0, 2.0))
    with pytest.raises(ValueError):
        eq.GenericPayoff(grad_s=lambda s, z: 1.0 + 5.0 * z - s, alpha_U=1.0, ell_U=0.5,
                         bounds=(0.0, 2.0))


def test_generic_nonlinear_payoff_converges():
    # Saturating peer effect: grad = beta + tanh(z) - s, ell_U = 1.
    gen = eq.GenericPayoff(grad_s=lambda s, z: 0.5 + np.tanh(z) - s,
                           alpha_U=1.0, ell_U=1.0, bounds=(0.0, 3.0))
    rng = np.random.default_rng(3)
    P = random_network(rng, 30)
    rep = eq.solve_network_generic(P, gen)
    s = rep.profile_array()
    z = eq.local_aggregate(P, s)
    assert np.max(np.abs(s - np.clip(0.5 + np.tanh(z), 0.0, 3.0))) <= 1e-9


class _CountingGradient:
    """grad_s of an LQ payoff, counting its calls."""

    def __init__(self, p):
        self.p, self.calls = p, 0

    def __call__(self, s, z):
        self.calls += 1
        return self.p.beta + self.p.alpha * z - s


def _counted(p, lo, hi):
    grad = _CountingGradient(p)
    return eq.GenericPayoff(grad, alpha_U=1.0, ell_U=abs(p.alpha), bounds=(lo, hi)), grad


def test_generic_graphon_solve_takes_few_gradient_calls():
    # The benchmark's generic solve (minmax, lq_as_generic(LqPayoff(-0.5, 1), hi=1),
    # M = 2000) took 342 grad_s calls by bisection; Chandrupatla's method takes 36.
    gen, grad = _counted(eq.LqPayoff(-0.5, 1.0), 0.0, 1.0)
    rep = eq.solve_graphon(kernels.minmax(), gen, 2000)
    assert grad.calls <= 60
    lq = eq.solve_graphon(kernels.minmax(), eq.LqPayoff(-0.5, 1.0), 2000)
    assert np.max(np.abs(rep.profile_array() - lq.profile_array())) <= 1e-10


@pytest.mark.parametrize("alpha, beta, lo, hi", [(-0.5, 1.0, 0.0, 1.0), (0.5, 1.0, 0.0, 1.2),
                                                 (3.0, -1.0, 0.0, 10.0), (-2.0, 0.3, 0.1, 0.7),
                                                 (1.0, 1e4 + 1.0 / 3.0, 0.0, 3e4)])
def test_best_response_lies_within_the_bracket_tolerance_of_the_root(alpha, beta, lo, hi):
    # The exact best response is the root beta + alpha z clipped to the box.
    p = eq.LqPayoff(alpha, 1.0)
    object.__setattr__(p, "beta", beta)  # a negative beta too, to clip at lo
    gen, grad = _counted(p, lo, hi)
    z = np.random.default_rng(5).uniform(-1.0, 1.0, 500)
    root = np.clip(beta + alpha * z, lo, hi)
    grad.calls = 0
    got = eq._br_generic(gen, z)
    tol = eq._BISECT_TOL + 4.0 * np.spacing(np.abs(root))
    assert np.all(np.abs(got - root) <= 0.5 * tol + 2.0 * np.spacing(np.abs(root)))
    assert lo <= got.min() and got.max() <= hi
    # bisection took 42 calls here, and all 202 near s = 1e4, where ulp(1e4) > 1e-12
    assert grad.calls <= 15


def test_best_response_stops_within_ulps_of_a_large_root():
    # A root at s = 1e4 has ulp 1.8e-12 > _BISECT_TOL: bisection ran all _BISECT_MAX
    # steps (202 calls for 3 agents), and a box of (0, 1e80) left it 3.1e19 off a
    # root near 1. The stop rule allows 4 ulps of s on top of _BISECT_TOL.
    gen, grad = _counted(eq.LqPayoff(0.0, 1e4 + 1.0 / 3.0), 0.0, 3e4)
    grad.calls = 0
    got = eq._br_generic(gen, np.zeros(3))
    assert grad.calls <= 15
    assert np.all(np.abs(got - (1e4 + 1.0 / 3.0)) <= 1e-11)
    gen, grad = _counted(eq.LqPayoff(0.5, 1.0), 0.0, 1e80)
    assert np.max(np.abs(eq._br_generic(gen, np.array([0.0, 1.0, 2.0])) - [1.0, 1.5, 2.0])) <= 1e-12


def test_best_response_raises_when_its_bracket_stays_open(monkeypatch):
    gen, _ = _counted(eq.LqPayoff(-0.5, 1.0), 0.0, 1.0)
    monkeypatch.setattr(eq, "_BISECT_MAX", 1)  # a linear gradient closes in 2 or 3 steps
    with pytest.raises(IterationLimitError, match="bracket"):
        eq._br_generic(gen, np.linspace(0.1, 0.3, 7))
    with pytest.raises(IterationLimitError):
        eq.solve_graphon(kernels.minmax(), gen, 50)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_gradient_raises_a_value_error(bad):
    # A gradient NaN on (0.3, 0.9) once read as "<= 0", and the best response came back 0.3.
    def grad_s(s, z):
        return np.where((s > 0.3) & (s < 0.9), bad, 0.6 + 0.0 * z - s)

    gen = eq.GenericPayoff(grad_s, alpha_U=1.0, ell_U=0.0, bounds=(0.0, 2.0))  # probes 0, 1, 2
    with pytest.raises(ValueError, match="grad_s is not finite"):
        eq._br_generic(gen, np.zeros(4))
    with pytest.raises(ValueError, match="grad_s is not finite"):
        eq.GenericPayoff(grad_s, alpha_U=1.0, ell_U=0.0, bounds=(0.0, 1.0))  # probe 0.5


def test_uniqueness_from_distinct_starts():
    rng = np.random.default_rng(4)
    P = random_network(rng, 20)
    gen = eq.lq_as_generic(eq.LqPayoff(-0.7, 1.0), hi=5.0)
    s_a = eq.solve_network_generic(P, gen, start=np.zeros(20)).profile_array()
    s_b = eq.solve_network_generic(P, gen, start=rng.random(20) * 5.0).profile_array()
    assert np.max(np.abs(s_a - s_b)) <= 10 * 1e-10


# --- graphon solvers ----------------------------------------------------------

def test_graphon_lq_er_closed_form():
    for alpha, p in ((0.5, 0.5), (-0.9, 0.7), (0.0, 0.3)):
        rep = eq.solve_graphon_lq(kernels.erdos_renyi(p), eq.LqPayoff(alpha, 1.0), 64)
        assert np.allclose(rep.profile_array(), 1.0 / (1.0 - alpha * p), atol=1e-10)


def test_graphon_lq_minmax_shape():
    # Complements on the minmax kernel: central agents exert the most effort
    # and the profile is symmetric about 1/2.
    M = 400
    rep = eq.solve_graphon_lq(kernels.minmax(), eq.LqPayoff(0.5, 1.0), M)
    s = rep.profile_array()
    mid = M // 2
    assert s[mid] == np.max(s)
    assert np.allclose(s, s[::-1], atol=1e-9)
    assert np.all(np.diff(s[:mid]) > 0)
    assert s[0] >= 1.0  # everyone plays at least the standalone response


def test_minmax_graphon_solve_takes_memory_linear_in_M():
    # The dense matrix at M = 20 000 would take 3.2 GB; the operator's
    # products and the Krylov basis take a few dozen vectors of length M.
    M = 20_000
    tracemalloc.start()
    try:
        eq.solve_graphon(kernels.minmax(), eq.LqPayoff(0.5, 1.0), M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 8 * M


def test_minmax_graphon_solve_matches_the_closed_form_at_a_large_M():
    # s = beta + alpha K s is s'' = -alpha (s - beta) with s(0) = s(1) = beta.
    M, alpha = 10**5, 0.5
    rep = eq.solve_graphon(kernels.minmax(), eq.LqPayoff(alpha, 1.0), M)
    exact = np.cos(math.sqrt(alpha) * (spectral.midpoints(M) - 0.5)) / math.cos(math.sqrt(alpha) / 2)
    assert np.max(np.abs(rep.profile_array() - exact)) <= 4.0 / M**2


def test_graphon_substitutes_center_low():
    # Substitutes flip the shape: central agents free-ride and play less.
    M = 400
    rep = eq.solve_graphon_lq(kernels.minmax(), eq.LqPayoff(-0.5, 1.0), M)
    s = rep.profile_array()
    assert s[M // 2] == np.min(s)
    assert np.all(s > 0.0)


def test_graphon_generic_matches_lq():
    p = eq.LqPayoff(0.5, 1.0)
    rep_lq = eq.solve_graphon_lq(kernels.minmax(), p, 200)
    rep_gen = eq.solve_graphon_generic(kernels.minmax(), eq.lq_as_generic(p, hi=4.0), 200)
    assert eq.l2_distance(rep_lq.profile, rep_gen.profile) <= 1e-8


def test_graphon_generic_constant_kernel_constant_equilibrium():
    gen = eq.GenericPayoff(grad_s=lambda s, z: 1.0 + np.tanh(0.5 * z) - s,
                           alpha_U=1.0, ell_U=0.5, bounds=(0.0, 4.0))
    rep = eq.solve_graphon_generic(kernels.erdos_renyi(0.6), gen, 128)
    s = rep.profile_array()
    assert np.max(s) - np.min(s) <= 1e-10


def test_graphon_equilibrium_lipschitz_cells():
    # On a Lipschitz kernel the equilibrium inherits a Lipschitz bound, so
    # adjacent grid cells differ by at most ell_U * L * s_max / alpha_U / M.
    M = 500
    hi = 2.0
    gen = eq.lq_as_generic(eq.LqPayoff(0.5, 1.0), hi=hi)
    rep = eq.solve_graphon_generic(kernels.minmax(), gen, M)
    jumps = np.abs(np.diff(rep.profile_array()))
    bound = (gen.ell_U / gen.alpha_U) * 2.0 * hi / M
    assert np.max(jumps) <= bound + 1e-8


# --- step embedding and L2 distance ----------------------------------------------

def test_embed_self_distance_zero():
    f = eq.step_function_embed(np.array([1.0, 2.0]))
    assert eq.l2_distance(f, f) == 0.0


def test_embed_constant_matches_any_resolution():
    f = eq.step_function_embed(np.full(3, 0.7))
    g = spectral.GridFunction(np.full(10, 0.7))
    assert eq.l2_distance(f, g) == 0.0


def test_embed_against_constant_half():
    # (0, 1) against 0.5 differs by 0.5 everywhere, so the L2 distance is 0.5.
    f = eq.step_function_embed(np.array([0.0, 1.0]))
    g = spectral.GridFunction(np.array([0.5]))
    assert eq.l2_distance(f, g) == pytest.approx(0.5, abs=1e-15)


def test_l2_distance_lcm_refinement():
    f = spectral.GridFunction(np.array([1.0, 0.0]))
    g = spectral.GridFunction(np.array([1.0, 1.0, 0.0]))
    # common refinement at 6 cells: f = 111000, g = 111100, mismatch on one cell
    assert eq.l2_distance(f, g) == pytest.approx(math.sqrt(1.0 / 6.0), abs=1e-15)


def test_l2_distance_matches_the_lcm_refinement_on_coprime_grids():
    rng = np.random.default_rng(7)
    f = spectral.GridFunction(rng.standard_normal(7))
    g = spectral.GridFunction(rng.standard_normal(5))
    lcm = math.sqrt(np.mean((np.repeat(f.values, 5) - np.repeat(g.values, 7)) ** 2))
    assert eq.l2_distance(f, g) == pytest.approx(lcm, abs=1e-15)
    assert eq.l2_distance(g, f) == pytest.approx(lcm, abs=1e-15)


def test_l2_distance_memory_is_linear_in_the_grid_sizes():
    # The common refinement of 1999 and 2000 cells has 3,998,000 cells (two
    # 32 MB arrays); the merged breakpoints number fewer than 4000.
    f = spectral.GridFunction(np.linspace(0.0, 1.0, 1999))
    g = spectral.GridFunction(np.linspace(1.0, 0.0, 2000))
    tracemalloc.start()
    try:
        eq.l2_distance(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _l2_distance_union1d(f, g):
    # The formula before the breakpoint merge: np.union1d sorts and deduplicates.
    edges = np.union1d(np.arange(f.M + 1) * g.M, np.arange(g.M + 1) * f.M)
    diff = f.values[edges[:-1] // g.M] - g.values[edges[:-1] // f.M]
    return float(np.sqrt(np.sum(np.diff(edges) * diff**2) / (f.M * g.M)))


def test_l2_distance_reuses_one_read_only_merge_per_grid_pair():
    # The merged cells of the last (f.M, g.M) are kept: calls on other pairs in
    # between give the bits of the formula all the same.
    rng = np.random.default_rng(3)
    fs = [spectral.GridFunction(rng.standard_normal(m)) for m in (50, 2000, 50, 7, 50)]
    g = spectral.GridFunction(rng.standard_normal(2000))
    for f in fs + fs[::-1]:
        assert eq.l2_distance(f, g) == _l2_distance_union1d(f, g)
        assert eq.l2_distance(g, f) == _l2_distance_union1d(g, f)
    assert not eq._merged_cells(50, 2000).flags.writeable


@given(data=st.data(), relation=st.sampled_from(["equal", "dividing", "coprime", "any"]),
       swap=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_l2_distance_merge_matches_the_union1d_formula(data, relation, swap, seed):
    m = data.draw(st.integers(1, 400))
    n = {"equal": st.just(m),
         "dividing": st.integers(1, 400 // m).map(lambda k: k * m),
         "coprime": st.integers(1, 400).filter(lambda n: math.gcd(m, n) == 1),
         "any": st.integers(1, 400)}[relation]
    n = data.draw(n)
    if swap:
        m, n = n, m
    rng = np.random.default_rng(seed)
    f = spectral.GridFunction(rng.standard_normal(m))
    g = spectral.GridFunction(rng.standard_normal(n))
    assert eq.l2_distance(f, g) == _l2_distance_union1d(f, g)


# --- network/graphon equivalence ---------------------------------------------------

@pytest.mark.parametrize("alpha", [0.8, -0.8])
def test_step_function_equivalence(alpha):
    # Solving the network game equals solving the graphon game with the
    # matrix's step kernel at matching resolution.
    rng = np.random.default_rng(42)
    p = eq.LqPayoff(alpha, 1.0)
    for _ in range(10):
        N = int(rng.integers(2, 31))
        P = random_network(rng, N)
        if abs(alpha) * eq.matrix_dominant_eigenvalue(P / N) >= 1.0:
            continue
        rep_net = eq.solve_network_lq(P, p)
        rep_gra = eq.solve_graphon_lq(kernels.step_graphon_from_matrix(P), p, N)
        assert np.max(np.abs(rep_net.profile_array() - rep_gra.profile_array())) <= 1e-8


def test_complements_monotonicity():
    # Raising any interaction weight weakly raises every strategy.
    rng = np.random.default_rng(5)
    p = eq.LqPayoff(0.6, 1.0)
    for _ in range(5):
        P = random_network(rng, 12)
        P *= 0.8  # headroom to increase an entry
        s_base = eq.solve_network_lq(P, p).profile_array()
        i, j = rng.integers(0, 12, size=2)
        while i == j:
            j = rng.integers(0, 12)
        P2 = P.copy()
        P2[i, j] = P2[j, i] = min(1.0, P2[i, j] + 0.2)
        s_up = eq.solve_network_lq(P2, p).profile_array()
        assert np.all(s_up >= s_base - 1e-12)


# --- sampling bounds ------------------------------------------------------------

def test_bound_rho_reference_value():
    d_N, rho, bw, bs = eq.bound_rho(100, 0.05, L=2.0, Omega=0, Ktilde=1.0)
    assert d_N == pytest.approx(0.01 + math.sqrt(8.0 * math.log(2000.0) / 100.0), abs=1e-15)
    assert d_N == pytest.approx(0.78979, abs=1e-5)
    assert rho == pytest.approx(4.0 * d_N, rel=1e-14)
    assert bw == pytest.approx(rho, rel=1e-14)
    assert bs == pytest.approx(rho + math.sqrt(4.0 * math.log(4000.0) / 100.0), rel=1e-14)


def test_bound_rho_monotone_decreasing():
    prev_d, prev_rho = math.inf, math.inf
    for N in (50, 100, 400, 1600, 6400, 25600):
        d_N, rho, _, _ = eq.bound_rho(N, 0.05, L=2.0, Omega=0, Ktilde=1.0)
        assert d_N < prev_d and rho < prev_rho
        prev_d, prev_rho = d_N, rho


def test_bound_rho_clamps_negative_term():
    with pytest.warns(UserWarning, match="clamped"):
        d_N, rho, _, _ = eq.bound_rho(100, 0.05, L=0.0, Omega=1, Ktilde=1.0)
    assert rho == pytest.approx(2.0 * math.sqrt(d_N), rel=1e-14)


def test_bound_rho_validates_delta():
    with pytest.raises(ValueError):
        eq.bound_rho(100, 0.5, L=2.0, Omega=0, Ktilde=1.0)
    with pytest.raises(ValueError):
        eq.bound_rho(1, 0.05, L=2.0, Omega=0, Ktilde=1.0)


@pytest.mark.parametrize("args, name", [
    ((100, 0.05, math.nan, 0, 1.0), "L and Ktilde"),
    ((100, 0.05, 2.0, 0, math.nan), "L and Ktilde"),
    ((100, 0.05, -1.0, 0, 1.0), "L and Ktilde"),
    ((100, 0.05, 2.0, 0, math.inf), "L and Ktilde"),
    ((100, 0.05, 0.0, -1, 1.0), "Omega"),
    ((100, 0.05, 0.0, 1.5, 1.0), "Omega"),
    ((100.5, 0.05, 2.0, 0, 1.0), "N must be an integer"),
    ((np.float64(100), 0.05, 2.0, 0, 1.0), "N must be an integer"),
], ids=["nan-L", "nan-Ktilde", "negative-L", "inf-Ktilde", "negative-Omega", "float-Omega",
        "float-N", "numpy-float-N"])
def test_bound_rho_rejects_what_would_give_a_nan_or_a_wrong_bound(args, name):
    # A NaN L or Ktilde once gave NaN bounds, and Omega = -1 or N = 100.5 were used as given.
    with pytest.raises(ValueError, match=name):
        eq.bound_rho(*args)
    assert eq.bound_rho(np.int64(100), 0.05, 2.0, np.int64(0), 1.0) == eq.bound_rho(
        100, 0.05, 2.0, 0, 1.0)


@pytest.mark.parametrize("lam", [math.nan, -0.1])
def test_contraction_factor_rejects_a_nan_or_negative_lambda(lam):
    # A NaN lambda_max once passed the test lambda_max < 0 and gave a NaN factor.
    with pytest.raises(ValueError, match="lambda_max must be nonnegative"):
        eq.contraction_factor(eq.LqPayoff(0.5, 1.0), lam)


@pytest.mark.parametrize("lam", [math.nan, -5.0])
@pytest.mark.parametrize("alpha", [0.5, -0.5])
def test_lq_s_max_rejects_a_nan_or_negative_lambda(lam, alpha):
    # lq_s_max(LqPayoff(0.5, 1), -5) once gave 0.2857, below beta and so below every
    # complements equilibrium, and substitutes at a NaN lambda_max gave beta.
    with pytest.raises(ValueError, match="lambda_max must be nonnegative"):
        eq.lq_s_max(eq.LqPayoff(alpha, 1.0), lam)


@pytest.mark.parametrize("lam", [math.nan, -1.0])
def test_comparative_statics_bound_rejects_a_nan_or_negative_lambda(lam):
    # A lambda_max of -1 once gave the bound 0.333.
    with pytest.raises(ValueError, match="lambda_max must be nonnegative"):
        eq.comparative_statics_bound(eq.LqPayoff(0.5, 1.0), lam, 1.0)


SIGNED_BR = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10, math.inf])
def test_both_solvers_reject_a_tolerance_that_is_not_positive_and_finite(tol):
    # A NaN tol once ran all 10^6 best-response iterations of this signed game
    # before the iteration limit; it is checked once, in _solve.
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        eq.solve_network(SIGNED_BR, eq.LqPayoff(1.9, 1.0), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        eq.solve_graphon(kernels.minmax(), eq.LqPayoff(0.5, 1.0), 20, tol=tol)


def test_a_nan_start_is_rejected_before_the_solve():
    # A NaN start once ran all 10^6 best-response iterations of this signed game
    # (13 s) before it failed as an IterationLimitError.
    with pytest.raises(ValueError, match="start must be 3 finite values"):
        eq.solve_network(SIGNED_BR, eq.LqPayoff(1.9, 1.0), start=np.array([0.0, math.nan, 0.0]))


@pytest.mark.parametrize("start", [np.zeros(2), np.zeros((3, 1))])
def test_a_start_of_the_wrong_length_is_rejected(start):
    # It once surfaced numpy's matmul message from the first best response.
    with pytest.raises(ValueError, match="start must be 3 finite values"):
        eq.solve_network(SIGNED_BR, eq.LqPayoff(1.9, 1.0), start=start)


@pytest.mark.parametrize("max_iter", [1.5, 0, True])
def test_max_iter_must_be_an_integer_of_at_least_one(max_iter):
    # max_iter = 1.5 once raised a TypeError from range(); a numpy integer is fine.
    with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
        eq.solve_network(SIGNED_BR, eq.LqPayoff(1.9, 1.0), max_iter=max_iter)
    assert eq.solve_network(SIGNED_BR, eq.LqPayoff(1.9, 1.0), max_iter=np.int64(10**6)).iterations


def test_best_response_iteration_raises_at_its_iteration_limit():
    # The signed game's linear response has a negative entry, so it takes
    # best-response iteration, which one iteration cannot finish.
    assert eq.solve_network(SIGNED_BR, eq.LqPayoff(1.9, 1.0)).method == "br-iteration"
    with pytest.raises(IterationLimitError, match="did not reach tol") as err:
        eq.solve_network(SIGNED_BR, eq.LqPayoff(1.9, 1.0), max_iter=1)
    assert err.value.last_iterate.shape == (3,) and len(err.value.residual_history) == 1


def test_generic_payoff_rejects_bounds_that_are_not_an_interval():
    with pytest.raises(ValueError, match="bounds must satisfy"):
        eq.GenericPayoff(grad_s=lambda s, z: 1.0 - s, alpha_U=1.0, ell_U=0.0, bounds=(1.0, 0.5))


def test_step_function_embed_rejects_an_empty_profile():
    with pytest.raises(ValueError, match="at least one entry"):
        eq.step_function_embed([])


def test_contraction_error_has_a_default_message():
    err = ContractionError(1.5)
    assert err.factor == 1.5 and str(err) == "contraction condition violated: factor 1.5 >= 1"


def test_comparative_statics_bound_values():
    assert eq.comparative_statics_bound(eq.LqPayoff(0.5, 1.0), 1.0, 2.0) == pytest.approx(2.0)
    assert eq.comparative_statics_bound(eq.LqPayoff(0.0, 1.0), 1.0, 2.0) == 0.0
    with pytest.raises(ContractionError):
        eq.comparative_statics_bound(eq.LqPayoff(1.0, 1.0), 1.0, 2.0)
    near_pole = eq.comparative_statics_bound(eq.LqPayoff(0.999999, 1.0), 1.0, 1.0)
    assert near_pole > 1e5


@pytest.mark.parametrize("s_max", [math.nan, math.inf, -1.0])
def test_comparative_statics_bound_rejects_a_bad_s_max(s_max):
    # A NaN s_max once gave a NaN bound, and s_max = -1 the bound -1.0.
    with pytest.raises(ValueError, match="s_max"):
        eq.comparative_statics_bound(eq.LqPayoff(0.5, 1.0), 1.0, s_max)


def test_comparative_statics_invariant():
    # Equilibrium movement is bounded by Ktilde times the operator distance.
    p = eq.LqPayoff(0.5, 1.0)
    M = 600
    spec_a = kernels.minmax()
    op_a = spectral.discretize(spec_a, M)
    lam_a = spectral.dominant_eigenpair(op_a).value
    s_a = eq.solve_graphon_lq(spec_a, p, M).profile
    for seed in (0, 1, 2):
        types = sampling.sample_types(100, seed)
        Pw = sampling.weighted_network(spec_a, types)
        spec_b = kernels.step_graphon_from_matrix(Pw.P)
        s_b = eq.solve_graphon_lq(spec_b, p, M).profile
        dist_ops = spectral.operator_distance(op_a, spectral.discretize(spec_b, M))
        ktilde = eq.comparative_statics_bound(p, lam_a, s_b.l2_norm())
        assert eq.l2_distance(s_a, s_b) <= ktilde * dist_ops + 1e-2


def test_lq_s_max():
    assert eq.lq_s_max(eq.LqPayoff(0.5, 1.0), 1.0) == pytest.approx(2.0)
    assert eq.lq_s_max(eq.LqPayoff(-0.5, 1.3), 1.0) == 1.3


def test_network_lq_signed_pair_uses_largest_eigenvalue():
    # lambda_max of P/2 is +1.5 (power iteration from all ones used to land
    # on -1.5), so q = 0.75 and the game is a contraction.
    rep = eq.solve_network_lq(np.array([[0.0, -3.0], [-3.0, 0.0]]), eq.LqPayoff(0.5, 1.0))
    assert rep.lambda_max == pytest.approx(1.5, abs=1e-10)
    assert rep.contraction_factor == pytest.approx(0.75, abs=1e-10)
    assert np.allclose(rep.profile_array(), 1.0 / 1.75, atol=1e-12)


def signed_block_network():
    """44 x 44 block-diagonal matrix: 3 u u^T - 3 w w^T beside a minmax network.

    u = (1, -1, 0, 0) / sqrt(2) and w = (0, 0, 1, -1) / sqrt(2) both sum to
    zero, so the +/-3 eigenvectors are orthogonal to the all-ones vector; the
    sampled minmax block is scaled to lambda_max = 1.
    """
    u = np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2.0)
    w = np.array([0.0, 0.0, 1.0, -1.0]) / math.sqrt(2.0)
    P = sampling.weighted_network(kernels.minmax(), sampling.sample_types(40, 0)).P
    A = np.zeros((44, 44))
    A[:4, :4] = 3.0 * np.outer(u, u) - 3.0 * np.outer(w, w)
    A[4:, 4:] = P / np.linalg.eigvalsh(P)[-1]
    return A


def test_power_method_sees_signed_eigenvectors_orthogonal_to_ones():
    A = signed_block_network()
    assert spectral.power_method(A, 1e-13, 100_000)[0] == pytest.approx(3.0, abs=1e-12)
    assert spectral.power_method(-A, 1e-13, 100_000)[0] == pytest.approx(3.0, abs=1e-12)


def test_signed_network_contraction_uses_eigenvectors_orthogonal_to_ones():
    P = 44.0 * signed_block_network()
    rep = eq.solve_network(P, eq.LqPayoff(0.2, 1.0))
    assert rep.method == "direct-solve"
    assert rep.lambda_max == pytest.approx(3.0, abs=1e-12)
    assert rep.contraction_factor == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(ContractionError) as info:
        eq.solve_network(P, eq.LqPayoff(0.5, 1.0))
    assert info.value.factor == pytest.approx(1.5, abs=1e-12)


_EQUIVALENCE_PAYOFFS = {
    "complements": eq.LqPayoff(0.8, 1.0),
    "substitutes": eq.LqPayoff(-1.8, 1.0),
    "generic": eq.lq_as_generic(eq.LqPayoff(-0.8, 1.0), hi=5.0),
}


@given(N=st.integers(2, 24), seed=st.integers(0, 2**32 - 1), star=st.booleans(),
       kind=st.sampled_from(sorted(_EQUIVALENCE_PAYOFFS)))
@settings(max_examples=80, deadline=None)
def test_network_game_is_the_graphon_game_of_its_step_kernel(N, seed, star, kind):
    # Both entry points solve on the same operator matrix P/N, so the
    # profiles agree exactly, not just to solver tolerance. A hub over a
    # weak background drives substitutes onto the best-response fallback.
    P = random_network(np.random.default_rng(seed), N)
    if star:
        P *= 0.1
        P[0, 1:] = P[1:, 0] = 1.0
    payoff = _EQUIVALENCE_PAYOFFS[kind]
    lam = eq.matrix_dominant_eigenvalue(P / N)
    assume(eq.contraction_factor(payoff, lam) < 0.99)
    rep_net = eq.solve_network(P, payoff)
    rep_gra = eq.solve_graphon(kernels.grid_kernel(P), payoff, N)
    assert rep_net.lambda_max == lam
    assert rep_net.method == rep_gra.method
    assert np.array_equal(rep_net.profile_array(), rep_gra.profile_array())


@pytest.mark.parametrize("payoff", [eq.LqPayoff(-0.5, 1.0),
                                    eq.lq_as_generic(eq.LqPayoff(0.5, 1.0), hi=2.0)])
def test_contraction_check_uses_the_spectral_radius(payoff):
    # P/N has eigenvalues -4 and 0.2: the largest one gives a factor of 0.1,
    # but the best-response map expands along the -4 direction (q = 2).
    with pytest.raises(ContractionError) as info:
        eq.solve_network(np.diag([-8.0, 0.4]), payoff, max_iter=2000)
    assert info.value.factor == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("P", [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0, 0.5]],
                               [[0.0, math.nan], [math.nan, 0.0]],
                               [[0.0, math.inf], [math.inf, 0.0]]])
def test_solve_network_rejects_non_symmetric_or_non_finite_matrices(P):
    with pytest.raises(ValueError):
        eq.solve_network(P, eq.LqPayoff(0.5, 1.0))


@given(N=st.integers(2, 30), seed=st.integers(0, 2**32 - 1), star=st.booleans(),
       alpha=st.sampled_from([0.8, -0.9, -1.8]))
@settings(max_examples=80, deadline=None)
def test_network_equilibrium_is_permutation_equivariant(N, seed, star, alpha):
    # Relabelling the agents relabels the equilibrium: the profile of
    # Pi P Pi^T is Pi s. A hub drives substitutes onto the best-response
    # fallback, which runs to a tolerance well below the 1e-12 compared.
    rng = np.random.default_rng(seed)
    P = random_network(rng, N)
    if star:
        P *= 0.1
        P[0, 1:] = P[1:, 0] = 1.0
    payoff = eq.LqPayoff(alpha, 1.0)
    assume(eq.contraction_factor(payoff, eq.matrix_dominant_eigenvalue(P / N)) < 0.95)
    perm = rng.permutation(N)
    rep = eq.solve_network(P, payoff, tol=1e-14)
    rep_perm = eq.solve_network(P[np.ix_(perm, perm)], payoff, tol=1e-14)
    assert rep_perm.method == rep.method
    assert np.max(np.abs(rep_perm.profile_array() - rep.profile_array()[perm])) <= 1e-12


@pytest.mark.parametrize("raise_it", [
    lambda: eq.solve_network(np.ones((4, 4)), eq.LqPayoff(1.2, 1.0)),
    lambda: eq.comparative_statics_bound(eq.LqPayoff(-2.0, 1.0), 0.5, 1.0),
    lambda: eq.lq_s_max(eq.LqPayoff(2.0, 1.0), 0.5),
])
def test_every_contraction_failure_reports_ratio_and_radius(raise_it):
    with pytest.raises(ContractionError, match="lipschitz ratio .* times spectral radius") as err:
        raise_it()
    assert err.value.factor >= 1.0


# --- the Collatz-Wielandt gate of a solve that reads no lambda_max --------------

def solve_without_lambda(P, payoff):
    return eq._solve(P / len(P), True, payoff, eq.DEFAULT_TOL, eq.DEFAULT_MAX_ITER, None, False)


def assert_same_report(got, ref):
    assert np.array_equal(got.profile_array(), ref.profile_array())
    assert (got.method, got.iterations, got.residual, got.step_norms) == (
        ref.method, ref.iterations, ref.residual, ref.step_norms)


@pytest.mark.parametrize("alpha", [0.5, -0.5, 2.0])
@pytest.mark.parametrize("kind", ["minmax", "complete"])
def test_a_certified_solve_reports_the_bound_and_no_lambda(kind, alpha):
    N = 60
    P = (sampling.weighted_network(kernels.minmax(), sampling.sample_types(N, 3)).P
         if kind == "minmax" else np.ones((N, N)) - np.eye(N))
    payoff = eq.LqPayoff(alpha / (1.0 if kind == "minmax" else 2.0), 1.0)
    rep, ref = solve_without_lambda(P, payoff), eq.solve_network(P, payoff)
    assert_same_report(rep, ref)
    assert math.isnan(rep.lambda_max)
    rho = np.linalg.eigvalsh(P / N)[-1]
    assert abs(payoff.alpha) * rho * (1.0 - 1e-12) <= rep.contraction_factor < 1.0


@pytest.mark.parametrize("alpha", [-1.0, -2.0])
def test_a_star_at_substitutes_falls_back_to_the_pair(alpha):
    # The hub's x = (I - alpha G)^-1 1 is 0.11 at alpha = -1 and -1.25 at
    # alpha = -2: the bound at x cannot certify (|alpha| lam_bar = max (1 - x) / x),
    # though |alpha| rho = 0.32 and 0.63. The run goes on to the top pair.
    N = 10
    P = np.zeros((N, N))
    P[0, 1:] = P[1:, 0] = 1.0
    payoff = eq.LqPayoff(alpha, 1.0)
    x = np.linalg.solve(np.eye(N) - alpha * P / N, np.ones(N))
    assert x.min() <= 0.5 and abs(alpha) * np.linalg.eigvalsh(P / N)[-1] < 1.0
    rep, ref = solve_without_lambda(P, payoff), eq.solve_network(P, payoff)
    assert_same_report(rep, ref)
    assert (rep.lambda_max, rep.contraction_factor) == (ref.lambda_max, ref.contraction_factor)
    assert rep.method == ("direct-solve" if alpha == -1.0 else "br-iteration")


@pytest.mark.parametrize("scale", [1.05, -1.05, 2.0, -2.0])
def test_a_solve_without_lambda_still_rejects_a_non_contraction(scale):
    P = sampling.weighted_network(kernels.minmax(), sampling.sample_types(40, 5)).P
    payoff = eq.LqPayoff(scale / np.linalg.eigvalsh(P / 40)[-1], 1.0)
    with pytest.raises(ContractionError):
        solve_without_lambda(P, payoff)


@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.15, 0.5, 1.0]), isolated=st.integers(0, 3),
       tiny=st.sampled_from([1.0, 1e-12, 1e-200]))
@settings(max_examples=200, deadline=None)
def test_collatz_wielandt_bounds_the_spectral_radius(n, seed, density, isolated, tiny):
    # rho(G) <= max (G x / x) for G >= 0 and any x > 0, reducible G included:
    # sparse draws split into components, some nodes have no links, and some
    # entries of x are tiny. The bound at ratio 0 always certifies, so it is read.
    rng = np.random.default_rng(seed)
    B = rng.random((n, n)) * (rng.random((n, n)) < density)
    G = B + B.T
    G[:isolated] = 0.0
    G[:, :isolated] = 0.0
    x = rng.random(n) + 0.01
    x[rng.random(n) < 0.3] *= tiny
    top = np.linalg.eigvalsh(G)[-1]
    assert eq._collatz_wielandt(G, 0.0, x) >= top - 1e-12 * max(1.0, top)


# --- the Krylov direct solve against a dense LU solve -------------------------

def krylov_case(kind, n, rng):
    """Symmetric test network: nonnegative, signed, a star, isolated nodes or zero."""
    if kind == "zero":
        return np.zeros((n, n))
    B = rng.uniform(-1.0, 1.0, (n, n))
    P = B + B.T if kind == "signed" else np.abs(B + B.T)
    if kind == "star":
        P *= 0.1
        P[0, 1:] = P[1:, 0] = 1.0
    if kind == "isolated":
        alone = rng.random(n) < 0.4
        P[alone] = 0.0
        P[:, alone] = 0.0
    return P


def assert_direct_solve_matches_lu(rep, G, payoff):
    # Every report is an equilibrium, s = max(0, alpha G s + beta), to 1e-10:
    # iteration returns the iterate whose own residual met tol = 1e-10, and a
    # direct solve is also the dense linear response.
    n = G.shape[0]
    assert rep.lambda_max == eq.matrix_dominant_eigenvalue(G)
    s = rep.profile_array()
    assert np.max(np.abs(s - np.maximum(0.0, payoff.alpha * (G @ s) + payoff.beta))) <= 1e-10
    if rep.method == "direct-solve":
        ref = np.linalg.solve(np.eye(n) - payoff.alpha * G, np.full(n, payoff.beta))
        s = rep.profile_array()
        assert np.max(np.abs(s - np.maximum(ref, 0.0))) <= 1e-12 * np.max(np.abs(ref))
        assert rep.iterations == 0


@given(kind=st.sampled_from(["nonnegative", "signed", "star", "isolated", "zero"]),
       n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       q=st.floats(-0.95, 0.95), beta=st.floats(0.1, 3.0))
@settings(max_examples=200, deadline=None)
def test_direct_solve_matches_a_dense_solve(kind, n, seed, q, beta):
    # alpha of either sign, scaled so that |alpha| rho(G) = |q| < 1.
    P = krylov_case(kind, n, np.random.default_rng(seed))
    rho = float(np.max(np.abs(np.linalg.eigvalsh(P / n))))
    payoff = eq.LqPayoff(q / rho if rho > 0.0 else q, beta)
    assert_direct_solve_matches_lu(eq.solve_network(P, payoff), P / n, payoff)


@pytest.mark.parametrize("P", [[[0.0]], [[1.5]], [[0.0, 1.0], [1.0, 0.0]],
                               [[0.0, -1.5], [-1.5, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
@pytest.mark.parametrize("alpha", [0.6, -0.6])
def test_direct_solve_on_one_and_two_agents(P, alpha):
    P = np.array(P)
    rep = eq.solve_network(P, eq.LqPayoff(alpha, 1.0))
    assert_direct_solve_matches_lu(rep, P / len(P), eq.LqPayoff(alpha, 1.0))


def test_a_signed_network_with_a_negative_linear_response_takes_br_iteration():
    # rho(P/3) = sqrt(2)/3, so alpha = 0.9 * 3/sqrt(2) passes the gate. The
    # linear response is (5.26, 4.35, -2.35): clipped, it is no equilibrium
    # (residual 1.50). Agent 3 plays 0 and the others the pair's 1/(1 - alpha/3).
    P = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    payoff = eq.LqPayoff(0.9 * 3.0 / math.sqrt(2.0), 1.0)
    rep = eq.solve_network(P, payoff)
    s = rep.profile_array()
    assert rep.method == "br-iteration" and rep.residual <= eq.DEFAULT_TOL
    assert np.max(np.abs(s - eq.br_lq(P @ s / 3.0, payoff))) <= 1e-10
    pair = 1.0 / (1.0 - payoff.alpha / 3.0)
    assert s == pytest.approx([pair, pair, 0.0], abs=1e-9)
    assert_direct_solve_matches_lu(rep, P / 3.0, payoff)


@pytest.mark.parametrize("lq", [True, False], ids=["lq", "generic"])
def test_a_signed_solve_reads_rho_from_both_ends_of_one_run(monkeypatch, lq):
    # One run from power_method's Gaussian start reads lambda_max where
    # power_method reads it and steps on until the bottom end settles, here
    # after the top, and ends "settled"; an LQ payoff adds the run for x from
    # 1. No -G is formed.
    N = 40
    P = random_network(np.random.default_rng(1), N) - 0.5
    np.fill_diagonal(P, 0.0)
    payoff = eq.LqPayoff(0.5 / np.max(np.abs(np.linalg.eigvalsh(P / N))), 1.0)
    runs, Run = [], spectral._Run
    monkeypatch.setattr(spectral, "_Run", lambda *args: runs.append(Run(*args)) or runs[-1])
    rep = eq.solve_network(P, payoff if lq else eq.lq_as_generic(payoff, 100.0))
    assert len(runs) == (2 if lq else 1)
    assert runs[0].reason == "settled" and runs[0].pair_at < runs[0].k
    assert rep.lambda_max == eq.matrix_dominant_eigenvalue(P / N)
    assert rep.contraction_factor == pytest.approx(0.5, rel=1e-12, abs=0)


@pytest.mark.parametrize("alpha", [0.9, -0.9])
def test_direct_solve_on_an_invariant_start(alpha):
    # The all-ones vector is an eigenvector of the er kernel matrix, so the
    # Krylov space is invariant after one step and s = beta / (1 - alpha p).
    # The operator sums its one block in order, not as a BLAS row product like
    # the dense matrix, so lambda_max agrees to round-off (1 ulp at M = 50).
    spec, payoff = kernels.erdos_renyi(0.5), eq.LqPayoff(alpha, 1.0)
    rep = eq.solve_graphon(spec, payoff, 50)
    G = spectral.discretize(spec, 50).matrix()
    assert rep.lambda_max == pytest.approx(eq.matrix_dominant_eigenvalue(G), rel=4e-16, abs=0)
    assert rep.method == "direct-solve" and rep.iterations == 0
    ref = np.linalg.solve(np.eye(50) - alpha * G, np.ones(50))
    assert np.max(np.abs(rep.profile_array() - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.allclose(rep.profile_array(), 1.0 / (1.0 - 0.5 * alpha), rtol=1e-14)


def test_solvers_pass_no_system_larger_than_the_krylov_space(monkeypatch):
    from graphon_games import interventions as iv

    sizes = []
    for name in ("solve", "inv"):
        dense = getattr(np.linalg, name)

        def recording(a, *args, _dense=dense, **kwargs):
            sizes.append(np.shape(a)[0])
            return _dense(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    N = 400
    types = sampling.sample_types(N, 7)
    P = sampling.weighted_network(kernels.minmax(), types).P
    for alpha in (0.5, -0.5):
        assert eq.solve_network(P, eq.LqPayoff(alpha, 1.0)).method == "direct-solve"
        assert eq.solve_graphon(kernels.minmax(), eq.LqPayoff(alpha, 1.0), N).method == "direct-solve"
    assert iv.welfare(P, 0.5, np.linspace(0.5, 1.5, N)) > 0.0
    assert all(size <= 40 for size in sizes)


# --- parameters that NaN or infinity must not slip past -------------------------

@pytest.mark.parametrize("alpha, beta", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan),
                                         (0.5, math.inf)])
def test_lq_payoff_rejects_non_finite_parameters(alpha, beta):
    with pytest.raises(ValueError, match="finite alpha"):
        eq.LqPayoff(alpha, beta)


@pytest.mark.parametrize("alpha_U, ell_U", [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan),
                                            (1.0, math.inf)])
def test_generic_payoff_rejects_non_finite_constants(alpha_U, ell_U):
    with pytest.raises(ValueError, match="constant must be"):
        eq.GenericPayoff(grad_s=lambda s, z: 1.0 + 0.5 * z - s, alpha_U=alpha_U, ell_U=ell_U,
                         bounds=(0.0, 5.0))


@pytest.mark.parametrize("ratio, rho", [(math.nan, 0.5), (0.5, math.nan)])
def test_contraction_check_rejects_a_nan_factor(ratio, rho):
    with pytest.raises(ContractionError):
        eq._check_contraction(ratio, rho)


# --- the run's O(1) solve: pivots of I - alpha T against closed forms ------------

def _complete(n):
    return (np.ones((n, n)) - np.eye(n)) / n


@pytest.mark.parametrize("n", [4, 64, 1024])
@pytest.mark.parametrize("scale", [0.5, -0.5, 0.999])
def test_lq_solve_on_the_complete_graph_is_its_closed_form(n, scale):
    # 1 is an eigenvector of G = (J - I)/n with eigenvalue (n - 1)/n, so the run
    # is invariant at step 1 and x = 1 / (1 - alpha (n - 1)/n). At these n the
    # start 1 / sqrt(n) and its products are exact binary fractions, so the
    # pivot 1 - alpha a_1 is the closed form's own denominator even at
    # alpha (n - 1)/n = 0.999, where a rounded a_1 would cost 1e-13.
    alpha = scale if abs(scale) == 0.5 else scale * n / (n - 1)
    x = eq._lq_solve(_complete(n), alpha, np.ones(n))
    assert np.max(np.abs(x * (1.0 - alpha * (n - 1) / n) - 1.0)) <= 1e-14


def test_a_run_past_the_boundary_of_the_complete_graph_ends_indefinite(monkeypatch):
    # alpha (n - 1)/n = 1 + 1e-9: the one pivot is -1e-9, so the run ends
    # indefinite at the step where it is also invariant, and no x is read.
    n, runs, Run = 64, [], spectral._Run
    monkeypatch.setattr(spectral, "_Run", lambda *args: runs.append(Run(*args)) or runs[-1])
    with pytest.raises(ContractionError, match="not positive definite"):
        eq._lq_solve(_complete(n), (1.0 + 1e-9) * n / (n - 1), np.ones(n))
    assert [(run.k, run.end, run.reason) for run in runs] == [(1, True, "indefinite")]
    with pytest.raises(ContractionError):
        eq._definite(None)


@given(a=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12),
       b=st.lists(st.floats(0.05, 2.0) | st.floats(-2.0, -0.05), min_size=11, max_size=11),
       alpha=st.floats(-3.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_the_pivot_test_is_the_definiteness_of_i_minus_alpha_t(a, b, alpha):
    # A run on a Jacobi matrix T from e_1 rebuilds T up to the signs of its
    # off-diagonal, a similarity: its T_k is T's leading k x k block. All LDL^T
    # pivots of I - alpha T_k positive is I - alpha T_k positive definite
    # (Sylvester), wherever the least eigenvalue is clear of zero.
    n = len(a)
    T = np.diag(a) + np.diag(b[:n - 1], 1) + np.diag(b[:n - 1], -1)
    run = spectral._Run(T, np.eye(n)[0], alpha)
    while not run.end:
        run.step()
        least = np.linalg.eigvalsh(np.eye(run.k) - alpha * T[:run.k, :run.k])[0]
        if abs(least) > 1e-10:
            assert run.definite == (least > 0.0)
