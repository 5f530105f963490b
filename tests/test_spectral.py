import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_games import equilibrium as eq, kernels, spectral
from graphon_games.errors import IterationLimitError

SBM_Q = np.array([[0.8, 0.1], [0.1, 0.8]])
SBM_W = np.array([0.75, 0.25])


def sbm_top_two_by_quadratic():
    """Independent oracle: roots of the 2x2 characteristic polynomial of Q diag(w)."""
    E = SBM_Q @ np.diag(SBM_W)
    tr = E[0, 0] + E[1, 1]
    det = E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    return (tr + disc) / 2.0, (tr - disc) / 2.0


SBM_LAM1, SBM_LAM2 = sbm_top_two_by_quadratic()  # 0.604634, 0.195366


# --- discretization ---------------------------------------------------------

def test_discretize_er_constant():
    op = spectral.discretize(kernels.erdos_renyi(0.3), 4)
    assert np.all(op.kernel_matrix == 0.3)


def test_discretize_grid_exact():
    P = np.array([[0.2, 0.7, 0.1], [0.7, 0.0, 0.5], [0.1, 0.5, 0.9]])
    op = spectral.discretize(kernels.step_graphon_from_matrix(P), 3)
    assert np.array_equal(op.kernel_matrix, P)


def test_discretize_minmax_m2():
    # Hand evaluation of min(x,y)(1-max(x,y)) at midpoints 0.25 and 0.75:
    # W(.25,.25)=.25*.75=.1875, W(.25,.75)=.25*.25=.0625, W(.75,.75)=.75*.25=.1875.
    op = spectral.discretize(kernels.minmax(), 2)
    expected = np.array([[0.1875, 0.0625], [0.0625, 0.1875]])
    assert np.array_equal(op.kernel_matrix, expected)


def test_discretize_rejects_small_m():
    with pytest.raises(ValueError):
        spectral.discretize(kernels.minmax(), 1)


@pytest.mark.parametrize("size", [10.5, 10.0, np.float64(12), True, "12"], ids=repr)
def test_sizes_are_integers_where_they_enter(size):
    # A float M once weighted 11 midpoints as 10.5, and a float k read 2 pairs
    # for 1.5; every size is a Python or numpy integer, never a bool.
    op = spectral.discretize(kernels.minmax(), 20)
    with pytest.raises(ValueError, match="resolution M"):
        spectral.discretize(kernels.minmax(), size)
    with pytest.raises(ValueError, match="resolution M"):
        eq.solve_graphon(kernels.minmax(), eq.LqPayoff(0.5, 1.0), size)
    with pytest.raises(ValueError, match="k must be an integer"):
        spectral.top_k_eigen(op, size)
    assert type(spectral.discretize(kernels.minmax(), np.int64(12)).M) is int
    assert len(spectral.top_k_eigen(op, np.int64(12))) == 12


# --- operator application ---------------------------------------------------

def test_apply_er_constant_function():
    op = spectral.discretize(kernels.erdos_renyi(0.4), 50)
    f = spectral.GridFunction(np.full(50, 3.0))
    out = spectral.apply(op, f)
    assert np.allclose(out.values, 0.4 * 3.0, atol=1e-14)


def test_apply_zero_kernel():
    op = spectral.discretize(kernels.step_graphon_from_matrix(np.zeros((4, 4))), 8)
    f = spectral.GridFunction(np.arange(8, dtype=float))
    assert np.all(spectral.apply(op, f).values == 0.0)


def test_apply_minmax_eigen_identity():
    M = 2000
    op = spectral.discretize(kernels.minmax(), M)
    lam, psi = spectral.minmax_eigen_analytic(1, M)
    out = spectral.apply(op, psi)
    err = np.sqrt(np.mean((out.values - lam * psi.values) ** 2))
    assert err < 1e-3


def test_apply_resolution_mismatch():
    op = spectral.discretize(kernels.minmax(), 10)
    with pytest.raises(ValueError):
        spectral.apply(op, spectral.GridFunction(np.zeros(9)))


# --- structured products -----------------------------------------------------

@st.composite
def structured_kernels(draw):
    """An er, sbm, minmax or grid spec.

    sbm masses down to 1e-4 leave communities without a midpoint; grids of 1
    to 6 cells meet M below, at and above their cell count, a multiple of it
    or not.
    """
    kind = draw(st.sampled_from(["er", "sbm", "minmax", "grid"]))
    if kind == "er":
        return kernels.erdos_renyi(draw(st.floats(0.0, 1.0)))
    if kind == "minmax":
        return kernels.minmax()
    K = draw(st.integers(1, 6 if kind == "grid" else 5))
    Q = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=K * K, max_size=K * K)))
    Q = Q.reshape(K, K)
    if kind == "grid":
        return kernels.grid_kernel((Q + Q.T) / 2.0)
    raw = np.array(draw(st.lists(st.floats(1e-4, 1.0), min_size=K, max_size=K)))
    return kernels.sbm((Q + Q.T) / 2.0, raw / raw.sum())


def assert_product_matches_the_dense_one(op, s):
    # Within 1e-14 of the size of the summed terms, |K|/M @ |s|, or of the
    # smallest normal number, below which round-off is no longer relative.
    dense = op.kernel_matrix / op.M
    got = op @ s
    assert got.shape == s.shape
    bound = 1e-14 * (np.abs(dense) @ np.abs(s)) + np.finfo(float).tiny
    assert np.all(np.abs(got - dense @ s) <= bound)


@given(spec=structured_kernels(), M=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_structured_product_matches_the_dense_one(spec, M, seed):
    op = spectral.discretize(spec, M)
    s = np.random.default_rng(seed).standard_normal(M)
    assert_product_matches_the_dense_one(op, s)
    with pytest.raises(ValueError, match="operand"):  # an (M, p) block is no operand
        op @ s[:, None]


@pytest.mark.parametrize("w", [[0.9999, 0.0001], [0.5, 0.0001, 0.4999]],
                         ids=["last-empty", "middle-empty"])
def test_structured_product_with_a_community_holding_no_midpoint(w):
    M = 100
    Q = np.full((len(w), len(w)), 0.3) + 0.5 * np.eye(len(w))
    op = spectral.discretize(kernels.sbm(Q, w), M)
    assert len(np.unique(op.spec._family.index(spectral.midpoints(M)))) < len(w)
    rng = np.random.default_rng(0)
    s = rng.standard_normal(M)
    assert_product_matches_the_dense_one(op, s)
    with pytest.raises(ValueError, match="operand"):
        op @ rng.standard_normal((M, 3))
    # read inside the community that holds no midpoint, its row of Q still applies
    x = np.cumsum(w)[np.argmin(w) - 1] + 0.5 * min(w)
    row = np.asarray(kernels.evaluate(op.spec, x, spectral.midpoints(M))) / M
    assert abs(op.at(x, s) - row @ s) <= 1e-14 * (row @ np.abs(s))


def _sampled_network_grid():
    """The step kernel of a 300-node 0-1 minmax network: no spectral decay, signed spectrum."""
    from graphon_games import sampling

    Pw = sampling.weighted_network(kernels.minmax(), sampling.sample_types(300, 1))
    return kernels.step_graphon_from_matrix(sampling.simple_network(Pw, 2).A)


def _random_grid(n, seed):
    V = np.random.default_rng(seed).uniform(0.0, 1.0, (n, n))
    return kernels.grid_kernel(np.triu(V) + np.triu(V, 1).T)


@pytest.mark.parametrize("x", [-0.1, 1.5, math.nan, [0.2, math.nan], [0.5, -1e-300]])
@pytest.mark.parametrize("spec", [kernels.erdos_renyi(0.4), kernels.sbm(SBM_Q, SBM_W),
                                  kernels.minmax(), kernels.grid_kernel(np.eye(3))],
                         ids=["er", "sbm", "minmax", "grid"])
def test_operator_at_rejects_points_outside_the_unit_interval(spec, x):
    with pytest.raises(ValueError, match="outside"):
        spectral.discretize(spec, 10).at(x, np.ones(10))


def test_a_grid_operator_keeps_no_blocks_by_midpoints_array():
    # The step product sums each block's run of midpoints and keeps no B x M
    # array (a 0-1 block indicator would take 48 MB here).
    op = spectral.discretize(_random_grid(30, 3), 200_000)
    assert np.all(np.isfinite(op @ np.ones(op.M)))
    kept = [a for v in vars(op).values() for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray)]
    assert kept and max(a.size for a in kept) < 30 * op.M


def assert_node_product_matches_the_weighted_network(spec, t, s):
    # op @ s against P/N @ s, P = weighted_network(spec, types).P, within 1e-14
    # of the size of the summed terms with each node's own term included, which
    # a step kernel subtracts for the zero diagonal (minmax never adds it).
    from graphon_games import sampling
    N = len(t)
    P = sampling.weighted_network(spec, sampling.TypeVector(t)).P
    op = spectral.DiscretizedOperator(spec, N, t)
    assert np.array_equal(op.matrix(), P / N)
    got = op @ s
    K = np.asarray(kernels.evaluate(spec, t[:, None], t[None, :])) / N
    bound = 1e-14 * (np.abs(K) @ np.abs(s)) + np.finfo(float).tiny
    assert got.shape == s.shape
    assert np.all(np.abs(got - P / N @ s) <= bound)


@given(spec=structured_kernels(), N=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_node_product_matches_the_weighted_network(spec, N, seed):
    # Types with ties: N draws, with replacement, from at most N points that
    # include 0, 1 and the sbm boundary 0.75.
    rng = np.random.default_rng(seed)
    t = np.sort(rng.choice(np.r_[rng.random(int(rng.integers(1, N + 1))), 0.0, 0.75, 1.0], N))
    assert_node_product_matches_the_weighted_network(spec, t, rng.standard_normal(N))


_NODE_SPECS = {"er": kernels.erdos_renyi(0.4), "sbm": kernels.sbm(SBM_Q, SBM_W),
               "minmax": kernels.minmax(),
               "grid": kernels.grid_kernel([[0.3, 0.1, 0.2], [0.1, 0.4, 0.1], [0.2, 0.1, 0.5]])}


@pytest.mark.parametrize("t", [[0.4], [0.2, 0.2, 0.2, 0.75, 0.75, 0.9],
                               np.sort(np.random.default_rng(3).random(257))],
                         ids=["one-node", "tied", "random"])
@pytest.mark.parametrize("kind", _NODE_SPECS)
def test_node_product_of_one_node_and_of_tied_types(kind, t):
    t = np.asarray(t, dtype=float)
    s = np.random.default_rng(len(t)).random(len(t))
    assert_node_product_matches_the_weighted_network(_NODE_SPECS[kind], t, s)
    op = spectral.DiscretizedOperator(_NODE_SPECS[kind], len(t), t)
    out = op @ s
    assert "kernel_matrix" not in vars(op)
    if len(t) == 1:  # no other agent: the aggregate is exactly 0
        assert out.tolist() == [0.0]


@pytest.mark.parametrize("t,match", [
    ([0.9, 0.1, 0.5, 0.3], "M=4 ascending points"), ([0.1, 0.3, 0.5, 0.49999999999999994], "M=4"),
    ([0.1, 0.3, math.nan, 0.9], r"types outside \[0, 1\]"), ([-0.1, 0.3, 0.5, 0.9], "outside"),
    ([0.1, 0.3, 0.5, 1.5], "outside"), ([0.1, 0.3, 0.5], "M=4 ascending points"),
    ([[0.1, 0.3], [0.5, 0.9]], "M=4 ascending points")])
@pytest.mark.parametrize("kind", _NODE_SPECS)
def test_operator_at_types_rejects_types_its_reads_get_wrong(kind, t, match):
    # Each family reads the nodes as M ascending points of [0, 1]: unsorted
    # types gave a silently wrong product (minmax: 1.3725 against the matrix's
    # 0.0725 at the first node).
    with pytest.raises(ValueError, match=match):
        spectral.DiscretizedOperator(_NODE_SPECS[kind], 4, np.array(t))


@pytest.mark.parametrize("M", [1.5, -3, 0, True, "4"])
def test_an_operator_takes_an_integer_resolution_of_at_least_one(M):
    # M = 1.5 was once accepted and failed every product with a "resolution
    # mismatch", and M = -3 gave an empty matrix(); N = 1 operators still build.
    with pytest.raises(ValueError, match="resolution M must be an integer of at least 1"):
        spectral.DiscretizedOperator(kernels.minmax(), M)
    op = spectral.DiscretizedOperator(kernels.minmax(), np.int64(1))
    assert type(op.M) is int and op @ np.ones(1) == pytest.approx([0.25])


@pytest.mark.parametrize("spec", [kernels.erdos_renyi(0.4), kernels.sbm(SBM_Q, SBM_W),
                                  kernels.minmax(),
                                  kernels.grid_kernel([[0.3, 0.1, 0.2], [0.1, 0.4, 0.1],
                                                       [0.2, 0.1, 0.5]]),
                                  _sampled_network_grid()],
                         ids=["er", "sbm", "minmax", "grid", "sampled-network-grid"])
def test_structured_spectra_never_build_the_kernel_matrix(spec):
    op = spectral.discretize(spec, 2000)
    spectral.dominant_eigenpair(op)
    spectral.top_k_eigen(op, 3)
    spectral.apply(op, spectral.GridFunction(np.ones(2000)))
    assert "kernel_matrix" not in vars(op)


# --- dominant eigenpair -----------------------------------------------------

def test_dominant_er():
    pair = spectral.dominant_eigenpair(spectral.discretize(kernels.erdos_renyi(0.5), 100))
    assert pair.value == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(pair.function.values, 1.0, atol=1e-9)


def test_dominant_minmax():
    pair = spectral.dominant_eigenpair(spectral.discretize(kernels.minmax(), 2000))
    assert pair.value == pytest.approx(1.0 / np.pi**2, abs=1e-3)
    assert pair.function.l2_norm() == pytest.approx(1.0, abs=1e-10)
    assert np.all(pair.function.values >= -1e-8)  # Perron orientation


def test_dominant_sbm_matches_quadratic_oracle():
    pair = spectral.dominant_eigenpair(spectral.discretize(kernels.sbm(SBM_Q, SBM_W), 400))
    assert pair.value == pytest.approx(SBM_LAM1, abs=1e-3)


def test_dominant_rayleigh_consistency():
    tol = 1e-10
    for spec in (kernels.minmax(), kernels.sbm(SBM_Q, SBM_W)):
        op = spectral.discretize(spec, 300)
        pair = spectral.dominant_eigenpair(op, tol=tol)
        resid = spectral.apply(op, pair.function).values - pair.value * pair.function.values
        assert np.sqrt(np.mean(resid**2)) <= tol * max(1.0, abs(pair.value))


def test_power_method_bipartite_pair():
    # A star kernel has eigenvalues +/- the same magnitude; the plain power
    # iteration oscillates with a stationary Rayleigh quotient, so the solver
    # must detect the stall and still return the algebraic maximum.
    K = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    lam, v = spectral.power_method(K / 3.0, 1e-12, 100_000)
    assert lam == pytest.approx(np.sqrt(2.0) / 3.0, abs=1e-10)
    assert np.all(v > 0.0)  # Perron vector, not the oscillating mixture


def test_power_method_signed_matrix_algebraic_max():
    lam, _ = spectral.power_method(np.diag([-2.0, 1.0]), 1e-12, 10_000)
    assert lam == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("tol", [0.0, math.nan, -1.0, math.inf])
def test_every_lanczos_read_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    # A NaN tol once got past dominant_eigenpair's tol <= 0 test and ran until
    # the Krylov space was invariant; _lanczos checks it for every caller.
    op = spectral.discretize(kernels.minmax(), 64)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        spectral.dominant_eigenpair(op, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        spectral.power_method(np.eye(3), tol, 100)


def test_dominant_iteration_limit():
    op = spectral.discretize(kernels.minmax(), 64)
    with pytest.raises(IterationLimitError) as err:
        spectral.dominant_eigenpair(op, tol=1e-16, max_iter=2)
    assert err.value.last_iterate is not None


# --- top-k spectrum ----------------------------------------------------------

def test_top_k_minmax():
    pairs = spectral.top_k_eigen(spectral.discretize(kernels.minmax(), 2000), 2)
    assert pairs[0].value == pytest.approx(1.0 / np.pi**2, abs=1e-3)
    assert pairs[1].value == pytest.approx(1.0 / (4.0 * np.pi**2), abs=1e-3)


def test_top_k_er_rank_one():
    pairs = spectral.top_k_eigen(spectral.discretize(kernels.erdos_renyi(0.6), 80), 2)
    assert pairs[0].value == pytest.approx(0.6, abs=1e-12)
    assert pairs[1].value == pytest.approx(0.0, abs=1e-12)


def test_top_k_sbm_both_roots():
    pairs = spectral.top_k_eigen(spectral.discretize(kernels.sbm(SBM_Q, SBM_W), 400), 2)
    assert pairs[0].value == pytest.approx(SBM_LAM1, abs=1e-3)
    assert pairs[1].value == pytest.approx(SBM_LAM2, abs=1e-3)


def test_top_k_orthonormal_l2():
    pairs = spectral.top_k_eigen(spectral.discretize(kernels.minmax(), 200), 3)
    for i, p in enumerate(pairs):
        assert p.function.l2_norm() == pytest.approx(1.0, abs=1e-10)
        for q in pairs[i + 1:]:
            inner = np.mean(p.function.values * q.function.values)
            assert abs(inner) < 1e-10


def test_top_k_validates_k():
    op = spectral.discretize(kernels.minmax(), 10)
    with pytest.raises(ValueError):
        spectral.top_k_eigen(op, 0)
    with pytest.raises(ValueError):
        spectral.top_k_eigen(op, 11)


# --- analytic spectra ---------------------------------------------------------

def test_sbm_analytic_single_block_is_er():
    pairs = spectral.sbm_eigen_analytic(np.array([[0.35]]), np.array([1.0]))
    assert pairs[0][0] == pytest.approx(0.35, abs=1e-15)


def test_sbm_analytic_two_blocks():
    pairs = spectral.sbm_eigen_analytic(SBM_Q, SBM_W)
    assert pairs[0][0] == pytest.approx(SBM_LAM1, abs=1e-12)
    assert pairs[1][0] == pytest.approx(SBM_LAM2, abs=1e-12)


def test_sbm_analytic_decoupled_blocks():
    K = 4
    Q = 0.6 * np.eye(K)
    w = np.full(K, 1.0 / K)
    pairs = spectral.sbm_eigen_analytic(Q, w)
    for lam, _ in pairs:
        assert lam == pytest.approx(0.6 / K, abs=1e-12)


def test_sbm_analytic_unit_l2_norm():
    for lam, blocks in spectral.sbm_eigen_analytic(SBM_Q, SBM_W):
        norm_sq = np.sum(SBM_W * blocks**2)
        assert norm_sq == pytest.approx(1.0, abs=1e-12)


def test_sbm_analytic_top_k_matches_the_full_spectrum():
    # 100 equal blocks of a rank-3 kernel: k = 2 gives the first two of the K pairs.
    K = 100
    x = spectral.midpoints(K)
    Q = 0.2 + 0.3 * np.outer(x, x) + 0.4 * np.outer(x**2, x**2)
    w = np.full(K, 1.0 / K)
    full = spectral.sbm_eigen_analytic(Q, w)
    assert len(full) == K
    top = spectral.sbm_eigen_analytic(Q, w, 2)
    assert len(top) == 2
    for (lam, blocks), (ref_lam, ref_blocks) in zip(top, full):
        assert lam == pytest.approx(ref_lam, abs=1e-12 * full[0][0])
        assert np.max(np.abs(blocks - ref_blocks)) < 1e-9
    for k in (0, K + 1):
        with pytest.raises(ValueError):
            spectral.sbm_eigen_analytic(Q, w, k)


@pytest.mark.parametrize("k", [1.5, 2.0, np.float64(1), True, "2"], ids=repr)
def test_sbm_eigen_analytic_checks_k_is_an_integer(k):
    # k = 1.5 once reached a slice and raised a TypeError about slice indices.
    with pytest.raises(ValueError, match="k must be an integer"):
        spectral.sbm_eigen_analytic(SBM_Q, SBM_W, k)
    assert len(spectral.sbm_eigen_analytic(SBM_Q, SBM_W, np.int64(1))) == 1


def test_sbm_analytic_matches_numeric_function():
    # Analytic and discretized dominant eigenfunctions agree in L2 at M = 400.
    M = 400
    pair = spectral.dominant_eigenpair(spectral.discretize(kernels.sbm(SBM_Q, SBM_W), M))
    lam, blocks = spectral.sbm_eigen_analytic(SBM_Q, SBM_W)[0]
    mids = spectral.midpoints(M)
    analytic = blocks[(mids >= 0.75).astype(int)]
    assert abs(pair.value - lam) < 5.0 / M
    assert np.sqrt(np.mean((pair.function.values - analytic) ** 2)) < 1e-2


@pytest.mark.parametrize("h,M", [(1.5, 4), (0, 4), (-1, 4), (1, 0), (1, 2.0)])
def test_minmax_analytic_rejects_a_non_integer_or_nonpositive_mode_or_resolution(h, M):
    with pytest.raises(ValueError):
        spectral.minmax_eigen_analytic(h, M)


def test_minmax_analytic_accepts_numpy_integers():
    lam, psi = spectral.minmax_eigen_analytic(np.int64(2), np.int64(4))
    assert lam == 1.0 / (4.0 * np.pi**2)
    assert psi.M == 4


def test_minmax_analytic_values():
    lam1, _ = spectral.minmax_eigen_analytic(1, 100)
    lam2, _ = spectral.minmax_eigen_analytic(2, 100)
    assert lam1 == pytest.approx(0.1013212, abs=1e-7)
    assert lam2 == pytest.approx(1.0 / (4.0 * np.pi**2), abs=1e-15)
    lams = [spectral.minmax_eigen_analytic(h, 10)[0] for h in range(1, 30)]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert lams[-1] < 1e-3


# --- operator distance --------------------------------------------------------

def test_operator_distance_identical():
    op = spectral.discretize(kernels.minmax(), 100)
    assert spectral.operator_distance(op, op) == 0.0


def test_operator_distance_constant_kernels():
    a = spectral.discretize(kernels.erdos_renyi(0.7), 60)
    b = spectral.discretize(kernels.erdos_renyi(0.2), 60)
    assert spectral.operator_distance(a, b) == pytest.approx(0.5, abs=1e-12)


def test_operator_distance_matches_the_dense_spectrum_without_a_matrix(monkeypatch):
    # One Lanczos run on the products a @ s - b @ s, read at both ends: the
    # largest |eigenvalue| of the dense difference, with no M x M matrix built
    # on either side.
    runs, Run = [], spectral._Run
    monkeypatch.setattr(spectral, "_Run", lambda *args: runs.append(Run(*args)) or runs[-1])
    for b_spec in (kernels.sbm(SBM_Q, SBM_W), kernels.erdos_renyi(0.1)):
        a, b = spectral.discretize(kernels.minmax(), 300), spectral.discretize(b_spec, 300)
        runs.clear()
        got = spectral.operator_distance(a, b)
        assert [run.reason for run in runs] == ["settled"]
        assert "kernel_matrix" not in vars(a) and "kernel_matrix" not in vars(b)
        want = np.max(np.abs(np.linalg.eigvalsh(a.matrix() - b.matrix())))
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_operator_distance_mismatch():
    a = spectral.discretize(kernels.erdos_renyi(0.7), 60)
    b = spectral.discretize(kernels.erdos_renyi(0.2), 61)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="resolution mismatch"):
            spectral.operator_distance(x, y)


def test_eigenvalue_perturbation_bound():
    # |lam_max(a) - lam_max(b)| is controlled by the operator distance.
    from graphon_games import sampling

    M = 600
    ref = spectral.discretize(kernels.minmax(), M)
    lam_ref = spectral.dominant_eigenpair(ref).value
    for seed in (0, 1, 2):
        types = sampling.sample_types(60, seed)
        Pw = sampling.weighted_network(kernels.minmax(), types)
        step = spectral.discretize(kernels.step_graphon_from_matrix(Pw.P), M)
        dist = spectral.operator_distance(ref, step)
        lam_step = spectral.dominant_eigenpair(step).value
        assert abs(lam_ref - lam_step) <= dist + 1e-10


def test_operator_distance_within_sampling_radius():
    # The step kernel of a sampled weighted network stays within rho(N) of the
    # generating kernel whenever the types stay within d_N of their cells.
    from graphon_games import sampling
    from graphon_games.equilibrium import bound_rho

    N, M = 50, 1000
    ref = spectral.discretize(kernels.minmax(), M)
    d_N, rho, _, _ = bound_rho(N, 0.05, L=2.0, Omega=0, Ktilde=1.0)
    for seed in (10, 11, 12):
        types = sampling.sample_types(N, seed)
        lefts = np.arange(N) / N
        rights = np.arange(1, N + 1) / N
        deviation = np.max(np.maximum(np.abs(types.types - lefts),
                                      np.abs(types.types - rights)))
        Pw = sampling.weighted_network(kernels.minmax(), types)
        step = spectral.discretize(kernels.step_graphon_from_matrix(Pw.P), M)
        dist = spectral.operator_distance(ref, step)
        assert dist > 0.0
        if deviation <= d_N:
            assert dist <= rho


@pytest.mark.parametrize("x", [-0.1, 1.5, math.nan, [0.5, -0.1], np.array([0.2, math.nan])])
def test_gridfunction_value_at_rejects_points_outside_the_unit_interval(x):
    f = spectral.GridFunction([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="outside"):
        f.value_at(x)


def test_gridfunction_value_at_the_interval_ends():
    f = spectral.GridFunction([0.0, 1.0, 2.0, 3.0])
    assert f.value_at(0.0) == 0.0
    assert f.value_at(1.0) == 3.0  # the last cell is closed at 1
    assert np.array_equal(f.value_at(np.array([0.25, 0.74])), [1.0, 2.0])


def test_gridfunction_csv_and_eigenpair_json(tmp_path):
    pair = spectral.top_k_eigen(spectral.discretize(kernels.erdos_renyi(0.5), 4), 1)[0]
    doc = pair.to_json()
    assert doc["value"] == pytest.approx(0.5, abs=1e-12)
    assert spectral.GridFunction.from_json(doc["function"]).M == 4
    path = tmp_path / "f.csv"
    pair.function.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "midpoint,value"
    assert len(lines) == 5
    assert lines[1] == "0.125,1.0"


def test_davis_kahan_bound():
    # Dominant eigenfunctions move at most 2 sqrt(2) dist / gap apart.
    from graphon_games import sampling

    M = 600
    ref = spectral.discretize(kernels.minmax(), M)
    top = spectral.top_k_eigen(ref, 2)
    gap = top[0].value - top[1].value
    for seed in (3, 4, 5):
        types = sampling.sample_types(60, seed)
        Pw = sampling.weighted_network(kernels.minmax(), types)
        Ps = sampling.simple_network(Pw, seed + 100)
        step = spectral.discretize(kernels.step_graphon_from_matrix(Ps.A), M)
        dist = spectral.operator_distance(ref, step)
        psi_b = spectral.dominant_eigenpair(step).function
        from graphon_games.equilibrium import l2_distance

        assert l2_distance(top[0].function, psi_b) <= 2.0 * math.sqrt(2.0) * dist / gap + 1e-10


def test_power_method_restarts_when_start_is_in_bottom_eigenspace():
    # The all-ones start lies in the -3 eigenspace, so the shifted matrix maps
    # it to zero although the matrix itself is not -shift * I.
    lam, v = spectral.power_method(np.array([[0.0, -3.0], [-3.0, 0.0]]), 1e-12, 1000)
    assert lam == pytest.approx(3.0, abs=1e-10)
    assert abs(v[0] + v[1]) <= 1e-10


def test_power_method_scalar_matrix_returns_its_value():
    lam, _ = spectral.power_method(-2.0 * np.eye(3), 1e-12, 1000)
    assert lam == -2.0


def _symmetric_case(kind, n, rng):
    B = rng.uniform(-1.0, 1.0, (n, n))
    if kind == "nonnegative":
        return np.abs(B + B.T)
    if kind == "signed":
        return B + B.T
    if kind == "bipartite":
        return np.kron([[0.0, 1.0], [1.0, 0.0]], np.abs(B + B.T))
    if kind == "low-rank":
        X = rng.standard_normal((n, 2))
        A = X @ np.diag([rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)]) @ X.T
        return (A + A.T) / 2.0
    return rng.uniform(-3.0, 3.0) * np.eye(n)


@given(kind=st.sampled_from(["nonnegative", "signed", "bipartite", "low-rank", "scalar"]),
       n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_power_method_matches_eigvalsh(kind, n, seed):
    A = _symmetric_case(kind, n, np.random.default_rng(seed))
    lam, v = spectral.power_method(A, 1e-13, 100_000)
    ref = np.linalg.eigvalsh(A)[-1]
    assert abs(lam - ref) <= 1e-10 * max(1.0, abs(ref))
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert v.sum() >= 0.0


@given(kind=st.sampled_from(["nonnegative", "signed", "bipartite", "low-rank", "scalar"]),
       n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_one_run_reads_the_spectral_radius_from_both_ends(kind, n, seed):
    # The top pair where a run without the bottom read takes it, then the
    # bottom end of the same run: max(theta_max, -theta_min) is max |eigenvalue|.
    A = _symmetric_case(kind, n, np.random.default_rng(seed))
    q = np.random.default_rng(0).standard_normal(len(A))
    lam, rho, _ = spectral._lanczos(A, q, 1e-13, radius=True)
    ref = np.max(np.abs(np.linalg.eigvalsh(A)))
    assert abs(rho - ref) <= 1e-12 * max(1.0, ref)
    assert lam == spectral._lanczos(A, q, 1e-13)[0]


@pytest.mark.parametrize("A", [[[0.0, math.nan], [math.nan, 0.0]], [[1.0, math.inf], [math.inf, 1.0]]])
def test_power_method_rejects_non_finite_matrices(A):
    with pytest.raises(ValueError, match="finite"):
        spectral.power_method(np.array(A), 1e-13, 1000)


# --- top-k closed forms against a full eigendecomposition -----------------------

def _assert_matches_eigh(op, pairs):
    """Eigenvalues within 1e-12 |lambda_1|; separated eigenfunctions within 1e-10.

    An eigenvector whose gap to its neighbours is g |lambda_1| moves by about
    eps / g under round-off in any backward-stable method (2e-10 at
    g = 1e-6), so below g = 1e-4 the eigenfunction tolerance grows as 1 / g.
    """
    evals, evecs = np.linalg.eigh(op.matrix())
    lam = evals[::-1]
    scale = abs(lam[0])
    for i, pair in enumerate(pairs):
        assert abs(pair.value - lam[i]) <= 1e-12 * scale
        gap = min(abs(lam[i] - lam[j]) for j in (i - 1, i + 1) if 0 <= j < len(lam))
        if gap > 1e-6 * scale:
            want = spectral._orient(evecs[:, -1 - i] * np.sqrt(op.M))
            tol = 1e-10 * max(1.0, 1e-4 * scale / gap)
            assert np.max(np.abs(pair.function.values - want)) <= tol


@pytest.mark.parametrize("M", [200, 2000])
@pytest.mark.parametrize("spec", [kernels.minmax(), kernels.sbm(SBM_Q, SBM_W),
                                  kernels.erdos_renyi(0.5), _random_grid(30, 7)],
                         ids=["minmax", "sbm", "er", "random-30-cell-grid"])
def test_top_k_matches_eigh(spec, M):
    op = spectral.discretize(spec, M)
    _assert_matches_eigh(op, spectral.top_k_eigen(op, 3))


def test_top_k_minmax_eigenfunctions_match_closed_form():
    pairs = spectral.top_k_eigen(spectral.discretize(kernels.minmax(), 2000), 3)
    for h, pair in enumerate(pairs, start=1):
        _, psi = spectral.minmax_eigen_analytic(h, 2000)
        assert np.max(np.abs(pair.function.values - psi.values)) <= 1e-10


def test_top_k_disassortative_sbm_skips_the_negative_eigenvalue():
    # Spectrum 0.5, -0.4, then zeros: -0.4 is larger in magnitude than the
    # zeros, yet the top three algebraic eigenvalues are 0.5, 0, 0.
    op = spectral.discretize(kernels.sbm([[0.1, 0.9], [0.9, 0.1]], [0.5, 0.5]), 1000)
    pairs = spectral.top_k_eigen(op, 3)
    assert [p.value for p in pairs] == pytest.approx([0.5, 0.0, 0.0], abs=1e-12)
    _assert_matches_eigh(op, pairs)


def test_top_k_repeated_top_eigenvalue():
    op = spectral.discretize(kernels.sbm([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5]), 1000)
    pairs = spectral.top_k_eigen(op, 3)
    assert [p.value for p in pairs] == pytest.approx([0.25, 0.25, 0.0], abs=1e-12)
    _assert_matches_eigh(op, pairs)
    # the two top eigenfunctions span the block indicators
    F = np.array([p.function.values for p in pairs[:2]])
    assert np.allclose(F @ F.T / op.M, np.eye(2), atol=1e-12)
    assert np.allclose(F[:, :500], F[:, :1], atol=1e-10)
    assert np.allclose(F[:, 500:], F[:, 500:501], atol=1e-10)


def test_top_k_sampled_network_matches_eigh():
    # No spectral decay: its 300 cells give 300 block eigenvalues of both signs.
    op = spectral.discretize(_sampled_network_grid(), 600)
    _assert_matches_eigh(op, spectral.top_k_eigen(op, 3))


@pytest.mark.parametrize("M,k", [(2, 1), (2, 2), (10, 3), (10, 10)])
def test_top_k_minmax_small_resolutions_match_eigh(M, k):
    # M = 2000 is in test_top_k_matches_eigh; at h = M the sampled sine is +-1.
    op = spectral.discretize(kernels.minmax(), M)
    _assert_matches_eigh(op, spectral.top_k_eigen(op, k))


@pytest.mark.parametrize("values,M", [([[0.1, 0.9], [0.9, 0.1]], 7),
                                      ([[0.0, 0.8, 0.1], [0.8, 0.0, 0.6], [0.1, 0.6, 0.2]], 8)],
                         ids=["2-cell", "3-cell"])
def test_top_k_full_signed_spectrum_matches_eigh(values, M):
    # k = M: the positive block eigenvalues, the zeros, then the negative ones.
    op = spectral.discretize(kernels.grid_kernel(values), M)
    pairs = spectral.top_k_eigen(op, M)
    assert pairs[-1].value < 0.0
    _assert_matches_eigh(op, pairs)
    F = np.array([p.function.values for p in pairs])
    assert np.max(np.abs(F @ F.T / M - np.eye(M))) <= 1e-12


@pytest.mark.parametrize("spec,M", [(_random_grid(30, 3), 20),
                                    (kernels.sbm(np.full((3, 3), 0.3) + 0.5 * np.eye(3),
                                                 [0.5, 0.0001, 0.4999]), 100)],
                         ids=["30-cells-at-M20", "sbm-empty-community"])
@pytest.mark.parametrize("k", [3, 20])
def test_top_k_with_blocks_holding_no_midpoint_matches_eigh(spec, M, k):
    op = spectral.discretize(spec, M)
    _assert_matches_eigh(op, spectral.top_k_eigen(op, k))


def test_top_k_zero_eigenfunctions_are_helmert_contrasts():
    # er at M = 4: the zeros' basis is (1, -1, 0, 0) / sqrt(2), then
    # (1, 1, -2, 0) / sqrt(6) oriented to its positive peak, in unit L2 norm.
    pairs = spectral.top_k_eigen(spectral.discretize(kernels.erdos_renyi(0.6), 4), 3)
    assert [p.value for p in pairs] == [pytest.approx(0.6, abs=1e-15), 0.0, 0.0]
    assert pairs[1].function.values == pytest.approx(np.sqrt(2.0) * np.array([1, -1, 0, 0]))
    assert pairs[2].function.values == pytest.approx(2.0 / np.sqrt(6.0) * np.array([-1, -1, 2, 0]))


def test_top_k_is_deterministic():
    op = spectral.discretize(kernels.minmax(), 1000)

    def digest(pairs):
        return [(p.value, p.function.values.tobytes()) for p in pairs]

    first = spectral.top_k_eigen(op, 3)
    assert digest(spectral.top_k_eigen(op, 3)) == digest(first)
    np.random.seed(12345)
    np.random.standard_normal(7)
    assert digest(spectral.top_k_eigen(op, 3)) == digest(first)


@given(n=st.integers(1, 6), M=st.integers(20, 300), k=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_top_k_matches_eigh_on_random_grid_kernels(n, M, k, data):
    entries = data.draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=False),
                                 min_size=n * n, max_size=n * n))
    P = np.array(entries).reshape(n, n)
    op = spectral.discretize(kernels.grid_kernel(np.triu(P) + np.triu(P, 1).T), M)
    _assert_matches_eigh(op, spectral.top_k_eigen(op, k))


def test_orient_is_stable_under_round_off_at_tied_peaks():
    # sin(2 pi x) on the midpoint grid has peaks of equal size and opposite
    # sign; round-off decides which is larger by an ulp, and the orientation
    # must not follow it.
    up = np.nextafter(1.0, 2.0)
    for v in (np.array([0.0, 1.0, 0.0, -up, 0.0]), np.array([0.0, up, 0.0, -1.0, 0.0])):
        assert spectral._orient(v)[1] > 0.0
        assert spectral._orient(-v)[1] > 0.0


def test_orient_treats_a_round_off_mean_as_zero():
    # psi2 of two weakly linked equal blocks has zero mean in exact arithmetic;
    # an eigensolver leaves a mean of round-off size (about 3e-13 from a full
    # eigh), and the sign must not follow that noise.
    assert spectral._orient(np.array([-1.0, -1.0, 1.0, 1.0 + 1e-11]))[0] > 0.0
    P = np.array([[1e-12, 1e-15], [1e-15, 1e-12]])
    op = spectral.discretize(kernels.grid_kernel(P), 242)
    _assert_matches_eigh(op, spectral.top_k_eigen(op, 2))


def test_sbm_analytic_orientation_is_stable_at_tied_peaks():
    # Two equal communities: psi2 = +-(1, -1) up to round-off, with zero
    # mass-weighted mean; the first block is the positive one.
    _, psi2 = spectral.sbm_eigen_analytic([[0.1, 0.9], [0.9, 0.1]], [0.5, 0.5])[1]
    assert psi2 == pytest.approx([1.0, -1.0], abs=1e-12)


def test_top_k_tiny_kernel_keeps_its_eigenvalue():
    # Squares of a 1e-179 kernel's entries underflow to zero; its eigenvalue
    # and eigenfunction must not.
    op = spectral.discretize(kernels.erdos_renyi(3.126821774815023e-179), 45)
    pairs = spectral.top_k_eigen(op, 3)
    assert pairs[0].value == pytest.approx(3.126821774815023e-179, rel=1e-12)
    _assert_matches_eigh(op, pairs)


def test_lanczos_steps_grow_their_basis_to_the_full_space():
    # n = 40 takes the basis buffer through 16 -> 32 -> 40 rows; at k = n the
    # last step reports the end, and Q, T = Q A Q^T are exact to round-off.
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 40))
    A = A + A.T
    run, ends = spectral._Run(A, np.ones(40)), []
    while not run.end:
        run.step()
        ends.append(run.end)
    assert ends == [False] * 39 + [True]
    Q, (theta, S) = run.Q[:run.k], run.eig()
    assert np.max(np.abs(Q @ Q.T - np.eye(40))) <= 1e-12
    assert np.max(np.abs(Q @ A @ Q.T - (S * theta) @ S.T)) <= 1e-11 * np.abs(theta).max()
    assert theta == pytest.approx(np.linalg.eigvalsh(A), abs=1e-11 * np.abs(theta).max())


def _run_cases():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((60, 60))
    P = np.diag(np.ones(49), 1)
    return {"minmax": (spectral.discretize(kernels.minmax(), 400), np.ones(400)),
            "sbm": (spectral.discretize(kernels.sbm([[0.8, 0.1], [0.1, 0.5]], [0.75, 0.25]), 300),
                    np.ones(300)),
            "gaussian": ((B + B.T) / 60, rng.standard_normal(60)),
            "path": ((P + P.T) / 50, np.ones(50))}


@pytest.mark.parametrize("case", ["minmax", "sbm", "gaussian", "path"])
def test_a_run_reads_the_top_pair_of_eigh_without_it(case):
    # top() walks the steps by Newton, warm-started step to step; the minmax
    # run, taken on well past its settled step, also takes the eigvalsh
    # fallback. theta_max and |s_k| agree with a full eigendecomposition of
    # T_k to round-off at every step, and so does the first settled step.
    A, q = _run_cases()[case]
    run, settled = spectral._Run(A, q), []
    while not run.end and run.k < 60:
        run.step()
        theta, S = np.linalg.eigh(spectral._tridiagonal(run.a, run.b))
        top, s = run.top()
        assert abs(top - theta[-1]) <= 1e-14 * run.T_norm
        assert abs(s - abs(S[-1, -1])) <= 1e-13
        settled.append((run.b[-1] * abs(S[-1, -1]) <= 1e-13 * max(1.0, abs(theta[-1])),
                        run.b[-1] * s <= 1e-13 * max(1.0, abs(top))))
    assert [ref for ref, _ in settled].index(True) == [got for _, got in settled].index(True)


@pytest.mark.parametrize("max_iter", [0, 1, 3])
def test_an_exhausted_run_raises_with_its_top_ritz_vector(monkeypatch, max_iter):
    # One eigendecomposition, at the end: the top Ritz vector of the steps
    # taken and its residual beta_k |s_k| (none before a step).
    P = np.diag(np.ones(49), 1)
    P = (P + P.T) / 50
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda T: calls.append(len(T)) or eigh(T))
    with pytest.raises(IterationLimitError) as err:
        spectral._lanczos(P, np.ones(50), 1e-13, max_iter)
    if max_iter == 0:
        assert err.value.last_iterate is None and err.value.residual_history == [0.0]
        return
    run = spectral._Run(P, np.ones(50))
    for _ in range(max_iter):
        run.step()
    theta, S = eigh(spectral._tridiagonal(run.a, run.b))
    assert calls == [max_iter]
    assert np.array_equal(err.value.last_iterate, S[:, -1] @ run.Q[:max_iter])
    assert err.value.residual_history == [run.b[-1] * abs(S[-1, -1])]
