import math

import numpy as np
import pytest

from graphon_games import kernels, spectral
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


def test_sbm_analytic_matches_numeric_function():
    # Analytic and discretized dominant eigenfunctions agree in L2 at M = 400.
    M = 400
    pair = spectral.dominant_eigenpair(spectral.discretize(kernels.sbm(SBM_Q, SBM_W), M))
    lam, blocks = spectral.sbm_eigen_analytic(SBM_Q, SBM_W)[0]
    mids = spectral.midpoints(M)
    analytic = blocks[(mids >= 0.75).astype(int)]
    assert abs(pair.value - lam) < 5.0 / M
    assert np.sqrt(np.mean((pair.function.values - analytic) ** 2)) < 1e-2


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


def test_operator_distance_mismatch():
    a = spectral.discretize(kernels.erdos_renyi(0.7), 60)
    b = spectral.discretize(kernels.erdos_renyi(0.2), 61)
    with pytest.raises(ValueError):
        spectral.operator_distance(a, b)


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
