import math

import numpy as np
import pytest

from graphon_games import bayes, kernels
from graphon_games.equilibrium import LqPayoff, solve_graphon_lq
from graphon_games.experiments import rate_fit
from graphon_games.spectral import GridFunction

# Envelope constant for the concentration check, calibrated once on a
# 3000-trial run at N = 100 (about 18% exceedance) and frozen.
ENVELOPE_C = 0.25

MINMAX_LQ = LqPayoff(3.0, 1.0)


@pytest.fixture(scope="module")
def minmax_sbar():
    return solve_graphon_lq(kernels.minmax(), MINMAX_LQ, 1000).profile


def simulate_deviations(spec, sbar, N, trials, seed):
    """Independent simulation of |zeta - z(x)| under type and link randomness."""
    rng = np.random.default_rng(seed)
    devs = np.empty(trials)
    for k in range(trials):
        ti = rng.random()
        tj = rng.random(N - 1)
        links = rng.random(N - 1) < np.asarray(kernels.evaluate(spec, ti, tj))
        zeta = float(links @ sbar.value_at(tj)) / (N - 1)
        devs[k] = abs(zeta - bayes.expected_aggregate(spec, sbar, ti))
    return devs


# --- expected aggregate -------------------------------------------------------

def test_expected_aggregate_er_constant():
    sbar = GridFunction(np.full(50, 2.0))
    assert bayes.expected_aggregate(kernels.erdos_renyi(0.4), sbar, 0.3) == pytest.approx(
        0.8, abs=1e-14
    )


def test_expected_aggregate_zero_profile():
    sbar = GridFunction(np.zeros(50))
    assert bayes.expected_aggregate(kernels.minmax(), sbar, 0.7) == 0.0


def test_expected_aggregate_matches_simulation(minmax_sbar):
    # Monte Carlo mean of the realized aggregate at a fixed type matches the
    # quadrature value within three standard errors.
    spec = kernels.minmax()
    x, N, trials = 0.3, 200, 10_000
    rng = np.random.default_rng(99)
    TJ = rng.random((trials, N - 1))
    link_p = np.asarray(kernels.evaluate(spec, x, TJ))
    links = rng.random((trials, N - 1)) < link_p
    zetas = (links * minmax_sbar.value_at(TJ)).sum(axis=1) / (N - 1)
    se = zetas.std(ddof=1) / math.sqrt(trials)
    assert abs(zetas.mean() - bayes.expected_aggregate(spec, minmax_sbar, x)) <= 3.0 * se


# --- epsilon estimation --------------------------------------------------------

def test_epsilon_zero_profile():
    sbar = GridFunction(np.zeros(100))
    est = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, 1.0, 50, 200, seed=0, sbar=sbar)
    assert est.epsilon_hat == 0.0


def test_epsilon_complete_graph_constant_profile():
    # With all links present and a constant profile the realized aggregate is
    # deterministic, so the estimate vanishes.
    spec = kernels.erdos_renyi(1.0)
    sbar = GridFunction(np.full(100, 2.0))
    est = bayes.estimate_epsilon(spec, LqPayoff(0.5, 1.0), 1.0, 50, 200, seed=1, sbar=sbar)
    assert est.epsilon_hat == pytest.approx(0.0, abs=1e-12)


def test_epsilon_internal_lq_lipschitz_constant(minmax_sbar):
    # L_U defaults to |alpha| * s_max for linear-quadratic payoffs.
    est = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, 100, 50, seed=2,
                                 sbar=minmax_sbar)
    lam = 1.0 / np.pi**2
    expected = 3.0 * (1.0 / (1.0 - 3.0 * lam))
    assert est.L_U == pytest.approx(expected, rel=1e-3)


def test_epsilon_decreases_with_population(minmax_sbar):
    est_small = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, 100, 2000, seed=3,
                                       sbar=minmax_sbar)
    est_large = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, 1600, 2000, seed=4,
                                       sbar=minmax_sbar)
    z = (est_small.epsilon_hat - est_large.epsilon_hat) / math.hypot(
        est_small.stderr, est_large.stderr
    )
    assert z >= 1.645  # one-sided 95% confidence


def test_epsilon_rate_slope(minmax_sbar):
    Ns = [100, 400, 1600]
    eps = [
        bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, n, 2000, seed=5 + n,
                               sbar=minmax_sbar).epsilon_hat
        for n in Ns
    ]
    slope, _, _ = rate_fit(Ns, eps, delta=0.05)
    assert 0.5 <= slope <= 1.5


def test_concentration_envelope_exceedance_decreases(minmax_sbar):
    spec = kernels.minmax()
    fracs = {}
    for N in (100, 800):
        devs = simulate_deviations(spec, minmax_sbar, N, 3000, seed=77)
        envelope = ENVELOPE_C * math.sqrt(math.log(N - 1) / (N - 1))
        fracs[N] = float(np.mean(devs > envelope))
    assert fracs[800] < fracs[100]


def test_epsilon_estimate_validation():
    sbar = GridFunction(np.zeros(10))
    with pytest.raises(ValueError):
        bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, 1.0, 1, 10, seed=0, sbar=sbar)
    gen_like = object()
    with pytest.raises(ValueError):
        bayes.estimate_epsilon(kernels.minmax(), gen_like, None, 10, 10, seed=0, sbar=sbar)


def test_epsilon_discretizes_once_when_solving_its_own_profile(monkeypatch, minmax_sbar):
    # Without sbar, the solve's lambda_max gives L_U; the operator is not
    # discretized and power-iterated a second time. The result matches the
    # path that is handed sbar.
    from graphon_games import equilibrium

    calls = []
    real = equilibrium.discretize

    def counting(spec, M):
        calls.append(M)
        return real(spec, M)

    monkeypatch.setattr(equilibrium, "discretize", counting)
    monkeypatch.setattr(bayes, "discretize", counting)
    own = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, 100, 50, seed=2, M=1000)
    assert calls == [1000]
    given_sbar = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, 100, 50, seed=2,
                                        sbar=minmax_sbar)
    assert own == given_sbar


@pytest.mark.parametrize("L_U", [math.nan, math.inf, -1.0])
def test_epsilon_rejects_a_non_finite_or_negative_L_U(minmax_sbar, L_U):
    with pytest.raises(ValueError, match="L_U"):
        bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, L_U, 20, 5, seed=1, sbar=minmax_sbar)
