"""Planner interventions on standalone marginal returns.

The planner spends a budget C to shift each agent's standalone return from
beta to beta_hat_i, subject to sum (beta - beta_hat_i)^2 <= C, and wants to
maximize average welfare T = (1/(2N)) sum s_i^2 at the resulting equilibrium.
Restricted to complements (alpha > 0), where the equilibrium is interior and
linear in beta_hat.

Policies:
  homogeneous        equal split, beta_hat = beta + sqrt(C/N)
  network-heuristic  budget along the dominant eigenvector of the realized network
  graphon-heuristic  budget along the dominant kernel eigenfunction at the agent types
  optimal            exact maximizer via the secular equation, solved on the Lanczos
                     basis from the all-ones vector and certified in full space
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import _check_contraction, _contraction_gate, _lq_solve
from .kernels import GraphonSpec, _validate_symmetric
from .sampling import SimpleNetwork, TypeVector
from .spectral import (
    POWER_MAX_ITER,
    POWER_TOL,
    _lanczos_steps,
    _orient,
    _psi1_at_types,
    power_method,
)

__all__ = [
    "InterventionResult",
    "welfare",
    "no_intervention",
    "homogeneous_policy",
    "network_heuristic",
    "graphon_heuristic",
    "optimal_intervention",
    "welfare_gap",
    "evaluate_policy",
    "result_to_json",
]

_GAP_WARN = 1e-10
_PROJECTION_STEPS = 50  # sampled networks take 8-22 steps; slower ones go to eigh


@dataclass
class InterventionResult:
    """A budget allocation, its cost, and (when evaluated) its welfare.

    ``welfare`` is nan until the allocation is evaluated against a concrete
    game, either because the policy computed it (optimal) or via
    ``evaluate_policy``. ``kkt_multiplier`` is set only by the optimal solver.
    """

    beta_hat: np.ndarray
    welfare: float
    budget_used: float
    policy: str
    kkt_multiplier: float | None = None


def _result(beta_hat, beta, policy, welfare=math.nan, mu=None) -> InterventionResult:
    """The allocation with its budget used, sum (beta_hat_i - beta)^2."""
    return InterventionResult(beta_hat, welfare, float(np.sum((beta_hat - beta) ** 2)), policy, mu)


def welfare(P: np.ndarray, alpha: float, beta_hat: np.ndarray) -> float:
    """Average welfare (1/(2N)) ||s||^2 of the linear response s = (I - alpha P/N)^-1 beta_hat.

    That is the equilibrium for complements; for substitutes s may go negative."""
    return _welfares(_validate_symmetric(P, "network matrix"), alpha, [beta_hat])[0]


def _welfares(P: np.ndarray, alpha: float, allocations: list[np.ndarray]) -> list[float]:
    """Welfare of several allocations behind one gate, one Lanczos solve each.

    A constant allocation scales the gate's own x1 = (I - alpha G)^-1 1."""
    G = np.asarray(P, dtype=float) / len(P)
    x1 = _contraction_gate(G, G.min() >= 0.0, abs(alpha), alpha)[2]
    sols = [b[0] * x1 if b.shape == x1.shape and np.all(b == b[0]) else _lq_solve(G, alpha, b)
            for b in map(np.asarray, allocations)]
    return [float(np.sum(s**2) / (2.0 * len(G))) for s in sols]


def _check_params(beta: float, C: float = 0.0) -> None:
    """Require a finite beta and a nonnegative, finite budget; NaN fails both comparisons."""
    if not -math.inf < beta < math.inf:
        raise ValueError(f"beta must be finite, got {beta}")
    if not 0.0 <= C < math.inf:
        raise ValueError(f"budget must be nonnegative and finite, got {C}")


def no_intervention(beta: float, N: int) -> InterventionResult:
    _check_params(beta)
    return _result(np.full(N, float(beta)), beta, "none")


def homogeneous_policy(beta: float, C: float, N: int) -> InterventionResult:
    """Split the budget equally: beta_hat = beta + sqrt(C/N) for everyone."""
    _check_params(beta, C)
    return _result(np.full(N, beta + math.sqrt(C / N)), beta, "homogeneous")


def network_heuristic(P: np.ndarray, beta: float, C: float) -> InterventionResult:
    """Allocate along the dominant eigenvector: beta_hat = beta + sqrt(C) v1."""
    _check_params(beta, C)
    _, v1 = power_method(_validate_symmetric(P, "network matrix"), POWER_TOL, POWER_MAX_ITER)
    return _result(beta + math.sqrt(C) * _orient(v1), beta, "network-heuristic")


def graphon_heuristic(spec: GraphonSpec, types: TypeVector, beta: float,
                      C: float) -> InterventionResult:
    """Allocate along the dominant kernel eigenfunction evaluated at agent types.

    beta_hat_i = beta + kappa psi1(t_i), kappa spending the budget exactly, with
    psi1 exact for every kernel family; no knowledge of the realized network.
    """
    _check_params(beta, C)
    psi_t, gap = _psi1_at_types(spec, types.types)
    if gap <= _GAP_WARN:
        warnings.warn(
            f"spectral gap {gap:.3g} is not positive; the dominant eigenfunction "
            "is ill-determined and the heuristic may be unstable",
            stacklevel=2,
        )
    ssq = float(np.sum(psi_t**2))
    if C > 0.0 and ssq <= 0.0:
        raise ValueError("dominant eigenfunction vanishes at every sampled type")
    kappa = math.sqrt(C / ssq) if C > 0.0 else 0.0
    return _result(beta + kappa * psi_t, beta, "graphon-heuristic")


def _secular_solve(d: np.ndarray, c: np.ndarray, C: float):
    """(mu, y) maximizing sum d_l y_l^2 over sum (y_l - c_l)^2 = C, for C > 0.

    y_l = mu c_l / (mu - d_l) for the mu > d_max = max d_l solving the secular
    equation g = sum (d_l c_l / (mu - d_l))^2 = C. Newton runs on the concave,
    increasing phi(t) = 1/sqrt(g) - 1/sqrt(C) in t = mu - d_max, with
    mu - d_l = t + (d_max - d_l) at full relative precision however close mu
    is to d_max (More & Sorensen 1983). From t0 = 1e-12 d_max, left of the
    root, the iterates rise monotonically to it. When g(t0) <= C, every c_l
    on the top shell vanishes (hard case): mu = d_max and the budget left
    goes into a top-shell direction.
    """
    dc2 = (d * c) ** 2
    d_max = float(d.max())
    gap = d_max - d
    t = 1e-12 * d_max
    if np.sum(dc2 / (t + gap) ** 2) <= C:
        mu = d_max
        shell = d >= d_max * (1.0 - 1e-12)
        y = np.where(shell, c, mu * c / np.where(shell, 1.0, gap))
        residual = C - float(np.sum((y - c) ** 2))
        j = int(np.argmax(shell))
        y[j] = c[j] + math.sqrt(max(residual, 0.0))
        return mu, y
    for _ in range(100):  # at most 14 steps on 20,000 random problems
        w = dc2 / (t + gap) ** 2
        g = float(np.sum(w))
        step = (math.sqrt(g / C) - 1.0) * g / float(np.sum(w / (t + gap)))
        t += step
        if step <= 4e-16 * t:
            break
    mu = d_max + t
    return mu, mu * c / (t + gap)


def _projected_optimum(G: np.ndarray, alpha: float, beta: float, C: float):
    """(beta_hat, mu, s) of the optimum on K(G, 1), certified in full space, or None.

    On span Q_k, Q_k G Q_k^T = S diag(theta) S^T (Lanczos from 1), the
    problem is ``_secular_solve`` on d = (1 - alpha theta)^-2,
    c = beta sqrt(N) S[0] and the budget C > 0, and beta_hat = Q_k^T S y (as
    in GLTR, Gould et al. 1999); k grows until
    beta_k |e_k^T S y| <= 1e-13 ||S y||. The certificate, with
    s = (I - alpha G)^-1 beta_hat and delta = beta_hat - beta:
    KKT s = mu (I - alpha G) delta to 1e-10 ||s||, ||delta||^2 = C to 1e-10 C,
    and mu >= (1 - alpha lam_bar)^-2 for lam_bar = max_i (G x)_i / x_i >= rho(G)
    (Collatz-Wielandt: G >= 0, any x > 0), which makes the maximum global,
    also in a hard case of the projected problem.
    """
    n = len(G)
    for Q, theta, S, b_k, end in _lanczos_steps(G, np.ones(n), _PROJECTION_STEPS):
        if alpha * theta[-1] >= 1.0:
            return None
        if b_k * abs(S[-1, -1]) > POWER_TOL * max(1.0, theta[-1]) and not end:
            continue  # lam_bar needs the top Ritz pair: solve only once it has settled
        mu, y = _secular_solve(1.0 / (1.0 - alpha * theta) ** 2, beta * math.sqrt(n) * S[0], C)
        z = S @ y
        if b_k * abs(z[-1]) <= 1e-13 * np.linalg.norm(z) or end:
            break
    else:
        return None
    beta_hat, x = z @ Q, np.abs(S[:, -1] @ Q)
    x = np.maximum(x, 1e-8 * x.max())
    delta = beta_hat - beta
    G_delta, G_x = np.stack([delta, x]) @ G  # G is symmetric
    lam_bar = float(np.max(G_x / x))
    if alpha * lam_bar >= 1.0 or mu < (1.0 - alpha * lam_bar) ** -2:
        return None
    s = _lq_solve(G, alpha, beta_hat)
    if (np.linalg.norm(s - mu * (delta - alpha * G_delta)) > 1e-10 * np.linalg.norm(s)
            or abs(delta @ delta - C) > 1e-10 * C):
        return None
    return beta_hat, mu, s


def optimal_intervention(P: np.ndarray, alpha: float, beta: float, C: float) -> InterventionResult:
    """Exact welfare-maximizing allocation on the budget sphere.

    In the eigenbasis G = P/N = U diag(lambda) U^T the problem is
    ``_secular_solve`` on d_l = (1 - alpha lambda_l)^-2 and c = U^T (beta 1).
    C = 0 leaves beta 1. As c sees G only through 1, the maximizer lies in
    K(G, 1): for a nonnegative G and beta != 0, ``_projected_optimum`` finds
    it there. These two get the welfare ``welfare`` gives them. Otherwise, or
    uncertified, a full eigendecomposition serves, with the welfare
    sum d_l y_l^2 / (2N) of U y. The two agree on T_opt to 1e-12 relative.
    """
    P = _validate_symmetric(P, "network matrix")
    N = P.shape[0]
    if not alpha > 0.0:
        raise ValueError("planner interventions require strategic complements (alpha > 0)")
    _check_params(beta, C)
    if C == 0.0:
        beta_hat = np.full(N, float(beta))
        return _result(beta_hat, beta, "optimal", _welfares(P, alpha, [beta_hat])[0])
    G = P / N
    found = _projected_optimum(G, alpha, beta, C) if beta and G.min() >= 0.0 else None
    if found is not None:
        beta_hat, mu, s = found
        return _result(beta_hat, beta, "optimal", float(np.sum(s**2) / (2.0 * N)), float(mu))
    lam, U = np.linalg.eigh(G)
    _check_contraction(alpha, max(lam[-1], -lam[0]))
    d = 1.0 / (1.0 - alpha * lam) ** 2
    c = U.T @ np.full(N, float(beta))
    mu, y = _secular_solve(d, c, C)
    return _result(U @ y, beta, "optimal", float(np.sum(d * y**2)) / (2.0 * N), float(mu))


def evaluate_policy(result: InterventionResult, P: np.ndarray, alpha: float) -> InterventionResult:
    """Return a copy of the result with its welfare on the game (P, alpha) filled in."""
    return replace(result, welfare=welfare(P, alpha, result.beta_hat))


def welfare_gap(P_s: SimpleNetwork, spec: GraphonSpec, alpha: float, beta: float, C: float):
    """T_nh, T_gh and their gap on one realized network; neither asks for a resolution."""
    nh = network_heuristic(P_s.A, beta, C)
    gh = graphon_heuristic(spec, P_s.types, beta, C)
    T_nh, T_gh = _welfares(P_s.A, alpha, [nh.beta_hat, gh.beta_hat])
    return T_nh, T_gh, abs(T_nh - T_gh)


def result_to_json(result: InterventionResult) -> dict:
    return {
        "beta_hat": np.asarray(result.beta_hat).tolist(),
        "welfare": result.welfare,
        "budget_used": result.budget_used,
        "policy": result.policy,
    }
