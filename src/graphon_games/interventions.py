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
  optimal            exact maximizer via the secular equation in the eigenbasis
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import _check_contraction, _contraction_gate, _lq_solve
from .kernels import GraphonSpec, _sbm_block_index, _validate_symmetric
from .sampling import SimpleNetwork, TypeVector
from .spectral import (
    POWER_MAX_ITER,
    POWER_TOL,
    _orient,
    discretize,
    power_method,
    sbm_eigen_analytic,
    top_k_eigen,
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


def welfare(P: np.ndarray, alpha: float, beta_hat: np.ndarray) -> float:
    """Average welfare (1/(2N)) ||s||^2 at the equilibrium s = (I - alpha P/N)^-1 beta_hat."""
    return _welfares(_validate_symmetric(P, "network matrix"), alpha, [beta_hat])[0]


def _welfares(P: np.ndarray, alpha: float, allocations: list[np.ndarray]) -> list[float]:
    """Welfare of several allocations, each solved by Lanczos from itself behind one gate."""
    G = np.asarray(P, dtype=float) / len(P)
    _contraction_gate(G, abs(alpha))
    return [float(np.sum(_lq_solve(G, alpha, b) ** 2) / (2.0 * len(G))) for b in allocations]


def no_intervention(beta: float, N: int) -> InterventionResult:
    return InterventionResult(beta_hat=np.full(N, float(beta)), welfare=math.nan,
                              budget_used=0.0, policy="none")


def homogeneous_policy(beta: float, C: float, N: int) -> InterventionResult:
    """Split the budget equally: beta_hat = beta + sqrt(C/N) for everyone."""
    if C < 0.0:
        raise ValueError("budget must be nonnegative")
    beta_hat = np.full(N, beta + math.sqrt(C / N))
    used = float(np.sum((beta_hat - beta) ** 2))
    return InterventionResult(beta_hat=beta_hat, welfare=math.nan,
                              budget_used=used, policy="homogeneous")


def network_heuristic(P: np.ndarray, beta: float, C: float) -> InterventionResult:
    """Allocate along the dominant eigenvector: beta_hat = beta + sqrt(C) v1."""
    if C < 0.0:
        raise ValueError("budget must be nonnegative")
    _, v1 = power_method(_validate_symmetric(P, "network matrix"), POWER_TOL, POWER_MAX_ITER)
    v1 = _orient(v1)
    beta_hat = beta + math.sqrt(C) * v1
    used = float(np.sum((beta_hat - beta) ** 2))
    return InterventionResult(beta_hat=beta_hat, welfare=math.nan,
                              budget_used=used, policy="network-heuristic")


def _psi1_at_types(spec: GraphonSpec, t: np.ndarray, M: int):
    """Dominant kernel eigenfunction at the given points, plus the spectral gap.

    Uses the closed-form spectrum where one exists (constant, block and
    minmax kernels) and the discretized operator otherwise.
    """
    if spec.kind == "er":
        return np.ones_like(t), spec.p
    if spec.kind == "minmax":
        psi = np.sqrt(2.0) * np.sin(np.pi * t)
        return psi, 1.0 / np.pi**2 - 1.0 / (4.0 * np.pi**2)
    if spec.kind == "sbm":
        pairs = sbm_eigen_analytic(spec.Q, spec.w)
        lam1, blocks = pairs[0]
        lam2 = pairs[1][0] if len(pairs) > 1 else 0.0
        return blocks[_sbm_block_index(t, spec.w)], lam1 - lam2
    op = discretize(spec, M)
    pairs = top_k_eigen(op, 2)
    return pairs[0].function.value_at(t), pairs[0].value - pairs[1].value


def graphon_heuristic(spec: GraphonSpec, types: TypeVector, beta: float, C: float,
                      M: int = 1000) -> InterventionResult:
    """Allocate along the dominant kernel eigenfunction evaluated at agent types.

    beta_hat_i = beta + kappa psi1(t_i) with kappa chosen so the budget is
    consumed exactly. Requires no knowledge of the realized network.
    """
    if C < 0.0:
        raise ValueError("budget must be nonnegative")
    t = types.types
    psi_t, gap = _psi1_at_types(spec, t, M)
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
    beta_hat = beta + kappa * psi_t
    used = float(np.sum((beta_hat - beta) ** 2))
    return InterventionResult(beta_hat=beta_hat, welfare=math.nan,
                              budget_used=used, policy="graphon-heuristic")


def _secular_g(mu: float, dc2: np.ndarray, d: np.ndarray) -> float:
    # dc2 holds (d_l c_l)^2, so g(mu) = sum dc2 / (mu - d)^2.
    return float(np.sum(dc2 / (mu - d) ** 2))


def optimal_intervention(P: np.ndarray, alpha: float, beta: float, C: float) -> InterventionResult:
    """Exact welfare-maximizing allocation on the budget sphere.

    In the eigenbasis P/N = U diag(lambda) U^T the problem becomes
    maximize sum d_l y_l^2 over sum (y_l - c_l)^2 <= C, with
    d_l = (1 - alpha lambda_l)^-2 and c = U^T (beta 1). The maximizer sits on
    the sphere and satisfies y_l = mu c_l / (mu - d_l) for a multiplier
    mu > max d_l solving the secular equation
    sum (d_l c_l / (mu - d_l))^2 = C, found by bisection plus Newton polish.
    When every c_l on the top shell vanishes (hard case) the leftover budget
    goes into a top-shell eigenvector directly. The equilibrium of U y is
    U diag(1/(1 - alpha lambda)) y, so the welfare is sum d_l y_l^2 / (2N).
    """
    P = _validate_symmetric(P, "network matrix")
    N = P.shape[0]
    if alpha <= 0.0:
        raise ValueError("planner interventions require strategic complements (alpha > 0)")
    if C < 0.0:
        raise ValueError("budget must be nonnegative")
    lam, U = np.linalg.eigh(P / N)
    _check_contraction(alpha, max(lam[-1], -lam[0]))
    d = 1.0 / (1.0 - alpha * lam) ** 2
    c = U.T @ np.full(N, float(beta))
    if C == 0.0:
        return InterventionResult(beta_hat=np.full(N, float(beta)),
                                  welfare=float(np.sum(d * c**2)) / (2.0 * N),
                                  budget_used=0.0, policy="optimal")

    dc2 = (d * c) ** 2
    d_max = float(d.max())

    lo = d_max * (1.0 + 1e-12)
    if _secular_g(lo, dc2, d) <= C:
        # Hard case: the budget cannot be absorbed through the secular
        # equation because the baseline has no component on the top shell.
        mu = d_max
        shell = d >= d_max * (1.0 - 1e-12)
        safe_denom = np.where(shell, 1.0, mu - d)
        y = np.where(shell, c, mu * c / safe_denom)
        residual = C - float(np.sum((y - c) ** 2))
        j = int(np.argmax(shell))
        y[j] = c[j] + math.sqrt(max(residual, 0.0))
    else:
        hi = d_max * (1.0 + float(np.sum(c**2)) * d_max / C)
        while _secular_g(hi, dc2, d) > C:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _secular_g(mid, dc2, d) > C:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * hi:
                break
        mu = 0.5 * (lo + hi)
        # Newton polish on the constraint residual; g is smooth and strictly
        # decreasing above d_max, so a few steps reach machine accuracy.
        for _ in range(5):
            g_val = _secular_g(mu, dc2, d)
            g_prime = float(np.sum(-2.0 * dc2 / (mu - d) ** 3))
            step = (g_val - C) / g_prime
            mu_new = mu - step
            if not lo * (1.0 - 1e-9) <= mu_new <= hi * (1.0 + 1e-9):
                break
            mu = mu_new
        y = mu * c / (mu - d)

    beta_hat = U @ y
    used = float(np.sum((beta_hat - beta) ** 2))
    return InterventionResult(beta_hat=beta_hat, welfare=float(np.sum(d * y**2)) / (2.0 * N),
                              budget_used=used, policy="optimal", kkt_multiplier=float(mu))


def evaluate_policy(result: InterventionResult, P: np.ndarray, alpha: float) -> InterventionResult:
    """Return a copy of the result with its welfare on the game (P, alpha) filled in."""
    return replace(result, welfare=welfare(P, alpha, result.beta_hat))


def welfare_gap(P_s: SimpleNetwork, spec: GraphonSpec, alpha: float, beta: float, C: float,
                M: int = 1000):
    """Welfare of the two heuristics on the same realized network, and the gap."""
    nh = network_heuristic(P_s.A, beta, C)
    gh = graphon_heuristic(spec, P_s.types, beta, C, M=M)
    T_nh, T_gh = _welfares(P_s.A, alpha, [nh.beta_hat, gh.beta_hat])
    return T_nh, T_gh, abs(T_nh - T_gh)


def result_to_json(result: InterventionResult) -> dict:
    return {
        "beta_hat": np.asarray(result.beta_hat).tolist(),
        "welfare": result.welfare,
        "budget_used": result.budget_used,
        "policy": result.policy,
    }
