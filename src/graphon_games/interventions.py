"""Planner interventions on standalone marginal returns.

The planner spends a budget C to shift each agent's standalone return from
beta to beta_hat_i, subject to sum (beta - beta_hat_i)^2 <= C, and wants to
maximize average welfare T = (1/(2N)) sum s_i^2 at the resulting equilibrium.
The planner's domain is the source paper's: complements (alpha > 0), a
nonnegative network and beta >= 0. There the equilibrium is the interior
linear response (I - alpha G)^-1 beta_hat (Ballester, Calvo-Armengol & Zenou
2006); elsewhere that can go negative, and every policy raises ValueError.

Policies:
  homogeneous        equal split, beta_hat = beta + sqrt(C/N)
  network-heuristic  budget along the dominant eigenvector of the realized network
  graphon-heuristic  budget along the dominant kernel eigenfunction at the agent types
  optimal            exact maximizer via the secular equation on the Lanczos basis from
                     the all-ones vector, certified in full space or exact at the
                     run's end; sqrt(C) v1 at beta = 0

``_policies`` is the one routine that puts policies together, in the order of
``POLICIES``: it requires complements, builds the allocations and reads every
welfare off one ``_welfares`` call, whose Lanczos run gates the game and gives
v1 and the welfare of the network heuristic and of any constant allocation.
Networks are checked where they enter the public functions, not in ``_policies``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import (_check_contraction, _collatz_wielandt, _contraction_gate, _definite,
                          _lq_solve)
from .errors import _check_size
from .kernels import GraphonSpec, _check_unit_interval, _validate_symmetric
from .sampling import SimpleNetwork, TypeVector
from .spectral import (
    POWER_MAX_ITER,
    POWER_TOL,
    _Run,
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
    "POLICIES",
    "result_to_json",
]

POLICIES = ("none", "homogeneous", "network", "graphon", "optimal")
_GAP_WARN = 1e-10
_ALLOCATION_FLOOR = 1e-9  # of max |beta_hat|; a Perron vector's round-off reaches 1e-12 of it


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

    That is the equilibrium in the planner's domain; on any other game s may go negative.
    Any symmetric P passes ``_contraction_gate`` before the solve from beta_hat, which must
    be N finite values (else ValueError)."""
    P = _validate_symmetric(P, "network matrix")
    if not (np.shape(beta_hat) == (len(P),) and np.isfinite(beta_hat).all()):
        raise ValueError(f"beta_hat must be {len(P)} finite values, got shape {np.shape(beta_hat)}")
    G = P / len(P)
    _contraction_gate(G, P.min() >= 0.0, abs(alpha))
    return float(np.sum(_lq_solve(G, alpha, beta_hat) ** 2) / (2.0 * len(G)))


def _welfares(G: np.ndarray, alpha: float, allocations, beta: float = 0.0,
              C: float = 0.0, nh: bool = False, opt: bool = False):
    """(welfares, v1, optimum) of the game on a nonnegative G = A/N.

    ``welfares``: of each allocation, then with ``nh`` of the network heuristic beta 1 +
    sqrt(C) v1. With ``opt``, ``optimum`` is (beta_hat, mu, T_opt): beta 1 at C = 0,
    sqrt(C) v1 with mu = (1 - alpha lam)^-2 at beta = 0, else the projection below. One
    ``_Run`` from 1 serves all, each step asked only what is open: x1 = (I - alpha G)^-1 1
    by its O(1) solve (a constant allocation scales it); the pair (lam, v1) by ``top()``,
    gated by ``_check_contraction``; from the step it settles, ``eig()`` for the heuristic's
    allocation, solved in the basis, and the optimum on K(G, 1): beta_hat = Q^T z, z = S y,
    by ``_secular_solve`` on d = (1 - alpha theta)^-2, c = beta sqrt(N) S[0] and C (GLTR,
    Gould et al. 1999), response s = Q^T u, u = (I - alpha T)^-1 z, residual alpha beta_k
    |u_k|, at the first settled step with beta_k |z_k| <= 1e-13 ||z|| that ``_certified``
    accepts (on lam_bar at v1, computed once), else at ``end``, where K(G, 1) holds a top
    eigenvector (Perron-Frobenius) and so the optimum. T_opt = ||s||^2 / (2N) is within
    1e-12 of ``welfare``. A run that turns I - alpha T indefinite, even after x1 is read, ends
    with ContractionError after its loop (so |alpha| rho(G) >= 1, by interlacing).
    """
    n = len(G)
    T = lambda s: float(np.sum(s**2) / (2.0 * n))
    run = _Run(G, np.ones(n), alpha)
    lam = v1 = c_nh = s_nh = x1 = found = None
    project = opt and beta > 0.0 and C > 0.0
    while True:
        run.step()
        x1 = (run.solve() if x1 is None else x1) if run.definite else None  # None once indefinite
        if v1 is None and run.settled(POWER_TOL):
            lam, v1 = run.pair()
            _check_contraction(abs(alpha), lam)
            if nh:  # the heuristic's allocation lies in the basis: solve from its coordinates
                c_nh = run.Q[:run.k] @ (beta + math.sqrt(C) * v1)
            if project:
                x = np.abs(v1)
                lam_bar = _collatz_wielandt(G, alpha, np.maximum(x, 1e-8 * x.max()))
        if c_nh is not None and s_nh is None and run.definite:
            s_nh = run.solve(c_nh)
        if project and run.settled(POWER_TOL):
            theta, S = run.eig()
            d = 1.0 - alpha * theta
            mu, y = _secular_solve(1.0 / _definite(d if run.definite else None) ** 2,
                                   beta * math.sqrt(n) * S[0], C)
            z, u = S @ y, S @ (y / d)
            Q, b_k = run.Q[:run.k], run.b[-1]
            if run.end or (b_k * abs(z[-1]) <= 1e-13 * np.linalg.norm(z) and _certified(
                    G, alpha, beta, C, z @ Q, mu, lam_bar, u @ Q, alpha * b_k * abs(u[-1]))):
                project, found = False, (z @ Q, float(mu), T(u @ Q))
        if v1 is not None and not project and (
                not run.definite or (x1 is not None and (s_nh is not None or c_nh is None))):
            break
    run.stop()
    x1 = _definite(x1)
    sols = [b[0] * x1 if b.shape == x1.shape and np.all(b == b[0]) else _lq_solve(G, alpha, b)
            for b in map(np.asarray, allocations)]
    if nh:
        sols.append(s_nh)
    if opt and C == 0.0:
        found = np.full(n, float(beta)), None, T(float(beta) * x1)
    elif opt and beta == 0.0:
        mu = (1.0 - alpha * lam) ** -2
        found = math.sqrt(C) * v1, mu, C * mu / (2.0 * n)
    return [T(s) for s in sols], v1, found


def _check_params(beta: float, C: float = 0.0) -> None:
    """Require a nonnegative, finite beta and budget; NaN fails both comparisons."""
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and nonnegative, got {beta}")
    if not 0.0 <= C < math.inf:
        raise ValueError(f"budget must be nonnegative and finite, got {C}")


def _check_complements(alpha: float) -> None:
    """Require complements, alpha > 0 (NaN fails it): else the linear response is no equilibrium."""
    if not alpha > 0.0:
        raise ValueError("planner interventions require strategic complements (alpha > 0)")


def _check_network(P) -> np.ndarray:
    """The validated network P, which the planner requires nonnegative."""
    P = _validate_symmetric(P, "network matrix")
    if P.min() < 0.0:
        raise ValueError("planner interventions require a nonnegative network matrix")
    return P


def no_intervention(beta: float, N: int) -> InterventionResult:
    _check_params(beta)
    return _result(np.full(_check_size(N, "N", 1), float(beta)), beta, "none")


def homogeneous_policy(beta: float, C: float, N: int) -> InterventionResult:
    """Split the budget equally: beta_hat = beta + sqrt(C/N) for everyone."""
    _check_params(beta, C)
    N = _check_size(N, "N", 1)
    return _result(np.full(N, beta + math.sqrt(C / N)), beta, "homogeneous")


def network_heuristic(P: np.ndarray, beta: float, C: float) -> InterventionResult:
    """Allocate along the dominant eigenvector: beta_hat = beta + sqrt(C) v1."""
    _check_params(beta, C)
    P = _check_network(P)
    v1 = power_method(P / len(P), POWER_TOL, POWER_MAX_ITER)[1]
    return _result(beta + math.sqrt(C) * v1, beta, "network-heuristic")


def graphon_heuristic(spec: GraphonSpec, types: TypeVector, beta: float,
                      C: float) -> InterventionResult:
    """Allocate along the dominant kernel eigenfunction evaluated at agent types.

    beta_hat_i = beta + kappa psi1(t_i), kappa spending the budget exactly, with
    psi1 exact for every kernel family; no knowledge of the realized network.
    Types outside [0, 1], or NaN, raise ValueError.
    """
    _check_params(beta, C)
    _check_unit_interval(types.types, "types")
    psi_t, gap = spec._family.psi1(types.types)
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


def _certified(G: np.ndarray, alpha: float, beta: float, C: float, beta_hat: np.ndarray,
               mu: float, lam_bar: float | None, s: np.ndarray, r: float) -> bool:
    """Whether the projected optimum beta_hat, with its basis response s, holds in full space.

    r is the norm of the residual (I - alpha G) s - beta_hat, and lam_bar >= rho(G) the
    Collatz-Wielandt bound max_i (G x)_i / x_i at x = max(|v1|, 1e-8 max |v1|) (G >= 0,
    any x > 0), None unless alpha lam_bar < 1 (``_collatz_wielandt``), which rejects. With
    delta = beta_hat - beta and gap = 1 - alpha lam_bar: mu >= gap^-2, which makes the
    maximum global, also in a hard case of the projected problem; r / gap <= 1e-13 ||s||,
    which bounds the error of s; KKT s = mu (I - alpha G) delta to 1e-10 ||s||;
    ||delta||^2 = C to 1e-10 C.
    """
    if lam_bar is None:
        return False
    delta = beta_hat - beta
    gap, s_norm = 1.0 - alpha * lam_bar, np.linalg.norm(s)
    return bool(mu >= gap**-2 and r <= 1e-13 * gap * s_norm
                and np.linalg.norm(s - mu * (delta - alpha * (delta @ G))) <= 1e-10 * s_norm
                and abs(delta @ delta - C) <= 1e-10 * C)


def _policies(G: np.ndarray, spec: GraphonSpec | None, types: TypeVector | None,
              alpha: float, beta: float, C: float, names) -> dict:
    """{name: InterventionResult} with its welfare, for "none" and ``names``, in POLICIES order.

    The game on a nonnegative G = A/N, trusted and not scanned, with
    complements (alpha > 0; NaN fails it) and beta >= 0 required. One
    ``_welfares`` call gates the game and fills in every welfare: of the
    allocations none, homogeneous and graphon (which reads ``spec`` at
    ``types``), of the network heuristic beta + sqrt(C) v1, and the optimum.
    """
    _check_complements(alpha)
    _check_params(beta, C)
    n = len(G)
    given = {"none": no_intervention(beta, n)}
    if "homogeneous" in names:
        given["homogeneous"] = homogeneous_policy(beta, C, n)
    if "graphon" in names:
        given["graphon"] = graphon_heuristic(spec, types, beta, C)
    Ts, v1, opt = _welfares(G, alpha, [r.beta_hat for r in given.values()], beta, C,
                            nh="network" in names, opt="optimal" in names)
    for r, T in zip(given.values(), Ts):
        r.welfare = T
    if "network" in names:
        given["network"] = _result(beta + math.sqrt(C) * v1, beta, "network-heuristic", Ts[-1])
    if "optimal" in names:
        given["optimal"] = _result(opt[0], beta, "optimal", opt[2], opt[1])
    return {name: given[name] for name in POLICIES if name in given}


def optimal_intervention(P: np.ndarray, alpha: float, beta: float, C: float) -> InterventionResult:
    """Exact welfare-maximizing allocation on the budget sphere.

    In the eigenbasis G = P/N = U diag(lambda) U^T the problem is
    ``_secular_solve`` on d_l = (1 - alpha lambda_l)^-2 and c = U^T (beta 1);
    C = 0 leaves beta 1. As c sees G only through 1, the maximizer lies in
    K(G, 1): for beta > 0, ``_welfares`` finds it on the basis of the Lanczos
    run from 1 that gates the game, from the step where its top pair settles
    (its first full eigendecomposition of T), and reads its welfare there,
    within 1e-12 relative of ``welfare``'s. At beta = 0 (the hard case
    c = 0) it is sqrt(C) v1. Both agree with a dense eigendecomposition on
    T_opt to 1e-12 relative. P must be nonnegative.
    """
    P = _check_network(P)
    return _policies(P / len(P), None, None, alpha, beta, C, ("optimal",))["optimal"]


def evaluate_policy(result: InterventionResult, P: np.ndarray, alpha: float) -> InterventionResult:
    """A copy of the result with its welfare on the game (P, alpha), in the planner's domain.

    beta_hat must be nonnegative up to a Perron vector's round-off, ``_ALLOCATION_FLOOR``."""
    _check_complements(alpha)
    P = _check_network(P)
    b = np.asarray(result.beta_hat, dtype=float)
    if not b.min() >= -_ALLOCATION_FLOOR * np.abs(b).max():
        raise ValueError("planner interventions require a nonnegative allocation beta_hat")
    return replace(result, welfare=welfare(P, alpha, b))


def welfare_gap(P_s: SimpleNetwork, spec: GraphonSpec, alpha: float, beta: float, C: float):
    """T_nh, T_gh and their gap on one realized network; neither asks for a resolution."""
    A = _check_network(P_s.A)
    res = _policies(A / len(A), spec, P_s.types, alpha, beta, C, ("network", "graphon"))
    T_nh, T_gh = res["network"].welfare, res["graphon"].welfare
    return T_nh, T_gh, abs(T_nh - T_gh)


def result_to_json(result: InterventionResult) -> dict:
    return {
        "beta_hat": np.asarray(result.beta_hat).tolist(),
        "welfare": result.welfare,
        "budget_used": result.budget_used,
        "policy": result.policy,
    }
