"""Nash equilibrium solvers for finite network games and discretized graphon games.

A network game on P and a graphon game discretized on the M-grid are one game
on a normalized operator matrix G: each agent best-responds to the local
aggregate z = G s, with G = P/N for the network and G = K/M for the midpoint
kernel matrix K. ``solve_network(P, payoff)`` and
``solve_graphon(spec, payoff, M)`` build G and hand it to one solver. Under
the contraction condition (lipschitz ratio of the payoff times the spectral
radius rho(G) below one) the best-response map is a Banach contraction, so
the equilibrium is unique and best-response iteration converges
geometrically. For a nonnegative G, rho(G) is lambda_max, the largest
eigenvalue of G; a signed G also needs the largest eigenvalue of -G. Both
come from Lanczos runs (``spectral._lanczos``). The returned
EquilibriumReport carries lambda_max, so bounds do not recompute it.

Linear-quadratic payoffs admit a direct solve of (I - alpha G) s = beta by
Lanczos (CG on the positive definite I - alpha G), for a nonnegative G in
the very run that gives lambda_max. For complements (alpha > 0) the solution
is the interior equilibrium; for substitutes it is accepted only if
nonnegative, otherwise projected best-response iteration takes over. Generic
payoffs always use best-response iteration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractionError, IterationLimitError
from .kernels import GraphonSpec, _validate_symmetric
from .spectral import POWER_MAX_ITER, POWER_TOL, GridFunction, _lanczos, discretize, power_method

__all__ = [
    "LqPayoff",
    "GenericPayoff",
    "EquilibriumReport",
    "local_aggregate",
    "br_lq",
    "contraction_factor",
    "solve_network_lq",
    "solve_network_generic",
    "solve_graphon_lq",
    "solve_graphon_generic",
    "solve_network",
    "solve_graphon",
    "step_function_embed",
    "l2_distance",
    "bound_rho",
    "comparative_statics_bound",
    "lq_s_max",
    "lq_as_generic",
    "matrix_dominant_eigenvalue",
    "report_to_json",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1_000_000
_ACCEPT_NEG = -1e-12
_BISECT_TOL = 1e-12
_BISECT_MAX = 200


@dataclass(frozen=True)
class LqPayoff:
    """Linear-quadratic payoff -s^2/2 + s (alpha z + beta).

    alpha weighs the peer effect (complements if positive, substitutes if
    negative); beta > 0 is the standalone marginal return.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError(f"standalone marginal return must be positive, got {self.beta}")


@dataclass(frozen=True)
class GenericPayoff:
    """Payoff described by its strategy gradient plus regularity constants.

    ``grad_s(s, z)`` must be vectorized over numpy arrays and strictly
    decreasing in s at rate at least ``alpha_U`` (strong concavity);
    ``ell_U`` bounds its sensitivity to the aggregate z. Strategies live in
    the box ``bounds``. The constants are caller-supplied and only
    spot-checked at a few probe points.
    """

    grad_s: object
    alpha_U: float
    ell_U: float
    bounds: tuple[float, float]

    def __post_init__(self):
        if self.alpha_U <= 0.0:
            raise ValueError("strong concavity constant must be positive")
        if self.ell_U < 0.0:
            raise ValueError("aggregate Lipschitz constant must be nonnegative")
        lo, hi = self.bounds
        if not (0.0 <= lo < hi):
            raise ValueError(f"bounds must satisfy 0 <= lo < hi, got {self.bounds}")
        self._spot_check()

    def _spot_check(self):
        lo, hi = self.bounds
        probes_s = np.array([lo, 0.5 * (lo + hi), hi])
        for z in (0.0, 1.0):
            g = np.asarray(self.grad_s(probes_s, np.full(3, z)), dtype=float)
            for i in range(2):
                slope = (g[i + 1] - g[i]) / (probes_s[i + 1] - probes_s[i])
                if slope > -self.alpha_U * (1.0 - 1e-6):
                    raise ValueError(
                        "grad_s is not decreasing in s at the declared rate "
                        f"(slope {slope:.6g} at z={z})"
                    )
        g0 = np.asarray(self.grad_s(probes_s, np.zeros(3)), dtype=float)
        g1 = np.asarray(self.grad_s(probes_s, np.ones(3)), dtype=float)
        if np.max(np.abs(g1 - g0)) > self.ell_U * (1.0 + 1e-6) + 1e-9:
            raise ValueError("grad_s varies in z faster than the declared ell_U")


@dataclass
class EquilibriumReport:
    """Solver output: the profile plus convergence diagnostics.

    ``step_norms`` records the Euclidean norm of successive best-response
    steps (empty on the direct-solve path); their ratios measure the realized
    contraction rate. ``lambda_max`` is the largest eigenvalue of the
    normalized operator G the game was solved on; ``contraction_factor`` is
    the lipschitz ratio times the spectral radius of G, which exceeds
    lambda_max only when G has a dominant negative eigenvalue.
    """

    profile: object
    iterations: int
    residual: float
    contraction_factor: float
    method: str
    step_norms: list = field(default_factory=list)
    lambda_max: float = math.nan

    def profile_array(self) -> np.ndarray:
        if isinstance(self.profile, GridFunction):
            return self.profile.values
        return np.asarray(self.profile)


def local_aggregate(P: np.ndarray, s: np.ndarray) -> np.ndarray:
    """z = (1/N) P s, each agent's network-weighted average of strategies."""
    P = np.asarray(P, dtype=float)
    s = np.asarray(s, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[1] != s.shape[0]:
        raise ValueError(f"dimension mismatch: P {P.shape}, s {s.shape}")
    return P @ s / P.shape[0]


def br_lq(z, p: LqPayoff, hi: float | None = None):
    """Linear-quadratic best response max(0, alpha z + beta), clipped at hi."""
    out = np.maximum(0.0, p.alpha * np.asarray(z, dtype=float) + p.beta)
    if hi is not None:
        out = np.minimum(out, hi)
    return float(out) if np.isscalar(z) else out


def _lipschitz_ratio(payoff) -> float:
    if isinstance(payoff, LqPayoff):
        return abs(payoff.alpha)
    return payoff.ell_U / payoff.alpha_U


def contraction_factor(payoff, lambda_max: float) -> float:
    """The Banach modulus (ell_U / alpha_U) * lambda_max; pass the spectral radius as lambda_max."""
    if lambda_max < 0.0:
        raise ValueError("lambda_max must be nonnegative")
    return _lipschitz_ratio(payoff) * lambda_max


def matrix_dominant_eigenvalue(A: np.ndarray, tol: float = POWER_TOL,
                               max_iter: int = POWER_MAX_ITER) -> float:
    """Largest eigenvalue of a symmetric matrix by Lanczos (``power_method``).

    For the nonnegative matrices arising here this is also the spectral
    radius (Perron), which is what the contraction checks need.
    """
    lam, _ = power_method(A, tol, max_iter)
    return lam


def _check_contraction(ratio: float, rho: float) -> float:
    """The contraction factor q = ratio * rho; raises ContractionError unless q < 1."""
    q = ratio * rho
    if q >= 1.0:
        raise ContractionError(
            q,
            f"contraction violated: lipschitz ratio {ratio:.6g} "
            f"times spectral radius {rho:.6g} gives {q:.6g} >= 1",
        )
    return q


def _br_iterate(br, s0: np.ndarray, tol: float, max_iter: int):
    s = np.asarray(s0, dtype=float)
    step_norms = []
    residuals = []
    for it in range(1, max_iter + 1):
        s_new = br(s)
        diff = s_new - s
        res = float(np.max(np.abs(diff)))
        step_norms.append(float(np.linalg.norm(diff)))
        residuals.append(res)
        s = s_new
        if res <= tol:
            return s, it, res, step_norms
    raise IterationLimitError(
        f"best-response iteration did not reach tol {tol:g} in {max_iter} iterations",
        last_iterate=s,
        residual_history=residuals,
    )


def _br_generic(payoff: GenericPayoff, z: np.ndarray) -> np.ndarray:
    """Best response by monotone bisection of grad_s over the strategy box.

    Strong concavity makes grad_s strictly decreasing in s, so the argmax is
    lo where the gradient is already nonpositive, hi where it is still
    nonnegative, and the unique interior root otherwise.
    """
    lo, hi = payoff.bounds
    z = np.asarray(z, dtype=float)
    g_lo = np.asarray(payoff.grad_s(np.full_like(z, lo), z), dtype=float)
    g_hi = np.asarray(payoff.grad_s(np.full_like(z, hi), z), dtype=float)
    out = np.where(g_lo <= 0.0, lo, np.where(g_hi >= 0.0, hi, np.nan))
    interior = np.isnan(out)
    if np.any(interior):
        zi = z[interior]
        a = np.full_like(zi, lo)
        b = np.full_like(zi, hi)
        for _ in range(_BISECT_MAX):
            mid = 0.5 * (a + b)
            g_mid = np.asarray(payoff.grad_s(mid, zi), dtype=float)
            up = g_mid > 0.0
            a = np.where(up, mid, a)
            b = np.where(up, b, mid)
            if float(np.max(b - a)) <= _BISECT_TOL:
                break
        out[interior] = 0.5 * (a + b)
    return out


def _lq_solve(G: np.ndarray, alpha: float, b) -> np.ndarray:
    """(I - alpha G)^-1 b by Lanczos from b, for use behind the contraction gate."""
    b = np.asarray(b, dtype=float)
    x = _lanczos(G, b, POWER_TOL, POWER_MAX_ITER, alpha, eig=False)[2] if b.any() else 0.0 * b
    if x is None:  # |alpha| rho(G) is one up to round-off
        raise ContractionError(1.0, "I - alpha G is not positive definite")
    return x


def _contraction_gate(G: np.ndarray, ratio: float, alpha: float | None = None):
    """(lambda_max(G), q = ratio * rho(G), x = (I - alpha G)^-1 1 if alpha is given).

    For a nonnegative G, rho is lambda_max and one Lanczos run from all-ones
    gives it and x. A signed G adds lambda_max(-G) and solves for x apart.
    Raises ContractionError unless q < 1, which makes I - alpha G positive definite.
    """
    if G.min() >= 0.0:
        lam, _, x = _lanczos(G, np.ones(len(G)), POWER_TOL, POWER_MAX_ITER, alpha)
        q = _check_contraction(ratio, lam)
    else:
        lam, x = matrix_dominant_eigenvalue(G), None
        q = _check_contraction(ratio, max(lam, matrix_dominant_eigenvalue(-G)))
    if alpha is not None and x is None:
        x = _lq_solve(G, alpha, np.ones(len(G)))
    return lam, q, x


def _solve(G: np.ndarray, payoff, tol: float, max_iter: int, start) -> EquilibriumReport:
    """Equilibrium of the game whose local aggregate is z = G s.

    G is the normalized operator matrix: P/N for a network P, K/M for a
    kernel sampled on the M-grid. LQ payoffs take the Krylov solve of
    (I - alpha G) s = beta from ``_contraction_gate``, accepted for
    complements or when nonnegative; otherwise, and for generic payoffs,
    best-response iteration runs from ``start`` (default: beta for LQ, the
    best response to z = 0 otherwise). The contraction factor uses the
    spectral radius of G.
    """
    lq = isinstance(payoff, LqPayoff)
    lam, q, x = _contraction_gate(G, _lipschitz_ratio(payoff), payoff.alpha if lq else None)
    n = G.shape[0]
    if lq:
        s = payoff.beta * x
        if payoff.alpha > 0.0 or s.min() >= _ACCEPT_NEG:
            s = np.maximum(s, 0.0)
            res = float(np.max(np.abs(s - br_lq(G @ s, payoff))))
            return EquilibriumReport(s, 0, res, q, "direct-solve", [], lam)
        br = lambda sv: br_lq(G @ sv, payoff)
        s0 = np.full(n, payoff.beta) if start is None else start
    else:
        br = lambda sv: _br_generic(payoff, G @ sv)
        s0 = _br_generic(payoff, np.zeros(n)) if start is None else start
    s, iters, res, steps = _br_iterate(br, s0, tol, max_iter)
    return EquilibriumReport(s, iters, res, q, "br-iteration", steps, lam)


def solve_network(P: np.ndarray, payoff, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER, start=None) -> EquilibriumReport:
    """Equilibrium of the game on a square, symmetric, finite network P (aggregate (1/N) P s)."""
    P = _validate_symmetric(P, "network matrix")
    return _solve(P / P.shape[0], payoff, tol, max_iter, start)


def solve_graphon(spec: GraphonSpec, payoff, M: int, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER, start=None) -> EquilibriumReport:
    """Equilibrium of the graphon game discretized on the M-point grid.

    This is the network game of the midpoint kernel matrix; only the profile
    is returned as a GridFunction.
    """
    report = _solve(discretize(spec, M).matrix(), payoff, tol, max_iter, start)
    report.profile = GridFunction(report.profile)
    return report


# Payoff-specific names of the two entry points, kept for existing callers.
solve_network_lq = solve_network_generic = solve_network
solve_graphon_lq = solve_graphon_generic = solve_graphon


def step_function_embed(s) -> GridFunction:
    """Pair agent i with cell i of the uniform N-partition."""
    s = np.asarray(s, dtype=float).reshape(-1)
    if s.shape[0] < 1:
        raise ValueError("profile must have at least one entry")
    return GridFunction(s)


def l2_distance(f: GridFunction, g: GridFunction) -> float:
    """L2 distance of two step functions, integrated over their merged breakpoints."""
    if f.M == g.M:
        return float(np.sqrt(np.mean((f.values - g.values) ** 2)))
    # Breakpoints i / f.M and j / g.M in units of 1 / (f.M g.M), exact integers.
    edges = np.union1d(np.arange(f.M + 1) * g.M, np.arange(g.M + 1) * f.M)
    diff = f.values[edges[:-1] // g.M] - g.values[edges[:-1] // f.M]
    return float(np.sqrt(np.sum(np.diff(edges) * diff**2) / (f.M * g.M)))


def bound_rho(N: int, delta: float, L: float, Omega: int, Ktilde: float):
    """High-probability sampling bounds for equilibrium distances.

    Returns (d_N, rho, bound_weighted, bound_simple) where
    d_N = 1/N + sqrt(8 log(N/delta) / N) is the type-deviation radius,
    rho = 2 sqrt(max(0, (L^2 - Omega^2) d_N^2) + Omega d_N) the operator-norm
    radius, and the two bounds are Ktilde * rho for the weighted game and
    Ktilde * (rho + sqrt(4 log(2N/delta) / N)) for the 0-1 game.

    The (L^2 - Omega^2) d_N^2 term can go negative when Omega > L; it is
    clamped at zero (with a warning), which keeps the expression a valid,
    slightly larger radius.
    """
    if not 0.0 < delta <= math.exp(-1.0):
        raise ValueError(f"delta must lie in (0, e^-1], got {delta}")
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    d_N = 1.0 / N + math.sqrt(8.0 * math.log(N / delta) / N)
    radicand_sq = (L * L - Omega * Omega) * d_N * d_N
    if radicand_sq < 0.0:
        warnings.warn(
            f"(L^2 - Omega^2) d_N^2 = {radicand_sq:.6g} < 0 clamped to 0 "
            f"(L={L}, Omega={Omega}, d_N={d_N:.6g})",
            stacklevel=2,
        )
        radicand_sq = 0.0
    rho = 2.0 * math.sqrt(radicand_sq + Omega * d_N)
    bound_weighted = Ktilde * rho
    bound_simple = Ktilde * (rho + math.sqrt(4.0 * math.log(2.0 * N / delta) / N))
    return d_N, rho, bound_weighted, bound_simple


def comparative_statics_bound(payoff, lambda_max: float, s_max: float) -> float:
    """Sensitivity constant: (ratio * s_max) / (1 - ratio * lambda_max).

    Multiplied by an operator-norm perturbation it bounds the L2 movement of
    the equilibrium.
    """
    ratio = _lipschitz_ratio(payoff)
    return ratio * s_max / (1.0 - _check_contraction(ratio, lambda_max))


def lq_s_max(p: LqPayoff, lambda_max: float) -> float:
    """Box bound on LQ equilibrium strategies, for use inside bound formulas.

    Complements: the Neumann-series supremum beta / (1 - alpha lambda_max).
    Substitutes: best responses never exceed beta.
    """
    if p.alpha > 0.0:
        return p.beta / (1.0 - _check_contraction(p.alpha, lambda_max))
    return p.beta


@dataclass(frozen=True)
class _LqGradient:
    """Strategy gradient beta + alpha z - s of an LQ payoff (picklable for worker pools)."""

    p: LqPayoff

    def __call__(self, s, z):
        return self.p.beta + self.p.alpha * z - s


def lq_as_generic(p: LqPayoff, hi: float) -> GenericPayoff:
    """Encode an LQ payoff as a GenericPayoff with strategy box [0, hi]."""
    return GenericPayoff(
        grad_s=_LqGradient(p),
        alpha_U=1.0,
        ell_U=abs(p.alpha),
        bounds=(0.0, hi),
    )


def report_to_json(report: EquilibriumReport) -> dict:
    return {
        "profile": report.profile_array().tolist(),
        "iterations": report.iterations,
        "residual": report.residual,
        "contraction_factor": report.contraction_factor,
        "method": report.method,
        "lambda_max": report.lambda_max,
    }
