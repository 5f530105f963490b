"""Nash equilibrium solvers for finite network games and discretized graphon games.

A network game on P and a graphon game discretized on the M-grid are one game
on a normalized operator G: each agent best-responds to the local aggregate
z = G s, with G = P/N for the network and G = K/M for the midpoint kernel
matrix K. ``solve_network(P, payoff)`` and ``solve_graphon(spec, payoff, M)``
build G and hand it to one solver, which only applies it: a graphon's G is
its ``DiscretizedOperator``, which never builds the kernel matrix. Under
the contraction condition (lipschitz ratio of the payoff times the spectral
radius rho(G) below one) the best-response map is a Banach contraction, so
the equilibrium is unique and best-response iteration converges
geometrically. For a nonnegative G, rho(G) is lambda_max, the largest
eigenvalue of G; for a signed G it is max(lambda_max, -lambda_min), read
off both ends of one ``spectral._Run`` Lanczos run. The returned
EquilibriumReport carries lambda_max, so bounds do not recompute it.

Linear-quadratic payoffs admit a direct solve of (I - alpha G) s = beta by
Lanczos (CG on the positive definite I - alpha G, which the run's LDL^T
pivots of I - alpha T certify), for a nonnegative G in
the very run that gives lambda_max; a caller that reads no lambda_max (the
distance trial) first runs for x = (I - alpha G)^-1 1 alone, which is the
whole gate where x certifies the contraction (Collatz-Wielandt). It is
the equilibrium, a fixed point of s = max(0, alpha G s + beta), exactly when
it is nonnegative (always for complements on a nonnegative G: s >= beta);
otherwise projected best-response iteration takes over. Generic payoffs
always use best-response iteration.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractionError, IterationLimitError, _check_size
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
        if not (math.isfinite(self.alpha) and 0.0 < self.beta < math.inf):
            raise ValueError(f"need a finite alpha and a positive, finite beta, got {self}")


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
        if not 0.0 < self.alpha_U < math.inf:
            raise ValueError("strong concavity constant must be positive")
        if not 0.0 <= self.ell_U < math.inf:
            raise ValueError("aggregate Lipschitz constant must be nonnegative")
        lo, hi = self.bounds
        if not (0.0 <= lo < hi):
            raise ValueError(f"bounds must satisfy 0 <= lo < hi, got {self.bounds}")
        self._spot_check()

    def _spot_check(self):
        lo, hi = self.bounds
        probes_s = np.array([lo, 0.5 * (lo + hi), hi])
        g0, g1 = (_grad(self, probes_s, np.full(3, z)) for z in (0.0, 1.0))
        for z, g in ((0.0, g0), (1.0, g1)):
            slope = float(np.max(np.diff(g) / np.diff(probes_s)))
            if slope > -self.alpha_U * (1.0 - 1e-6):
                raise ValueError("grad_s is not decreasing in s at the declared rate "
                                 f"(slope {slope:.6g} at z={z})")
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


def _check_lambda(lambda_max: float) -> float:
    """lambda_max, unless it is negative or NaN (which fails the comparison): ValueError."""
    if not lambda_max >= 0.0:
        raise ValueError(f"lambda_max must be nonnegative, got {lambda_max}")
    return lambda_max


def contraction_factor(payoff, lambda_max: float) -> float:
    """The Banach modulus (ell_U / alpha_U) * lambda_max; pass the spectral radius as lambda_max."""
    return _lipschitz_ratio(payoff) * _check_lambda(lambda_max)


def matrix_dominant_eigenvalue(A: np.ndarray, tol: float = POWER_TOL,
                               max_iter: int = POWER_MAX_ITER) -> float:
    """Largest eigenvalue of a symmetric matrix by Lanczos (``power_method``).

    For a nonnegative matrix this is also the spectral radius (Perron); the
    contraction gate reads a signed one's from both ends of one run.
    """
    return power_method(A, tol, max_iter)[0]


def _check_contraction(ratio: float, rho: float) -> float:
    """The contraction factor q = ratio * rho; raises ContractionError unless q < 1 (NaN too)."""
    q = ratio * rho
    if not q < 1.0:
        raise ContractionError(
            q,
            f"contraction violated: lipschitz ratio {ratio:.6g} "
            f"times spectral radius {rho:.6g} gives {q:.6g} >= 1",
        )
    return q


def _br_iterate(br, s0: np.ndarray, tol: float, max_iter: int):
    """(s, iterations, residual, step norms) at the first s with residual max |br(s) - s| <= tol."""
    s = np.array(s0, dtype=float)
    step_norms = []
    residuals = []
    for it in range(1, max_iter + 1):
        s_new = br(s)
        diff = s_new - s
        res = float(np.max(np.abs(diff)))
        step_norms.append(float(np.linalg.norm(diff)))
        residuals.append(res)
        if res <= tol:
            return s, it, res, step_norms
        s = s_new
    raise IterationLimitError(
        f"best-response iteration did not reach tol {tol:g} in {max_iter} iterations",
        last_iterate=s,
        residual_history=residuals,
    )


def _grad(payoff: GenericPayoff, s: np.ndarray, z: np.ndarray) -> np.ndarray:
    g = np.asarray(payoff.grad_s(s, z), dtype=float)
    if not np.isfinite(g).all():
        raise ValueError(f"grad_s is not finite at some s in [{s.min():.17g}, {s.max():.17g}]")
    return g


def _br_generic(payoff: GenericPayoff, z: np.ndarray) -> np.ndarray:
    """Best response by Chandrupatla's bracketed method on grad_s over the strategy box.

    Strong concavity makes grad_s strictly decreasing in s, so the argmax is lo where the
    gradient is already nonpositive, hi where it is still nonnegative, and else the root in
    its bracket [a, b]. Inverse quadratic interpolation or bisection, each step at least
    tol / 2 inside, shrinks that to tol = ``_BISECT_TOL`` plus 4 ulps (Chandrupatla, Adv.
    Eng. Software 28, 1997), and its midpoint is returned; a bracket still open after
    ``_BISECT_MAX`` steps raises IterationLimitError.
    """
    lo, hi = payoff.bounds
    z = np.asarray(z, dtype=float)
    g_lo, g_hi = (_grad(payoff, np.full_like(z, v), z) for v in (lo, hi))
    out = np.where(g_lo <= 0.0, lo, np.where(g_hi >= 0.0, hi, np.nan))
    interior = np.isnan(out)
    if not interior.any():
        return out
    zi = z[interior]  # a is the newest point, c the one last dropped from the bracket
    a, b, t = np.full_like(zi, hi), np.full_like(zi, lo), 0.5
    fa, fb = g_hi[interior], g_lo[interior]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_BISECT_MAX):
            fx = _grad(payoff, x := a + t * (b - a), zi)
            kept = (fx > 0.0) == (fa > 0.0)  # the root lies in [x, b], else in [x, a]
            c, fc = np.where(kept, a, b), np.where(kept, fa, fb)
            a, fa, b, fb = x, fx, np.where(kept, b, a), np.where(kept, fb, fa)
            b = np.where(fa == 0.0, a, b)  # a root hit exactly closes its bracket
            width, tol = np.abs(b - a), _BISECT_TOL + 4.0 * np.spacing(np.abs(a))
            if (width <= tol).all():
                out[interior] = 0.5 * (a + b)
                return out
            xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
            t = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi),
                         fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa)
                         * fb / (fc - fb), 0.5)
            # a closed bracket steps to its own a (t = 0), which keeps it as it is
            t = np.where(width <= tol, 0.0, np.clip(t, 0.5 * tol / width, 1.0 - 0.5 * tol / width))
    raise IterationLimitError(f"a best response's bracket is still open after {_BISECT_MAX} steps")


def _definite(x):
    """x, unless the run that read it found I - alpha G indefinite (x None): ContractionError."""
    if x is None:  # |alpha| rho(G) is one up to round-off
        raise ContractionError(1.0, "I - alpha G is not positive definite")
    return x


def _lq_solve(G, alpha: float, b) -> np.ndarray:
    """(I - alpha G)^-1 b by the O(1) solve of a Lanczos run from b, behind the gate."""
    b = np.asarray(b, dtype=float)
    return _definite(_lanczos(G, b, alpha=alpha)[2]) if b.any() else 0.0 * b


def _collatz_wielandt(G, ratio: float, x):
    """lam_bar = max(G x / x) if x > 0 and ratio * lam_bar < 1, else None.

    For G >= 0 and any x > 0, rho(G) <= lam_bar (Horn & Johnson 8.1), so ratio * rho(G) < 1.
    """
    lam_bar = float(np.max(G @ x / x)) if x.min() > 0.0 else math.inf
    return lam_bar if ratio * lam_bar < 1.0 else None


def _contraction_gate(G, nonneg: bool, ratio: float, alpha: float | None = None,
                      lam_wanted: bool = True):
    """(lambda_max(G), q = ratio * rho(G), x = (I - alpha G)^-1 1 if alpha is given).

    Unless ``lam_wanted`` (G nonneg, alpha given), x alone is read from 1 as ``_lq_solve``
    reads it: if ``_collatz_wielandt`` certifies there, q = ratio * lam_bar, lambda_max NaN.
    Else a ``nonneg`` G's rho is lambda_max, read with x (the same bits) by one run from 1; a
    signed G reads rho off both ends of one ``radius`` run from ``power_method``'s start, and
    x apart, from 1. Raises ContractionError unless q < 1, or if I - alpha G is indefinite.
    """
    if nonneg:
        x = None if lam_wanted else _lanczos(G, np.ones(len(G)), alpha=alpha)[2]
        if x is not None and (lam_bar := _collatz_wielandt(G, ratio, x)) is not None:
            return math.nan, ratio * lam_bar, x
        lam, _, x = _lanczos(G, np.ones(len(G)), POWER_TOL, alpha=alpha)
        q = _check_contraction(ratio, lam)
    else:
        start = np.random.default_rng(0).standard_normal(len(G))
        lam, rho, _ = _lanczos(G, start, POWER_TOL, radius=True)
        q = _check_contraction(ratio, rho)
        x = None if alpha is None else _lanczos(G, np.ones(len(G)), alpha=alpha)[2]
    return lam, q, x if alpha is None else _definite(x)


def _solve(G, nonneg: bool, payoff, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
           start=None, lam_wanted: bool = True) -> EquilibriumReport:
    """Equilibrium of the game whose local aggregate is z = G s.

    G is P/N for a network P or the ``DiscretizedOperator`` K/M of a kernel
    on the M-grid, ``nonneg`` as in ``_contraction_gate``. LQ payoffs take
    the Krylov solve of (I - alpha G) s = beta from ``_contraction_gate``,
    accepted when it is nonnegative (to ``_ACCEPT_NEG``), which makes it a
    fixed point of the best response; otherwise, and for generic payoffs,
    best-response iteration runs from ``start`` (default: beta for LQ, the
    best response to z = 0 otherwise), a contraction behind the gate. The
    contraction factor uses the spectral radius of G, or unless ``lam_wanted``
    possibly a bound on it with lambda_max NaN (``_contraction_gate``). A tol, max_iter or
    start (n finite values) out of range raises ValueError before any solve.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    max_iter, n = _check_size(max_iter, "max_iter", 1), len(G)
    if start is not None and not (np.shape(start) == (n,) and np.isfinite(start).all()):
        raise ValueError(f"start must be {n} finite values, got shape {np.shape(start)}")
    lq = isinstance(payoff, LqPayoff)
    lam, q, x = _contraction_gate(G, nonneg, _lipschitz_ratio(payoff),
                                  payoff.alpha if lq else None, lam_wanted)
    if lq:
        s = payoff.beta * x
        if s.min() >= _ACCEPT_NEG:
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
    return _solve(P / P.shape[0], P.min() >= 0.0, payoff, tol, max_iter, start)


def solve_graphon(spec: GraphonSpec, payoff, M: int, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER, start=None) -> EquilibriumReport:
    """Equilibrium of the graphon game discretized on the M-point grid.

    This is the network game of the midpoint kernel matrix (nonnegative, as
    kernels lie in [0, 1]); only the profile is returned as a GridFunction.
    """
    report = _solve(discretize(spec, M), True, payoff, tol, max_iter, start)
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


@functools.lru_cache(maxsize=1)
def _merged_cells(m: int, n: int) -> np.ndarray:
    """Read-only rows: the m-grid and n-grid cell of each cell between merged breakpoints, and
    its width in units of 1 / (m n). A trial's distances to one limit share the one entry."""
    # Breakpoints i / m and j / n in units of 1 / (m n), exact integers.
    # Both runs are sorted, so a stable sort (timsort) merges them in one pass.
    edges = np.sort(np.concatenate((np.arange(m + 1) * n, np.arange(n + 1) * m)), kind="stable")
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    cells = np.stack((edges[:-1] // n, edges[:-1] // m, np.diff(edges)))
    cells.flags.writeable = False
    return cells


def l2_distance(f: GridFunction, g: GridFunction) -> float:
    """L2 distance of two step functions over their merged breakpoints (equal grids too)."""
    fi, gi, widths = _merged_cells(f.M, g.M)
    diff = f.values[fi] - g.values[gi]
    return float(np.sqrt(np.sum(widths * diff**2) / (f.M * g.M)))


def bound_rho(N: int, delta: float, L: float, Omega: int, Ktilde: float):
    """High-probability sampling bounds for equilibrium distances.

    Returns (d_N, rho, bound_weighted, bound_simple) where
    d_N = 1/N + sqrt(8 log(N/delta) / N) is the type-deviation radius,
    rho = 2 sqrt(max(0, (L^2 - Omega^2) d_N^2) + Omega d_N) the operator-norm
    radius, and the two bounds are Ktilde * rho for the weighted game and
    Ktilde * (rho + sqrt(4 log(2N/delta) / N)) for the 0-1 game.

    The (L^2 - Omega^2) d_N^2 term can go negative when Omega > L; it is
    clamped at zero (with a warning), which keeps the expression a valid,
    slightly larger radius. N >= 2 and Omega >= 0 are integers, L and Ktilde
    finite and nonnegative: anything else raises ValueError.
    """
    if not 0.0 < delta <= math.exp(-1.0):
        raise ValueError(f"delta must lie in (0, e^-1], got {delta}")
    N, Omega = _check_size(N, "N", 2), _check_size(Omega, "Omega", 0)
    if not (0.0 <= L < math.inf and 0.0 <= Ktilde < math.inf):
        raise ValueError(f"L and Ktilde must be nonnegative and finite, got {L} and {Ktilde}")
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
    the equilibrium. A NaN, infinite or negative s_max, or a NaN or negative lambda_max,
    raises ValueError.
    """
    if not 0.0 <= s_max < math.inf:
        raise ValueError(f"s_max must be finite and nonnegative, got {s_max}")
    ratio = _lipschitz_ratio(payoff)
    return ratio * s_max / (1.0 - _check_contraction(ratio, _check_lambda(lambda_max)))


def lq_s_max(p: LqPayoff, lambda_max: float) -> float:
    """Box bound on LQ equilibrium strategies, for use inside bound formulas.

    Complements: the Neumann-series supremum beta / (1 - alpha lambda_max).
    Substitutes: best responses never exceed beta. A NaN or negative lambda_max: ValueError.
    """
    _check_lambda(lambda_max)
    if p.alpha > 0.0:
        return p.beta / (1.0 - _check_contraction(p.alpha, lambda_max))
    return p.beta


@dataclass(frozen=True)
class _LqGradient:
    """Strategy gradient beta + alpha z - s of an LQ payoff (a class, so a payoff pickles)."""

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
