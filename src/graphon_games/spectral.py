"""Discretized kernel operators and their spectra.

The integral operator f -> int W(., y) f(y) dy is discretized by midpoint
collocation on the uniform M-grid: the kernel is sampled at cell midpoints
and the quadrature weight is 1/M. This preserves symmetry exactly and is
exact for step-function kernels aligned with the grid.

Solves, the dominant eigenpair, Bayes aggregates and ``operator_distance``
only apply the operator (``DiscretizedOperator.at``), never the kernel
matrix: minmax by prefix and suffix sums, a step kernel (constant, block,
grid) by Q/M times block sums. At a grid's own cell count each block holds
one midpoint and Q/M is P/N, so it solves exactly as its network. Read at a
sampled network's sorted types in place of the midpoints, with a zero
diagonal, the same sums apply the weighted network's P/N without P. Top-k
spectra need neither: both kernel families have exact discretized spectra
(see ``top_k_eigen``). The product and the spectra are each family's own
(``at`` and ``top_k`` of the spec's ``_family``, in ``kernels``); this module
wraps them and never tests the kind. Every Krylov solve and eigenpair is one
``_Run``, a Lanczos run that reads each step only what its caller still asks
for.

Functions on the grid are step functions; their L2 norm is
sqrt(mean(values**2)), so a vector with unit L2 norm has Euclidean norm
sqrt(M).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IterationLimitError, _check_size
from .kernels import (GraphonSpec, _cell_index, _check_unit_interval, _orient, evaluate, midpoints,
                      sbm_eigen_analytic)

__all__ = [
    "GridFunction",
    "DiscretizedOperator",
    "EigenPair",
    "midpoints",
    "discretize",
    "apply",
    "power_method",
    "dominant_eigenpair",
    "top_k_eigen",
    "sbm_eigen_analytic",
    "minmax_eigen_analytic",
    "operator_distance",
]

POWER_TOL = 1e-13
POWER_MAX_ITER = 100_000
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Piecewise-constant function on the uniform M-cell partition of [0,1]."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float).reshape(-1))

    @property
    def M(self) -> int:
        return self.values.shape[0]

    def l2_norm(self) -> float:
        return float(np.sqrt(np.mean(self.values**2)))

    def value_at(self, x):
        """Evaluate the step function at points x in [0, 1]; others raise ValueError."""
        xa = np.asarray(x, dtype=float)
        _check_unit_interval(xa, "point x")
        out = self.values[_cell_index(xa, self.M)]
        return float(out) if np.isscalar(x) else out

    def to_json(self) -> list:
        return self.values.tolist()

    @classmethod
    def from_json(cls, doc) -> "GridFunction":
        return cls(np.asarray(doc, dtype=float))

    def write_csv(self, path) -> None:
        """Plot-ready (grid midpoint, value) rows."""
        from .experiments import _write_csv  # experiments imports this module
        _write_csv(path, "midpoint,value", [midpoints(self.M), self.values])


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Midpoint-collocation operator of a kernel at resolution M.

    ``op.at(x, s)`` is (1/M) sum_j W(x, m_j) s_j for a grid vector s at any x
    in [0, 1], an array of x giving the bits of its scalar calls; ``op @ s`` is
    ``at`` at the midpoints, (1/M) * kernel_matrix @ s. ``kernel_matrix`` is
    built on first use.

    With ``_types``, M sorted sampled types t, it is instead the weighted
    sampled network's operator P/M, P_ij = W(t_i, t_j) with a zero diagonal:
    the nodes are the types, and ``op @ s`` drops each node's own term
    (``at`` keeps every term). M must be an integer >= 1, else ValueError.
    """

    spec: GraphonSpec
    M: int
    _types: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):  # the family's reads assume M >= 1 ascending nodes in [0, 1]
        object.__setattr__(self, "M", _check_size(self.M, "resolution M", 1))
        if self._types is not None:
            t = np.asarray(self._types, dtype=float)
            _check_unit_interval(t, "types")
            if t.shape != (self.M,) or (t[1:] < t[:-1]).any():
                raise ValueError(f"types must be M={self.M} ascending points, shape {t.shape}")
            object.__setattr__(self, "_types", t)

    @property
    def _nodes(self) -> np.ndarray:  # the midpoints are made per use: none are kept
        return midpoints(self.M) if self._types is None else self._types

    @functools.cached_property
    def kernel_matrix(self) -> np.ndarray:
        t = self._nodes
        K = np.asarray(evaluate(self.spec, t[:, None], t[None, :]), dtype=float)
        if self._types is not None:
            np.fill_diagonal(K, 0.0)
        return K

    @functools.cached_property
    def _runs(self):  # a step kernel's Q/M and its runs of nodes, which its family reads
        return self.spec._family.runs(self._nodes, self.M)

    def __len__(self) -> int:
        return self.M

    def matrix(self) -> np.ndarray:
        """The matrix (1/M) * kernel_matrix actually applied to grid vectors."""
        return self.kernel_matrix / self.M

    def __matmul__(self, s) -> np.ndarray:
        return self._at(None, s)

    def at(self, x, s):
        """``op @ s`` read at points x in [0, 1]; a scalar x gives a float."""
        x = np.asarray(x, dtype=float)
        _check_unit_interval(x, "point x")
        out = self._at(x, s)
        return float(out) if out.ndim == 0 else out

    def _at(self, x, s) -> np.ndarray:  # x None: at the nodes, whose runs are known
        s = np.asarray(s, dtype=float)
        if s.shape != (self.M,):
            raise ValueError(f"resolution mismatch: operator M={self.M}, operand {s.shape}")
        return self.spec._family.at(self, x, s)


@dataclass(frozen=True, eq=False)
class EigenPair:
    value: float
    function: GridFunction

    def to_json(self) -> dict:
        return {"value": self.value, "function": self.function.to_json()}


def discretize(spec: GraphonSpec, M: int) -> DiscretizedOperator:
    """The kernel's operator on the M x M grid of cell midpoints (M an integer >= 2)."""
    return DiscretizedOperator(spec, _check_size(M, "resolution M", 2))


def apply(op: DiscretizedOperator, f: GridFunction) -> GridFunction:
    """Apply the discretized operator: (1/M) * kernel_matrix @ f."""
    return GridFunction(op @ f.values)


def _top(a: list, b: list, lam: float, tol: float | None):
    """(theta_max, |s_k|) of the Jacobi matrix T with diagonal a and off-diagonal b[:k - 1].

    Newton from lam <= theta_max on 1 / e_1^T (T - l)^-1 e_1, convex and decreasing from
    the top eigenvalue of T[1:, 1:] to its root theta_max (Golub & Van Loan, 4th ed., 8.4),
    until a step is at most tol. Each solves (T - l) u = gamma e_1 upwards from u_k = 1,
    O(k), and gives s_k = 1 / ||u||. A step down past tol shows lam below that eigenvalue:
    ``np.linalg.eigvalsh`` then gives theta_max (tol None: lam is exact)."""
    for _ in range(60):
        u, u_next, ss = 1.0, 0.0, 1.0
        for i in range(len(a) - 1, 0, -1):
            u, u_next = ((lam - a[i]) * u - b[i] * u_next) / b[i - 1], u
            ss += u * u
        step = ((a[0] - lam) * u + b[0] * u_next) * u / ss
        if tol is None or abs(step) <= tol:
            return lam + (0.0 if tol is None else step), 1.0 / math.sqrt(ss)
        if step < 0.0:
            break
        lam += step
    return _top(a, b, float(np.linalg.eigvalsh(_tridiagonal(a, b))[-1]), None)


def _tridiagonal(a: list, b: list) -> np.ndarray:
    b = b[:len(a) - 1]
    return np.diag(a) + np.diag(b, 1) + np.diag(b, -1)


class _Run:
    """Lanczos with full reorthogonalization from q (Golub & Van Loan, ch. 10-11), a step a call.

    ``step()`` applies A once, appending q_k to ``Q`` (a buffer that doubles when full),
    alpha_k to ``a`` and beta_k to ``b``: T_j = Q_j A Q_j^T has diagonal a[:j], off-diagonal
    b[:j - 1]. ``end``: invariant (beta_k <= eps max |T|) or R^n. Non-finite: ValueError.
    ``solve()`` is D-Lanczos (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed.,
    6.7): O(1) a step, the LDL^T pivots d_j of I - alpha T and z = L^-1 e_1, ``definite``
    while all are positive (Sylvester). x = ||q|| Q^T y, (I - alpha T) y = e_1, is formed
    once, at ``end`` or at |alpha| beta_k |y_k| <= eps min_j d_j y_1, y_k = z_k / d_k: the
    least pivot >= min(1 - alpha theta) stands for that least eigenvalue and y_1 = sum_j
    z_j^2 / d_j <= ||y|| for ||y||. ``solve(c)``: Q^T y, (I - alpha T) y = c, by ``eig()``
    and the rule on min(1 - alpha theta) and ||y||. The rest read T_k at the current step:
    ``top(end)``: theta_max, |s_k| (end -1: of -T_k, so -theta_min) by ``_top`` from T_k's
    top eigenvalue on span{(T_(k-1)'s top vector, 0), e_k}, steps walked in order, each end
    on its own. ``settled(tol, end)``: beta_k |s_k| <= tol max(1, |theta|) or ``end``;
    ``pair()`` then reads the top Ritz pair from ``eig()``, (theta, S) of T_k by ``eigh``,
    cached per step. Counters: ``k``, ``residual`` (the last beta_k |s_k|), ``reason``.
    """

    def __init__(self, A, q: np.ndarray, alpha: float | None = None):
        self.A, self.n, self.alpha, self.scale = A, len(q), alpha, math.sqrt(q.dot(q))
        self.Q = np.empty((min(self.n, 16), self.n))
        self.Q[0] = q / self.scale
        self.a, self.b, self.T_norm, self.k, self.end = [], [], 0.0, 0, False
        self.definite, self._d, self._z, self._y1 = alpha is not None, [], [], 0.0
        self._ends = {1: (0,), -1: (0,)}  # per end: steps walked, theta, |s|
        self._eig, self.pair_at, self.residual, self.reason = None, None, 0.0, None

    def step(self) -> None:
        k, Q = self.k, self.Q
        if k:
            if k == len(Q):
                Q = self.Q = np.concatenate([Q, np.empty_like(Q)])[:self.n]
            Q[k] = self._w / self.b[-1]
        w = self.A @ Q[k]
        a = float(Q[k] @ w)
        if not math.isfinite(a):
            raise ValueError("matrix and start vector entries must be finite")
        for _ in range(2):
            w -= Q[:k + 1].T @ (Q[:k + 1] @ w)
        beta = math.sqrt(w.dot(w))  # np.linalg.norm(w), without its overhead
        self.T_norm = max(self.T_norm, abs(a), beta)
        self.a.append(a)
        self.b.append(beta)
        self._w, self.k, self.end = w, k + 1, beta <= _EPS * self.T_norm or k + 1 == self.n
        if self.definite:  # d_k = 1 - alpha (a_k + g beta_(k-1)), z_k = g z_(k-1)
            b, g = (self.b[-2], self.alpha * self.b[-2] / self._d[-1]) if k else (0.0, 0.0)
            d = 1.0 - self.alpha * (a + g * b)
            self.definite = d > 0.0
            if self.definite:
                self._d.append(d)
                self._z.append(g * self._z[-1] if k else 1.0)
                self._y1 += self._z[-1] ** 2 / d

    def solve(self, c=None):
        k, r = self.k, abs(self.alpha) * self.b[-1]
        if c is not None:
            theta, S = self.eig()
            d = 1.0 - self.alpha * theta
            y = S @ ((c @ S[:len(c)]) / d)
            solved = r * abs(y[-1]) <= _EPS * d.min() * np.linalg.norm(y) or self.end
            return y @ self.Q[:k] if solved else None
        d, z = self._d, self._z
        if not (r * abs(z[-1] / d[-1]) <= _EPS * min(d) * self._y1 or self.end):
            return None
        y = np.empty(k)
        y[-1] = z[-1] / d[-1]
        for j in range(k - 2, -1, -1):  # L^T y = D^-1 z
            y[j] = (z[j] + self.alpha * self.b[j] * y[j + 1]) / d[j]
        return self.scale * (y @ self.Q[:k])

    def top(self, end: int = 1):
        while self._ends[end][0] < self.k:  # the warm start: a lower bound (class docstring)
            i, theta, s = self._ends[end] if self._ends[end][0] else (0, end * self.a[0], 0.0)
            a = self.a[:i + 1] if end > 0 else [-x for x in self.a[:i + 1]]
            c, h = self.b[i - 1] * s, 0.5 * (theta - a[i])
            lam = max(theta, a[i]) + (c * c / (abs(h) + math.hypot(h, c)) if c else 0.0)
            self._ends[end] = (i + 1, *_top(a, self.b[:i + 1], lam, 4.0 * _EPS * self.T_norm))
        return self._ends[end][1:]

    def eig(self):
        if self._eig is None or self._eig[0] != self.k:
            self._eig = (self.k, *np.linalg.eigh(_tridiagonal(self.a, self.b)))
        return self._eig[1:]

    def settled(self, tol: float, end: int = 1) -> bool:
        theta, s = self.top(end)
        self.residual = self.b[-1] * s
        return self.residual <= tol * max(1.0, abs(theta)) or self.end

    def pair(self):
        self.pair_at = self.k
        v = _orient(self.eig()[1][:, -1] @ self.Q[:self.k])
        return float(v @ (self.A @ v) / (v @ v)), v

    def stop(self, read: str | None = None) -> None:
        """Why the run ends: indefinite, invariant, n, ``read``, else solved or settled."""
        self.reason = ("indefinite" if self.alpha is not None and not self.definite else
                       ("n" if self.b[-1] > _EPS * self.T_norm else "invariant") if self.end
                       else read or ("solved" if self.alpha is not None and self.pair_at != self.k
                                     else "settled"))


def _lanczos(A, q: np.ndarray, tol: float | None = None, max_iter: int = POWER_MAX_ITER,
             alpha: float | None = None, radius: bool = False):
    """(lam, v, x) at the first step of a ``_Run`` that has read what was asked.

    Each step reads only what is still open: x = (I - alpha A)^-1 q if ``alpha`` is given
    and I - alpha T is definite, x None from a run that turns indefinite even after x is read
    (I - alpha T_k indefinite shows |alpha| rho(A) >= 1 by interlacing); the top pair if a
    positive, finite ``tol`` is given (else ValueError) and it settles at this step; under
    ``radius``, -theta_min once it settles by ``tol`` too, and then the spectral radius
    max(lam, -theta_min) in v's place. IterationLimitError after max_iter, with the top
    Ritz vector and its beta_k |s_k|."""
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    run, pair, x, low = _Run(A, q, alpha), None, None, None if radius else -math.inf
    while run.k < max_iter:
        run.step()
        x = (run.solve() if x is None else x) if run.definite else None
        if tol is not None and pair is None and run.settled(tol):
            pair = run.pair()
        if low is None and run.settled(tol, end=-1):
            low = run.top(end=-1)[0]
        if (pair or tol is None) and (x is not None or not run.definite) and low is not None:
            run.stop()
            return (pair[0], max(pair[0], low), x) if radius else (*(pair or (None, None)), x)
    run.stop("max_iter")
    S = run.eig()[1] if run.k else None  # the top Ritz vector is S[:, -1] @ Q
    raise IterationLimitError(f"Lanczos did not converge in {max_iter} steps",
                              last_iterate=None if S is None else S[:, -1] @ run.Q[:run.k],
                              residual_history=[0.0 if S is None else run.b[-1] * abs(S[-1, -1])])


def power_method(A: np.ndarray, tol: float, max_iter: int):
    """Largest (algebraic) eigenvalue and unit eigenvector of a symmetric matrix.

    The top Ritz pair read by a ``_Run`` from a start with a component
    in the top eigenspace, so that an invariant Krylov space holds the top
    eigenvalue: all-ones for a nonnegative matrix (Perron), a fixed-seed
    Gaussian vector for a signed one, whose top eigenvector can be orthogonal
    to all-ones. Returns the Rayleigh quotient and the Ritz vector, oriented by
    ``_orient`` as every Ritz vector is; raises ValueError on non-finite entries.
    """
    A = np.asarray(A, dtype=float)
    q = np.ones(len(A)) if A.min() >= 0.0 else np.random.default_rng(0).standard_normal(len(A))
    return _lanczos(A, q, tol, max_iter)[:2]


def dominant_eigenpair(
    op: DiscretizedOperator, tol: float = POWER_TOL, max_iter: int = POWER_MAX_ITER
) -> EigenPair:
    """Largest eigenvalue and eigenfunction by Lanczos from the all-ones vector.

    Every kernel is nonnegative, so all-ones overlaps its nonnegative dominant
    eigenfunction (Perron). The pair is accepted once its residual satisfies
    ||apply(op, psi) - lam psi|| <= tol * max(1, |lam|). The eigenfunction is
    returned with unit L2 norm, oriented by ``_orient``.
    """
    lam, v = _lanczos(op, np.ones(op.M), tol, max_iter)[:2]
    return EigenPair(lam, GridFunction(v / np.sqrt(np.mean(v**2))))  # v: unit, oriented


def top_k_eigen(op: DiscretizedOperator, k: int) -> list[EigenPair]:
    """The k largest (algebraic) eigenvalues with L2-orthonormal eigenfunctions.

    Both kernel families have exact discretized spectra; nothing iterates and
    no M x M matrix is built. minmax: the sampled sines sin(h pi x), h = 1 .. M,
    with the decreasing eigenvalues (2 M sin(h pi / (2 M)))**-2. Step kernels
    (er, sbm, grid): with c_b midpoints in block b and B' blocks holding any,
    ``sbm_eigen_analytic`` of Q with masses c / M gives B' block-constant
    eigenfunctions; the other M - B' eigenvalues are exact zeros, with the
    Helmert contrasts inside each block as a fixed orthonormal basis. One
    stable descending sort ranks all values: ties put the block eigenvectors
    first, and negative block eigenvalues rank below the zeros.

    Tolerance: eigenvalues agree with ``np.linalg.eigh`` of the operator
    matrix to 1e-12 |lambda_1|, and eigenfunctions whose gap to both
    neighbours exceeds 1e-4 |lambda_1| to 1e-10; closer eigenvalues loosen
    this as 1 / gap, as round-off does for any eigensolver. Eigenfunctions
    have unit L2 norm and are oriented by the rule of ``dominant_eigenpair``.
    """
    M, k = op.M, _check_size(k, "k", 1)
    if k > M:
        raise ValueError(f"k must lie in [1, {M}], got {k}")
    return [EigenPair(lam, GridFunction(f)) for lam, f in op.spec._family.top_k(op, k)]


def minmax_eigen_analytic(h: int, M: int) -> tuple[float, GridFunction]:
    """Closed-form eigenpair of the minmax kernel: (1/(pi h)^2, sqrt(2) sin(h pi x)) on M midpoints."""
    h, M = _check_size(h, "mode index h", 1), _check_size(M, "resolution M", 1)
    lam = 1.0 / (np.pi * h) ** 2
    psi = np.sqrt(2.0) * np.sin(h * np.pi * midpoints(M))
    return lam, GridFunction(psi)


class _Difference:
    """s -> a @ s - b @ s, a symmetric operator given only by the products of a and b."""

    def __init__(self, a: DiscretizedOperator, b: DiscretizedOperator):
        self.a, self.b = a, b

    def __matmul__(self, s) -> np.ndarray:
        return self.a @ s - self.b @ s


def operator_distance(a: DiscretizedOperator, b: DiscretizedOperator) -> float:
    """L2 -> L2 operator norm of the difference of two discretized operators.

    For symmetric operators this is the largest absolute eigenvalue of
    D = a - b, max(theta_max, -theta_min), both ends read at ``POWER_TOL``
    from one Lanczos run on the products a @ s - b @ s, with no M x M matrix,
    from ``power_method``'s start for a signed matrix.
    """
    q = np.random.default_rng(0).standard_normal(a.M)  # b's product rejects another M
    return _lanczos(_Difference(a, b), q, POWER_TOL, radius=True)[1]
