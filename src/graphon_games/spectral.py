"""Discretized kernel operators and their spectra.

The integral operator f -> int W(., y) f(y) dy is discretized by midpoint
collocation on the uniform M-grid: the kernel is sampled at cell midpoints
and the quadrature weight is 1/M. This preserves symmetry exactly and is
exact for step-function kernels aligned with the grid.

Functions on the grid are step functions; their L2 norm is
sqrt(mean(values**2)), so a vector with unit L2 norm has Euclidean norm
sqrt(M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IterationLimitError
from .kernels import GraphonSpec, _cell_index, _validate_sbm, evaluate

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
_SUBSPACE_OVERSAMPLE = 8
_SUBSPACE_TOL = 1e-12
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
        """Evaluate the step function at points x in [0, 1]."""
        out = self.values[_cell_index(x, self.M)]
        return float(out) if np.isscalar(x) else out

    def to_json(self) -> list:
        return self.values.tolist()

    @classmethod
    def from_json(cls, doc) -> "GridFunction":
        return cls(np.asarray(doc, dtype=float))

    def write_csv(self, path) -> None:
        """Plot-ready (grid midpoint, value) rows."""
        with open(path, "w") as fh:
            fh.write("midpoint,value\n")
            for x, v in zip(midpoints(self.M), self.values):
                fh.write(f"{float(x)!r},{float(v)!r}\n")


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Midpoint-collocation matrix of a kernel operator at resolution M.

    Application to a grid function g is (1/M) * kernel_matrix @ g.values.
    """

    kernel_matrix: np.ndarray

    @property
    def M(self) -> int:
        return self.kernel_matrix.shape[0]

    def matrix(self) -> np.ndarray:
        """The matrix (1/M) * kernel_matrix actually applied to grid vectors."""
        return self.kernel_matrix / self.M


@dataclass(frozen=True, eq=False)
class EigenPair:
    value: float
    function: GridFunction

    def to_json(self) -> dict:
        return {"value": self.value, "function": self.function.to_json()}


def midpoints(M: int) -> np.ndarray:
    return (np.arange(M) + 0.5) / M


def discretize(spec: GraphonSpec, M: int) -> DiscretizedOperator:
    """Sample the kernel at the M x M grid of cell midpoints."""
    if M < 2:
        raise ValueError(f"resolution must be at least 2, got {M}")
    m = midpoints(M)
    K = evaluate(spec, m[:, None], m[None, :])
    return DiscretizedOperator(kernel_matrix=np.asarray(K, dtype=float))


def apply(op: DiscretizedOperator, f: GridFunction) -> GridFunction:
    """Apply the discretized operator: (1/M) * kernel_matrix @ f."""
    if f.M != op.M:
        raise ValueError(f"resolution mismatch: operator M={op.M}, function M={f.M}")
    return GridFunction(op.kernel_matrix @ f.values / op.M)


def _orient(v: np.ndarray, weights=None) -> np.ndarray:
    # Fix the +/- ambiguity: make the (weighted) mean nonnegative; if the mean
    # is essentially zero, make the first near-largest-magnitude entry
    # positive. Both tests are relative to the largest entry with a margin far
    # above round-off, so a mean that is zero in exact arithmetic, or peaks
    # that are equal in it (sin(2 pi x) at x = 1/4 and 3/4), give the same
    # sign whatever the BLAS or the eigensolver.
    a = np.abs(v)
    peak = a.max()
    m = np.average(v, weights=weights)
    if abs(m) > 1e-8 * peak:
        return v if m >= 0.0 else -v
    j = int(np.argmax(a >= (1.0 - 1e-8) * peak))
    return v if v[j] >= 0.0 else -v


def _lanczos(A: np.ndarray, q: np.ndarray, tol: float, max_iter: int,
             alpha: float | None = None, eig: bool = True):
    """Lanczos with full reorthogonalization from q (Golub & Van Loan, ch. 10-11).

    Each step orthogonalizes A q_k twice against Q = [q_1 .. q_k] and extends
    T = Q^T A Q, with eigenpairs (theta, S). Returns (lam, v, x), None where
    not asked. With ``eig``: the Rayleigh quotient and the Ritz vector (sum
    >= 0) of the top Ritz pair, read at the first step where beta_k |s_k| is
    at most tol * max(1, |theta|). With ``alpha``: x = ||q|| Q y with
    (I - alpha T) y = e_1, which solves (I - alpha A) x = q (CG when
    I - alpha A is positive definite), read once its residual
    |alpha| beta_k |y_k| is at most eps ||y|| times the smallest eigenvalue
    of I - alpha T, an error at round-off level; None if I - alpha T is
    indefinite. What is still open is read once the space is invariant
    (beta_k <= eps * max |T_ij|) or spans R^n. Raises ValueError as soon as a
    matrix-vector product is not finite, IterationLimitError after max_iter.
    """
    n = A.shape[0]
    Q = (q / np.linalg.norm(q))[None, :]
    alphas, betas, s = [], [], np.ones(1)
    lam = v = x = None
    T_norm = resid = 0.0
    for k in range(1, max_iter + 1):
        w = A @ Q[-1]
        alphas.append(float(Q[-1] @ w))
        if not np.isfinite(alphas[-1]):
            raise ValueError("matrix and start vector entries must be finite")
        for _ in range(2):
            w -= Q.T @ (Q @ w)
        beta = float(np.linalg.norm(w))
        T_norm = max(T_norm, abs(alphas[-1]), beta)
        theta, S = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        end = beta <= _EPS * T_norm or k == n
        if eig and lam is None:
            s = S[:, -1]
            resid = beta * abs(s[-1])
            if resid <= tol * max(1.0, abs(theta[-1])) or end:
                v = s @ Q
                v = v if v.sum() >= 0.0 else -v
                lam = float(v @ (A @ v) / (v @ v))
        if x is None and alpha is not None:
            d = 1.0 - alpha * theta
            if d.min() <= 0.0:
                alpha = None  # indefinite: no solve to read
            else:
                y = S @ (S[0] / d)
                if abs(alpha) * beta * abs(y[-1]) <= _EPS * d.min() * np.linalg.norm(y) or end:
                    x = np.linalg.norm(q) * (y @ Q)
        if (x is not None or alpha is None) and (lam is not None or not eig):
            return lam, v, x
        betas.append(beta)
        Q = np.vstack([Q, w / beta])
    raise IterationLimitError(f"Lanczos did not converge in {max_iter} steps",
                              last_iterate=s @ Q[: s.size], residual_history=[resid])


def power_method(A: np.ndarray, tol: float, max_iter: int):
    """Largest (algebraic) eigenvalue and unit eigenvector of a symmetric matrix.

    The top Ritz pair of ``_lanczos`` from a start with a component in the
    top eigenspace, so that an invariant Krylov space holds the top
    eigenvalue: all-ones for a nonnegative matrix (Perron), a fixed-seed
    Gaussian vector for a signed one, whose top eigenvector can be orthogonal
    to all-ones. Returns the Rayleigh quotient and the Ritz vector oriented to
    a nonnegative sum; raises ValueError on NaN or infinite entries.
    """
    A = np.asarray(A, dtype=float)
    q = np.ones(len(A)) if A.min() >= 0.0 else np.random.default_rng(0).standard_normal(len(A))
    return _lanczos(A, q, tol, max_iter)[:2]


def _l2_normalize(v: np.ndarray) -> np.ndarray:
    n = np.sqrt(np.mean(v**2))
    if n == 0.0:
        return v
    return v / n


def dominant_eigenpair(
    op: DiscretizedOperator, tol: float = POWER_TOL, max_iter: int = POWER_MAX_ITER
) -> EigenPair:
    """Largest eigenvalue and eigenfunction by Lanczos (``power_method``).

    A nonnegative kernel starts from the all-ones vector (guaranteed overlap
    with its nonnegative dominant eigenfunction). The pair is accepted once
    its residual satisfies ||apply(op, psi) - lam psi|| <= tol * max(1, |lam|).
    The eigenfunction is returned with unit L2 norm and nonnegative mean.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lam, v = power_method(op.matrix(), tol, max_iter)
    psi = _orient(_l2_normalize(v))
    return EigenPair(lam, GridFunction(psi))


def _subspace_top_k(A: np.ndarray, k: int):
    """Top-k eigenpairs of symmetric A by block subspace iteration, or None.

    Returns (values descending, unit Euclidean eigenvectors as columns) once
    certified, None when the iteration cap is reached first.
    """
    M = A.shape[0]
    p = k + _SUBSPACE_OVERSAMPLE
    V, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((M, p)))
    # About M / (5p) block products cost a quarter of a full eigh.
    for _ in range(M // (5 * p)):
        W = A @ V
        H = V.T @ W
        theta, S = np.linalg.eigh(0.5 * (H + H.T))  # ascending Ritz values
        AX = W @ S
        top = slice(-1, -k - 1, -1)  # the k largest Ritz values, descending
        X = V @ S[:, top]
        # Residuals relative to the largest |theta|, scaled before the norm
        # so that squares of tiny entries cannot underflow to zero.
        scale = max(abs(theta[0]), abs(theta[-1])) or 1.0
        resid = np.linalg.norm((AX[:, top] - X * theta[top]) / scale, axis=0)
        if (resid.max() <= _SUBSPACE_TOL
                and np.abs(theta).min() <= theta[-k] + _SUBSPACE_TOL * scale):
            return theta[top], X
        V, _ = np.linalg.qr(AX)
    return None


def top_k_eigen(op: DiscretizedOperator, k: int) -> list[EigenPair]:
    """The k largest (algebraic) eigenvalues with L2-orthonormal eigenfunctions.

    Method: block subspace iteration with Rayleigh-Ritz on a block of
    p = k + 8 columns from a fixed-seed Gaussian start, so results do not
    depend on the global random state or on earlier calls. Each step takes
    the Ritz pairs of the block, then replaces the block by an orthonormal
    basis of A times the Ritz vectors.

    Certificate: the pairs are accepted when every residual
    ||A x - theta x|| of the k largest Ritz values is at most 1e-12 times
    the largest |theta|, and the block's smallest |theta| is at most
    theta_k plus that tolerance. The iteration converges to the p
    largest-magnitude eigenvalues, so the second condition means no
    eigenvalue outside the block exceeds theta_k, which also covers
    kernels with large negative eigenvalues.

    Fallback: when p >= M, or when the iteration is not certified within
    about M / (5p) steps (a quarter of the work of a full symmetric
    eigendecomposition; kernels without spectral decay, such as the step
    kernel of a sampled network), the result is that of ``np.linalg.eigh``.

    Tolerance: eigenvalues agree with a full eigendecomposition to
    1e-12 |lambda_1|, and eigenfunctions whose gap to both neighbours
    exceeds 1e-4 |lambda_1| to 1e-10; closer eigenvalues loosen this as
    1 / gap, as round-off does for any eigensolver. Eigenvectors are
    rescaled from unit Euclidean norm to unit L2 norm and oriented by the
    rule of ``dominant_eigenpair``.
    """
    if k < 1 or k > op.M:
        raise ValueError(f"k must lie in [1, {op.M}], got {k}")
    A = op.matrix()
    found = _subspace_top_k(A, k) if k + _SUBSPACE_OVERSAMPLE < op.M else None
    if found is None:
        evals, evecs = np.linalg.eigh(A)
        found = evals[::-1][:k], evecs[:, ::-1][:, :k]
    return [EigenPair(float(lam), GridFunction(_orient(v * np.sqrt(op.M))))
            for lam, v in zip(found[0], found[1].T)]


def sbm_eigen_analytic(Q, w) -> list[tuple[float, np.ndarray]]:
    """Exact spectrum of a block-constant kernel.

    The kernel operator shares its eigenvalues with the K x K matrix
    E = Q diag(w); eigenfunctions are constant on each community. The
    computation runs on the symmetric similar matrix
    diag(sqrt(w)) Q diag(sqrt(w)), which has the same spectrum and is
    numerically stable. Returned per-block values give eigenfunctions with
    unit L2 norm; pairs are sorted by descending eigenvalue.
    """
    Q, w = _validate_sbm(Q, w)
    sw = np.sqrt(w)
    S = sw[:, None] * Q * sw[None, :]
    evals, evecs = np.linalg.eigh(S)
    out = []
    for i in range(len(w) - 1, -1, -1):
        # Per-block eigenfunction values: u / sqrt(w) has unit L2 norm since
        # sum_k w_k * (u_k / sqrt(w_k))**2 = sum_k u_k**2 = 1.
        out.append((float(evals[i]), _orient(evecs[:, i] / sw, weights=w)))
    return out


def minmax_eigen_analytic(h: int, M: int) -> tuple[float, GridFunction]:
    """Closed-form eigenpair of the minmax kernel: (1/(pi h)^2, sqrt(2) sin(h pi x))."""
    if h < 1:
        raise ValueError("mode index must be a positive integer")
    lam = 1.0 / (np.pi * h) ** 2
    psi = np.sqrt(2.0) * np.sin(h * np.pi * midpoints(M))
    return lam, GridFunction(psi)


def operator_distance(a: DiscretizedOperator, b: DiscretizedOperator) -> float:
    """L2 -> L2 operator norm of the difference of two discretized operators.

    For symmetric matrices this is the largest absolute eigenvalue of
    D = (1/M) (A - B), that is max(lambda_max(D), lambda_max(-D)), both
    from ``power_method`` at ``POWER_TOL``.
    """
    if a.M != b.M:
        raise ValueError(f"resolution mismatch: {a.M} vs {b.M}")
    diff = (a.kernel_matrix - b.kernel_matrix) / a.M
    return max(power_method(diff, POWER_TOL, POWER_MAX_ITER)[0],
               power_method(-diff, POWER_TOL, POWER_MAX_ITER)[0])
