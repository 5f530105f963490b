"""Graphon kernel models and pointwise evaluation.

A graphon is a symmetric measurable function W : [0,1]^2 -> [0,1]. This module
defines the four supported kernel kinds (constant, block, minmax, grid step
function), their pointwise evaluation and the per-kind regularity metadata
(piecewise Lipschitz constant L and interior breakpoint count Omega) used by
the sampling-deviation bounds.

Everything a kernel family does lives in one private object, chosen once from
``spec.kind`` when the spec is built and kept as ``spec._family``: ``_MinMax``
for the minmax closed form, ``_Step`` for the step kernels er and sbm, and its
``_Grid`` with the grid's equal-cell index. Each holds the kernel read, the
sorted-row read, the operator product, the exact spectrum, the dominant
eigenfunction at types and (L, Omega). Other modules call it and never test
the kind; a new closed form is one more method on each family.

Community and grid cells are laid out contiguously left to right. All cells
are right-open except the last, which is closed at 1, so every x in [0,1]
belongs to exactly one cell.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import _check_size

__all__ = [
    "GraphonSpec",
    "erdos_renyi",
    "sbm",
    "minmax",
    "grid_kernel",
    "step_graphon_from_matrix",
    "evaluate",
    "lipschitz_metadata",
    "to_json",
    "from_json",
]

_MASS_TOL = 1e-9


def _validate_symmetric(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} entries must be finite")
    if not np.array_equal(mat, mat.T):
        raise ValueError(f"{name} must be symmetric")
    return mat


def _check_unit_interval(arr, name):
    # min and max propagate NaN, and NaN fails both comparisons.
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError(f"{name} outside [0, 1]")


def _frozen(arr):
    arr = arr.copy()
    arr.flags.writeable = False  # a validated spec cannot change after construction
    return arr


def _validate_sbm(Q, w):
    Q = _validate_symmetric(Q, "Q")
    _check_unit_interval(Q, "Q entries")
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.shape[0] != Q.shape[0]:
        raise ValueError("w must be a vector matching the block count of Q")
    if not (np.isfinite(w).all() and (w > 0.0).all()):
        raise ValueError("all community masses must be finite and positive")
    if abs(w.sum() - 1.0) > _MASS_TOL:
        raise ValueError(f"community masses must sum to 1, got {w.sum()!r}")
    return Q, w


@dataclass(frozen=True, eq=False)
class GraphonSpec:
    """Declarative graphon model.

    ``kind`` is one of ``"er"``, ``"sbm"``, ``"minmax"``, ``"grid"``. Only the
    fields relevant to the kind are set; use the module-level constructors
    rather than instantiating directly. The constructors store read-only
    copies of their arrays, so instances are immutable, and stay so when
    unpickled. An unknown kind is a ValueError.
    """

    kind: str
    p: float | None = None
    Q: np.ndarray | None = None
    w: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):  # the one dispatch on kind
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown graphon kind {self.kind!r}")
        object.__setattr__(self, "_family", _FAMILIES[self.kind](self))

    def __repr__(self):
        if self.kind == "minmax":
            return "GraphonSpec(minmax)"
        if self.kind == "er":
            return f"GraphonSpec(er, p={self.p})"
        return f"GraphonSpec({self.kind}, K={len(self._family.Q)})"

    def __reduce__(self):  # unpickled by its constructor: read-only copies and a new family
        fields = (getattr(self, name) for name in _FIELDS)
        return _CONSTRUCTORS[self.kind], tuple(value for value in fields if value is not None)


def erdos_renyi(p: float) -> GraphonSpec:
    """Constant kernel W(x, y) = p."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    return GraphonSpec(kind="er", p=p)


def sbm(Q, w) -> GraphonSpec:
    """Block-constant kernel with K communities.

    ``Q[k, l]`` is the connection probability between communities k and l,
    ``w[k]`` the mass of community k. Community k occupies the interval
    ``[sum(w[:k]), sum(w[:k+1]))``.
    """
    Q, w = _validate_sbm(Q, w)
    return GraphonSpec(kind="sbm", Q=_frozen(Q), w=_frozen(w))


def minmax() -> GraphonSpec:
    """Distance-decay kernel W(x, y) = min(x, y) * (1 - max(x, y))."""
    return GraphonSpec(kind="minmax")


def grid_kernel(values) -> GraphonSpec:
    """Step-function kernel constant on the uniform M x M grid of [0,1]^2."""
    values = _validate_symmetric(values, "values")
    _check_unit_interval(values, "values entries")
    return GraphonSpec(kind="grid", values=_frozen(values))


# An N x N network P embeds as the grid kernel whose cell (i, j) of the uniform
# N-partition carries P[i, j]: the exact kernel counterpart of the network.
step_graphon_from_matrix = grid_kernel


def _cell_index(x, n_cells, out=None, tmp=None):
    # Right-open cells, last cell closed at 1: on [0, 1] truncating x * n is its floor, clipped
    # in place to n - 1 where x * n rounds up to n; in ``out`` (intp) via ``tmp`` if given.
    out = np.empty(np.shape(x), np.intp) if out is None else out
    np.copyto(out, np.multiply(x, n_cells, out=tmp), casting="unsafe")
    return np.minimum(out, n_cells - 1, out=out)


def midpoints(M: int) -> np.ndarray:
    return (np.arange(M) + 0.5) / M


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


def sbm_eigen_analytic(Q, w, k: int | None = None) -> list[tuple[float, np.ndarray]]:
    """Exact spectrum of a block-constant kernel: its k largest pairs (all K by default).

    The kernel operator shares its eigenvalues with the K x K matrix
    E = Q diag(w); eigenfunctions are constant on each community. They come
    from ``np.linalg.eigh`` of the symmetric similar matrix
    diag(sqrt(w)) Q diag(sqrt(w)), which has the same spectrum and is
    numerically stable. Returned per-block values give eigenfunctions with
    unit L2 norm, oriented by the rule of ``dominant_eigenpair`` with the
    mean weighted by w; pairs are sorted by descending eigenvalue.
    """
    Q, w = _validate_sbm(Q, w)
    k = len(w) if k is None else _check_size(k, "k", 1)
    if k > len(w):
        raise ValueError(f"k must lie in [1, {len(w)}], got {k}")
    sw = np.sqrt(w)
    values, U = np.linalg.eigh(sw[:, None] * Q * sw[None, :])
    # Per-block eigenfunction values: u / sqrt(w) has unit L2 norm since
    # sum_k w_k * (u_k / sqrt(w_k))**2 = sum_k u_k**2 = 1.
    return [(float(lam), _orient(u / sw, weights=w))
            for lam, u in zip(values[::-1][:k], U.T[::-1])]


def _helmert(c: np.ndarray, t: int) -> np.ndarray:
    """The t-th Helmert contrast inside consecutive blocks of c points, unit Euclidean norm.

    Block b holds contrasts j = 1 .. c_b - 1, ones on its first j points and
    -j on the next: an orthonormal basis of the vectors summing to 0 on each block.
    """
    ends = np.cumsum(c - 1)  # contrasts before the end of each block
    b = int(np.searchsorted(ends, t, side="right"))
    j = int(t - ends[b] + c[b])
    v = np.zeros(int(c.sum()))
    start = int(c[:b].sum())
    v[start:start + j] = 1.0
    v[start + j] = -j
    return v / np.sqrt(j * (j + 1.0))


# The two kernel families, minmax's closed form and the step kernels, one object each (module
# docstring). ``at`` and ``top_k`` read a spectral.DiscretizedOperator ``op``: its M, its
# ascending nodes ``op._nodes`` (the midpoints, or sampled types when ``op._types`` is set)
# and, for a step kernel, ``op._runs``, which the operator keeps from the family's ``runs``.

class _MinMax:
    """W(x, y) = min(x, y) (1 - max(x, y)): globally Lipschitz with L = 2, no breakpoints."""

    lipschitz = (2.0, 0)

    def values(self, x, y, out, tmp, idx):
        """W(x, y) of broadcasting float arrays in [0, 1], unchecked, in ``out`` with evaluate's
        bits via scratch ``tmp`` (float) and ``idx`` (intp) of its shape."""
        np.subtract(1.0, np.maximum(x, y, out=tmp), out=tmp)
        return np.multiply(np.minimum(x, y, out=out), tmp, out=out)

    def sorted_rows(self, t):
        """``rows(i0, i1, out)`` writes W(t_i, t_j), rows i0:i1 and columns i0: of ascending t, to
        ``out``: ``evaluate``'s bits where j > i, as there min(t_i, t_j) = t_i and max = t_j."""
        s = 1.0 - t
        return lambda i0, i1, out: np.multiply(t[i0:i1, None], s[i0:], out=out)

    def at(self, op, x, s):
        """``op @ s`` at the nodes (x None) or at points x (``DiscretizedOperator.at``)."""
        # W(x, t_i) = t_i (1 - x) for t_i <= x, else x (1 - t_i): prefix sums A of t s and
        # suffix sums B of (1 - t) s, read at j = #{t_i <= x}, which is i + 1 at node i
        # (its own term in A[i + 1]; a zero diagonal reads the exclusive A[i]).
        t = op._nodes
        A, B = np.zeros(op.M + 1), np.zeros(op.M + 1)
        np.cumsum(t * s, out=A[1:])
        np.cumsum(((1.0 - t) * s)[::-1], out=B[-2::-1])
        if x is None:
            a = A[1:] if op._types is None else A[:-1]
            return ((1.0 - t) * a + t * B[1:]) / op.M
        j = np.searchsorted(t, x, side="right")
        return ((1.0 - x) * A[j] + x * B[j]) / op.M

    def top_k(self, op, k):
        """The k top (eigenvalue, oriented vector) pairs of ``top_k_eigen``."""
        M, h = op.M, np.arange(1, k + 1)
        F = np.sin(np.pi * np.outer(h, midpoints(M)))
        F /= np.sqrt(np.mean(F**2, axis=1, keepdims=True))  # 1/sqrt(2), but 1 at h = M
        values = (2.0 * M * np.sin(h * np.pi / (2 * M))) ** -2.0
        return [(float(lam), _orient(f)) for lam, f in zip(values, F)]

    def psi1(self, t):
        """The dominant eigenfunction at points t, and the spectral gap."""
        return np.sqrt(2.0) * np.sin(np.pi * t), 1.0 / np.pi**2 - 1.0 / (4.0 * np.pi**2)


class _Step:
    """A step kernel: block matrix Q and masses w, blocks laid out left to right; er is one
    block, sbm K. Flat within blocks: L = 0, Omega the K - 1 interior boundaries."""

    def __init__(self, Q, w):
        self.Q, self.w, self.lipschitz = Q, w, (0.0, len(Q) - 1)
        self._bounds = np.cumsum(w)[:-1]

    def index(self, x, out=None, tmp=None):
        """The block of each point x: the interior bounds at or below x, the last block closed at
        1 whatever the rounding. A ``tmp`` of x's shape takes a copy of a strided x."""
        if tmp is not None and tmp.shape == np.shape(x):  # else searchsorted copies a strided x
            x = np.copyto(tmp, x) or tmp
        return np.searchsorted(self._bounds, np.asarray(x), side="right")

    def values(self, x, y, out, tmp, idx):  # as _MinMax's; sbm and er allocate y's blocks
        np.add(len(self.Q) * self.index(x), self.index(y, idx, out), out=idx)
        return self.Q.take(idx, out=out, mode="clip")  # in range: clip only skips take's buffer

    def sorted_rows(self, t):  # as _MinMax's
        Q, ids = self.Q, self.index(t)
        return lambda i0, i1, out: np.take(Q[ids[i0:i1]], ids[i0:], axis=1, out=out)

    def runs(self, t, M):
        """Q/M, and the block ids, starts and lengths of the runs of the ascending nodes t."""
        idx = self.index(t)
        starts = np.flatnonzero(np.diff(idx, prepend=-1))
        return self.Q / M, idx[starts], starts, np.diff(starts, append=M)

    def at(self, op, x, s):
        """As ``_MinMax.at``: Q/M times the block sums."""
        Q_over_M, ids, starts, counts = op._runs
        v = Q_over_M @ np.bincount(ids, np.add.reduceat(s, starts), len(Q_over_M))
        if x is not None:
            return v[self.index(x)]
        out = np.repeat(v[ids], counts)
        if op._types is not None:  # drop the own terms W(t_i, t_i) s_i / M of a zero diagonal
            out -= np.repeat(np.diag(Q_over_M)[ids], counts) * s
        return out

    def top_k(self, op, k):
        """As ``_MinMax.top_k``: blocks by ``sbm_eigen_analytic``, zeros by ``_helmert``."""
        M, (_, ids, _, c) = op.M, op._runs
        blocks = sbm_eigen_analytic(self.Q[np.ix_(ids, ids)], c / M)
        values = np.array([lam for lam, _ in blocks] + [0.0] * min(k, M - len(c)))
        pairs = []
        for i in np.argsort(-values, kind="stable")[:k]:
            f = np.repeat(blocks[i][1], c) if i < len(c) else _helmert(c, i - len(c)) * np.sqrt(M)
            pairs.append((float(values[i]), _orient(f)))
        return pairs

    @functools.cached_property
    def _psi1(self):  # the top block vector and the gap, computed once and kept with the spec
        pairs = sbm_eigen_analytic(self.Q, self.w, min(2, len(self.w)))
        return pairs[0][1], pairs[0][0] - (pairs[1][0] if len(pairs) > 1 else 0.0)

    def psi1(self, t):  # as _MinMax's, from the block spectrum
        return self._psi1[0][self.index(t)], self._psi1[1]


class _Grid(_Step):
    """A grid kernel: n equal cells, a point's read by ``_cell_index`` (a search of the bounds
    cumsum(1/n) would put some points in a neighbouring cell)."""

    def __init__(self, values):
        super().__init__(values, np.full(len(values), 1.0 / len(values)))

    def index(self, x, out=None, tmp=None):  # as _Step's, in ``out`` (intp) via ``tmp`` if given
        return _cell_index(x, len(self.Q), out, tmp)


_FAMILIES = {
    "minmax": lambda spec: _MinMax(),
    "er": lambda spec: _Step(np.array([[spec.p]]), np.ones(1)),
    "sbm": lambda spec: _Step(spec.Q, spec.w),
    "grid": lambda spec: _Grid(spec.values),
}


def evaluate(spec: GraphonSpec, x, y):
    """Evaluate W(x, y). Accepts scalars or broadcasting arrays in [0, 1].

    Evaluation is exactly symmetric: evaluate(spec, x, y) == evaluate(spec, y, x)
    bitwise, for every kernel family. The points are range-checked, then read by
    the family's ``values``, which only callers whose float arrays lie in [0, 1)
    by construction (such as fresh uniform draws) may call directly.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    _check_unit_interval(xa, "coordinate x")
    _check_unit_interval(ya, "coordinate y")
    shape = np.broadcast_shapes(xa.shape, ya.shape)
    out = spec._family.values(xa, ya, np.empty(shape), np.empty(shape), np.empty(shape, np.intp))
    return float(out) if np.isscalar(x) and np.isscalar(y) else out if out.ndim else out[()]


def lipschitz_metadata(spec: GraphonSpec) -> tuple[float, int]:
    """Return (L, Omega): the piecewise Lipschitz constant and breakpoint count.

    Step kernels (constant, block, grid) are flat within their blocks (L = 0,
    Omega = number of interior block boundaries); the minmax kernel is
    globally Lipschitz with constant 2 (Omega = 0).
    """
    return spec._family.lipschitz


_FIELDS = ("p", "Q", "w", "values")
_CONSTRUCTORS = {"er": erdos_renyi, "sbm": sbm, "minmax": minmax, "grid": grid_kernel}


def to_json(spec: GraphonSpec) -> dict:
    """Serialize to a plain JSON document: the kind plus the fields it sets."""
    doc = {"kind": spec.kind}
    for name in _FIELDS:
        value = getattr(spec, name)
        if value is not None:
            doc[name] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def from_json(doc: dict) -> GraphonSpec:
    """Rebuild a GraphonSpec from its JSON document; a missing or extra field is a ValueError."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in _CONSTRUCTORS:
        raise ValueError(f"unknown graphon kind {kind!r}")
    fields = {name: value for name, value in doc.items() if name != "kind"}
    try:
        return _CONSTRUCTORS[kind](**fields)
    except TypeError as exc:
        raise ValueError(f"bad fields for graphon kind {kind!r}: {exc}") from exc
