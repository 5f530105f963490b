"""Graphon kernel models and pointwise evaluation.

A graphon is a symmetric measurable function W : [0,1]^2 -> [0,1]. This module
defines the four supported kernel families (constant, block, minmax, grid step
function), their pointwise evaluation and the per-family regularity metadata
(piecewise Lipschitz constant L and interior breakpoint count Omega) used by
the sampling-deviation bounds.

Community and grid cells are laid out contiguously left to right. All cells
are right-open except the last, which is closed at 1, so every x in [0,1]
belongs to exactly one cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    unpickled.
    """

    kind: str
    p: float | None = None
    Q: np.ndarray | None = None
    w: np.ndarray | None = None
    values: np.ndarray | None = None

    def __repr__(self):
        if self.kind == "minmax":
            return "GraphonSpec(minmax)"
        if self.kind == "er":
            return f"GraphonSpec(er, p={self.p})"
        return f"GraphonSpec({self.kind}, K={len(_blocks(self)[0])})"

    def __setstate__(self, state):  # unpickled arrays come back writeable: freeze them again
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(state)


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


def _sbm_block_index(x, w):
    # The interior bounds at or below x; the last block is closed at 1 whatever the rounding.
    return np.searchsorted(np.cumsum(w)[:-1], np.asarray(x), side="right")


def _blocks(spec: GraphonSpec):
    """A step kernel's block matrix Q and block masses: er one block, sbm K, a grid n equal cells."""
    if spec.kind == "grid":
        n = len(spec.values)
        return spec.values, np.full(n, 1.0 / n)
    return (np.array([[spec.p]]), np.ones(1)) if spec.kind == "er" else (spec.Q, spec.w)


def _block_index(spec: GraphonSpec, x, out=None, tmp=None):
    """The block of ``_blocks(spec)`` that holds each point x; a grid's in ``out`` via ``tmp``."""
    if spec.kind == "grid":
        return _cell_index(x, len(spec.values), out, tmp)
    if tmp is not None and tmp.shape == np.shape(x):  # else searchsorted copies a strided x
        x = np.copyto(tmp, x) or tmp
    return _sbm_block_index(x, _blocks(spec)[1])


def evaluate(spec: GraphonSpec, x, y):
    """Evaluate W(x, y). Accepts scalars or broadcasting arrays in [0, 1].

    Evaluation is exactly symmetric: evaluate(spec, x, y) == evaluate(spec, y, x)
    bitwise, for every kernel family. The points are range-checked, then read by
    ``_values``, which only callers whose float arrays lie in [0, 1) by
    construction (such as fresh uniform draws) may call directly.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    _check_unit_interval(xa, "coordinate x")
    _check_unit_interval(ya, "coordinate y")
    shape = np.broadcast_shapes(xa.shape, ya.shape)
    out = _values(spec, xa, ya, np.empty(shape), np.empty(shape), np.empty(shape, np.intp))
    return float(out) if np.isscalar(x) and np.isscalar(y) else out if out.ndim else out[()]


def _values(spec: GraphonSpec, x: np.ndarray, y: np.ndarray, out, tmp, idx) -> np.ndarray:
    """W(x, y) of broadcasting float arrays in [0, 1], unchecked, in ``out`` with evaluate's bits
    via scratch ``tmp`` (float) and ``idx`` (intp) of its shape; sbm and er allocate y's blocks."""
    if spec.kind == "minmax":  # min(x, y) * (1 - max(x, y))
        np.subtract(1.0, np.maximum(x, y, out=tmp), out=tmp)
        return np.multiply(np.minimum(x, y, out=out), tmp, out=out)
    Q = _blocks(spec)[0]  # a step kernel, er too: Q[i, j] is Q's flat entry K i + j
    np.add(len(Q) * _block_index(spec, x), _block_index(spec, y, idx, out), out=idx)
    return Q.take(idx, out=out, mode="clip")  # in range: clip only skips take's buffer


def _sorted_rows(spec: GraphonSpec, t: np.ndarray):
    """``rows(i0, i1, out)`` writes W(t_i, t_j), rows i0:i1 and columns i0: of ascending t, to
    ``out``: ``evaluate``'s bits where j > i, as there min(t_i, t_j) = t_i and max = t_j."""
    if spec.kind == "minmax":
        s = 1.0 - t
        return lambda i0, i1, out: np.multiply(t[i0:i1, None], s[i0:], out=out)
    Q, ids = _blocks(spec)[0], _block_index(spec, t)
    return lambda i0, i1, out: np.take(Q[ids[i0:i1]], ids[i0:], axis=1, out=out)


def lipschitz_metadata(spec: GraphonSpec) -> tuple[float, int]:
    """Return (L, Omega): the piecewise Lipschitz constant and breakpoint count.

    Step kernels (constant, block, grid) are flat within their blocks (L = 0,
    Omega = number of interior block boundaries); the minmax kernel is
    globally Lipschitz with constant 2 (Omega = 0).
    """
    if spec.kind == "minmax":
        return 2.0, 0
    return 0.0, len(_blocks(spec)[0]) - 1


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
