"""Two-stage network sampling from a graphon.

Stage one draws N agent types uniformly from [0,1] and sorts them (sorting is
a relabeling of agents, so it loses no generality and keeps plots comparable
across population sizes). Stage two evaluates the kernel at type pairs to get
the weighted network, and optionally draws independent Bernoulli links to get
the 0-1 network.

All randomness flows through explicit seeds handed to numpy's default
generator. Bernoulli draws consume the stream in row-major upper-triangle
order (pairs (0,1), (0,2), ..., (1,2), ...), so a port using the same
generator reproduces networks bitwise. ``_links`` draws them for both
sources of link probabilities, a weighted network's P (``simple_network``)
and the kernel's closed form at the sorted types, with no P
(``_kernel_links``): the same A, written once from a symmetric bool mask
(as A/N for a game), the stream drawn into an inf-filled buffer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import _check_size
from .kernels import GraphonSpec, _check_unit_interval, _validate_symmetric
from .spectral import DiscretizedOperator

__all__ = [
    "TypeVector",
    "WeightedNetwork",
    "SimpleNetwork",
    "sample_types",
    "weighted_network",
    "simple_network",
    "network_to_json",
    "network_from_json",
    "write_edge_csv",
]


@dataclass(frozen=True, eq=False)
class TypeVector:
    """Sorted vector of agent types in [0,1] plus the seed that produced it."""

    types: np.ndarray
    seed: object = None

    def __post_init__(self):
        object.__setattr__(self, "types", np.asarray(self.types, dtype=float).reshape(-1))

    @property
    def N(self) -> int:
        return self.types.shape[0]


@dataclass(frozen=True, eq=False)
class WeightedNetwork:
    """Kernel values at type pairs: P[i, j] = W(t_i, t_j), zero diagonal."""

    P: np.ndarray
    types: TypeVector

    @property
    def N(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True, eq=False)
class SimpleNetwork:
    """0-1 adjacency matrix drawn edge-wise from a weighted network."""

    A: np.ndarray
    types: TypeVector
    seed: object = None

    @property
    def N(self) -> int:
        return self.A.shape[0]


def sample_types(N: int, seed) -> TypeVector:
    """Draw N iid Uniform[0,1] types and sort them ascending; N is a positive integer."""
    N = _check_size(N, "population size N", 1)
    rng = np.random.default_rng(seed)
    return TypeVector(types=np.sort(rng.random(N)), seed=seed)


def weighted_network(spec: GraphonSpec, types: TypeVector) -> WeightedNetwork:
    """Evaluate the kernel at all type pairs; the diagonal is zeroed. P/N is the types' operator."""
    return WeightedNetwork(DiscretizedOperator(spec, types.N, types.types).kernel_matrix, types)


def simple_network(Pw: WeightedNetwork, seed) -> SimpleNetwork:
    """Draw edges i < j independently as Bernoulli(P[i, j]), from P's strict upper triangle only."""
    A = _links(Pw.N, seed, lambda i0, i1, out: Pw.P[i0:i1, i0:], 1.0)
    return SimpleNetwork(A=A, types=Pw.types, seed=seed)


def _kernel_links(spec: GraphonSpec, types: TypeVector, seed, value: float) -> np.ndarray:
    """``simple_network(weighted_network(spec, types), seed).A`` times ``value``, bit for bit
    (with value = 1/N, A/N), from the kernel at the sorted types: no P."""
    return _links(types.N, seed, spec._family.sorted_rows(types.types), value)


_BLOCK_ROWS = 128


def _links(N: int, seed, block, value: float) -> np.ndarray:
    """0-1 adjacency with each link i < j drawn as Bernoulli(p_ij), times ``value``.

    ``block(i0, i1, out)`` gives p at rows i0:i1 and columns i0:N, in ``out`` or
    as a view of its own, of which only the strict upper triangle is read. The
    draws take the stream in row-major upper-triangle order, ``_BLOCK_ROWS``
    rows at a time, into one buffer filled with +inf: its cells off the strict
    upper triangle are never written, and inf < p is False for every p, NaN
    included. The bool link mask is made symmetric block by block; the block
    buffers are freed before it is scaled in one write.
    """
    rng = np.random.default_rng(seed)
    # The mask before the block buffers: in this order, and with the uniforms drawn into p's
    # buffer, a distance pass peaks about 1 MB lower in RSS.
    links = np.empty((N, N), dtype=bool)  # each cell written once, from its row's or column's block
    strict = np.arange(min(N, _BLOCK_ROWS))[:, None] < np.arange(N)  # row r < column c
    draws = np.full(strict.shape, np.inf)
    p = np.empty(strict.shape)
    for i0 in range(0, N, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, N)
        cells = np.s_[:i1 - i0, :N - i0]  # of rows i0:i1, columns i0:N
        upper = strict[cells]
        # the uniforms pass through p's buffer; a boolean mask fills row-major
        draws[cells][upper] = rng.random(out=p.reshape(-1)[:np.count_nonzero(upper)])
        np.less(draws[cells], block(i0, i1, p[cells]), out=links[i0:i1, i0:])
        links[i1:, i0:i1] = links[i0:i1, i1:].T
        square = links[i0:i1, i0:i1]
        np.logical_or(square, square.T, out=square)
    del draws, p  # only the mask stays while A is written
    return np.multiply(links, value)


def network_to_json(matrix: np.ndarray, types: TypeVector) -> dict:
    return {"types": types.types.tolist(), "matrix": np.asarray(matrix).tolist()}


def network_from_json(doc: dict) -> tuple[np.ndarray, TypeVector]:
    """Check and rebuild a network: square, symmetric, finite matrix; N sorted types in [0, 1]."""
    missing = [key for key in ("matrix", "types") if key not in doc]
    if missing:
        raise ValueError(f"network document lacks {', '.join(missing)}")
    matrix = _validate_symmetric(doc["matrix"], "network matrix")
    types = np.asarray(doc["types"], dtype=float)
    if types.shape != (matrix.shape[0],):
        raise ValueError(f"need {matrix.shape[0]} types, got shape {types.shape}")
    _check_unit_interval(types, "types")
    if np.any(np.diff(types) < 0.0):
        raise ValueError("types must be sorted ascending")
    return matrix, TypeVector(types=types)


def write_edge_csv(matrix: np.ndarray, path) -> None:
    """Write the upper triangle as (i, j, weight) rows, zero edges omitted, rows ascending and
    then columns. Rows are read a block of 4 CSV blocks' entries at a time, so neither a copy
    of the whole triangle nor all the edges at once are held."""
    from .experiments import _CSV_BLOCK, _write_csv_parts  # experiments imports this module
    matrix = np.asarray(matrix, dtype=float)
    rows = max(1, 4 * _CSV_BLOCK // max(1, len(matrix)))

    def edges(i):  # rows i to i + rows: row-major nonzeros right of the diagonal
        iu, ju = np.nonzero(np.triu(matrix[i:i + rows], i + 1))
        iu += i
        return [iu, ju, matrix[iu, ju]]

    _write_csv_parts(path, "i,j,weight", map(edges, range(0, len(matrix), rows)))


def load_network_json(path) -> tuple[np.ndarray, TypeVector]:
    with open(path) as fh:
        return network_from_json(json.load(fh))
