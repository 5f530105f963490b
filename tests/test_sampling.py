import json
import math

import numpy as np
import pytest

from graphon_games import kernels, sampling


def ks_statistic_uniform(sorted_sample):
    """Kolmogorov-Smirnov distance of a sorted sample from Uniform[0,1]."""
    n = len(sorted_sample)
    i = np.arange(1, n + 1)
    return max(np.max(i / n - sorted_sample), np.max(sorted_sample - (i - 1) / n))


# --- type sampling -----------------------------------------------------------

def test_single_type_in_range():
    tv = sampling.sample_types(1, seed=42)
    assert tv.N == 1
    assert 0.0 <= tv.types[0] <= 1.0


def test_types_sorted_and_deterministic():
    a = sampling.sample_types(500, seed=7)
    b = sampling.sample_types(500, seed=7)
    assert np.array_equal(a.types, b.types)
    assert np.all(np.diff(a.types) >= 0.0)
    c = sampling.sample_types(500, seed=8)
    assert not np.array_equal(a.types, c.types)


def test_types_uniform_ks():
    # At the 1% level the KS test should reject rarely; asymptotic critical
    # value for alpha = 0.01 is 1.628 / sqrt(n).
    n = 1000
    crit = 1.628 / math.sqrt(n)
    below = sum(
        ks_statistic_uniform(sampling.sample_types(n, seed=s).types) < crit
        for s in range(100)
    )
    assert below >= 95


def test_zero_population_rejected():
    with pytest.raises(ValueError):
        sampling.sample_types(0, seed=1)


@pytest.mark.parametrize("N", [3.0, 2.5, "3", True, None])
def test_a_non_integer_population_is_rejected_by_name(N):
    with pytest.raises(ValueError, match="population size N"):
        sampling.sample_types(N, seed=1)


def test_a_numpy_integer_population_draws_the_same_types():
    assert np.array_equal(sampling.sample_types(np.int32(7), seed=1).types,
                          sampling.sample_types(7, seed=1).types)


# --- weighted network ----------------------------------------------------------

def test_weighted_full_er():
    tv = sampling.sample_types(3, seed=0)
    net = sampling.weighted_network(kernels.erdos_renyi(1.0), tv)
    assert np.array_equal(net.P, np.ones((3, 3)) - np.eye(3))


def test_weighted_empty_er():
    tv = sampling.sample_types(6, seed=0)
    net = sampling.weighted_network(kernels.erdos_renyi(0.0), tv)
    assert np.all(net.P == 0.0)


def test_weighted_minmax_pair():
    tv = sampling.TypeVector(types=np.array([0.25, 0.75]))
    net = sampling.weighted_network(kernels.minmax(), tv)
    assert net.P[0, 1] == 0.0625  # min(0.25, 0.75) * (1 - 0.75)
    assert net.P[1, 0] == 0.0625
    assert net.P[0, 0] == 0.0 and net.P[1, 1] == 0.0


def test_weighted_symmetric_zero_diagonal():
    tv = sampling.sample_types(40, seed=3)
    net = sampling.weighted_network(kernels.minmax(), tv)
    assert np.array_equal(net.P, net.P.T)
    assert np.all(np.diag(net.P) == 0.0)


# --- simple network -------------------------------------------------------------

def test_simple_network_size_is_its_node_count():
    net = sampling.weighted_network(kernels.minmax(), sampling.sample_types(7, seed=0))
    assert sampling.simple_network(net, seed=1).N == 7


def test_simple_zero_and_complete():
    tv = sampling.sample_types(5, seed=0)
    zero = sampling.weighted_network(kernels.erdos_renyi(0.0), tv)
    assert np.all(sampling.simple_network(zero, seed=1).A == 0.0)
    full = sampling.weighted_network(kernels.erdos_renyi(1.0), tv)
    assert np.array_equal(sampling.simple_network(full, seed=1).A, full.P)


def test_simple_density_concentration():
    N, p = 200, 0.3
    tv = sampling.sample_types(N, seed=11)
    net = sampling.weighted_network(kernels.erdos_renyi(p), tv)
    n_pairs = N * (N - 1) // 2
    sigma = math.sqrt(p * (1 - p) / n_pairs)
    A = sampling.simple_network(net, seed=12).A
    density = A[np.triu_indices(N, k=1)].mean()
    assert abs(density - p) <= 3.0 * sigma


def test_simple_symmetric_zero_diag_deterministic():
    tv = sampling.sample_types(30, seed=5)
    net = sampling.weighted_network(kernels.minmax(), tv)
    a = sampling.simple_network(net, seed=9)
    b = sampling.simple_network(net, seed=9)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.A, a.A.T)
    assert np.all(np.diag(a.A) == 0.0)
    assert set(np.unique(a.A)) <= {0.0, 1.0}


def _triu_reference(P, seed):
    # Gather the strict upper triangle by triu_indices, draw, scatter both ways.
    N = P.shape[0]
    iu, ju = np.triu_indices(N, k=1)
    edges = (np.random.default_rng(seed).random(iu.shape[0]) < P[iu, ju]).astype(float)
    A = np.zeros((N, N))
    A[iu, ju] = edges
    A[ju, iu] = edges
    return A


@pytest.mark.parametrize("N", [1, 2, 3, 57, 400])
@pytest.mark.parametrize("seed", [0, 17, 2**40 + 3])
@pytest.mark.parametrize("spec", [kernels.minmax(), kernels.erdos_renyi(1.0)],
                         ids=["minmax", "er1"])
def test_simple_network_consumes_the_stream_in_row_major_upper_triangle_order(N, seed, spec):
    net = sampling.weighted_network(spec, sampling.sample_types(N, seed=seed + 1))
    A = sampling.simple_network(net, seed=seed).A
    assert A.dtype == np.float64 and A.shape == (N, N)
    assert A.tobytes() == _triu_reference(net.P, seed).tobytes()


def test_simple_network_reads_only_the_strict_upper_triangle():
    N = 9
    P = np.random.default_rng(3).random((N, N))
    lower = np.tril_indices(N, k=-1)
    P[lower] = np.where(np.arange(lower[0].shape[0]) % 2, 2.0, np.nan)
    np.fill_diagonal(P, 5.0)
    net = sampling.WeightedNetwork(P=P, types=sampling.sample_types(N, seed=4))
    A = sampling.simple_network(net, seed=8).A
    assert A.tobytes() == _triu_reference(P, 8).tobytes()
    assert np.array_equal(A, A.T) and not np.diag(A).any()
    assert 0.0 < A.mean() < 1.0


def test_simple_network_ignores_the_diagonal_and_lower_triangle_past_one_block():
    # The draws are compared block by block; a block's diagonal and the rows
    # below it are in its reads, so P's lower part must stay unread in every block.
    N = 2 * sampling._BLOCK_ROWS + 44
    tv = sampling.sample_types(N, seed=6)
    P = sampling.weighted_network(kernels.minmax(), tv).P
    ones = P.copy()
    ones[np.tril_indices(N)] = 1.0
    A = sampling.simple_network(sampling.WeightedNetwork(P=ones, types=tv), seed=2).A
    assert A.tobytes() == sampling.simple_network(sampling.WeightedNetwork(P, tv), 2).A.tobytes()
    assert A.tobytes() == _triu_reference(P, 2).tobytes()


def _grid5():
    V = np.random.default_rng(1).random((5, 5))
    return kernels.grid_kernel(np.triu(V) + np.triu(V, 1).T)


KINDS = {"er": kernels.erdos_renyi(0.4), "sbm": kernels.sbm([[0.8, 0.1], [0.1, 0.5]], [0.75, 0.25]),
         "minmax": kernels.minmax(), "grid": _grid5()}
_B = sampling._BLOCK_ROWS


@pytest.mark.parametrize("N", [1, 2, 3, 49, _B - 1, _B, _B + 1, 2 * _B + 1, 300])
@pytest.mark.parametrize("kind", KINDS)
def test_a_trial_draws_the_simple_network_of_its_weighted_network(kind, N):
    # A trial reads the kernel's closed form at its types block by block and
    # builds no P: its matrix is the 0-1 network drawn from the weighted
    # network, divided by N, bit for bit. The reference is divided, never the
    # result multiplied back: fl(fl(1/49) * 49) != 1.
    from graphon_games import experiments as ex
    spec = KINDS[kind]
    types, A_N = ex._trial_networks(spec, N, 4, 19)
    P = sampling.weighted_network(spec, types).P
    seed = ex.subseed(19, N, 4, 1)
    assert A_N.dtype == np.float64 and A_N.shape == (N, N)
    A = sampling.simple_network(sampling.WeightedNetwork(P, types), seed).A
    assert A_N.tobytes() == (A / N).tobytes()
    assert A.tobytes() == _triu_reference(P, seed).tobytes()
    assert sampling._kernel_links(spec, types, seed, 1.0).tobytes() == A.tobytes()


def test_a_draw_makes_no_kernel_evaluate_call(monkeypatch):
    # The draw reads the kernel's closed form at the sorted types, not evaluate
    # over pairs: a call of evaluate fails the test.
    def fail(*args, **kwargs):
        raise AssertionError("kernels.evaluate called")

    for module in (kernels, sampling):
        monkeypatch.setattr(module, "evaluate", fail, raising=False)
    for spec in KINDS.values():
        types = sampling.sample_types(2 * _B + 1, seed=3)
        assert sampling._kernel_links(spec, types, 5, 1.0).any()


def test_a_draw_keeps_only_a_and_its_link_mask():
    # At N = 800 a minmax draw peaks near 5.9 MB: A/N (8 N^2 bytes) and the bool
    # link mask (N^2), plus block buffers freed before A is written.
    import tracemalloc
    N = 800
    types = sampling.sample_types(N, seed=1)
    sampling._kernel_links(kernels.minmax(), types, 2, 1.0 / N)
    tracemalloc.start()
    try:
        A_N = sampling._kernel_links(kernels.minmax(), types, 2, 1.0 / N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A_N.nbytes == 8 * N * N
    assert peak <= A_N.nbytes + N * N + 0.3e6


def test_mean_consistency():
    # Averaging Bernoulli networks over seeds recovers the weighted network.
    N, n_seeds = 25, 2000
    tv = sampling.sample_types(N, seed=21)
    net = sampling.weighted_network(kernels.minmax(), tv)
    acc = np.zeros((N, N))
    for s in range(n_seeds):
        acc += sampling.simple_network(net, seed=1000 + s).A
    mean = acc / n_seeds
    sigma_max = math.sqrt(0.25 / n_seeds)
    assert np.max(np.abs(mean - net.P)) <= 5.0 * sigma_max


def test_edge_density_exchangeable_across_seed_batches():
    # The edge-density distribution depends only on the kernel, not on which
    # seeds produced it: two disjoint seed batches look alike.
    tv = sampling.sample_types(60, seed=2)
    net = sampling.weighted_network(kernels.erdos_renyi(0.4), tv)

    def densities(seeds):
        iu = np.triu_indices(60, k=1)
        return np.sort([sampling.simple_network(net, seed=s).A[iu].mean() for s in seeds])

    d1 = densities(range(0, 40))
    d2 = densities(range(40, 80))
    # two-sample KS distance with n = m = 40; 1% critical value ~ 1.628*sqrt(2/40)
    grid = np.union1d(d1, d2)
    cdf1 = np.searchsorted(d1, grid, side="right") / 40
    cdf2 = np.searchsorted(d2, grid, side="right") / 40
    assert np.max(np.abs(cdf1 - cdf2)) <= 1.628 * math.sqrt(2.0 / 40.0)


# --- serialization ----------------------------------------------------------------

def test_network_json_round_trip(tmp_path):
    tv = sampling.sample_types(8, seed=13)
    net = sampling.weighted_network(kernels.minmax(), tv)
    doc = json.loads(json.dumps(sampling.network_to_json(net.P, tv)))
    matrix, types = sampling.network_from_json(doc)
    assert np.array_equal(matrix, net.P)
    assert np.array_equal(types.types, tv.types)


def test_edge_csv(tmp_path):
    tv = sampling.TypeVector(types=np.array([0.2, 0.5, 0.9]))
    net = sampling.weighted_network(kernels.erdos_renyi(1.0), tv)
    path = tmp_path / "edges.csv"
    sampling.write_edge_csv(net.P, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "i,j,weight"
    assert len(lines) == 4  # three off-diagonal pairs


def test_edge_csv_lines_end_in_lf(tmp_path):
    net = sampling.weighted_network(kernels.erdos_renyi(0.5), sampling.sample_types(4, 1))
    path = tmp_path / "edges.csv"
    sampling.write_edge_csv(net.P, path)
    data = path.read_bytes()
    assert b"\r" not in data and data.count(b"\n") == 7  # header and six pairs


EDGE_SPECS = {
    "er": kernels.erdos_renyi(0.3),
    "sbm": kernels.sbm([[0.8, 0.1], [0.1, 0.6]], [0.75, 0.25]),
    "minmax": kernels.minmax(),
    "grid": kernels.grid_kernel([[0.9, 0.2, 0.4], [0.2, 0.5, 0.1], [0.4, 0.1, 0.7]]),
}


def whole_triangle_edge_csv(matrix, path):
    """The edge list as written from one copy of the whole upper triangle."""
    from graphon_games.experiments import _write_csv
    iu, ju = np.nonzero(np.triu(matrix, 1))
    _write_csv(path, "i,j,weight", [iu, ju, matrix[iu, ju]])


@pytest.mark.parametrize("kind", sorted(EDGE_SPECS))
@pytest.mark.parametrize("simple", [False, True])
@pytest.mark.parametrize("N,csv_block", [(1, 4096), (2, 4096), (150, 4096), (150, 100), (40, 1)])
def test_edge_csv_has_the_bytes_of_the_whole_triangle(tmp_path, monkeypatch, kind, simple, N,
                                                      csv_block):
    # Blocks of 109 and 2 rows at N = 150, of 1 at N = 40: the same lines, in the same
    # row-major order.
    from graphon_games import experiments
    monkeypatch.setattr(experiments, "_CSV_BLOCK", csv_block)
    net = sampling.weighted_network(EDGE_SPECS[kind], sampling.sample_types(N, 5))
    matrix = sampling.simple_network(net, 6).A if simple else net.P
    sampling.write_edge_csv(matrix, tmp_path / "blocks.csv")
    whole_triangle_edge_csv(matrix, tmp_path / "whole.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_edge_csv_peaks_well_below_the_matrix(tmp_path):
    # A block of rows at a time: one copy of the upper triangle alone would take the
    # matrix's 8 MB, and its edge columns more.
    import tracemalloc

    net = sampling.weighted_network(kernels.erdos_renyi(0.02), sampling.sample_types(1000, 2))
    A = sampling.simple_network(net, 3).A
    tracemalloc.start()
    try:
        sampling.write_edge_csv(A, tmp_path / "edges.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= A.nbytes / 16


_GOOD_NET = {"types": [0.2, 0.8], "matrix": [[0.0, 1.0], [1.0, 0.0]]}


@pytest.mark.parametrize("bad", [
    {"types": [0.2, 0.8]},
    {"matrix": [[0.0, 1.0], [1.0, 0.0]]},
    {**_GOOD_NET, "matrix": [[0.0, 1.0], [0.0, 0.0]]},
    {**_GOOD_NET, "matrix": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]},
    {**_GOOD_NET, "matrix": [[0.0, math.nan], [math.nan, 0.0]]},
    {**_GOOD_NET, "types": [0.2, 0.5, 0.8]},
    {**_GOOD_NET, "types": [0.2, 1.5]},
    {**_GOOD_NET, "types": [math.nan, 0.8]},
    {**_GOOD_NET, "types": [0.8, 0.2]},
])
def test_network_from_json_rejects_malformed_documents(bad):
    with pytest.raises(ValueError):
        sampling.network_from_json(bad)


def test_network_from_json_accepts_a_valid_document():
    matrix, types = sampling.network_from_json(_GOOD_NET)
    assert matrix.tolist() == _GOOD_NET["matrix"]
    assert types.types.tolist() == _GOOD_NET["types"]
