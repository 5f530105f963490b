import itertools
import math
import sys
import threading

import numpy as np
import pytest

from graphon_games import bayes, kernels
from graphon_games.equilibrium import LqPayoff, solve_graphon_lq
from graphon_games.experiments import rate_fit
from graphon_games.spectral import DiscretizedOperator, GridFunction, midpoints

# Envelope constant for the concentration check, calibrated once on a
# 3000-trial run at N = 100 (about 18% exceedance) and frozen.
ENVELOPE_C = 0.25

MINMAX_LQ = LqPayoff(3.0, 1.0)


@pytest.fixture(scope="module")
def minmax_sbar():
    return solve_graphon_lq(kernels.minmax(), MINMAX_LQ, 1000).profile


def simulate_deviations(spec, sbar, N, trials, seed):
    """Independent simulation of |zeta - z(x)| under type and link randomness."""
    rng = np.random.default_rng(seed)
    devs = np.empty(trials)
    for k in range(trials):
        ti = rng.random()
        tj = rng.random(N - 1)
        links = rng.random(N - 1) < np.asarray(kernels.evaluate(spec, ti, tj))
        zeta = float(links @ sbar.value_at(tj)) / (N - 1)
        devs[k] = abs(zeta - bayes.expected_aggregate(spec, sbar, ti))
    return devs


# --- expected aggregate -------------------------------------------------------

def test_expected_aggregate_er_constant():
    sbar = GridFunction(np.full(50, 2.0))
    assert bayes.expected_aggregate(kernels.erdos_renyi(0.4), sbar, 0.3) == pytest.approx(
        0.8, abs=1e-14
    )


def test_expected_aggregate_zero_profile():
    sbar = GridFunction(np.zeros(50))
    assert bayes.expected_aggregate(kernels.minmax(), sbar, 0.7) == 0.0


def test_expected_aggregate_matches_simulation(minmax_sbar):
    # Monte Carlo mean of the realized aggregate at a fixed type matches the
    # quadrature value within three standard errors.
    spec = kernels.minmax()
    x, N, trials = 0.3, 200, 10_000
    rng = np.random.default_rng(99)
    TJ = rng.random((trials, N - 1))
    link_p = np.asarray(kernels.evaluate(spec, x, TJ))
    links = rng.random((trials, N - 1)) < link_p
    zetas = (links * minmax_sbar.value_at(TJ)).sum(axis=1) / (N - 1)
    se = zetas.std(ddof=1) / math.sqrt(trials)
    assert abs(zetas.mean() - bayes.expected_aggregate(spec, minmax_sbar, x)) <= 3.0 * se


# --- epsilon estimation --------------------------------------------------------

def test_epsilon_zero_profile():
    sbar = GridFunction(np.zeros(100))
    est = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, 1.0, 50, 200, seed=0, sbar=sbar)
    assert est.epsilon_hat == 0.0


def test_epsilon_complete_graph_constant_profile():
    # With all links present and a constant profile the realized aggregate is
    # deterministic, so the estimate vanishes.
    spec = kernels.erdos_renyi(1.0)
    sbar = GridFunction(np.full(100, 2.0))
    est = bayes.estimate_epsilon(spec, LqPayoff(0.5, 1.0), 1.0, 50, 200, seed=1, sbar=sbar)
    assert est.epsilon_hat == pytest.approx(0.0, abs=1e-12)


def test_epsilon_internal_lq_lipschitz_constant(minmax_sbar):
    # L_U defaults to |alpha| * s_max for linear-quadratic payoffs.
    est = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, 100, 50, seed=2,
                                 sbar=minmax_sbar)
    lam = 1.0 / np.pi**2
    expected = 3.0 * (1.0 / (1.0 - 3.0 * lam))
    assert est.L_U == pytest.approx(expected, rel=1e-3)


def test_epsilon_decreases_with_population(minmax_sbar):
    est_small = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, 100, 2000, seed=3,
                                       sbar=minmax_sbar)
    est_large = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, 1600, 2000, seed=4,
                                       sbar=minmax_sbar)
    z = (est_small.epsilon_hat - est_large.epsilon_hat) / math.hypot(
        est_small.stderr, est_large.stderr
    )
    assert z >= 1.645  # one-sided 95% confidence


def test_epsilon_rate_slope(minmax_sbar):
    Ns = [100, 400, 1600]
    eps = [
        bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, n, 2000, seed=5 + n,
                               sbar=minmax_sbar).epsilon_hat
        for n in Ns
    ]
    slope, _, _ = rate_fit(Ns, eps, delta=0.05)
    assert 0.5 <= slope <= 1.5


def test_concentration_envelope_exceedance_decreases(minmax_sbar):
    spec = kernels.minmax()
    fracs = {}
    for N in (100, 800):
        devs = simulate_deviations(spec, minmax_sbar, N, 3000, seed=77)
        envelope = ENVELOPE_C * math.sqrt(math.log(N - 1) / (N - 1))
        fracs[N] = float(np.mean(devs > envelope))
    assert fracs[800] < fracs[100]


def test_epsilon_estimate_validation():
    sbar = GridFunction(np.zeros(10))
    with pytest.raises(ValueError):
        bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, 1.0, 1, 10, seed=0, sbar=sbar)
    gen_like = object()
    with pytest.raises(ValueError):
        bayes.estimate_epsilon(kernels.minmax(), gen_like, None, 10, 10, seed=0, sbar=sbar)


@pytest.mark.parametrize("sizes,name", [
    ((3.0, 5), "population size N"), ((np.float64(3), 5), "population size N"),
    ((3, 2.5), "trials"), ((3, True), "trials"),
])
def test_epsilon_sizes_must_be_integers(sizes, name):
    sbar = GridFunction(np.ones(10))
    with pytest.raises(ValueError, match=name):
        bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, 1.0, *sizes, seed=0, sbar=sbar)


def test_epsilon_accepts_numpy_integer_sizes():
    sbar = GridFunction(np.linspace(0.5, 2.0, 10))
    est = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, 1.0, np.int64(9), np.int32(7),
                                 seed=0, sbar=sbar)
    assert est == bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, 1.0, 9, 7, seed=0, sbar=sbar)
    assert type(est.N) is int and type(est.trials) is int


def test_epsilon_discretizes_once_when_solving_its_own_profile(monkeypatch, minmax_sbar):
    # Without sbar, the solve's lambda_max gives L_U; the operator is not
    # discretized and power-iterated a second time. The result matches the
    # path that is handed sbar.
    from graphon_games import equilibrium

    calls = []
    real = equilibrium.discretize

    def counting(spec, M):
        calls.append(M)
        return real(spec, M)

    monkeypatch.setattr(equilibrium, "discretize", counting)
    monkeypatch.setattr(bayes, "discretize", counting)
    own = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, 100, 50, seed=2, M=1000)
    assert calls == [1000]
    given_sbar = bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, 100, 50, seed=2,
                                        sbar=minmax_sbar)
    assert own == given_sbar


@pytest.mark.parametrize("L_U", [math.nan, math.inf, -1.0])
def test_epsilon_rejects_a_non_finite_or_negative_L_U(minmax_sbar, L_U):
    with pytest.raises(ValueError, match="L_U"):
        bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, L_U, 20, 5, seed=1, sbar=minmax_sbar)


# --- chunked trials ------------------------------------------------------------

GRID7 = np.random.default_rng(8).random((7, 7))

BATCH_SPECS = {
    "er": kernels.erdos_renyi(0.3),
    "sbm": kernels.sbm([[0.8, 0.1], [0.1, 0.6]], [0.75, 0.25]),
    "minmax": kernels.minmax(),
    "grid": kernels.grid_kernel((GRID7 + GRID7.T) / 2),
}


def reference_estimate(spec, sbar, N, trials, seed, L_U=1.5):
    """(epsilon_hat, stderr) from the trial-at-a-time simulation."""
    devs = simulate_deviations(spec, sbar, N, trials, seed)
    se = float(devs.std(ddof=1)) / math.sqrt(trials) if trials > 1 else math.nan
    return 2.0 * L_U * float(devs.mean()), 2.0 * L_U * se


def spy_on_kernel_reads(monkeypatch, spy):
    """Route every kernel family's unchecked read ``values`` through ``spy(real, family, ...)``.

    The trial loop reads the kernel with its spec's ``_family.values``, its
    draws lying in [0, 1) by construction, into the chunk's buffers.
    """
    for family in (kernels._MinMax, kernels._Step):  # _Grid reads by _Step.values
        monkeypatch.setattr(family, "values", lambda *args, real=family.values: spy(real, *args))


def record_kernel_read_sizes(monkeypatch):
    """Points of each kernel read estimate_epsilon makes, in call order."""
    sizes = []

    def counting(real, family, x, y, *buffers):
        sizes.append(math.prod(np.broadcast_shapes(np.shape(x), np.shape(y))))
        return real(family, x, y, *buffers)

    spy_on_kernel_reads(monkeypatch, counting)
    return sizes


def assert_same_estimate(est, ref):
    assert est.epsilon_hat == ref[0]
    assert est.stderr == ref[1] or (math.isnan(est.stderr) and math.isnan(ref[1]))


@pytest.mark.parametrize("kind", sorted(BATCH_SPECS))
@pytest.mark.parametrize("N,trials", [(2, 1), (2, 5), (9, 131), (300, 200)])
def test_chunked_estimate_matches_the_trial_at_a_time_simulation(kind, N, trials):
    spec = BATCH_SPECS[kind]
    sbar = GridFunction(np.random.default_rng(1).random(37) + 0.5)
    est = bayes.estimate_epsilon(spec, MINMAX_LQ, 1.5, N, trials, seed=N + trials, sbar=sbar)
    assert_same_estimate(est, reference_estimate(spec, sbar, N, trials, N + trials))


# (N, trials per chunk, trials); one trial's largest array holds its 2N - 1
# uniforms, whatever sbar's M (10 here). A chunk of 0 rows stands for a
# budget smaller than one row.
@pytest.mark.parametrize("N,rows,trials", [
    (9, 4, 1), (9, 4, 3), (9, 4, 4), (9, 4, 5), (9, 4, 9),
    (2, 3, 7), (2, 3, 1),
    (9, 0, 5), (30, 0, 3),
])
def test_chunk_boundaries_keep_the_stream_and_the_bits(monkeypatch, N, rows, trials):
    row_bytes = 8 * (2 * N - 1)
    budget = rows * row_bytes + row_bytes // 2 if rows else row_bytes - 8
    monkeypatch.setattr(bayes, "_CHUNK_BYTES", budget)
    spec = BATCH_SPECS["minmax"]
    sbar = GridFunction(np.linspace(0.5, 2.0, 10))
    ref = reference_estimate(spec, sbar, N, trials, 3)
    sizes = record_kernel_read_sizes(monkeypatch)
    est = bayes.estimate_epsilon(spec, MINMAX_LQ, 1.5, N, trials, seed=3, sbar=sbar)
    assert_same_estimate(est, ref)
    chunk = max(rows, 1)
    assert len(sizes) == math.ceil(trials / chunk)  # the link probabilities, once a chunk
    assert max(sizes) <= max(budget // 8, row_bytes // 8)
    if trials == 1:
        assert math.isnan(est.stderr)


def chunk_layout_bytes(kind, N):
    """Bytes of estimate_epsilon's per-call buffers at N, plus the one temporary a step
    kernel's read allocates: searchsorted's block indices for sbm and er. The buffers are
    two of uniforms, one drawn while the other is reduced, and the link, value and cell
    index arrays. At N = 1600 they take 3.42 budgets, the temporary 0.49 more."""
    rows = max(1, bayes._CHUNK_BYTES // (8 * (2 * N - 1)))
    uniforms, links, values, cells = (8 * rows * n for n in (2 * N - 1, N - 1, N - 1, N - 1))
    return 2 * uniforms + links + values + cells + (cells if kind in ("er", "sbm") else 0)


# numpy's ufunc iterator buffers a strided or broadcast operand of a short row in
# np.getbufsize() doubles, 64 KiB; the kernel read has two such operands at once.
UFUNC_BUFFERS = 2 * 8 * np.getbufsize()


@pytest.mark.parametrize("kind", sorted(BATCH_SPECS))
def test_estimate_epsilon_peaks_within_its_chunk_budget(kind):
    # The buffers, allocated once per call, plus the step kernels' temporary and
    # numpy's iterator buffers; the rest is O(trials + M). One (trials, N) array
    # alone would take 2.56 MB, above the 2.0 MB bound for minmax.
    import tracemalloc

    spec, sbar = BATCH_SPECS[kind], GridFunction(np.linspace(0.5, 2.0, 1000))
    N, trials = 1600, 200
    bayes.estimate_epsilon(spec, MINMAX_LQ, 1.5, 20, 5, seed=0, sbar=sbar)  # warm up
    tracemalloc.start()
    try:
        bayes.estimate_epsilon(spec, MINMAX_LQ, 1.5, N, trials, seed=0, sbar=sbar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunk_layout_bytes(kind, N) <= (3.5 + 0.5 * (kind in ("er", "sbm"))) * bayes._CHUNK_BYTES
    assert peak <= chunk_layout_bytes(kind, N) + UFUNC_BUFFERS + 8 * 8 * (trials + sbar.M)


@pytest.mark.parametrize("kind", sorted(BATCH_SPECS))
def test_chunks_after_the_first_allocate_no_chunk_sized_array(monkeypatch, kind):
    # 8 chunks peak as 1 does, within the O(trials) bytes of the 7 more chunks' trials.
    # And from one kernel read to the next, traced memory never rises by a chunk's
    # array: every chunk runs in the buffers allocated once per call, and only the
    # step kernels' temporary and numpy's iterator buffers come and go. Arrays
    # drawn again per chunk would lift each rise to a chunk's working set, about
    # 3.4 budgets here, and leave the whole call's peak where it was.
    import tracemalloc

    spec, sbar = BATCH_SPECS[kind], GridFunction(np.linspace(0.5, 2.0, 1000))
    N = 1600
    rows = bayes._CHUNK_BYTES // (8 * (2 * N - 1))
    rises = []

    def reading(real, family, x, y, *buffers):
        current, peak = tracemalloc.get_traced_memory()
        rises.append(peak - current)  # since the previous read began
        tracemalloc.reset_peak()
        return real(family, x, y, *buffers)

    def peak(trials):
        tracemalloc.start()
        try:
            bayes.estimate_epsilon(spec, MINMAX_LQ, 1.5, N, trials, seed=0, sbar=sbar)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(rows)
    assert abs(peak(8 * rows) - one) <= 64 * 7 * rows
    spy_on_kernel_reads(monkeypatch, reading)
    peak(8 * rows)
    assert len(rises) == 8
    temporary = chunk_layout_bytes(kind, N) - chunk_layout_bytes("minmax", N)
    assert max(rises[1:]) <= temporary + UFUNC_BUFFERS + 64 * rows


# --- the helper thread that draws the next chunk ---------------------------------

def run_bounded(*calls):
    """Each call on a daemon thread of its own, all at once, joined with a timeout: what each
    returned or raised. None is left running: estimate_epsilon neither deadlocked nor left
    its helper thread behind, so the thread count is back to its value before the calls."""
    before, outcomes = threading.active_count(), [None] * len(calls)

    def target(i):
        try:
            outcomes[i] = calls[i]()
        except Exception as exc:
            outcomes[i] = exc

    runners = [threading.Thread(target=target, args=(i,), daemon=True) for i in range(len(calls))]
    for runner in runners:
        runner.start()
    for runner in runners:
        runner.join(60)
    assert not any(runner.is_alive() for runner in runners)
    assert threading.active_count() == before
    return outcomes


def ten_chunk_call(monkeypatch, seed=3):
    """estimate_epsilon on minmax at N = 50 over 40 trials in 10 chunks of 4, as a call to make."""
    monkeypatch.setattr(bayes, "_CHUNK_BYTES", 4 * 8 * (2 * 50 - 1))
    sbar = GridFunction(np.linspace(0.5, 2.0, 10))
    return lambda: bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, 1.5, 50, 40, seed, sbar)


def test_a_multi_chunk_call_leaves_no_thread_behind(monkeypatch):
    sizes = record_kernel_read_sizes(monkeypatch)
    est, = run_bounded(ten_chunk_call(monkeypatch))
    assert len(sizes) == 10
    sbar = GridFunction(np.linspace(0.5, 2.0, 10))
    assert_same_estimate(est, reference_estimate(kernels.minmax(), sbar, 50, 40, 3))


class GatedDraws(np.random.Generator):
    """A Generator whose ``random`` call numbered ``call`` sets ``entered``, then waits for
    ``proceed`` and raises ``error`` if ``fail``, or waits a fifth of a second and fills."""

    def gate(self, call, fail):
        self.calls, self.call, self.fail, self.error = 0, call, fail, RuntimeError("draw")
        self.entered, self.proceed = threading.Event(), threading.Event()
        return self

    def random(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.call:
            self.entered.set()
            self.proceed.wait(10 if self.fail else 0.2)
            if self.fail:
                raise self.error
        return super().random(*args, **kwargs)


def at_kernel_read(monkeypatch, read, act):
    """Call act() as estimate_epsilon reads the kernel for its chunk numbered ``read``."""
    reads = itertools.count(1)

    def reading(real, *args):
        if next(reads) == read:
            act()
        return real(*args)

    spy_on_kernel_reads(monkeypatch, reading)


def test_an_error_in_the_reduction_reaches_the_caller_and_stops_the_helper(monkeypatch):
    # Chunk 2's reduction raises while the helper is still drawing chunk 3: the call
    # must wake the helper for its stop, and wait for it, before it raises.
    rng, error = GatedDraws(np.random.PCG64(3)).gate(call=3, fail=False), RuntimeError("chunk 2")

    def fail():
        assert rng.entered.wait(10)
        raise error

    at_kernel_read(monkeypatch, 2, fail)
    outcome, = run_bounded(ten_chunk_call(monkeypatch, seed=rng))
    assert outcome is error


def test_an_error_in_a_draw_reaches_the_caller_and_stops_the_helper(monkeypatch):
    # estimate_epsilon draws from the Generator passed as its seed, which default_rng
    # returns as it is. The second draw raises once chunk 1 is being reduced, so only
    # the helper's error hand-over can wake the caller waiting for chunk 2.
    rng = GatedDraws(np.random.PCG64(3)).gate(call=2, fail=True)
    at_kernel_read(monkeypatch, 1, rng.proceed.set)
    outcome, = run_bounded(ten_chunk_call(monkeypatch, seed=rng))
    assert rng.calls == 2 and outcome is rng.error


def test_concurrent_calls_under_a_short_switch_interval_keep_their_bits(monkeypatch):
    # Eight calls at once on two cores, their helpers preempted every microsecond: each
    # estimate has the bits of its call made alone.
    calls = [ten_chunk_call(monkeypatch, seed) for seed in range(8)]
    alone = [call() for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        together = run_bounded(*calls)
    finally:
        sys.setswitchinterval(interval)
    assert together == alone


# Block boundaries of the step kernels in BATCH_SPECS (er and minmax have none).
BOUNDARIES = {"er": [], "sbm": [0.75], "minmax": [], "grid": list(np.arange(1, 7) / 7)}


@pytest.mark.parametrize("kind", sorted(BATCH_SPECS))
def test_expected_aggregate_of_an_array_matches_the_scalar_calls(kind, minmax_sbar):
    # Types at random, at 0 and 1, at every midpoint of sbar's grid (where the
    # minmax prefix sums switch) and at the block boundaries.
    spec, M = BATCH_SPECS[kind], minmax_sbar.M
    m = midpoints(M)
    x = np.concatenate([np.random.default_rng(6).random(25), [0.0, 1.0], m, BOUNDARIES[kind]])
    batch = bayes.expected_aggregate(spec, minmax_sbar, x)
    for xi, value in zip(x.tolist(), batch):
        scalar = bayes.expected_aggregate(spec, minmax_sbar, xi)
        assert type(scalar) is float
        assert value == scalar
        # the mean of products it replaced, to round-off of the summed terms
        terms = np.asarray(kernels.evaluate(spec, xi, m)) * minmax_sbar.values
        assert abs(scalar - float(np.mean(terms))) <= 1e-14 * float(np.mean(np.abs(terms)))
    assert bayes.expected_aggregate(spec, minmax_sbar, x[:25].reshape(5, 5)).shape == (5, 5)


@pytest.mark.parametrize("kind", sorted(BATCH_SPECS))
@pytest.mark.parametrize("M", [1, 2, 7, 1000])
def test_operator_at_the_midpoints_is_its_product(kind, M):
    # expected_aggregate's operator read at the grid is the grid product, bit
    # for bit, also at the M = 1 that the Bayes path accepts
    op = DiscretizedOperator(BATCH_SPECS[kind], M)
    s = np.random.default_rng(M).standard_normal(M)
    assert np.array_equal(op.at(midpoints(M), s), op @ s)


def test_estimate_epsilon_evaluates_the_kernel_only_for_the_links(monkeypatch):
    # Expected aggregates apply the operator, once for all trial types: no
    # evaluation has sbar's M columns, and the points evaluated are the
    # trials' N - 1 link probabilities.
    sbar = GridFunction(np.random.default_rng(2).random(5000))
    N, trials = 5, 300
    sizes, aggregates = record_kernel_read_sizes(monkeypatch), []
    real = bayes.expected_aggregate

    def counting(spec, sbar, x):
        aggregates.append(len(x))
        return real(spec, sbar, x)

    monkeypatch.setattr(bayes, "expected_aggregate", counting)
    bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, 1.5, N, trials, seed=4, sbar=sbar)
    assert max(sizes) < sbar.M
    assert sum(sizes) == trials * (N - 1)
    assert aggregates == [trials]


BAD_SBARS = {"nan": [1.0, math.nan, 2.0], "inf": [1.0, math.inf, 2.0], "empty": []}


@pytest.mark.parametrize("case", sorted(BAD_SBARS))
def test_an_empty_or_non_finite_sbar_is_rejected(case):
    sbar = GridFunction(np.array(BAD_SBARS[case]))
    with pytest.raises(ValueError, match="sbar"):
        bayes.expected_aggregate(kernels.minmax(), sbar, 0.3)
    for L_U in (1.0, None):
        with pytest.raises(ValueError, match="sbar"):
            bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, L_U, 10, 5, seed=0, sbar=sbar)


@pytest.mark.parametrize("kind", sorted(BATCH_SPECS))
def test_a_one_point_sbar_still_works(kind):
    spec, sbar = BATCH_SPECS[kind], GridFunction([2.0])
    value = 2.0 * kernels.evaluate(spec, 0.3, 0.5)
    assert bayes.expected_aggregate(spec, sbar, 0.3) == pytest.approx(value, rel=1e-15)
    est = bayes.estimate_epsilon(spec, MINMAX_LQ, 1.0, 10, 20, seed=0, sbar=sbar)
    assert math.isfinite(est.epsilon_hat) and est.epsilon_hat >= 0.0


def test_bne_configuration_evaluates_the_kernel_in_few_bounded_chunks(monkeypatch, minmax_sbar):
    # criterion 9's configuration: minmax, alpha = 3, Ns 100, 400, 1600, 2000 trials
    sizes = record_kernel_read_sizes(monkeypatch)
    for n in (100, 400, 1600):
        bayes.estimate_epsilon(kernels.minmax(), MINMAX_LQ, None, n, 2000, seed=n,
                               sbar=minmax_sbar)
    assert len(sizes) <= 300
    assert max(sizes) <= bayes._CHUNK_BYTES / 8
