"""Incomplete-information checks against the infinite-population equilibrium.

When agents know the kernel and their own type but not the realized network,
the infinite-population equilibrium played as a type-contingent strategy is an
approximate Bayesian equilibrium. Two quantities are measured here:

  * the expected local aggregate of an agent of type x, the kernel-weighted
    average int W(x, y) s(y) dy (for any population size distribution), by
    midpoint quadrature on the profile's grid, and
  * a Monte Carlo estimate of the suboptimality epsilon = 2 L_U E|zeta - z(x)|,
    where zeta is the realized aggregate over random types and links,
    normalized by 1/(N-1) so the linear-quadratic equivalence is exact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .equilibrium import LqPayoff, lq_s_max, solve_graphon
from .errors import _check_size
from .kernels import GraphonSpec
from .spectral import DiscretizedOperator, GridFunction, discretize, dominant_eigenpair

__all__ = ["EpsilonEstimate", "expected_aggregate", "estimate_epsilon", "lq_L_U"]

DEFAULT_RESOLUTION = 1000
# Per-chunk budget of estimate_epsilon's (c, 2N - 1) uniforms. Two such buffers, one drawn while
# the other is reduced, plus (c, N - 1) link, value and cell index arrays take 3.4x this, 2.4x on
# the caller's core: 512 KiB ran the pipelined bne loops fastest of 128 KiB-1 MiB (2-vCPU Xeon,
# 2 MiB L2 per core: about 32 ms, 40 at 256 KiB and 47 for the serial loop at 256 KiB).
_CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class EpsilonEstimate:
    epsilon_hat: float
    N: int
    trials: int
    L_U: float
    stderr: float

    def to_json(self) -> dict:
        return asdict(self)


def _check_sbar(sbar: GridFunction) -> None:
    if not sbar.M or not np.isfinite(sbar.values).all():
        raise ValueError(f"sbar must be a nonempty profile of finite values, got {sbar.M} values")


def expected_aggregate(spec: GraphonSpec, sbar: GridFunction, x):
    """int W(x, y) sbar(y) dy by midpoint quadrature: the operator on sbar's grid applied at x.

    The integral is the expected realized aggregate of a type-x agent, for any population
    size; the quadrature is off it by O(M^-2), 1.3e-6 relative on minmax (alpha = 3,
    M = 1000, x = 0.1234). A scalar x gives a float; an array of types gives an array of
    their aggregates, each with the bits of its scalar call. Empty or non-finite sbar: ValueError.
    """
    _check_sbar(sbar)
    return DiscretizedOperator(spec, sbar.M).at(x, sbar.values)


def lq_L_U(p: LqPayoff, lambda_max: float) -> float:
    """Aggregate Lipschitz constant |alpha| * s_max of an LQ payoff's utility."""
    return abs(p.alpha) * lq_s_max(p, lambda_max)


def estimate_epsilon(spec: GraphonSpec, payoff, L_U: float | None, N: int, trials: int, seed,
                     sbar: GridFunction | None = None,
                     M: int = DEFAULT_RESOLUTION) -> EpsilonEstimate:
    """Monte Carlo estimate of the Bayesian suboptimality bound.

    Each trial draws one agent type, N-1 opponent types, Bernoulli links with
    the kernel probabilities, and records |zeta - z(x)| where
    zeta = (1/(N-1)) sum_j A_j sbar(t_j). The estimate is 2 L_U times the
    mean deviation, with its standard error.

    Trials run in chunks of c, each drawing one (c, 2N - 1) block of
    uniforms: per row t_i, the N - 1 t_j, then the N - 1 link uniforms, the
    stream and the bits of one trial at a time. c >= 1 bounds each chunk's
    uniforms by _CHUNK_BYTES = 512 KiB. A helper thread draws chunk k + 1
    into the second of two uniforms buffers while the caller reduces chunk
    k; two semaphores hand the buffers over in chunk order, so thread timing
    cannot change a bit. The helper is joined before the call returns or
    raises, and an error it meets is raised here. Every chunk runs in
    buffers allocated once per call: the two uniforms buffers and (c, N - 1)
    link, value and cell index arrays, 3.4 budgets. Memory is those plus
    O(trials + M), whatever N. N and trials must be integers (numpy ones too).

    ``L_U`` may be None for linear-quadratic payoffs, in which case
    ``lq_L_U`` is applied to lambda_max of the operator on sbar's grid.
    ``sbar`` (nonempty, finite) is the precomputed equilibrium on the M-point
    grid; it is solved here when omitted, and that solve's lambda_max is reused.
    """
    N, trials = _check_size(N, "population size N", 2), _check_size(trials, "trials", 1)
    lam = None
    if sbar is None:
        limit = solve_graphon(spec, payoff, M)
        sbar, lam = limit.profile, limit.lambda_max
    _check_sbar(sbar)
    if L_U is None:
        if not isinstance(payoff, LqPayoff):
            raise ValueError("L_U must be supplied for generic payoffs")
        if lam is None:
            lam = dominant_eigenpair(discretize(spec, sbar.M)).value
        L_U = lq_L_U(payoff, lam)
    if not 0.0 <= L_U < math.inf:
        raise ValueError(f"L_U must be nonnegative and finite, got {L_U}")

    rng = np.random.default_rng(seed)
    types, zeta = np.empty(trials), np.empty(trials)
    rows = min(trials, max(1, _CHUNK_BYTES // (8 * (2 * N - 1))))
    u = np.empty((2, rows, 2 * N - 1))  # chunk k's uniforms in u[k % 2]
    links, vals = np.empty((rows, N - 1)), np.empty((rows, N - 1))
    idx = np.empty((rows, N - 1), np.intp)
    starts = range(0, trials, rows)
    free, drawn, stop, failed = threading.Semaphore(2), threading.Semaphore(0), [], []

    def draw():  # the helper thread: chunk k into u[k % 2] once chunk k - 2 is reduced
        try:
            for k, start in enumerate(starts):
                free.acquire()
                if stop:
                    return
                rng.random(out=u[k % 2, :min(rows, trials - start)])
                drawn.release()
        except BaseException as exc:  # handed to the calling thread, which raises it
            failed.append(exc)
            drawn.release()

    helper = threading.Thread(target=draw, name="estimate_epsilon draws", daemon=True)
    helper.start()
    try:
        for k, start in enumerate(starts):  # each chunk in the leading c rows of the buffers
            drawn.acquire()
            if failed:
                raise failed[0]
            c = min(rows, trials - start)
            uc, lc, vc, ic = u[k % 2, :c], links[:c], vals[:c], idx[:c]
            types[start:start + c], tj = uc[:, 0], uc[:, 1:N]
            spec._family.values(uc[:, :1], tj, lc, vc, ic)  # draws in [0, 1): no range checks
            np.less(uc[:, N:], lc, out=lc)  # the link probabilities become 1.0 / 0.0 links
            np.copyto(ic, np.multiply(tj, sbar.M, out=vc), casting="unsafe")  # sbar's cell of t_j,
            sbar.values.take(ic, out=vc, mode="clip")  # clipped to M - 1 as by _cell_index
            zeta[start:start + c] = (lc[:, None, :] @ vc[:, :, None])[:, 0, 0] / (N - 1)
            free.release()
    finally:  # a helper waiting for a buffer wakes, sees stop and returns
        stop.append(True)
        free.release()
        helper.join()
    deviations = np.abs(zeta - expected_aggregate(spec, sbar, types))  # one O(M) pass over sbar

    se = float(deviations.std(ddof=1)) / math.sqrt(trials) if trials > 1 else math.nan
    return EpsilonEstimate(epsilon_hat=2.0 * L_U * float(deviations.mean()), N=N, trials=trials,
                           L_U=float(L_U), stderr=2.0 * L_U * se)
