"""Downstream platform metrics and the closed-form quantities they check.

Three equilibrium performance measures, all gated by consumption: user
consumption of quality (winner quality), realized engagement (winner
engagement score), and user welfare (winner utility). One Monte Carlo pass
over simulated rounds estimates all three, on shards of at most
``ROUND_ROWS`` rounds run in order, whose boundaries depend only on the
round count. Each shard is one ``simulate_rounds`` batch (sampling, then
the column-by-column winner kernel of ``game``; a point-mass strategy skips
only those two, and shares the tie-break draw and the output tail) reduced
into three ``RunningMoments`` before the next starts, so the memory a pass
holds grows with ``ROUND_ROWS`` and P, not with the round count.
The homogeneous engagement case additionally has a closed-form route
through the quality CDF and an expected-maximum integral by a fixed
Gauss-Legendre rule per CDF panel, which the estimators are tested against.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ._stats import MetricEstimate, RunningMoments
from .equilibrium import MixedStrategy
from .game import Metric, simulate_rounds
from .model import ModelInstance

QUAD_NODES = 64  # Gauss-Legendre nodes per panel of expected_max_from_cdf
E_LIMIT_TOP = math.exp(1.0 - 1.0 / math.e)  # upper support of the limit cdf


# most rounds in one shard; fixed, because the shard boundaries set the draws
ROUND_ROWS = 16384
ROUND_FIELDS = {"ucq": "quality", "re": "engagement", "uw": "user_utility"}


def estimate_round_metrics(inst: ModelInstance, metric: Metric,
                           strategy: MixedStrategy, P: int, n: int,
                           rng: np.random.Generator) -> dict[str, MetricEstimate]:
    """UCQ, RE and UW, keyed by those names, from one pass of n rounds.

    The rounds are split as evenly as possible into ``ceil(n / ROUND_ROWS)``
    shards of at most ``ROUND_ROWS`` rounds, run in order on the calling
    thread. Each shard draws from a child spawned as the pass reaches it;
    ``SeedSequence`` numbers children in spawn order, so the draws equal
    those of one ``rng.spawn(shards)`` call. A shard's batch is reduced and
    freed before the next is drawn, so a pass takes O(ROUND_ROWS * P)
    memory whatever n is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shards = (n + ROUND_ROWS - 1) // ROUND_ROWS
    size, extra = divmod(n, shards)
    totals = {name: RunningMoments() for name in ROUND_FIELDS}
    for i in range(shards):
        batch = simulate_rounds(inst, metric, strategy, P, size + (i < extra),
                                rng.spawn(1)[0])
        for name, field in ROUND_FIELDS.items():
            totals[name].add_samples(getattr(batch, field))
        del batch  # freed before the next shard draws
    return {name: total.estimate() for name, total in totals.items()}


def estimate_ucq(inst, metric, strategy, P, n, rng) -> MetricEstimate:
    """User consumption of quality: winner quality when consumed, else 0."""
    return estimate_round_metrics(inst, metric, strategy, P, n, rng)["ucq"]


def estimate_re(inst, metric, strategy, P, n, rng) -> MetricEstimate:
    """Realized engagement: winner engagement score when consumed, else 0."""
    return estimate_round_metrics(inst, metric, strategy, P, n, rng)["re"]


def estimate_uw(inst, metric, strategy, P, n, rng) -> MetricEstimate:
    """User welfare: winner utility when consumed, else 0."""
    return estimate_round_metrics(inst, metric, strategy, P, n, rng)["uw"]


def limit_engagement_cdf(v, eps: float = 0.0) -> np.ndarray:
    """Large-type-count limit of the shifted engagement CDF.

    Supported on [1 + eps, (1 + eps) * e^(1 - 1/e)], where it equals
    ln(1 / (1 - ln(v / (1 + eps)))), clamped into [0, 1].
    """
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    v = np.asarray(v, dtype=float)
    lo = 1.0 + eps
    hi = lo * E_LIMIT_TOP
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = 1.0 - np.log(np.maximum(v, 1e-300) / lo)
        val = np.log(1.0 / np.maximum(inner, 1e-300))
    out = np.where(v <= lo, 0.0, np.where(v >= hi, 1.0, np.clip(val, 0.0, 1.0)))
    return out if out.ndim else float(out)


def expected_max_from_cdf(cdf: Callable, P: int, upper: float,
                          breakpoints: Sequence[float] = ()) -> float:
    """E[max of P i.i.d. draws] for a nonnegative variable with the given CDF.

    Integrates 1 - F(v)^P over [0, upper] with a ``QUAD_NODES``-point
    Gauss-Legendre rule on each panel between the supplied CDF breakpoints.
    The rule never evaluates a panel end, so an atom at a breakpoint does
    not bias it, and it is exact wherever 1 - F^P is a polynomial of degree
    below ``2 * QUAD_NODES`` on each panel (a piecewise-linear F with P <=
    127). The CDF must be nondecreasing and reach 1 by ``upper``.
    """
    if P < 1:
        raise ValueError("P must be >= 1")
    if upper <= 0.0:
        raise ValueError("upper must be positive")
    nodes = np.unique(np.concatenate([
        np.linspace(0.0, upper, 513),
        np.clip(np.asarray(list(breakpoints), dtype=float), 0.0, upper),
    ]))
    fvals = np.asarray(cdf(nodes), dtype=float)
    if np.any(np.diff(fvals) < -1e-12):
        raise ValueError("cdf is not monotone on the quadrature nodes")
    if fvals[-1] < 1.0 - 1e-9:
        raise ValueError(f"cdf reaches only {fvals[-1]} at upper={upper}")

    # imported on first use: loading numpy.polynomial would add about 3 ms to
    # every CLI start, and no command integrates
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(QUAD_NODES)
    panels = np.unique(np.clip(np.asarray([0.0, upper, *breakpoints], dtype=float),
                               0.0, upper))
    half = 0.5 * np.diff(panels)[:, None]
    v = 0.5 * (panels[:-1] + panels[1:])[:, None] + half * x
    return float(np.sum(half * w * (1.0 - np.asarray(cdf(v), dtype=float) ** P)))


def homogeneous_quality_cdf(alpha: float, gamma: float, t: float,
                            P: int) -> tuple[Callable, float, tuple[float, ...]]:
    """Closed-form quality marginal of the homogeneous engagement equilibrium.

    Returns (cdf, support_top, breakpoints). Negative baselines put an atom
    at quality 0 with mass (-alpha)^(1/(P-1)); positive baselines with
    costly gaming put an atom of mass (gamma * t * alpha)^(1/(P-1)) there.
    """
    if not (alpha > -1.0):
        raise ValueError("alpha must be > -1")
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must be in [0, 1)")
    if P < 2:
        raise ValueError("P must be >= 2")
    beta = max(0.0, -alpha)
    top = (1.0 - gamma * t * alpha) / (1.0 + gamma * t)
    expo = 1.0 / (P - 1)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        rising = np.clip(x + gamma * t * (x + alpha), 0.0, 1.0)
        base = np.where(x < beta, beta, rising)
        out = np.where(x < 0.0, 0.0, base ** expo)
        return out if out.ndim else float(out)

    return cdf, top, (0.0, beta, top)


def closed_form_ucq_homogeneous(alpha: float, gamma: float, t: float,
                                P: int) -> float:
    """Expected consumed quality under homogeneous engagement optimization.

    The winner is the max-quality draw, so this is the expected maximum of
    P i.i.d. draws from the closed-form quality marginal.
    """
    cdf, top, brk = homogeneous_quality_cdf(alpha, gamma, t, P)
    return expected_max_from_cdf(cdf, P, top, breakpoints=brk)


def ks_distance(samples: np.ndarray, cdf: Callable) -> float:
    """One-sample Kolmogorov-Smirnov distance, atom-aware.

    Compares the empirical CDF against ``cdf`` at each sample point and
    against the CDF's left limits, evaluated a hair below each point, which
    is exact for piecewise Lipschitz CDFs.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("samples must be nonempty")
    uniq, counts = np.unique(xs, return_counts=True)
    cum = np.cumsum(counts)
    emp_right = cum / n
    emp_left = (cum - counts) / n
    f_right = np.asarray(cdf(uniq), dtype=float)
    shift = 1e-9 * np.maximum(1.0, np.abs(uniq))
    f_left = np.asarray(cdf(uniq - shift), dtype=float)
    return float(max(np.abs(emp_right - f_right).max(),
                     np.abs(emp_left - f_left).max()))
