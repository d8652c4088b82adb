"""Stage simulation: landscape draws, recommendation, consumption, payoffs.

The platform restricts to content the arriving user would accept (utility
at least the outside option), picks the metric argmax among those with
uniform tie-breaking, and recommends nothing when no content qualifies.
Creator payoff is the win indicator minus the creation cost.

Equilibrium supports sit exactly on the zero-utility curves, so the
eligibility indicator is evaluated with a small absolute tolerance; without
it, roundoff in the curve quality flips on-support content in and out of
eligibility and biases every estimate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._stats import MetricEstimate
from .equilibrium import MixedStrategy
from .model import Content, ModelInstance

TIE_RTOL = 1e-12  # scores this close (relative) count as tied
ELIGIBILITY_ATOL = 1e-9  # u >= -atol counts as acceptable to the user


class Metric(str, enum.Enum):
    ENGAGEMENT = "engagement"
    INVESTMENT = "investment"
    RANDOM = "random"


def metric_score(inst: ModelInstance, metric: Metric, w_costly, w_cheap):
    if metric is Metric.ENGAGEMENT:
        return inst.engagement(w_costly, w_cheap)
    if metric is Metric.INVESTMENT:
        return np.asarray(w_costly, dtype=float)
    if metric is Metric.RANDOM:
        return np.ones_like(np.asarray(w_costly, dtype=float))
    raise ValueError(f"unknown metric {metric!r}")


@dataclass(frozen=True)
class RoundBatch:
    """Vectorized outcomes of n independent rounds (winner -1 means none)."""

    user_type: np.ndarray
    winner: np.ndarray
    consumed: np.ndarray
    engagement: np.ndarray
    quality: np.ndarray
    user_utility: np.ndarray


def is_eligible(inst: ModelInstance, q, x, ts) -> np.ndarray:
    """Whether users of type ``ts`` accept content ``(q, x)``: utility at
    least the outside option, up to ELIGIBILITY_ATOL."""
    return np.asarray(inst.utility(q, x, ts), dtype=float) >= -ELIGIBILITY_ATOL


def eligible_scores(inst: ModelInstance, metric: Metric, q, x, ts) -> np.ndarray:
    """Metric scores of content ``(q, x)`` for users of type ``ts``, -inf
    where the user would reject the content (so it never wins)."""
    scores = np.asarray(metric_score(inst, metric, q, x), dtype=float)
    return np.where(is_eligible(inst, q, x, ts), scores, -np.inf)


def _tie_band(score):
    return TIE_RTOL * np.maximum(1.0, np.abs(score))


def _pick_winners(inst: ModelInstance, metric: Metric, q: np.ndarray,
                  x: np.ndarray, ts: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Winner column per row of an (n, P) landscape, -1 when nothing qualifies."""
    masked = eligible_scores(inst, metric, q, x, ts[:, None])
    best = masked.max(axis=1)
    any_eligible = best > -np.inf
    safe_best = np.where(any_eligible, best, 0.0)
    # ineligible columns hold -inf and never reach the finite threshold
    tied = masked >= (safe_best - _tie_band(safe_best))[:, None]
    k = tied.sum(axis=1)
    # uniform choice among tied columns; one uniform per row keeps the
    # stream length independent of the data
    r = np.minimum((rng.random(len(ts)) * np.maximum(k, 1)).astype(np.int64),
                   np.maximum(k - 1, 0))
    ranks = np.cumsum(tied, axis=1)
    chosen = tied & (ranks == (r + 1)[:, None])
    winner = chosen.argmax(axis=1)
    return np.where(any_eligible, winner, -1)


def recommend(inst: ModelInstance, metric: Metric, landscape: Sequence[Content],
              t: float, rng: np.random.Generator) -> Optional[int]:
    """Index of the recommended creator, or None if no content is eligible."""
    if len(landscape) == 0:
        raise ValueError("landscape must be nonempty")
    q = np.array([[w.w_costly for w in landscape]])
    x = np.array([[w.w_cheap for w in landscape]])
    winner = int(_pick_winners(inst, metric, q, x, np.array([float(t)]), rng)[0])
    return None if winner < 0 else winner


def simulate_rounds(inst: ModelInstance, metric: Metric, strategy: MixedStrategy,
                    P: int, n: int, rng: np.random.Generator) -> RoundBatch:
    """n independent rounds: P i.i.d. creator draws, one uniform user type."""
    if P < 1:
        raise ValueError("P must be >= 1")
    draws = strategy.sample(rng, n * P).reshape(n, P, 2)
    q, x = draws[:, :, 0], draws[:, :, 1]
    ts = inst.type_space.draw(rng, n)
    winner = _pick_winners(inst, metric, q, x, ts, rng)
    consumed = winner >= 0
    rows = np.arange(n)
    safe = np.where(consumed, winner, 0)
    wq = q[rows, safe]
    wx = x[rows, safe]
    quality = np.where(consumed, wq, 0.0)
    engagement = np.where(consumed, np.asarray(inst.engagement(wq, wx), dtype=float), 0.0)
    utility = np.where(consumed, np.asarray(inst.utility(wq, wx, ts), dtype=float), 0.0)
    return RoundBatch(user_type=ts, winner=winner, consumed=consumed,
                      engagement=engagement, quality=quality, user_utility=utility)


@dataclass(frozen=True)
class OpponentPool:
    """One draw of the opponent landscape for payoff estimates: n samples,
    each of P-1 opponent contents and one user type.

    The opponents' eligibility-masked scores are computed once, so a payoff
    evaluation is a few reductions over the (n, P-1) score array with no
    sampling, and every content evaluated on one pool faces the same draws
    (common random numbers).
    """

    inst: ModelInstance
    metric: Metric
    user_type: np.ndarray  # (n,)
    scores: np.ndarray  # (n, P-1), -inf where the user rejects the opponent
    top: np.ndarray  # (n,) best opponent score per sample

    @classmethod
    def draw(cls, inst: ModelInstance, metric: Metric,
             opponent_strategy: MixedStrategy, P: int, n: int,
             rng: np.random.Generator) -> "OpponentPool":
        if n < 1:
            raise ValueError("n must be >= 1")
        if P < 2:
            raise ValueError("P must be >= 2")
        opp = opponent_strategy.sample(rng, n * (P - 1)).reshape(n, P - 1, 2)
        ts = inst.type_space.draw(rng, n)
        scores = eligible_scores(inst, metric, opp[:, :, 0], opp[:, :, 1],
                                 ts[:, None])
        return cls(inst, metric, ts, scores, scores.max(axis=1))

    def payoffs(self, w: Content) -> np.ndarray:
        """Per-sample payoff of playing ``w``: the probability that it is
        recommended, minus the deterministic creation cost.

        Content the user rejects, or that an eligible opponent outscores,
        never wins; ties among eligible argmax contents contribute their
        exact uniform share.
        """
        s0 = float(metric_score(self.inst, self.metric, np.array(w.w_costly),
                                np.array(w.w_cheap)))
        band = _tie_band(s0)
        wins = (is_eligible(self.inst, w.w_costly, w.w_cheap, self.user_type)
                & (self.top <= s0 + band))
        tied = (self.scores >= s0 - band).sum(axis=1)
        share = np.where(wins, 1.0 / (1.0 + tied), 0.0)
        return share - float(self.inst.cost(w.w_costly, w.w_cheap))


def expected_creator_utility(inst: ModelInstance, metric: Metric, w: Content,
                             opponent_strategy: MixedStrategy, P: int, n: int,
                             rng: np.random.Generator) -> MetricEstimate:
    """Monte Carlo expected payoff of playing ``w`` against P-1 opponents,
    on a pool of n fresh opponent and user-type draws."""
    pool = OpponentPool.draw(inst, metric, opponent_strategy, P, n, rng)
    return MetricEstimate.from_samples(pool.payoffs(w))

