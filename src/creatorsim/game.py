"""Stage simulation: landscape draws, recommendation, consumption, payoffs.

The platform restricts to content the arriving user would accept (utility
at least the outside option), picks the metric argmax among those with
uniform tie-breaking, and recommends nothing when no content qualifies.
The tied are the eligible contents whose score equals the row's best
eligible score, exactly, in the round kernel and the payoff pool alike.
Creator payoff is the win indicator minus the creation cost.

Equilibrium supports sit exactly on the zero-utility curves, so acceptance
is the family's ``accepts``: the slack ``q - x / t + baseline`` may fall a
few ulps of its own terms below zero, else roundoff in the curve quality
flips on-support content in and out of eligibility and biases every
estimate. Stated on the slack, the rule ignores the utility's scale.

A batch of rounds is an (n, P) landscape with n large and P a handful, so
the round kernel works one creator column at a time: the best score, the
count of tied columns and the chosen winner are built from P elementwise
passes, and the winner's content is taken from the flat draws by one
gather. Reductions along the short axis would cost far more per row.

A strategy that is one point mass skips only sampling and the winner
step: all P columns hold the same content, so wherever the user accepts
it they all tie and the winner is the tie-break index itself. The batch
takes the same tie-break draw and shares the general kernel's output
tail, and a point mass draws nothing, so its outputs and the generator's
end state are those of the general kernel, bit for bit.

The payoff pool sorts its opponent rows once, so a content wins, ties or
loses on whole runs of rows between rank cuts. A sum over many contents
counts, per run between all their cuts, the contents that win outright and
those that tie, and one formula per row turns the two counts, the summed
costs and the row's tied share into the row's sum. Under exact ties the
opponents at a row's top are a fixed property of the row, so the pool
counts them when it is built, by the round kernel's own tie step, and
keeps that count instead of the scores.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ._frozen import Frozen
from .equilibrium import AtomComponent, MixedStrategy
from .model import ModelInstance


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


class RoundBatch(Frozen):
    """Vectorized outcomes of n independent rounds (winner -1 means none)."""

    def __init__(self, winner: np.ndarray, consumed: np.ndarray, engagement: np.ndarray,
                 quality: np.ndarray, user_utility: np.ndarray) -> None:
        self.__dict__.update(winner=winner, consumed=consumed, engagement=engagement,
                             quality=quality, user_utility=user_utility)


def eligible_scores(inst: ModelInstance, metric: Metric, q, x, ts) -> np.ndarray:
    """Metric scores of content ``(q, x)`` for users of type ``ts``, -inf
    where the user would reject the content (so it never wins)."""
    scores = np.asarray(metric_score(inst, metric, q, x), dtype=float)
    return np.where(inst.family.accepts(q, x, ts), scores, -np.inf)


def _ties(cols: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The tie rule of both kernels, on the eligibility-masked score columns
    of n rows: each row's best score, per column whether it equals that
    best, and per row how many columns do. Every row's best column ties
    with itself, -inf included, so the count is at least 1. Ineligible
    columns (-inf) tie only where none is eligible."""
    best = cols[0]
    for col in cols[1:]:
        best = np.maximum(best, col)
    tied = [col >= best for col in cols]
    k = np.zeros(len(best), dtype=np.intp)
    for hit in tied:
        k += hit
    return best, tied, k


def _tie_break(rng: np.random.Generator, n: int, k) -> np.ndarray:
    """Uniform index below ``k`` tied columns, per row or for all rows, from
    one uniform per row, so the stream length is independent of the data."""
    return np.minimum((rng.random(n) * k).astype(np.int64), k - 1)


def _pick_winners(inst: ModelInstance, metric: Metric, q: np.ndarray,
                  x: np.ndarray, ts: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Winner column per row of an (n, P) landscape, -1 when nothing qualifies."""
    best, tied, k = _ties(eligible_scores(inst, metric, q, x, ts[:, None]).T)
    r = _tie_break(rng, len(ts), k)
    # the winner is the first column whose running tied count reaches r + 1,
    # so its index is the number of columns whose running count is <= r
    seen = np.zeros_like(k)
    winner = np.zeros_like(k)
    for hit in tied:
        seen += hit
        winner += seen <= r
    winner[best == -np.inf] = -1  # nothing eligible: all tied at -inf
    return winner


def simulate_rounds(inst: ModelInstance, metric: Metric, strategy: MixedStrategy,
                    P: int, n: int, rng: np.random.Generator) -> RoundBatch:
    """n independent rounds: P i.i.d. creator draws, one uniform user type.

    A single point mass skips only sampling and ``_pick_winners``: every
    column ties wherever the point is accepted, so the winner is the
    tie-break index over all P columns. Both paths share the tie-break and
    the tail that builds the three outputs and zeroes the idle rows."""
    if P < 1:
        raise ValueError("P must be >= 1")
    (_, point), *rest = strategy.components
    if not rest and isinstance(point, AtomComponent):
        q, x = point.w_costly, point.w_cheap
        metric_score(inst, metric, q, x)  # rejects an unknown metric, as below
        ts = inst.type_space.draw(rng, n)
        consumed = inst.family.accepts(q, x, ts)
        winner = np.where(consumed, _tie_break(rng, n, P), -1)
        wq, wx = np.full(n, q, dtype=float), np.full(n, x, dtype=float)
    else:
        draws = strategy.sample(rng, n * P).reshape(n, P, 2)
        ts = inst.type_space.draw(rng, n)
        winner = _pick_winners(inst, metric, draws[:, :, 0], draws[:, :, 1], ts, rng)
        consumed = winner >= 0
        # the winner's content, or column 0's where nothing is consumed,
        # taken from the flat (n * P, 2) draws
        won = draws.reshape(n * P, 2).take(
            np.arange(0, n * P, P) + np.maximum(winner, 0), axis=0)
        wq, wx = won[:, 0], won[:, 1]
    engagement = np.asarray(inst.engagement(wq, wx), dtype=float)
    utility = np.asarray(inst.utility(wq, wx, ts), dtype=float)
    quality = wq.copy()
    idle = ~consumed
    for value in (quality, engagement, utility):
        value[idle] = 0.0
    return RoundBatch(winner=winner, consumed=consumed, engagement=engagement,
                      quality=quality, user_utility=utility)


class OpponentPool(Frozen):
    """One draw of the opponent landscape for payoff estimates: n samples,
    each of P-1 opponent contents and one user type.

    The opponents' eligibility-masked scores are computed once, with each
    row's best (``top``) and how many opponents score it, by ``_ties``, and
    the rows are sorted once, by user type and then by top:
    one argsort of the tops, then a stable radix argsort of the small-integer
    type index. Rows with equal type and top may land in any order, which no
    result depends on. A content with score s0 then wins a row of a type
    that accepts it outright when the top is below s0, ties when the top
    equals s0, and loses otherwise. So scoring a content is two
    ``searchsorted`` cuts of the tops per type, one on each side of s0,
    plus a look at the rows between them, with no sampling, and every
    content scored on one pool faces the same draws (common random
    numbers). Contents come in as an (m, 2) array of (q, x) rows, and
    ``estimates`` answers with mean and stderr arrays over the pool's n
    samples, so scoring a grid builds no per-content object; ``payoffs``
    answers with the per-sample sum over the contents, from counts of wins
    and ties per segment between their cuts. The scores are not kept: a
    tied content's share of a row is 1 / (1 + the opponents at the row's
    top), and that count is kept per row, so the pool holds O(n) numbers
    and never changes.
    """

    def __init__(self, inst: ModelInstance, metric: Metric, P: int,
                 order: np.ndarray, sorted_top: np.ndarray, tied: np.ndarray,
                 type_start: np.ndarray) -> None:
        # P: creators per round, so each row holds P - 1 opponents
        # order: (n,) rows sorted by user type, then by top
        # sorted_top: (n,) top of each row in ``order``
        # tied: (n,) opponents scoring the top of each row in ``order``
        # type_start: (T+1,) where each type's rows begin in ``order``
        self.__dict__.update(inst=inst, metric=metric, P=P, order=order,
                             sorted_top=sorted_top, tied=tied,
                             type_start=type_start)

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
        return cls.of(inst, metric, opp[:, :, 0], opp[:, :, 1], ts)

    @classmethod
    def of(cls, inst: ModelInstance, metric: Metric, q: np.ndarray,
           x: np.ndarray, ts: np.ndarray) -> "OpponentPool":
        """The pool of given opponents: row i holds contents
        ``(q[i, j], x[i, j])`` facing a user of type ``ts[i]``, which must be
        one of ``inst.types``."""
        cols = eligible_scores(inst, metric, q, x, ts[:, None]).T
        top, _, tied = _ties(cols)
        kind = np.searchsorted(inst.types, ts).astype(
            np.min_scalar_type(len(inst.types)))
        order = np.argsort(top)
        order = order[np.argsort(kind[order], kind="stable")]
        type_start = np.searchsorted(
            kind[order], np.arange(len(inst.types) + 1, dtype=kind.dtype))
        return cls(inst, metric, len(cols) + 1, order, top[order], tied[order],
                   type_start)

    def _cuts(self, q: np.ndarray, x: np.ndarray):
        """Per type, the ``order`` positions ``start <= lo <= hi`` that split
        the type's rows into outright wins, ties and losses for each content
        ``(q[i], x[i])``: rows whose top is below, equal to or above its
        score. Types that reject the content get ``lo = hi = start``: no row
        of theirs wins."""
        s0 = np.asarray(metric_score(self.inst, self.metric, q, x), dtype=float)
        accepts = self.inst.family.accepts(q[:, None], x[:, None],
                                           np.asarray(self.inst.types))
        start = np.broadcast_to(self.type_start[:-1], accepts.shape)
        lo, hi = np.empty_like(start), np.empty_like(start)
        for k, (a, b) in enumerate(zip(self.type_start[:-1], self.type_start[1:])):
            lo[:, k] = a + np.searchsorted(self.sorted_top[a:b], s0, side="left")
            hi[:, k] = a + np.searchsorted(self.sorted_top[a:b], s0, side="right")
        return start, np.where(accepts, lo, start), np.where(accepts, hi, start)

    def payoffs(self, contents: np.ndarray) -> np.ndarray:
        """Per-sample payoff of playing each ``(q, x)`` row of the (m, 2)
        array ``contents``, summed over the rows in order: for one content,
        the probability that it is recommended minus its deterministic
        creation cost.

        Content the user rejects, or that an eligible opponent outscores,
        never wins; ties among eligible argmax contents contribute their
        exact uniform share. The type starts and every content's cuts split
        ``order`` into elementary segments, on each of which every content
        wins outright, ties or loses throughout. So each segment has a count
        of outright wins and a count of ties, and a row's sum is
        ``(wins - C) + ties / (1 + tied)``, with ``C`` numpy's sum of the
        contents' costs: ``np.repeat`` expands each count over its segment,
        and the tie term is left out when no row ties, since it would add an
        exact ``+0.0``. One content's payoff is ``share - cost`` to the bit.
        One permutation at the end restores the pool's row order. Memory is
        O(n + m * segments).
        """
        q, x = np.asarray(contents, dtype=float).T
        _, lo, hi = self._cuts(q, x)
        cost = np.asarray(self.inst.cost(q, x), dtype=float)
        cuts = np.sort(np.concatenate([self.type_start, lo.ravel(), hi.ravel()]))
        begin, length = cuts[:-1], np.diff(cuts)
        kind = np.minimum(np.searchsorted(self.type_start, begin, side="right") - 1,
                          len(self.type_start) - 2)
        seg_lo, seg_hi = lo[:, kind], hi[:, kind]
        wins = (begin < seg_lo).sum(axis=0)
        ties = ((seg_lo <= begin) & (begin < seg_hi)).sum(axis=0)
        sums = np.repeat(wins - cost.sum(), length)
        if ties.any():
            sums += np.repeat(ties, length) / (1 + self.tied)
        out = np.empty_like(sums)
        out[self.order] = sums
        return out

    def estimates(self, contents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and stderr arrays of the payoff of each ``(q, x)`` row of the
        (m, 2) array ``contents``, all over the pool's n samples. Row i
        equals ``MetricEstimate.from_samples(self.payoffs(contents[i:i + 1]))``
        up to rounding, without a per-sample vector: a row's share is one of
        1, 1/2, ..., 1/P or 0, so the mean and the centred sum of squares
        follow from how many rows take each value."""
        q, x = np.asarray(contents, dtype=float).T
        start, lo, hi = self._cuts(q, x)
        n, P = len(self.order), self.P
        counts = np.zeros((len(q), P))  # rows whose share is 1 / (1 + column)
        counts[:, 0] = (lo - start).sum(axis=1)
        tie_counts = {}  # tied share counts, by band (lo, hi)
        for i, k in zip(*np.nonzero(hi > lo)):
            key = (int(lo[i, k]), int(hi[i, k]))
            if key not in tie_counts:
                tie_counts[key] = np.bincount(self.tied[key[0]:key[1]], minlength=P)
            counts[i] += tie_counts[key]
        shares = 1.0 / (1.0 + np.arange(P))
        mean = counts @ shares / n
        m2 = (counts * (shares - mean[:, None]) ** 2).sum(axis=1) \
            + (n - counts.sum(axis=1)) * mean ** 2
        stderr = np.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else np.zeros(len(q))
        return mean - np.asarray(self.inst.cost(q, x), dtype=float), stderr
