"""Stage simulation: landscape draws, recommendation, consumption, payoffs.

The platform restricts to content the arriving user would accept (utility
at least the outside option), picks the metric argmax among those with
uniform tie-breaking, and recommends nothing when no content qualifies.
The tied are the contents within ``TIE_RTOL * max(1, |best|)`` of the
row's best eligible score ``best``; the round kernel and the payoff pool
both take this floor from ``_tie_floor``. Creator payoff is the win
indicator minus the creation cost.

Equilibrium supports sit exactly on the zero-utility curves, so the
eligibility indicator is evaluated with a small absolute tolerance; without
it, roundoff in the curve quality flips on-support content in and out of
eligibility and biases every estimate.

A batch of rounds is an (n, P) landscape with n large and P a handful, so
the round kernel works one creator column at a time: the best score, the
count of tied columns and the chosen winner are built from P elementwise
passes, and the winner's content is taken from the flat draws by one
gather. Reductions along the short axis would cost far more per row.

A strategy that is one point mass builds no landscape: all P columns hold
the same content, so wherever the user accepts it they all tie and the
general kernel's winner is the tie-break index itself. The batch tests
acceptance once per row and makes the same draws in the same order (a
point mass draws nothing), so its outputs and the generator's end state
are those of the general kernel, bit for bit.

The payoff pool sorts its opponent rows once, so a content wins, ties or
loses on whole runs of rows between rank cuts. Sums over many contents are
built once per run between all their cuts and expanded, and only rows in a
tie band, where the share varies from row to row, are visited one by one,
from tied counts that the pool, one fixed draw, keeps for each band.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ._frozen import Frozen
from ._stats import MetricEstimate
from .equilibrium import AtomComponent, MixedStrategy
from .model import Content, ModelInstance

TIE_RTOL = 1e-12  # scores this close (relative) count as tied
ELIGIBILITY_ATOL = 1e-9  # u >= -atol counts as acceptable to the user
_FLOAT_MAX = float(np.finfo(float).max)


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

    def __init__(self, user_type: np.ndarray, winner: np.ndarray,
                 consumed: np.ndarray, engagement: np.ndarray,
                 quality: np.ndarray, user_utility: np.ndarray) -> None:
        self.__dict__.update(user_type=user_type, winner=winner,
                             consumed=consumed, engagement=engagement,
                             quality=quality, user_utility=user_utility)


def is_eligible(inst: ModelInstance, q, x, ts) -> np.ndarray:
    """Whether users of type ``ts`` accept content ``(q, x)``: utility at
    least the outside option, up to ELIGIBILITY_ATOL."""
    return np.asarray(inst.utility(q, x, ts), dtype=float) >= -ELIGIBILITY_ATOL


def eligible_scores(inst: ModelInstance, metric: Metric, q, x, ts) -> np.ndarray:
    """Metric scores of content ``(q, x)`` for users of type ``ts``, -inf
    where the user would reject the content (so it never wins)."""
    scores = np.asarray(metric_score(inst, metric, q, x), dtype=float)
    return np.where(is_eligible(inst, q, x, ts), scores, -np.inf)


def _tie_floor(best):
    """Lowest score tied with a row's best eligible score ``best``; the band
    is capped at a finite value, so the floor is nondecreasing up to ±inf."""
    return best - TIE_RTOL * np.minimum(np.maximum(1.0, np.abs(best)), _FLOAT_MAX)


def _pick_winners(inst: ModelInstance, metric: Metric, q: np.ndarray,
                  x: np.ndarray, ts: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Winner column per row of an (n, P) landscape, -1 when nothing qualifies."""
    cols = eligible_scores(inst, metric, q, x, ts[:, None]).T
    best = cols[0]
    for col in cols[1:]:
        best = np.maximum(best, col)
    # ineligible columns (-inf) tie only where none is eligible: winner -1 below
    floor = _tie_floor(best)
    tied = [col >= floor for col in cols]
    k = np.zeros(len(ts), dtype=np.intp)
    for hit in tied:
        k += hit
    # uniform choice among tied columns; one uniform per row keeps the
    # stream length independent of the data
    r = np.minimum((rng.random(len(ts)) * np.maximum(k, 1)).astype(np.int64),
                   np.maximum(k - 1, 0))
    # the winner is the first column whose running tied count reaches r + 1,
    # so its index is the number of columns whose running count is <= r
    seen = np.zeros_like(k)
    winner = np.zeros_like(k)
    for hit in tied:
        seen += hit
        winner += seen <= r
    winner[best == -np.inf] = -1
    return winner


def simulate_rounds(inst: ModelInstance, metric: Metric, strategy: MixedStrategy,
                    P: int, n: int, rng: np.random.Generator) -> RoundBatch:
    """n independent rounds: P i.i.d. creator draws, one uniform user type.

    A single point mass skips the (n, P) landscape and ``_pick_winners``:
    every column ties wherever the point is accepted, so the winner is
    ``min(floor(u * P), P - 1)`` from the same tie-break uniform u."""
    if P < 1:
        raise ValueError("P must be >= 1")
    (_, point), *rest = strategy.components
    if not rest and isinstance(point, AtomComponent):
        q, x = float(point.w_costly), float(point.w_cheap)
        metric_score(inst, metric, q, x)  # rejects an unknown metric, as below
        ts = inst.type_space.draw(rng, n)
        utility = np.asarray(inst.utility(q, x, ts), dtype=float)
        consumed = utility >= -ELIGIBILITY_ATOL  # is_eligible on the point
        r = np.minimum((rng.random(n) * P).astype(np.int64), P - 1)
        return RoundBatch(
            user_type=ts, winner=np.where(consumed, r, -1), consumed=consumed,
            engagement=np.where(consumed, float(inst.engagement(q, x)), 0.0),
            quality=np.where(consumed, q, 0.0),
            user_utility=np.where(consumed, utility, 0.0))
    draws = strategy.sample(rng, n * P).reshape(n, P, 2)
    q, x = draws[:, :, 0], draws[:, :, 1]
    ts = inst.type_space.draw(rng, n)
    winner = _pick_winners(inst, metric, q, x, ts, rng)
    consumed = winner >= 0
    # the winner's content, or column 0's where nothing is consumed, taken
    # from the flat (n * P, 2) draws
    won = draws.reshape(n * P, 2).take(
        np.arange(0, n * P, P) + np.maximum(winner, 0), axis=0)
    wq, wx = won[:, 0], won[:, 1]
    engagement = np.asarray(inst.engagement(wq, wx), dtype=float)
    utility = np.asarray(inst.utility(wq, wx, ts), dtype=float)
    quality = wq.copy()
    idle = ~consumed
    for value in (quality, engagement, utility):
        value[idle] = 0.0
    return RoundBatch(user_type=ts, winner=winner, consumed=consumed,
                      engagement=engagement, quality=quality, user_utility=utility)


class OpponentPool(Frozen):
    """One draw of the opponent landscape for payoff estimates: n samples,
    each of P-1 opponent contents and one user type.

    The opponents' eligibility-masked scores are computed once, and the rows
    are sorted once, by user type and then by best opponent score (``top``):
    one argsort of the tops, then a stable radix argsort of the small-integer
    type index. Rows with equal type and top may land in any order, which no
    result depends on. Each row's floor ``_tie_floor(top)`` is sorted too,
    as ``_tie_floor`` is nondecreasing. A content with score s0 then wins a
    row of a type that accepts it outright when the top is below
    ``_tie_floor(s0)``, ties when s0 is at least the row's floor, and loses
    otherwise. So scoring a content is two ``searchsorted`` cuts per type,
    on the tops and on the floors, plus a look at the rows between them,
    with no sampling, and every content scored on one pool faces the same
    draws (common random numbers). Contents come in as an (m, 2) array of
    (q, x) rows, and ``estimates`` answers with mean and stderr arrays over
    the pool's n samples, so scoring a grid builds no per-content object;
    ``payoffs`` answers with the per-sample sum over the contents, built
    per segment between their cuts; each tie band's tied counts are
    computed once per pool.
    """

    def __init__(self, inst: ModelInstance, metric: Metric,
                 scores: np.ndarray, order: np.ndarray, sorted_top: np.ndarray,
                 sorted_floor: np.ndarray, type_start: np.ndarray) -> None:
        # scores: (n, P-1), -inf where the user rejects the opponent
        # order: (n,) rows sorted by user type, then by top
        # sorted_top: (n,) top of each row in ``order``
        # sorted_floor: (n,) ``_tie_floor`` of each entry of sorted_top
        # type_start: (T+1,) where each type's rows begin in ``order``
        # _bands: ``_tied`` counts by tie band (lo, hi, floor)
        self.__dict__.update(inst=inst, metric=metric, scores=scores,
                             order=order, sorted_top=sorted_top,
                             sorted_floor=sorted_floor, type_start=type_start,
                             _bands={})

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
        scores = eligible_scores(inst, metric, q, x, ts[:, None])
        cols = scores.T
        top = cols[0]
        for col in cols[1:]:
            top = np.maximum(top, col)
        kind = np.searchsorted(inst.types, ts).astype(
            np.min_scalar_type(len(inst.types)))
        order = np.argsort(top)
        order = order[np.argsort(kind[order], kind="stable")]
        type_start = np.searchsorted(
            kind[order], np.arange(len(inst.types) + 1, dtype=kind.dtype))
        top = top[order]
        return cls(inst, metric, scores, order, top, _tie_floor(top), type_start)

    def _cuts(self, q: np.ndarray, x: np.ndarray):
        """Tie floor of each content ``(q[i], x[i])`` and, per type, the
        ``order`` positions ``start <= lo <= hi`` that split the type's rows
        into outright wins, tie-band rows and losses. Types that reject the
        content get ``lo = hi = start``: no row of theirs wins."""
        s0 = np.asarray(metric_score(self.inst, self.metric, q, x), dtype=float)
        floor = _tie_floor(s0)
        accepts = is_eligible(self.inst, q[:, None], x[:, None],
                              np.asarray(self.inst.types))
        start = np.broadcast_to(self.type_start[:-1], accepts.shape)
        lo, hi = np.empty_like(start), np.empty_like(start)
        for k, (a, b) in enumerate(zip(self.type_start[:-1], self.type_start[1:])):
            lo[:, k] = a + np.searchsorted(self.sorted_top[a:b], floor, side="left")
            hi[:, k] = a + np.searchsorted(self.sorted_floor[a:b], s0, side="right")
        return floor, start, np.where(accepts, lo, start), np.where(accepts, hi, start)

    def _tied(self, lo: int, hi: int, floor: float) -> np.ndarray:
        """Opponents tied with a content of floor ``floor`` per row of
        ``order[lo:hi]``: those at or above the larger of it and the row's,
        counted once per band and kept, as the pool's rows never change."""
        if (lo, hi, floor) not in self._bands:
            cut = np.maximum(self.sorted_floor[lo:hi], floor)
            tied = self.scores[self.order[lo:hi]] >= cut[:, None]
            self._bands[lo, hi, floor] = tied.sum(axis=1)
        return self._bands[lo, hi, floor]

    def payoffs(self, contents: np.ndarray) -> np.ndarray:
        """Per-sample payoff of playing each ``(q, x)`` row of the (m, 2)
        array ``contents``, summed over the rows in order: for one content,
        the probability that it is recommended minus its deterministic
        creation cost.

        Content the user rejects, or that an eligible opponent outscores,
        never wins; ties among eligible argmax contents contribute their
        exact uniform share. The type starts and every content's cuts split
        ``order`` into elementary segments, on each of which every content
        wins outright, ties or loses throughout. Outside tie bands a
        content's share is 1 or 0 on the whole segment, so each segment's
        sum is built once, content by content, and ``np.repeat`` expands
        it. Only rows inside some content's tie band are summed row by row,
        from tied counts computed once per band for the pool's lifetime.
        Either way every sample sums the same terms in the same order as
        adding the contents' vectors one by one; one permutation at the end
        restores the pool's row order. Memory is O(n + m * segments) plus
        one share vector per distinct tie band.
        """
        q, x = np.asarray(contents, dtype=float).T
        floor, _, lo, hi = self._cuts(q, x)
        cost = np.asarray(self.inst.cost(q, x), dtype=float)
        cuts = np.sort(np.concatenate([self.type_start, lo.ravel(), hi.ravel()]))
        begin, length = cuts[:-1], np.diff(cuts)
        kind = np.minimum(np.searchsorted(self.type_start, begin, side="right") - 1,
                          len(self.type_start) - 2)
        seg_lo, seg_hi = lo[:, kind], hi[:, kind]
        value = (begin < seg_lo) - cost[:, None]  # share 1 or 0, minus the cost
        total = np.zeros(len(begin))
        for row in value:
            total += row
        sums = np.repeat(total, length)
        band = (seg_lo <= begin) & (begin < seg_hi)
        shares = {}  # tie-band shares, by (lo, hi, floor)
        for seg in np.flatnonzero(band.any(axis=0) & (length > 0)):
            a, b, k = int(begin[seg]), int(cuts[seg + 1]), kind[seg]
            acc = sums[a:b]
            acc.fill(0.0)
            tied = np.empty_like(acc)
            for i in range(len(q)):
                if not band[i, seg]:
                    acc += value[i, seg]
                    continue
                key = (int(lo[i, k]), int(hi[i, k]), float(floor[i]))
                if key not in shares:
                    shares[key] = 1.0 / (1.0 + self._tied(*key))
                np.subtract(shares[key][a - key[0]:b - key[0]], cost[i], out=tied)
                acc += tied
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
        floor, start, lo, hi = self._cuts(q, x)
        n, P = len(self.order), self.scores.shape[1] + 1
        counts = np.zeros((len(q), P))  # rows whose share is 1 / (1 + column)
        counts[:, 0] = (lo - start).sum(axis=1)
        tie_counts = {}  # tie-band share counts, by (lo, hi, floor)
        for i, k in zip(*np.nonzero(hi > lo)):
            key = (int(lo[i, k]), int(hi[i, k]), float(floor[i]))
            if key not in tie_counts:
                tie_counts[key] = np.bincount(self._tied(*key), minlength=P)
            counts[i] += tie_counts[key]
        shares = 1.0 / (1.0 + np.arange(P))
        mean = counts @ shares / n
        m2 = (counts * (shares - mean[:, None]) ** 2).sum(axis=1) \
            + (n - counts.sum(axis=1)) * mean ** 2
        stderr = np.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else np.zeros(len(q))
        return mean - np.asarray(self.inst.cost(q, x), dtype=float), stderr


def expected_creator_utility(inst: ModelInstance, metric: Metric, w: Content,
                             opponent_strategy: MixedStrategy, P: int, n: int,
                             rng: np.random.Generator) -> MetricEstimate:
    """Monte Carlo expected payoff of playing ``w`` against P-1 opponents,
    on a pool of n fresh opponent and user-type draws."""
    pool = OpponentPool.draw(inst, metric, opponent_strategy, P, n, rng)
    return MetricEstimate.from_samples(pool.payoffs(np.array([w.as_tuple()])))

