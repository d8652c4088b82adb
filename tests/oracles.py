"""Independent brute-force oracles used by the test suite, and reference
versions of code that a faster implementation replaced.

The brute-force oracles deliberately avoid the library's own code paths
(and scipy's correlation routines) so that agreement is evidence, not
tautology. The reference versions reuse the library around the one step
they replace, so a test can require equal results bit for bit.
"""

from __future__ import annotations

import math


def brute_force_ranks(values) -> list[float]:
    """Average ranks with explicit tie groups, 1-based."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def brute_force_spearman(xs, ys) -> float:
    """Pearson correlation of tie-averaged ranks, via explicit sums."""
    rx = brute_force_ranks(list(xs))
    ry = brute_force_ranks(list(ys))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    return sxy / math.sqrt(sxx * syy)


def curve_cost(inst, t, x):
    """Creation cost along the type-t curve at gaming ``x``, point by point."""
    return inst.cost(inst.min_investment(t, x), x)


def curve_engagement(inst, t, x):
    """Engagement along the type-t curve at gaming ``x``, point by point;
    strictly increasing in gaming."""
    return inst.engagement(inst.min_investment(t, x), x)


def grid_min_induced_cost(inst, t, m, x_max=50.0, n=2_000_001) -> float:
    """Dense-grid minimization of cost over eligible content with M^E >= m.

    Searches along the type-t curve (where the optimum lies) by brute
    force; used as the independent oracle for the bisection route.
    """
    import numpy as np

    x = np.linspace(0.0, x_max, n)
    q = np.asarray(inst.min_investment(t, x), dtype=float)
    feasible = np.asarray(inst.engagement(q, x), dtype=float) >= m
    if not feasible.any():
        return math.inf
    return float(np.asarray(inst.cost(q, x), dtype=float)[feasible].min())


# the slack a user forgives, in units of its terms: 4 ulps of 1
SLACK_DELTA = 4.0 * 2.0 ** -52


def brute_force_accepts(inst, q, x, t) -> bool:
    """Whether a type-t user accepts ``(q, x)``: the slack
    ``q - x / t + baseline`` is at least ``-SLACK_DELTA`` times
    ``x / t + max(1, |baseline|)``, with no utility scale in it."""
    b = inst.family.baseline
    return q - x / t + b >= -SLACK_DELTA * (x / t + max(1.0, abs(b)))


def _brute_force_tied(inst, metric, row_q, row_x, t) -> list[int]:
    """Columns of one row that tie for the win, in column order: the
    accepted columns whose score equals the best accepted score."""
    scores = {}
    for j, (a, b) in enumerate(zip(row_q, row_x)):
        if brute_force_accepts(inst, a, b, t):
            scores[j] = {"engagement": float(inst.engagement(a, b)),
                         "investment": a, "random": 1.0}[metric]
    if not scores:
        return []
    best = max(scores.values())
    return [j for j, s in scores.items() if s == best]


def brute_force_winners(inst, metric, q, x, ts, uniforms) -> list[int]:
    """Recommendation winner per row, one row and one column at a time.

    Row i offers contents ``(q[i][j], x[i][j])`` to a user of type
    ``ts[i]``. The winner is drawn among the accepted columns
    (``brute_force_accepts``) whose score equals the best accepted score,
    as the floor(u * k)-th of the k tied columns in column order, with
    ``u = uniforms[i]``. A row with no accepted column gets -1.
    """
    winners = []
    for row_q, row_x, t, u in zip(q, x, ts, uniforms):
        tied = _brute_force_tied(inst, metric, row_q, row_x, t)
        winners.append(tied[min(int(u * len(tied)), len(tied) - 1)] if tied else -1)
    return winners


def brute_force_payoffs(inst, metric, q, x, ts, w) -> list[float]:
    """Payoff of content ``w = (q0, x0)`` in each row: its exact share of
    the win as column 0 under ``brute_force_winners``' rule, minus its
    creation cost.

    Row i pits ``w`` against opponents ``(q[i][j], x[i][j])`` for a user of
    type ``ts[i]``. With k columns tied for the win, ``w`` wins ``1 / k``
    when it is one of them and nothing otherwise.
    """
    q0, x0 = w
    cost = float(inst.cost(q0, x0))
    out = []
    for row_q, row_x, t in zip(q, x, ts):
        tied = _brute_force_tied(inst, metric, [q0, *row_q], [x0, *row_x], t)
        out.append((1.0 / len(tied) if 0 in tied else 0.0) - cost)
    return out


def exact_expected_max(cdf, P) -> float:
    """E[max of P i.i.d. draws] from a ``PiecewiseLinearCdf`` with
    ``xs[0] >= 0``, by the antiderivative of 1 - F^P on each linear piece.

    With k = P * exponent, a piece from (x0, y0) to (x1, y1) holds
    (x1 - x0) * (1 - (y1^(k+1) - y0^(k+1)) / ((k + 1) * (y1 - y0))). When
    y0 > y1 / 2 the difference quotient is taken as
    y0^k * expm1((k + 1) * log1p(d)) / d with d = (y1 - y0) / y0, which
    does not cancel as y1 - y0 shrinks.
    """
    xs = [float(x) for x in cdf.xs]
    ys = [float(y) for y in cdf.ys]
    k = P * float(cdf.exponent)
    total = xs[0]  # F = 0 below the support
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if y1 == y0:
            mean_power = y0 ** k
        elif y0 <= 0.5 * y1:
            mean_power = (y1 ** (k + 1) - y0 ** (k + 1)) / ((k + 1) * (y1 - y0))
        else:
            d = (y1 - y0) / y0
            mean_power = y0 ** k * math.expm1((k + 1) * math.log1p(d)) / ((k + 1) * d)
        total += (x1 - x0) * (1.0 - mean_power)
    return total


def mask_mixture_sample(strategy, rng, n):
    """``strategy.sample(rng, n)`` with one boolean mask per component.

    The uniforms are one ``rng.random((k, n))`` block of the k rows read: a
    selection row ``u_sel`` if there are several components, then a main
    row ``u_main`` if some component reads one. The component of draw i is
    ``searchsorted(cum, u_sel[i], "right")``, clipped to the last component,
    over the cumulative weights ``cum``; each component's rows are selected,
    sampled and scattered back by a mask.
    """
    import numpy as np

    comps = strategy.components
    several = len(comps) > 1
    reads = any(comp.reads for _, comp in comps)
    u = rng.random((several + reads, n))
    u_sel = u[0] if several else np.zeros(n)
    cum = np.cumsum([w for w, _ in comps])
    idx = np.clip(np.searchsorted(cum, u_sel, side="right"), 0, len(comps) - 1)
    out = np.empty((n, 2))
    for k, (_, comp) in enumerate(comps):
        m = idx == k
        if m.any():
            out[m] = comp.sample_from_uniforms(int(m.sum()), u[-1][m] if reads else None)
    return out


def searchsorted_ppf(cdf, q):
    """``cdf.ppf(q)`` for a ``PiecewiseLinearCdf``, by a binary search of
    the breakpoint levels and a per-key gather of the segment ends."""
    import numpy as np

    q = np.asarray(q, dtype=float)
    if cdf.exponent == 1.0:
        target, levels = q, cdf.ys
    else:
        target, levels = q ** (1.0 / cdf.exponent), cdf.ys ** cdf.exponent
    idx = np.clip(np.searchsorted(levels, q, side="left"), 0, len(cdf.xs) - 1)
    lo = np.maximum(idx - 1, 0)
    y0, y1 = cdf.ys[lo], cdf.ys[idx]
    x0, x1 = cdf.xs[lo], cdf.xs[idx]
    rise = y1 - y0
    frac = np.where(rise > 0.0, (target - y0) / np.where(rise > 0.0, rise, 1.0), 0.0)
    if cdf.exponent != 1.0:
        frac = np.clip(frac, 0.0, 1.0)
    x = np.where(idx == 0, cdf.xs[0], x0 + frac * (x1 - x0))
    return x if x.ndim else float(x)


def piecewise_cdf(dist, x):
    """F(x) = base(x) ** exponent of a ``PiecewiseLinearCdf`` ``dist``: 0
    below ``xs[0]``, and from there on the interpolant of ``(xs, ys)``
    raised to the exponent."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    base = np.interp(x, dist.xs, dist.ys)
    base = np.where(x < dist.xs[0], 0.0, base)
    out = base ** dist.exponent
    return out if out.ndim else float(out)


def cheap_marginal_cdf(strategy, x):
    """CDF of a strategy's gaming coordinate at ``x``: the weighted sum of
    its components' own, clipped into [0, 1]. A curve component's is its
    ``cheap`` CDF; an atom's steps up at its gaming level and a quality
    component's at 0, where all of its gaming sits."""
    import numpy as np
    from creatorsim.equilibrium import AtomComponent, CurveComponent

    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for w, comp in strategy.components:
        if isinstance(comp, CurveComponent):
            part = np.asarray(piecewise_cdf(comp.cheap, x), dtype=float)
        else:
            step = comp.w_cheap if isinstance(comp, AtomComponent) else 0.0
            part = (x >= step).astype(float)
        out = out + w * part
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def two_type_cheap_cdf(inst, intervals, t, low, x):
    """Mass that the paper's two-type (v, t) density puts on type ``t`` at
    gaming at most ``x``: the integral over ``v <= M^E + s`` of each
    interval ``(lo, hi, density, p_low)``'s density times p_low for the
    lower type, or times 1 - p_low for the higher one. Gaming x on the
    type-t curve has v = curve engagement + s."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    shift = inst.family.linear_shift()
    cut = np.asarray(curve_engagement(inst, t, np.maximum(x, 0.0)), dtype=float) + shift
    out = np.zeros_like(x)
    for lo, hi, d, p_low in intervals:
        p = p_low if low else 1.0 - p_low
        out = out + d * p * np.clip(np.minimum(cut, hi) - lo, 0.0, hi - lo)
    return np.where(x < 0.0, 0.0, out)


def tie_counts(inst, metric, q, x, ts):
    """Per row of the opponents ``(q, x)`` facing users ``ts``, how many of
    them score the row's best, by a reduction along the short axis and one
    comparison of the whole score matrix."""
    from creatorsim.game import eligible_scores

    scores = eligible_scores(inst, metric, q, x, ts[:, None])
    return (scores >= scores.max(axis=1)[:, None]).sum(axis=1)


def lexsort_pool(inst, metric, q, x, ts):
    """``OpponentPool.of`` with the row top taken by a reduction along the
    short axis, the tied counts by ``tie_counts``, and the rows ordered by
    one ``np.lexsort`` of (top, type index)."""
    import numpy as np
    from creatorsim.game import OpponentPool, eligible_scores

    top = eligible_scores(inst, metric, q, x, ts[:, None]).max(axis=1)
    kind = np.searchsorted(inst.types, ts)
    order = np.lexsort((top, kind))
    type_start = np.searchsorted(kind[order], np.arange(len(inst.types) + 1))
    tied = tie_counts(inst, metric, q, x, ts)
    return OpponentPool(inst, metric, q.shape[1] + 1, order, top[order],
                        tied[order], type_start)


def row_loop_payoffs(pool, contents, tied):
    """``pool.payoffs(contents)`` built one content at a time: each
    content's share vector is filled over all n rows in ``order``, minus its
    cost, and added to a running total, which one permutation puts back in
    the pool's row order; ``tied`` is ``tie_counts`` of the pool's
    opponents, in their row order."""
    import numpy as np

    q, x = np.asarray(contents, dtype=float).T
    start, lo, hi = pool._cuts(q, x)
    cost = np.asarray(pool.inst.cost(q, x), dtype=float)
    total = np.zeros(len(pool.order))
    share = np.empty_like(total)
    for i in range(len(q)):
        share.fill(0.0)
        for a, l, h in zip(start[i], lo[i], hi[i]):
            share[a:l] = 1.0
            share[l:h] = 1.0 / (1.0 + tied[pool.order[l:h]])
        share -= cost[i]
        total += share
    share[pool.order] = total
    return share


def loop_candidate_deviations(inst, grid_k):
    """``candidate_deviations`` with one scalar ``min_investment`` call and
    one ``(q, x)`` tuple per grid point."""
    import numpy as np
    from creatorsim.model import zero_cost_extent
    from creatorsim.verify import COST_CAP

    out = [(0.0, 0.0)]
    for t in inst.types:
        x_lo = zero_cost_extent(inst, t)
        x_hi = inst.curve_x_for_cost(t, COST_CAP)
        for x in np.linspace(x_lo, x_hi, grid_k):
            out.append((float(inst.min_investment(t, x)), float(x)))
    return out


def loop_best_response_gap(inst, metric, strategy, P, grid_k, n_per_candidate,
                           rng, n_probes=32):
    """``best_response_gap`` on the same draws, with the candidates built by
    ``loop_candidate_deviations``, the pool by ``lexsort_pool``, and each
    probe scored per sample by ``row_loop_payoffs`` alone: the probe vectors
    are added up one by one and each probe's estimate is taken from its
    vector."""
    import numpy as np
    from creatorsim._stats import MetricEstimate
    from creatorsim.verify import BestResponseReport

    candidates = loop_candidate_deviations(inst, grid_k)
    probes = [(float(q), float(x)) for q, x in strategy.sample(rng, n_probes)]
    n = n_per_candidate
    opp = strategy.sample(rng, n * (P - 1)).reshape(n, P - 1, 2)
    ts = inst.type_space.draw(rng, n)
    pool = lexsort_pool(inst, metric, opp[:, :, 0], opp[:, :, 1], ts)
    tied = tie_counts(inst, metric, opp[:, :, 0], opp[:, :, 1], ts)

    cand_points = np.array(candidates)
    cand_mean, cand_stderr = pool.estimates(cand_points)
    probe_sum = np.zeros(n)
    probe_utils = []
    for c in probes:
        payoffs = row_loop_payoffs(pool, np.array([c]), tied)
        probe_sum += payoffs
        probe_utils.append(MetricEstimate.from_samples(payoffs))
    eq_samples = probe_sum / len(probes)
    eq = MetricEstimate.from_samples(eq_samples)

    best_i = int(np.argmax(cand_mean))
    best_payoffs = row_loop_payoffs(pool, np.array([candidates[best_i]]), tied)
    best = MetricEstimate.from_samples(best_payoffs)
    cand_mean[best_i], cand_stderr[best_i] = best.mean, best.stderr
    paired = MetricEstimate.from_samples(best_payoffs - eq_samples)
    return BestResponseReport(
        types=inst.types, eq_utility=eq, best_deviation_utility=best,
        gap=best.mean - eq.mean, combined_stderr=paired.stderr,
        argmax_index=best_i, grid_size=grid_k, samples_per_candidate=n,
        candidates=cand_points, candidate_mean=cand_mean,
        candidate_stderr=cand_stderr,
        probes=np.array(probes),
        probe_mean=np.array([e.mean for e in probe_utils]),
        probe_stderr=np.array([e.stderr for e in probe_utils]))


def quantile_grid(strategy, n):
    """The strategy as weighted rows ``(contents, weights)``: each atom is
    one row of its weight, and each other component is n rows, at its
    midpoint quantiles (i + 1/2) / n, each of weight w / n."""
    import numpy as np
    from creatorsim.equilibrium import AtomComponent

    u = (np.arange(n) + 0.5) / n
    rows, weights = [], []
    for w, comp in strategy.components:
        if isinstance(comp, AtomComponent):
            rows.append(comp.sample_from_uniforms(1))
            weights.append(np.array([w]))
        else:
            rows.append(comp.sample_from_uniforms(n, u))
            weights.append(np.full(n, w / n))
    return np.concatenate(rows), np.concatenate(weights)


def score_table(inst, metric, grid, weight, t):
    """The rows of a ``quantile_grid`` ``(grid, weight)`` as a type-t user
    sees them: scored by ``game.eligible_scores``, so the package's
    acceptance rule decides (-inf where the user rejects a row), and sorted
    stably. Returns the sorted scores, the sort order and the cumulative
    weights in that order from 0, so ``cum[i]`` is the weight of the first
    i rows."""
    import numpy as np
    from creatorsim.game import eligible_scores

    score = eligible_scores(inst, metric, grid[:, 0], grid[:, 1], t)
    order = np.argsort(score, kind="stable")
    return score[order], order, np.concatenate([[0.0], np.cumsum(weight[order])])


def exact_payoffs(inst, metric, strategy, P, contents, n):
    """Payoff of each ``(q, x)`` row of ``contents`` against P - 1 i.i.d.
    opponents playing ``quantile_grid(strategy, n)``, with no sampling.

    Per type, the grid's ``score_table`` gives b, the grid weight scoring
    strictly below the content (rejected rows included), and a, the weight
    tying with it, by two ``searchsorted`` calls on its sorted scores.
    Against P - 1 opponents the content's expected share is then
    ((a + b)^P - b^P) / (P a), or b^(P - 1) where a = 0; a type that
    rejects the content gives it share 0. The payoff is the mean share over
    the types minus the content's cost. On a continuous component the grid
    moves the weight below any score by at most 1 / n, so a payoff moves by
    O((P - 1) / n); on atoms the grid is the strategy itself. Each type's
    table holds the grid's rows once, so memory does not grow with the
    number of types.
    """
    import numpy as np
    from creatorsim.game import metric_score

    grid, weight = quantile_grid(strategy, n)
    q, x = np.asarray(contents, dtype=float).T
    s0 = np.asarray(metric_score(inst, metric, q, x), dtype=float)
    share = np.zeros(len(q))
    for t in inst.types:
        score, _, cum = score_table(inst, metric, grid, weight, t)
        b = cum[np.searchsorted(score, s0, side="left")]
        a = cum[np.searchsorted(score, s0, side="right")] - b
        with np.errstate(divide="ignore", invalid="ignore"):
            won = np.where(a > 0.0, ((a + b) ** P - b ** P) / (P * a), b ** (P - 1))
        share += np.where(inst.family.accepts(q, x, t), won, 0.0)
    return share / len(inst.types) - np.asarray(inst.cost(q, x), dtype=float)


def exact_round_metrics(inst, metric, strategy, P, n):
    """UCQ, RE, UW and the consumption rate of one round, keyed by
    ``ucq``, ``re``, ``uw`` and ``consumption``, when P i.i.d.
    creators play ``quantile_grid(strategy, n)``, with no sampling.

    Per type, the grid's ``score_table`` falls into groups of equal score.
    A group of weight m, with weight b scoring below it (rejected rows
    included), holds the round's winner with probability (b + m)^P - b^P,
    and the uniform tie-break makes the winner a weight-proportional draw
    from the group. So each group adds that probability times its
    weight-mean quality, engagement and utility to the type; the rejected
    group holds a winner with probability 0. The metrics are the mean over
    the types, which the user draws uniformly, and so is ``consumption``,
    the sum of the groups' win probabilities: the chance that the round's
    user consumes something.
    """
    import numpy as np

    grid, weight = quantile_grid(strategy, n)
    q, x = grid.T
    engagement = np.asarray(inst.engagement(q, x), dtype=float)
    totals = dict.fromkeys(("ucq", "re", "uw", "consumption"), 0.0)
    for t in inst.types:
        s, order, cum = score_table(inst, metric, grid, weight, t)
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        ends = np.r_[starts[1:], len(s)]
        held = s[starts] > -np.inf
        b, m = cum[starts][held], (cum[ends] - cum[starts])[held]
        win = (b + m) ** P - b ** P
        utility = np.asarray(inst.utility(q, x, t), dtype=float)
        for name, value in (("ucq", q), ("re", engagement), ("uw", utility)):
            sums = np.add.reduceat(weight[order] * value[order], starts)[held]
            totals[name] += float(win @ (sums / m)) / len(inst.types)
        totals["consumption"] += float(win.sum()) / len(inst.types)
    return totals


def _two_type_uw_quadrature(c, eps, W=1.0):
    """Analytic user welfare of the two-type engagement equilibrium (KMR).

    Only a high-tolerance user consuming low-type-targeted content earns
    positive utility, worth W * (c - 1) * v at reparameterized engagement v.
    Integrates that against the density of the max of two draws from the
    piecewise-constant (V, T) density, taking the winner's type share per
    interval. Intervals follow the case-3/case-2/case-1 tables.
    """
    import numpy as np

    a1 = 1.0 / (1.0 + eps)
    a2 = 1.0 / (c * (1.0 + eps))
    r = a1 / a2
    if r >= 1.5:
        intervals = [(1 / a1, 1.5 / a1, a1, 1.0), (1 / a2, 1.25 / a2, 2 * a2, 0.0)]
    elif r >= (5 - math.sqrt(5)) / 2:
        mid = 1 / (2 * a2 * (r - 1))
        intervals = [(1 / a1, 1 / a2, a1, 1.0), (1 / a2, mid, 2 * a2, r - 1),
                     (mid, (2 - r / 2) / a2, 2 * a2, 0.0)]
    else:
        mid = (3 - r) / (2 * a2 * (2 - r))
        top = 1 / a1 + (1 / a1 - 1 / (2 * a2)) * (3 - r) / (2 - r)
        intervals = [(1 / a1, 1 / a2, a1, 1.0), (1 / a2, mid, 2 * a2, r - 1),
                     (mid, top, a1, 1.0)]

    def g(v):
        for lo, hi, d, _ in intervals:
            if lo <= v <= hi:
                return d
        return 0.0

    def G(v):
        acc = 0.0
        for lo, hi, d, _ in intervals:
            acc += d * max(0.0, min(v, hi) - lo)
        return min(1.0, acc)

    def p_low(v):
        for lo, hi, _, p in intervals:
            if lo <= v <= hi:
                return p
        return 0.0

    total = 0.0
    for lo, hi, _, _ in intervals:
        xs = np.linspace(lo, hi, 20001)
        ys = np.array([2.0 * g(v) * G(v) * p_low(v) * v for v in xs])
        total += np.trapezoid(ys, xs)
    return 0.5 * W * (c - 1.0) * total
