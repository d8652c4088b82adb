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


def _brute_force_tied(inst, metric, row_q, row_x, t, atol, rtol) -> list[int]:
    """Columns of one row that tie for the win, in column order: the
    eligible columns (utility >= -atol) whose score is within
    ``rtol * max(1, |best|)`` of the best eligible score."""
    scores = {}
    for j, (a, b) in enumerate(zip(row_q, row_x)):
        if float(inst.utility(a, b, t)) >= -atol:
            scores[j] = {"engagement": float(inst.engagement(a, b)),
                         "investment": a, "random": 1.0}[metric]
    if not scores:
        return []
    best = max(scores.values())
    return [j for j, s in scores.items() if s >= best - rtol * max(1.0, abs(best))]


def brute_force_winners(inst, metric, q, x, ts, uniforms, atol, rtol) -> list[int]:
    """Recommendation winner per row, one row and one column at a time.

    Row i offers contents ``(q[i][j], x[i][j])`` to a user of type
    ``ts[i]``. Eligible columns have utility >= -atol; the winner is drawn
    among the eligible columns whose score is within
    ``rtol * max(1, |best|)`` of the best, as the floor(u * k)-th of the k
    tied columns in column order, with ``u = uniforms[i]``. A row with no
    eligible column gets -1.
    """
    winners = []
    for row_q, row_x, t, u in zip(q, x, ts, uniforms):
        tied = _brute_force_tied(inst, metric, row_q, row_x, t, atol, rtol)
        winners.append(tied[min(int(u * len(tied)), len(tied) - 1)] if tied else -1)
    return winners


def brute_force_payoffs(inst, metric, q, x, ts, w, atol, rtol) -> list[float]:
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
        tied = _brute_force_tied(inst, metric, [q0, *row_q], [x0, *row_x], t,
                                 atol, rtol)
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


def two_type_cheap_cdf(inst, intervals, t, low, x):
    """Mass that the paper's two-type (v, t) density puts on type ``t`` at
    gaming at most ``x``: the integral over ``v <= M^E + s`` of each
    interval ``(lo, hi, density, p_low)``'s density times p_low for the
    lower type, or times 1 - p_low for the higher one. Gaming x on the
    type-t curve has v = curve engagement + s."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    shift = inst.linearity_params().shift
    cut = np.asarray(inst.curve_engagement(t, np.maximum(x, 0.0)), dtype=float) + shift
    out = np.zeros_like(x)
    for lo, hi, d, p_low in intervals:
        p = p_low if low else 1.0 - p_low
        out = out + d * p * np.clip(np.minimum(cut, hi) - lo, 0.0, hi - lo)
    return np.where(x < 0.0, 0.0, out)


def lexsort_pool(inst, metric, q, x, ts):
    """``OpponentPool.of`` with the row top taken by a reduction along the
    short axis, the rows ordered by one ``np.lexsort`` of (top, type index)
    and the row floors taken before the sort."""
    import numpy as np
    from creatorsim.game import OpponentPool, _tie_floor, eligible_scores

    scores = eligible_scores(inst, metric, q, x, ts[:, None])
    top = scores.max(axis=1)
    kind = np.searchsorted(inst.types, ts)
    order = np.lexsort((top, kind))
    type_start = np.searchsorted(kind[order], np.arange(len(inst.types) + 1))
    return OpponentPool(inst, metric, scores, order, top[order],
                        _tie_floor(top)[order], type_start)


def scatter_payoffs(pool, w):
    """Per-sample payoff of content ``w`` on ``pool``, from its own rank cuts,
    scattered to the pool's rows by ``order`` one type at a time."""
    import numpy as np

    floor, start, lo, hi = pool._cuts(np.array([w.w_costly]), np.array([w.w_cheap]))
    share = np.zeros(len(pool.order))
    for a, l, h in zip(start[0], lo[0], hi[0]):
        share[pool.order[a:l]] = 1.0
        share[pool.order[l:h]] = 1.0 / (1.0 + pool._tied(l, h, floor[0]))
    return share - float(pool.inst.cost(w.w_costly, w.w_cheap))


def row_loop_payoffs(pool, contents):
    """``pool.payoffs(contents)`` built one content at a time: each
    content's share vector is filled over all n rows in ``order``, minus its
    cost, and added to a running total, which one permutation puts back in
    the pool's row order."""
    import numpy as np

    q, x = np.asarray(contents, dtype=float).T
    floor, start, lo, hi = pool._cuts(q, x)
    cost = np.asarray(pool.inst.cost(q, x), dtype=float)
    total = np.zeros(len(pool.order))
    share = np.empty_like(total)
    for i in range(len(q)):
        share.fill(0.0)
        for a, l, h in zip(start[i], lo[i], hi[i]):
            share[a:l] = 1.0
            share[l:h] = 1.0 / (1.0 + pool._tied(l, h, floor[i]))
        share -= cost[i]
        total += share
    share[pool.order] = total
    return share


def loop_candidate_deviations(inst, grid_k):
    """``candidate_deviations`` with one scalar ``min_investment`` call and
    one ``Content`` per grid point."""
    import numpy as np
    from creatorsim.model import Content, zero_cost_extent
    from creatorsim.verify import COST_CAP

    out = [Content(0.0, 0.0)]
    for t in inst.types:
        x_lo = zero_cost_extent(inst, t)
        x_hi = inst.curve_x_for_cost(t, COST_CAP)
        for x in np.linspace(x_lo, x_hi, grid_k):
            out.append(Content(float(inst.min_investment(t, x)), float(x)))
    return out


def loop_best_response_gap(inst, metric, strategy, P, grid_k, n_per_candidate,
                           rng, n_probes=32):
    """``best_response_gap`` on the same draws, with the candidates built by
    ``loop_candidate_deviations``, the pool by ``lexsort_pool``, and each
    probe scored per sample by ``scatter_payoffs``: the probe vectors are
    added up one by one and each probe's estimate is taken from its
    vector."""
    import numpy as np
    from creatorsim._stats import MetricEstimate
    from creatorsim.model import Content
    from creatorsim.verify import BestResponseReport

    candidates = loop_candidate_deviations(inst, grid_k)
    probes = [Content(float(q), float(x)) for q, x in strategy.sample(rng, n_probes)]
    n = n_per_candidate
    opp = strategy.sample(rng, n * (P - 1)).reshape(n, P - 1, 2)
    ts = inst.type_space.draw(rng, n)
    pool = lexsort_pool(inst, metric, opp[:, :, 0], opp[:, :, 1], ts)

    cand_points = np.array([c.as_tuple() for c in candidates])
    cand_mean, cand_stderr = pool.estimates(cand_points)
    probe_sum = np.zeros(n)
    probe_utils = []
    for c in probes:
        payoffs = scatter_payoffs(pool, c)
        probe_sum += payoffs
        probe_utils.append(MetricEstimate.from_samples(payoffs))
    eq_samples = probe_sum / len(probes)
    eq = MetricEstimate.from_samples(eq_samples)

    best_i = int(np.argmax(cand_mean))
    best_payoffs = scatter_payoffs(pool, candidates[best_i])
    best = MetricEstimate.from_samples(best_payoffs)
    cand_mean[best_i], cand_stderr[best_i] = best.mean, best.stderr
    paired = MetricEstimate.from_samples(best_payoffs - eq_samples)
    return BestResponseReport(
        types=inst.types, eq_utility=eq, best_deviation_utility=best,
        gap=best.mean - eq.mean, combined_stderr=paired.stderr,
        argmax_index=best_i, grid_size=grid_k, samples_per_candidate=n,
        candidates=cand_points, candidate_mean=cand_mean,
        candidate_stderr=cand_stderr,
        probes=np.array([c.as_tuple() for c in probes]),
        probe_mean=np.array([e.mean for e in probe_utils]),
        probe_stderr=np.array([e.stderr for e in probe_utils]))
