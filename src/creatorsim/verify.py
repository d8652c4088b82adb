"""Numerical certification of candidate equilibria and support structure.

Best responses to on-curve play lie on the minimum-investment curves or at
the origin, so the deviation search grids each type curve (truncated where
the curve cost exceeds 1.2, beyond which payoffs are strictly negative)
and adds the origin. A candidate strategy passes when no grid deviation
beats the pooled utility of on-support probe points by more than Monte
Carlo noise allows.

Every candidate and probe is evaluated against one shared pool of opponent
and user-type draws (common random numbers), so the gap is measured on
paired samples and its standard error comes from the per-sample
differences rather than from two independent marginal errors. The pool is
sorted once by user type and best opponent score, so a deviation's payoff
is a rank query: where its score falls among each accepting type's rows,
which it ties where their best score equals its own exactly. Acceptance is
the family's slack rule, so no tolerance depends on the utility's scale.
Grid candidates and probes are scored from counts of rows per win share,
with no per-sample vector. Per-sample vectors are built only for the probe
average, from one set of rank cuts for all probes, and for the argmax
candidate; they give the paired gap stderr. Candidates, probes and their
estimates stay (q, x) and mean/stderr arrays from the grid to the report,
with no per-candidate object.
"""

from __future__ import annotations

import bisect
import numpy as np

from ._frozen import Frozen
from ._stats import MetricEstimate
from .equilibrium import MixedStrategy
from .game import Metric, OpponentPool
from .model import COST_CAP, ModelInstance, zero_cost_extent

GAP_ABS_TOL = 0.02
GAP_SE_MULT = 4.0
N_PROBES = 32  # on-support probe draws averaged into the equilibrium utility


class BestResponseReport(Frozen):
    """A best-response search, held as arrays.

    ``candidates`` is the (1 + T * grid_size, 2) array of
    ``candidate_deviations``: the origin, then ``grid_size`` points on the
    curve of each of the T ``types``. ``probes`` is the (N_PROBES, 2) array
    of on-support draws. The ``*_mean`` and ``*_stderr`` arrays hold each
    row's payoff estimate, all over the same ``samples_per_candidate`` pool
    samples. Row ``argmax_index`` of the candidates is the best deviation;
    its estimate is the per-sample one, ``best_deviation_utility``.
    """

    def __init__(self, types: tuple[float, ...], eq_utility: MetricEstimate,
                 best_deviation_utility: MetricEstimate, gap: float,
                 combined_stderr: float, argmax_index: int, grid_size: int,
                 samples_per_candidate: int, candidates: np.ndarray,
                 candidate_mean: np.ndarray, candidate_stderr: np.ndarray,
                 probes: np.ndarray, probe_mean: np.ndarray,
                 probe_stderr: np.ndarray) -> None:
        # combined_stderr: stderr of the per-sample paired gap
        self.__dict__.update(
            types=types, eq_utility=eq_utility,
            best_deviation_utility=best_deviation_utility, gap=gap,
            combined_stderr=combined_stderr, argmax_index=argmax_index,
            grid_size=grid_size, samples_per_candidate=samples_per_candidate,
            candidates=candidates, candidate_mean=candidate_mean,
            candidate_stderr=candidate_stderr, probes=probes,
            probe_mean=probe_mean, probe_stderr=probe_stderr)

    def passes(self) -> bool:
        return self.gap <= max(GAP_ABS_TOL, GAP_SE_MULT * self.combined_stderr)

    def curves(self) -> list[dict]:
        """Best grid point of each type curve: the type ``t``, the point
        ``best`` as ``[q, x]``, its ``mean`` and ``stderr`` as in
        ``candidate_mean``/``candidate_stderr`` and its ``gap``, the mean
        minus ``eq_utility.mean``. O(T) beyond one argmax over the grid."""
        k = self.grid_size
        best = (1 + k * np.arange(len(self.types))
                + self.candidate_mean[1:].reshape(-1, k).argmax(axis=1))
        mean = self.candidate_mean[best]
        return [{"t": t, "best": point, "mean": m, "stderr": se, "gap": g}
                for t, point, m, se, g in zip(
                    self.types, self.candidates[best].tolist(), mean.tolist(),
                    self.candidate_stderr[best].tolist(),
                    (mean - self.eq_utility.mean).tolist())]

    def to_dict(self) -> dict:
        """JSON values; the utilities are ``{"mean": [...], "stderr": [...]}``
        columns in the row order of ``candidates`` and ``probes``."""
        return {
            "eq_utility": self.eq_utility.to_dict(),
            "best_deviation_utility": self.best_deviation_utility.to_dict(),
            "gap": self.gap,
            "combined_stderr": self.combined_stderr,
            "passes": self.passes(),
            "argmax_candidate": self.candidates[self.argmax_index].tolist(),
            "grid_size": self.grid_size,
            "samples_per_candidate": self.samples_per_candidate,
            "candidates": self.candidates.tolist(),
            "candidate_utilities": {"mean": self.candidate_mean.tolist(),
                                    "stderr": self.candidate_stderr.tolist()},
            "probes": self.probes.tolist(),
            "probe_utilities": {"mean": self.probe_mean.tolist(),
                                "stderr": self.probe_stderr.tolist()},
            "curves": self.curves(),
        }


def expected_creator_utility(inst: ModelInstance, metric: Metric,
                             w: tuple[float, float],
                             opponent_strategy: MixedStrategy, P: int, n: int,
                             rng: np.random.Generator) -> MetricEstimate:
    """Monte Carlo expected payoff of playing content ``w = (q, x)`` against
    P-1 opponents, on a pool of n fresh opponent and user-type draws."""
    pool = OpponentPool.draw(inst, metric, opponent_strategy, P, n, rng)
    return MetricEstimate.from_samples(pool.payoffs(np.array([w], dtype=float)))


def candidate_deviations(inst: ModelInstance, grid_k: int) -> np.ndarray:
    """The origin, then K points along each type curve up to the cost cap,
    as a (1 + T * K, 2) array of (q, x) rows.

    Grids start where the curve cost first becomes positive; anything
    cheaper on the curve is cost-free and already represented.
    """
    if grid_k < 2:
        raise ValueError("grid_k must be >= 2")
    out = np.zeros((1 + len(inst.types) * grid_k, 2))
    for i, t in enumerate(inst.types):
        x = np.linspace(zero_cost_extent(inst, t), inst.curve_x_for_cost(t, COST_CAP),
                        grid_k)
        curve = out[1 + i * grid_k:1 + (i + 1) * grid_k]
        curve[:, 0] = inst.min_investment(t, x)
        curve[:, 1] = x
    return out


def best_response_gap(inst: ModelInstance, metric: Metric,
                      strategy: MixedStrategy, P: int, grid_k: int,
                      n_per_candidate: int,
                      rng: np.random.Generator) -> BestResponseReport:
    """Estimate the profit of the best grid deviation over on-support play.

    ``N_PROBES`` probe points are drawn from the strategy, then one pool of
    ``n_per_candidate`` opponent landscapes and user types; every candidate
    and probe is scored on that same pool. Candidates and probes are scored
    by ``OpponentPool.estimates``: two ``searchsorted`` cuts per user type
    on the sorted pool, and counts of the rows taking each win share 1,
    1/2, ..., 1/P or 0. The equilibrium utility is the probe average, per
    sample, which ``OpponentPool.payoffs`` sums over all probes. The gap's
    standard error is that of the per-sample differences between the argmax
    candidate's payoff and the probe average; near an equilibrium the two
    are positively correlated, so it is below the two marginal errors
    combined. The argmax candidate is scored again per sample by
    ``OpponentPool.payoffs``, and that estimate replaces its counted one in
    the report. Memory peaks at O(n_per_candidate * P + candidates * P):
    the opponent draws and their scores while the pool is built, and the
    per-candidate share counts. The pool itself keeps O(n_per_candidate):
    its sort order, each row's top and its count of opponents at that top,
    next to the probe-sum and share vectors.
    """
    candidates = candidate_deviations(inst, grid_k)
    probes = strategy.sample(rng, N_PROBES)
    pool = OpponentPool.draw(inst, metric, strategy, P, n_per_candidate, rng)

    cand_mean, cand_stderr = pool.estimates(candidates)
    eq_samples = pool.payoffs(probes) / len(probes)
    probe_mean, probe_stderr = pool.estimates(probes)
    eq = MetricEstimate.from_samples(eq_samples)

    best_i = int(np.argmax(cand_mean))
    best_payoffs = pool.payoffs(candidates[best_i:best_i + 1])
    best = MetricEstimate.from_samples(best_payoffs)
    cand_mean[best_i], cand_stderr[best_i] = best.mean, best.stderr
    paired = MetricEstimate.from_samples(best_payoffs - eq_samples)
    return BestResponseReport(
        types=inst.types,
        eq_utility=eq,
        best_deviation_utility=best,
        gap=best.mean - eq.mean,
        combined_stderr=paired.stderr,
        argmax_index=best_i,
        grid_size=grid_k,
        samples_per_candidate=n_per_candidate,
        candidates=candidates,
        candidate_mean=cand_mean,
        candidate_stderr=cand_stderr,
        probes=probes,
        probe_mean=probe_mean,
        probe_stderr=probe_stderr,
    )


def failure_summary(report: BestResponseReport) -> str:
    """One line naming the deviation that beats on-support play: its
    content, the type curve it was gridded on (or the origin) and the gap
    as a multiple of the paired ``combined_stderr``."""
    i = report.argmax_index
    where = ("the origin" if i == 0
             else f"the type {report.types[(i - 1) // report.grid_size]:g} curve")
    q, x = report.candidates[i].tolist()
    se = report.combined_stderr
    ratio = f"{report.gap / se:.1f}" if se > 0.0 else "inf"
    return (f"verify failed: deviation (q={q:.6g}, x={x:.6g}) on {where} beats "
            f"on-support play by gap={report.gap:.6f}, {ratio} x "
            f"combined_stderr={se:.6f}")


def check_positive_correlation(samples: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Ordered pairs where more gaming comes with strictly less quality.

    A pair (i, j) violates when sample j games at least as much as sample i
    but invests more than ``tol`` less. Sorting by (gaming asc, quality
    desc) puts every violation's high-quality side first, so a running-max
    scan decides cleanliness in O(n log n); only failing sample sets pay
    for the full output-sensitive enumeration.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array of (quality, gaming)")
    n = len(pts)
    if n < 2:
        return []
    order = np.lexsort((-pts[:, 0], pts[:, 1]))
    q_sorted = pts[order, 0]
    run_max = np.maximum.accumulate(q_sorted)
    if bool(np.all(q_sorted >= run_max - tol)):
        return []
    violations: list[tuple[int, int]] = []
    by_quality: list[tuple[float, int]] = []  # predecessors, sorted by quality
    for pos in range(n):
        idx = int(order[pos])
        cut = float(q_sorted[pos]) + tol
        k = bisect.bisect_right(by_quality, (cut, n))
        violations.extend((prev_idx, idx) for _, prev_idx in by_quality[k:])
        bisect.insort(by_quality, (float(q_sorted[pos]), idx))
    return violations


def support_containment(samples: np.ndarray, inst: ModelInstance,
                        tol: float) -> list[tuple[int, tuple[float, float], float]]:
    """Samples farther than tol from every type curve and from the origin."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("samples must be an (n, 2) array of (quality, gaming)")
    q, x = pts[:, 0], pts[:, 1]
    dist = np.hypot(q, x)  # distance to the opt-out point
    for t in inst.types:
        on_curve = np.abs(q - np.asarray(inst.min_investment(t, x), dtype=float))
        dist = np.minimum(dist, on_curve)
    bad = np.nonzero(dist > tol)[0]
    return [(int(i), (float(q[i]), float(x[i])), float(dist[i])) for i in bad]
