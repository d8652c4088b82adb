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
is a rank query: where its score falls among each accepting type's rows.
Grid candidates and probes are scored from counts of rows per win share,
with no per-sample vector. Per-sample vectors are built only for the probe
average, from one set of rank cuts for all probes, and for the argmax
candidate; they give the paired gap stderr.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
import numpy as np

from ._stats import MetricEstimate
from .equilibrium import MixedStrategy
from .game import Metric, OpponentPool
# not called here, but perfbench/spans.py wraps verify.expected_creator_utility
from .game import expected_creator_utility  # noqa: F401
from .model import Content, ModelInstance, zero_cost_extent

COST_CAP = 1.2  # deviation curves truncated where creation cost passes this
GAP_ABS_TOL = 0.02
GAP_SE_MULT = 4.0


@dataclass(frozen=True)
class BestResponseReport:
    eq_utility: MetricEstimate
    best_deviation_utility: MetricEstimate
    gap: float
    combined_stderr: float  # stderr of the per-sample paired gap
    argmax_candidate: Content
    grid_size: int
    samples_per_candidate: int
    candidates: tuple[Content, ...]
    candidate_utilities: tuple[MetricEstimate, ...]
    probes: tuple[Content, ...]
    probe_utilities: tuple[MetricEstimate, ...]

    def passes(self, abs_tol: float = GAP_ABS_TOL,
               se_mult: float = GAP_SE_MULT) -> bool:
        return self.gap <= max(abs_tol, se_mult * self.combined_stderr)

    def to_dict(self) -> dict:
        return {
            "eq_utility": self.eq_utility.to_dict(),
            "best_deviation_utility": self.best_deviation_utility.to_dict(),
            "gap": self.gap,
            "combined_stderr": self.combined_stderr,
            "passes": self.passes(),
            "argmax_candidate": list(self.argmax_candidate.as_tuple()),
            "grid_size": self.grid_size,
            "samples_per_candidate": self.samples_per_candidate,
            "candidates": [list(c.as_tuple()) for c in self.candidates],
            "candidate_utilities": [e.to_dict() for e in self.candidate_utilities],
            "probes": [list(c.as_tuple()) for c in self.probes],
            "probe_utilities": [e.to_dict() for e in self.probe_utilities],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def candidate_deviations(inst: ModelInstance, grid_k: int) -> list[Content]:
    """The origin plus K points along each type curve up to the cost cap.

    Grids start where the curve cost first becomes positive; anything
    cheaper on the curve is cost-free and already represented.
    """
    if grid_k < 2:
        raise ValueError("grid_k must be >= 2")
    out = [Content(0.0, 0.0)]
    for t in inst.types:
        x = np.linspace(zero_cost_extent(inst, t), inst.curve_x_for_cost(t, COST_CAP),
                        grid_k)
        q = np.asarray(inst.min_investment(t, x), dtype=float)
        out.extend(map(Content, q.tolist(), x.tolist()))
    return out


def best_response_gap(inst: ModelInstance, metric: Metric,
                      strategy: MixedStrategy, P: int, grid_k: int,
                      n_per_candidate: int, rng: np.random.Generator,
                      n_probes: int = 32) -> BestResponseReport:
    """Estimate the profit of the best grid deviation over on-support play.

    ``n_probes`` probe points are drawn from the strategy, then one pool of
    ``n_per_candidate`` opponent landscapes and user types; every candidate
    and probe is scored on that same pool. Candidates and probes are scored
    by ``OpponentPool.estimates``: two ``searchsorted`` cuts per user type
    on the sorted pool, and counts of the rows taking each win share 1,
    1/2, ..., 1/P or 0. The equilibrium utility is the probe average, per
    sample, which ``OpponentPool.payoffs`` sums over all probes from one
    call's cuts. The gap's standard error is that of the per-sample
    differences between the argmax candidate's payoff and the probe
    average; near an equilibrium the two are positively correlated, so it
    is below the two marginal errors combined. The argmax candidate is
    scored again per sample by ``OpponentPool.payoffs``, and that estimate
    replaces its counted one in the report. Memory stays
    O(n_per_candidate * P + candidates * P): the pool and its sort order,
    the probe-sum and share vectors and the per-candidate share counts.
    """
    candidates = candidate_deviations(inst, grid_k)
    probe_draws = strategy.sample(rng, n_probes)
    probes = [Content(float(q), float(x)) for q, x in probe_draws]
    pool = OpponentPool.draw(inst, metric, strategy, P, n_per_candidate, rng)

    cand_utils = pool.estimates(candidates)
    eq_samples = pool.payoffs(probes) / len(probes)
    eq = MetricEstimate.from_samples(eq_samples)

    best_i = int(np.argmax([e.mean for e in cand_utils]))
    best_payoffs = pool.payoffs([candidates[best_i]])
    best = MetricEstimate.from_samples(best_payoffs)
    cand_utils = cand_utils[:best_i] + (best,) + cand_utils[best_i + 1:]
    paired = MetricEstimate.from_samples(best_payoffs - eq_samples)
    return BestResponseReport(
        eq_utility=eq,
        best_deviation_utility=best,
        gap=best.mean - eq.mean,
        combined_stderr=paired.stderr,
        argmax_candidate=candidates[best_i],
        grid_size=grid_k,
        samples_per_candidate=n_per_candidate,
        candidates=tuple(candidates),
        candidate_utilities=cand_utils,
        probes=tuple(probes),
        probe_utilities=pool.estimates(probes),
    )


def failure_summary(inst: ModelInstance, report: BestResponseReport) -> str:
    """One line naming the deviation that beats on-support play: its
    content, the type curve it was gridded on (or the origin) and the gap
    as a multiple of the paired ``combined_stderr``."""
    i = report.candidates.index(report.argmax_candidate)
    where = ("the origin" if i == 0
             else f"the type {inst.types[(i - 1) // report.grid_size]:g} curve")
    q, x = report.argmax_candidate.as_tuple()
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
                        tol: float) -> list[tuple[int, Content, float]]:
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
    return [(int(i), Content(float(q[i]), float(x[i])), float(dist[i])) for i in bad]
