"""Exact samplable representations of the closed-form equilibria.

A ``MixedStrategy`` is a weighted list of components, each of which is
sampled by inverse transform and written out exactly by ``to_dict``.
Components come in three kinds:

* an atom at a fixed content point,
* a curve component: a CDF over the gaming coordinate whose quality is
  pinned to the minimum-investment curve of one user type,
* a quality component: a CDF over quality with no gaming (the baselines).

The equilibria with several types are mixtures of curve components. The
paper states the two-type one as a density over reparameterized engagement
v with a per-interval probability of targeting the lower type; each type's
support starts at its curve's zero-quality kink, where curve engagement
becomes linear in gaming, so each type's share of that density is a
piecewise-linear CDF in gaming on its own curve.

Sampling is by inverse transform on a selection and a main uniform per
content. Only the rows of uniforms some component reads are drawn, and
which those are depends on the strategy alone, so the random stream does
not depend on the draws. A mixture assigns each content to a component by
counting cumulative weights below its selection uniform, and each
component samples all of its contents in one call.

Constructors cover: the homogeneous engagement equilibrium for any number
of creators, the two-type and N-well-separated engagement equilibria for
two creators under costless gaming and linear induced costs, and the
investment and random-recommendation baselines.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from ._frozen import Frozen
from ._piecewise import PiecewiseLinearCdf, clipped_linear_cdf
from .model import ModelInstance, TypeSpace

GOLDEN_RATIO_SPLIT = (5.0 - math.sqrt(5.0)) / 2.0  # two-type case 2/3 boundary


class AtomComponent(Frozen):
    """Point mass at one content."""

    # whether sample_from_uniforms reads u_main; MixedStrategy.sample draws
    # that row only if some component does
    reads = False

    def __init__(self, w_costly: float, w_cheap: float) -> None:
        self.__dict__.update(w_costly=w_costly, w_cheap=w_cheap)

    def sample_from_uniforms(self, n: int, u_main=None) -> np.ndarray:
        out = np.empty((n, 2))
        out[:, 0] = self.w_costly
        out[:, 1] = self.w_cheap
        return out

    def to_dict(self) -> dict:
        return {"kind": "atom", "content": [self.w_costly, self.w_cheap]}


class CurveComponent(Frozen):
    """Gaming marginal on one type's minimum-investment curve.

    Quality is the curve value for positive gaming; the possible atom at
    gaming 0 is the zero-effort content (0, 0).
    """

    reads = True

    def __init__(self, inst: ModelInstance, t: float,
                 cheap: PiecewiseLinearCdf) -> None:
        self.__dict__.update(inst=inst, t=t, cheap=cheap)

    def sample_from_uniforms(self, n: int, u_main: np.ndarray) -> np.ndarray:
        x = np.asarray(self.cheap.ppf(u_main), dtype=float)
        # the curve's quality is finite and never negative, so the product
        # is it or +0.0 exactly, without a data-dependent select
        q = self.inst.min_investment(self.t, x) * (x > 0.0)
        return np.column_stack([q, x])

    def to_dict(self) -> dict:
        return {
            "kind": "curve",
            "t": self.t,
            "cheap_cdf_breakpoints": self.cheap.breakpoints(),
            "cheap_cdf_exponent": self.cheap.exponent,
        }


class QualityComponent(Frozen):
    """Quality marginal with no gaming (baseline equilibria)."""

    reads = True

    def __init__(self, quality: PiecewiseLinearCdf) -> None:
        self.__dict__.update(quality=quality)

    def sample_from_uniforms(self, n: int, u_main: np.ndarray) -> np.ndarray:
        q = np.asarray(self.quality.ppf(u_main), dtype=float)
        return np.column_stack([q, np.zeros_like(q)])

    def to_dict(self) -> dict:
        return {
            "kind": "quality",
            "quality_cdf_breakpoints": self.quality.breakpoints(),
            "quality_cdf_exponent": self.quality.exponent,
        }


Component = Union[AtomComponent, CurveComponent, QualityComponent]


class MixedStrategy(Frozen):
    """Samplable mixture over content."""

    def __init__(self, components: tuple[tuple[float, Component], ...],
                 descriptor: str) -> None:
        weights = [w for w, _ in components]
        if any(w < 0.0 for w in weights):
            raise ValueError("component weights must be nonnegative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"component weights sum to {sum(weights)}, expected 1")
        self.__dict__.update(components=components, descriptor=descriptor)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. contents as an (n, 2) array of (quality, gaming) rows.

        Draws ``u_sel = rng.random(n)`` if there are several components,
        then ``u_main = rng.random(n)`` if some component's ``reads`` says
        so, and nothing else: how far ``rng`` moves depends on the strategy,
        not on which components get selected. A draw takes the component
        whose cumulative weight first exceeds its selection uniform, or the
        last one if rounding leaves the uniform past them all.
        """
        comps = self.components
        u_sel = rng.random(n) if len(comps) > 1 else None
        u_main = rng.random(n) if any(comp.reads for _, comp in comps) else None
        if len(comps) == 1:
            return comps[0][1].sample_from_uniforms(n, u_main)
        # cum is nondecreasing, so this count is searchsorted(cum, u_sel,
        # "right") clipped to the last component
        cum = np.cumsum([w for w, _ in comps])
        idx = np.zeros(n, dtype=np.min_scalar_type(len(cum)))
        for level in cum[:-1]:
            idx += level <= u_sel
        out = np.empty((n, 2))
        # each (quality, gaming) row moves as one 16-byte item: numpy's
        # fancy assignment of two-column rows is several times slower
        pairs = out.view(np.complex128)[:, 0]
        for k, (_, comp) in enumerate(comps):
            rows = np.flatnonzero(idx == k)
            if rows.size:
                drawn = comp.sample_from_uniforms(
                    rows.size, u_main[rows] if comp.reads else None)
                pairs[rows] = drawn.view(np.complex128)[:, 0]
        return out

    def to_dict(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "components": [
                {"weight": w, **comp.to_dict()} for w, comp in self.components
            ],
        }


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def engagement_eq_homogeneous(inst: ModelInstance, P: int) -> MixedStrategy:
    """Engagement-optimization equilibrium for a single user type.

    The gaming marginal is min(1, C_t(x))^(1/(P-1)); quality rides the
    minimum-investment curve. Entry at gaming 0 costs beta =
    max(0, -baseline) < 1, so the marginal always rises from below 1.
    """
    _require(len(inst.type_space) == 1,
             "homogeneous construction requires exactly one type")
    if P < 2:
        raise ValueError("P must be >= 2")
    t = inst.types[0]
    xs, ys, tail = inst.curve_cost_polyline(t)
    cdf = clipped_linear_cdf(xs, ys, tail, scale=1.0, exponent=1.0 / (P - 1))
    return MixedStrategy(((1.0, CurveComponent(inst, t, cdf)),),
                         descriptor=f"engagement_homogeneous(P={P})")


def _linear_coefficients(inst: ModelInstance) -> np.ndarray:
    """The coefficients a_t = 1 / (1 + t) of the linear induced costs; only
    families of baseline 1 have them, so every type accepts (0, 0)."""
    _require(inst.family.linear_shift() is not None,
             "construction requires linear induced costs "
             "(costless gaming; unit baseline for the linear family)")
    return 1.0 / (1.0 + np.asarray(inst.types, dtype=float))


def n_prime(N: int) -> int:
    """Count of active mixture components for N well-separated types."""
    if N < 1:
        raise ValueError("N must be >= 1")
    acc = 0.0
    for i in range(1, N + 1):
        acc += 1.0 / (N - i + 1)
        if acc >= 1.0 - 1e-12:  # at the latest at i = N, whose term is 1
            return i


def make_well_separated_types(N: int, eps: float) -> TypeSpace:
    """Geometrically spaced tolerances hitting the separation bound exactly."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    return TypeSpace.of((1.0 + eps) * (1.0 + 1.0 / N) ** i - 1.0 for i in range(N))


def well_separated_weights(N: int) -> list[float]:
    np_ = n_prime(N)
    weights = [1.0 / (N - i + 1) for i in range(1, np_)]
    weights.append(1.0 - sum(weights))
    return weights


def engagement_eq_well_separated(inst: ModelInstance) -> MixedStrategy:
    """Two-creator engagement equilibrium for N well-separated types.

    Mixture over the first N' type curves; component i scales the curve
    cost by N (by a larger factor for the last component) inside the
    clipped CDF. Requires adjacent coefficient ratios of at least 1 + 1/N.
    """
    a = _linear_coefficients(inst)
    N = len(inst.type_space)
    for i in range(N - 1):
        if a[i] < (1.0 + 1.0 / N) * a[i + 1] - 1e-9:
            raise ValueError(
                f"types {inst.types[i]:g} and {inst.types[i + 1]:g} are not "
                f"well separated: ratio {a[i] / a[i + 1]:.6f} < 1 + 1/{N}")
    np_ = n_prime(N)
    weights = well_separated_weights(N)
    residual = weights[-1]
    comps = []
    for i in range(np_):
        t = inst.types[i]
        if i < np_ - 1:
            scale = float(N)
        else:
            scale = N / ((N - np_ + 1) * residual)
        xs, ys, tail = inst.curve_cost_polyline(t)
        cdf = clipped_linear_cdf(xs, ys, tail, scale=scale, exponent=1.0)
        comps.append((weights[i], CurveComponent(inst, t, cdf)))
    return MixedStrategy(tuple(comps),
                         descriptor=f"engagement_well_separated(N={N}, N'={np_})")


def two_type_case(ratio: float) -> int:
    """Case regime for a coefficient ratio > 1 (boundaries resolve downward)."""
    if ratio >= 1.5:
        return 1
    if ratio >= GOLDEN_RATIO_SPLIT:
        return 2
    return 3


def _two_type_intervals(inst: ModelInstance) -> tuple[int, tuple[tuple[float, ...], ...]]:
    """The paper's two-type equilibrium: its case and its density table.

    Each interval ``(lo, hi, density, p_low)`` of reparameterized engagement
    v = M^E + s carries a constant density and a constant probability
    ``p_low`` that the draw targets the lower (less tolerant) type.
    """
    _require(len(inst.type_space) == 2, "construction requires exactly two types")
    a = _linear_coefficients(inst)
    a1, a2 = float(a[0]), float(a[1])
    r = a1 / a2
    _require(r > 1.0, f"coefficient ratio must exceed 1, got {r}")
    case = two_type_case(r)
    if case == 1:
        intervals = (
            (1.0 / a1, 1.5 / a1, a1, 1.0),
            (1.0 / a2, 1.25 / a2, 2.0 * a2, 0.0),
        )
    elif case == 2:
        v_mid = 1.0 / (2.0 * a2 * (r - 1.0))
        v_top = (2.0 - r / 2.0) / a2
        intervals = (
            (1.0 / a1, 1.0 / a2, a1, 1.0),
            (1.0 / a2, v_mid, 2.0 * a2, r - 1.0),
            (v_mid, v_top, 2.0 * a2, 0.0),
        )
    else:
        v_mid = (3.0 - r) / (2.0 * a2 * (2.0 - r))
        v_top = 1.0 / a1 + (1.0 / a1 - 1.0 / (2.0 * a2)) * (3.0 - r) / (2.0 - r)
        intervals = (
            (1.0 / a1, 1.0 / a2, a1, 1.0),
            (1.0 / a2, v_mid, 2.0 * a2, r - 1.0),
            (v_mid, v_top, a1, 1.0),
        )
    # at case boundaries an interval can shrink to (rounding-level
    # negative) width; drop it rather than feeding decreasing breakpoints in
    return case, tuple(iv for iv in intervals
                       if iv[1] - iv[0] > 1e-14 * max(1.0, abs(iv[1])))


def engagement_eq_two_types(inst: ModelInstance) -> MixedStrategy:
    """Two-creator engagement equilibrium for two arbitrary types.

    A mixture of one curve component per type. A type's weight is its share
    of the paper's (v, t) density, and its component is the conditional
    v-CDF mapped to gaming on its curve: each type's intervals start at or
    past 1/a_t, the curve's zero-quality kink, beyond which curve
    engagement is linear in gaming, so the v-CDF's breakpoints map to
    those of an exponent-1 CDF in gaming.
    """
    case, intervals = _two_type_intervals(inst)
    shift = inst.family.linear_shift()
    comps = []
    for t, low in zip(inst.types, (True, False)):
        # this type's share of each interval; the ones it keeps are contiguous
        parts = [(lo, hi, d * (p if low else 1.0 - p)) for lo, hi, d, p in intervals]
        parts = [(lo, hi, d) for lo, hi, d in parts if d > 0.0]
        if parts:
            vs = np.array([parts[0][0]] + [hi for _, hi, _ in parts])
            mass = np.cumsum([0.0] + [d * (hi - lo) for lo, hi, d in parts])
            ys = mass / mass[-1]
            ys[-1] = 1.0
            # where 1 + t rounds to 1, 1/a_t - shift falls short of the kink
            xs = np.maximum(inst.curve_x_for_engagement(t, vs - shift),
                            inst.family.zero_quality_extent(t))
            cdf = PiecewiseLinearCdf(xs, ys)
            comps.append((float(mass[-1]), CurveComponent(inst, t, cdf)))
    total = sum(w for w, _ in comps)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"interval masses sum to {total}, expected 1")
    # the last weight takes the rounding, so the weights sum to 1
    comps[-1] = (1.0 - sum(w for w, _ in comps[:-1]), comps[-1][1])
    a = _linear_coefficients(inst)
    return MixedStrategy(tuple(comps), descriptor=f"engagement_two_type_case{case}"
                         f"(ratio={float(a[0]) / float(a[1]):.4f})")


def _baseline_preconditions(inst: ModelInstance) -> float:
    """Shared baseline precondition; returns the single type's beta (or 0),
    which is also the entry cost: the cost of (beta, 0) is beta < 1."""
    betas = [inst.beta(t) for t in inst.types]
    _require(len(betas) == 1 or all(b == 0.0 for b in betas),
             "heterogeneous baseline equilibria require beta_t = 0 for all types")
    return betas[0] if len(betas) == 1 else 0.0


def investment_eq(inst: ModelInstance, P: int) -> MixedStrategy:
    """Investment-optimization equilibrium: pure quality, no gaming.

    Quality CDF is min(1, C(q))^(1/(P-1)) above the minimum viable
    investment, flat below it (the flat part is the opt-out atom at 0).
    """
    if P < 2:
        raise ValueError("P must be >= 2")
    beta = _baseline_preconditions(inst)
    # cost along the quality axis has slope 1, and the CDF is flat at the
    # entry cost beta up to beta; at beta = 0 the flat start is trimmed
    cdf = clipped_linear_cdf([0.0, beta], [beta, beta], 1.0, scale=1.0,
                             exponent=1.0 / (P - 1))
    return MixedStrategy(((1.0, QualityComponent(cdf)),),
                         descriptor=f"investment(P={P})")


def stay_in_probability(kappa: float, P: int) -> float:
    """1 - nu, to a relative 1e-12, where the opt-out probability nu is the
    root of sum(nu^i, i=0..P-1) = P * kappa on [0, 1]; 1 when kappa <= 1/P.

    Solved for y = 1 - nu directly: near nu = 1 (large P, kappa near 1) an
    absolute stop on nu would leave y with few correct digits.
    """
    if P < 2:
        raise ValueError("P must be >= 2")
    if not (0.0 <= kappa <= 1.0):
        raise ValueError("kappa must be in [0, 1]")
    if kappa <= 1.0 / P:
        return 1.0
    if kappa == 1.0:
        return 0.0

    def excess(y: float) -> float:
        # sum((1 - y)^i, i < P) in closed form: P terms would cost O(P)
        return -math.expm1(P * math.log1p(-y)) / y - P * kappa

    # excess falls from P - P * kappa > 0 at y -> 0 to 1 - P * kappa < 0 at y = 1
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12 * lo:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent doubles: no finer answer exists
            break
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_eq(inst: ModelInstance, P: int) -> MixedStrategy:
    """Random-recommendation equilibrium.

    Homogeneous users either all play the minimum viable investment or mix
    it with opting out; with free entry for every type the whole population
    opts out to zero effort.
    """
    if P < 2:
        raise ValueError("P must be >= 2")
    beta = _baseline_preconditions(inst)
    if beta == 0.0:
        return MixedStrategy(((1.0, AtomComponent(0.0, 0.0)),),
                             descriptor=f"random(P={P})")
    y = stay_in_probability(beta, P)
    comps: list[tuple[float, Component]] = []
    if y < 1.0:
        comps.append((1.0 - y, AtomComponent(0.0, 0.0)))
    if y > 0.0:
        comps.append((y, AtomComponent(beta, 0.0)))
    return MixedStrategy(tuple(comps), descriptor=f"random(P={P}, nu={1.0 - y:.6g})")
