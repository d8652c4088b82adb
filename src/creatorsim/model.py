"""Content, user types, and the two built-in model families.

A piece of content is a point ``(w_costly, w_cheap)`` in the nonnegative
quadrant: ``w_costly`` is effort that users value (quality), ``w_cheap`` is
engagement-raising effort that users dislike (gaming tricks). Both built-in
families share the linear cost ``c(w) = w_costly + gamma * w_cheap`` and a
linear engagement score, and differ in the user utility:

* ``linear`` (Twitter-style): ``u(w, t) = w_costly - w_cheap / t + alpha``
* ``kmr`` (watch-time):       ``u(w, t) = W * t * (w_costly - w_cheap / t + 1)``

The type ``t > 0`` is the user's tolerance for gaming. Everything downstream
(equilibria, metrics, verification) consumes the curve machinery defined
here: the minimum investment needed to keep a type-``t`` user on board at a
given gaming level, the one-dimensional cost along that curve, the induced
cost of reaching an engagement target, and the ``(v, t)`` reparameterization
of the zero-utility curves used by the heterogeneous-user equilibria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable, Iterable, Optional, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

# Tolerances shared by the curve solvers: bisection stops at 1e-12 absolute
# on the search coordinate, with a hard iteration cap.
BISECT_TOL = 1e-12
BISECT_MAXITER = 200


class PreconditionError(ValueError):
    """An operation's structural preconditions are not met."""


@dataclass(frozen=True)
class Content:
    """A creator action: quality effort and gaming effort."""

    w_costly: float
    w_cheap: float

    def __post_init__(self) -> None:
        for name in ("w_costly", "w_cheap"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")

    def as_tuple(self) -> tuple[float, float]:
        return (self.w_costly, self.w_cheap)


@dataclass(frozen=True)
class TypeSpace:
    """Finite set of user tolerances, drawn uniformly at round time."""

    types: tuple[float, ...]

    def __post_init__(self) -> None:
        ts = self.types
        if len(ts) == 0:
            raise ValueError("type space must be nonempty")
        if any(not math.isfinite(t) or t < 0.0 for t in ts):
            raise ValueError("types must be finite and >= 0")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("types must be strictly increasing")

    @classmethod
    def of(cls, types: Iterable[float]) -> "TypeSpace":
        return cls(tuple(float(t) for t in types))

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self):
        return iter(self.types)

    def __getitem__(self, i: int) -> float:
        return self.types[i]

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.integers(0, len(self.types), size=n)
        return np.asarray(self.types, dtype=float)[idx]


@dataclass(frozen=True)
class LinearTwitter:
    """Linear utility with baseline ``alpha``; retweet-style engagement."""

    alpha: float
    gamma: float = 0.0
    name = "linear"

    def __post_init__(self) -> None:
        if not (self.alpha > -1.0):
            raise ValueError(f"alpha must be > -1, got {self.alpha}")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")

    def utility(self, w_costly: ArrayLike, w_cheap: ArrayLike, t: ArrayLike) -> ArrayLike:
        return w_costly - w_cheap / t + self.alpha

    def cost(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return w_costly + self.gamma * w_cheap

    def engagement(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return w_costly + w_cheap

    def min_investment(self, t: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return np.maximum(0.0, w_cheap / t - self.alpha)


@dataclass(frozen=True)
class KMR:
    """Watch-time model: span/moreishness reparameterized to content space.

    ``W`` is the per-step outside option; the user type ``t`` plays the role
    of the shifted value ratio, so utility scales by ``W * t``.
    """

    W: float
    gamma: float = 0.0
    name = "kmr"

    def __post_init__(self) -> None:
        if not (self.W > 0.0):
            raise ValueError(f"W must be > 0, got {self.W}")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")

    def utility(self, w_costly: ArrayLike, w_cheap: ArrayLike, t: ArrayLike) -> ArrayLike:
        return self.W * t * (w_costly - w_cheap / t + 1.0)

    def cost(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return w_costly + self.gamma * w_cheap

    def engagement(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return w_costly + w_cheap + 1.0

    def min_investment(self, t: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return np.maximum(0.0, w_cheap / t - 1.0)


Family = Union[LinearTwitter, KMR]


@dataclass(frozen=True)
class LinearityParams:
    """Linear induced-cost parameters: ``C^E_t(m) = max(0, a_t (m + s) - 1)``.

    Both built-in families satisfy this with ``a_t = 1 / (1 + t)`` whenever
    gaming is costless (and, for the linear family, the baseline is 1).
    """

    shift: float

    def coefficient(self, t: ArrayLike) -> ArrayLike:
        return 1.0 / (1.0 + np.asarray(t, dtype=float))


def _bisect_increasing(fn: Callable[[float], float], target: float,
                       lo: float, hi: float) -> float:
    """Smallest x in [lo, hi] with fn(x) >= target, for nondecreasing fn."""
    if fn(lo) >= target:
        return lo
    for _ in range(BISECT_MAXITER):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= BISECT_TOL:
            break
    return hi


@dataclass(frozen=True)
class ModelInstance:
    """A model family together with its finite type space."""

    family: Family
    type_space: TypeSpace

    def __post_init__(self) -> None:
        # Both built-in families divide by t, so tolerances must be positive.
        if isinstance(self.family, (LinearTwitter, KMR)):
            if any(t <= 0.0 for t in self.type_space):
                raise ValueError("built-in families require all types > 0")

    @property
    def types(self) -> tuple[float, ...]:
        return self.type_space.types

    # Point evaluations; all broadcast over numpy arrays.

    def utility(self, w_costly: ArrayLike, w_cheap: ArrayLike, t: ArrayLike) -> ArrayLike:
        return self.family.utility(w_costly, w_cheap, t)

    def cost(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return self.family.cost(w_costly, w_cheap)

    def engagement(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return self.family.engagement(w_costly, w_cheap)

    # Curve machinery.

    def min_investment(self, t: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        """Least quality making gaming level ``w_cheap`` acceptable to type t."""
        return self.family.min_investment(t, w_cheap)

    def beta(self, t: float) -> float:
        """Minimum investment for type t at zero gaming."""
        return float(self.min_investment(t, 0.0))

    def curve_cost(self, t: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        """Creation cost along the type-t curve, as a function of gaming."""
        return self.cost(self.min_investment(t, w_cheap), w_cheap)

    def curve_engagement(self, t: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        """Engagement along the type-t curve; strictly increasing in gaming."""
        return self.engagement(self.min_investment(t, w_cheap), w_cheap)

    def engagement_floor(self, t: float) -> float:
        return float(self.curve_engagement(t, 0.0))

    def zero_quality_extent(self, t: float) -> float:
        """Largest gaming level that type t accepts with zero quality."""
        if isinstance(self.family, LinearTwitter):
            return max(0.0, t * self.family.alpha)
        if isinstance(self.family, KMR):
            return t
        raise TypeError(f"unknown family {self.family!r}")

    def curve_cost_polyline(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Breakpoints ``(xs, ys)`` plus tail slope of the curve cost in gaming."""
        gamma = self.family.gamma
        delta = self.zero_quality_extent(t)
        tail = gamma + 1.0 / t
        if delta > 0.0:
            xs = np.array([0.0, delta])
            ys = np.array([0.0, gamma * delta])
        else:
            xs = np.array([0.0])
            ys = np.array([float(self.curve_cost(t, 0.0))])
        return xs, ys, tail

    def curve_engagement_polyline(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Breakpoints plus tail slope of the curve engagement in gaming."""
        delta = self.zero_quality_extent(t)
        tail = 1.0 + 1.0 / t
        e0 = self.engagement_floor(t)
        if delta > 0.0:
            xs = np.array([0.0, delta])
            ys = np.array([e0, float(self.curve_engagement(t, delta))])
        else:
            xs = np.array([0.0])
            ys = np.array([e0])
        return xs, ys, tail

    def curve_x_for_cost(self, t: float, level: float) -> float:
        """Gaming level at which the curve cost reaches ``level``."""
        xs, ys, tail = self.curve_cost_polyline(t)
        return _polyline_crossing(xs, ys, tail, level)

    def curve_x_for_engagement(self, t: float, m: ArrayLike) -> ArrayLike:
        """Invert the curve engagement: the gaming level with M^E = m.

        Values of ``m`` below the curve minimum are clamped to gaming 0.
        """
        xs, ys, tail = self.curve_engagement_polyline(t)
        m = np.asarray(m, dtype=float)
        x = np.interp(m, ys, xs)
        beyond = m > ys[-1]
        x = np.where(beyond, xs[-1] + (m - ys[-1]) / tail, x)
        return x if x.ndim else float(x)

    def induced_cost(self, t: float, m: float) -> float:
        """Cheapest way to reach engagement ``m`` while eligible for type t.

        Engagement targets below the curve minimum clamp to the curve's
        starting cost. The optimum lies on the curve, so the search is a
        bisection over the gaming coordinate.
        """
        floor = self.engagement_floor(t)
        if m <= floor:
            return float(self.curve_cost(t, 0.0))
        hi = 1.0
        while self.curve_engagement(t, hi) < m:
            hi *= 2.0
            if hi > 1e18:
                raise ArithmeticError("engagement target unreachable")
        x = _bisect_increasing(lambda z: float(self.curve_engagement(t, z)), m, 0.0, hi)
        return float(self.curve_cost(t, x))

    def linearity_params(self) -> Optional[LinearityParams]:
        """Parameters making the induced cost linear, if they exist.

        Linear family: only the costless-gaming, unit-baseline setting
        (gamma = 0, alpha = 1) with shift 1. Watch-time family: any W with
        gamma = 0, shift 0. Returns None otherwise.
        """
        if self.family.gamma != 0.0:
            return None
        if isinstance(self.family, LinearTwitter):
            return LinearityParams(shift=1.0) if self.family.alpha == 1.0 else None
        if isinstance(self.family, KMR):
            return LinearityParams(shift=0.0)
        return None

    def reparam_to_content(self, v: float, t: float) -> Content:
        """Map a reparameterized engagement level to on-curve content.

        The convention is ``v = M^E(w) + s``: the returned content sits on
        the type-t curve and satisfies ``M^E(w) = v - s``, found by
        bisection over the gaming coordinate.
        """
        params = self.linearity_params()
        if params is None:
            raise PreconditionError("reparameterization requires linear induced costs")
        if t not in self.types:
            raise PreconditionError(f"type {t} not in the type space")
        m = v - params.shift
        floor = self.engagement_floor(t)
        if m < floor - 1e-12:
            raise ValueError(f"v={v} below the curve minimum {floor + params.shift}")
        hi = 1.0
        while self.curve_engagement(t, hi) < m:
            hi *= 2.0
        x = _bisect_increasing(lambda z: float(self.curve_engagement(t, z)), m, 0.0, hi)
        return Content(float(self.min_investment(t, x)), float(x))

    @classmethod
    def from_config(cls, cfg: dict) -> "ModelInstance":
        """Build an instance from the JSON configuration object."""
        if not isinstance(cfg, dict):
            raise ValueError("model config must be a JSON object")
        family = cfg.get("family")
        if "types" not in cfg:
            raise ValueError("model config missing 'types'")
        if not isinstance(cfg["types"], (list, tuple)):
            raise ValueError("'types' must be a list of numbers")
        types = TypeSpace.of(cfg["types"])
        gamma = float(cfg.get("gamma", 0.0))
        if family == "linear":
            if "alpha" not in cfg:
                raise ValueError("linear family requires 'alpha'")
            return cls(LinearTwitter(alpha=float(cfg["alpha"]), gamma=gamma), types)
        if family == "kmr":
            if "W" not in cfg:
                raise ValueError("kmr family requires 'W'")
            return cls(KMR(W=float(cfg["W"]), gamma=gamma), types)
        raise ValueError(f"unknown family {family!r} (expected 'linear' or 'kmr')")


def _polyline_crossing(xs: np.ndarray, ys: np.ndarray, tail_slope: float,
                       level: float) -> float:
    """x at which a nondecreasing polyline (with linear tail) reaches level."""
    if level <= ys[0]:
        return float(xs[0])
    for i in range(1, len(xs)):
        if level <= ys[i]:
            frac = (level - ys[i - 1]) / (ys[i] - ys[i - 1])
            return float(xs[i - 1] + frac * (xs[i] - xs[i - 1]))
    if tail_slope <= 0.0:
        raise ValueError("polyline never reaches level")
    return float(xs[-1] + (level - ys[-1]) / tail_slope)


def zero_cost_extent(inst: ModelInstance, t: float) -> float:
    """Largest gaming level on the type-t curve that still costs nothing."""
    xs, ys, _ = inst.curve_cost_polyline(t)
    if ys[0] > 0.0:
        return 0.0
    last = xs[0]
    for i in range(1, len(xs)):
        if ys[i] == 0.0:
            last = xs[i]
    return float(last)


# Numerical audit of the structural assumptions on (c, u, M^E).

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    worst_point: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _central_diff(fn, x, y, axis, rel_step=1e-6):
    h = rel_step * np.maximum(1.0, np.abs(x if axis == 0 else y))
    if axis == 0:
        return (fn(x + h, y) - fn(x - h, y)) / (2.0 * h)
    return (fn(x, y + h) - fn(x, y - h)) / (2.0 * h)


def check_assumptions(inst: ModelInstance, grid_n: int = 50,
                      span: float = 5.0) -> AssumptionReport:
    """Audit the structural conditions on cost, utility, and engagement.

    Every condition is checked by central finite differences on a grid over
    ``(0, span]^2`` (grid points are kept strictly positive so the stencil
    stays inside the domain). Failures are reported, never raised.
    """
    fam = inst.family
    axis_pts = np.linspace(span / (2.0 * grid_n), span, grid_n)
    gx, gy = np.meshgrid(axis_pts, axis_pts, indexing="ij")
    q, x = gx.ravel(), gy.ravel()
    checks: list[CheckResult] = []

    def record(name, margins, detail, strict_min=0.0):
        # margins > strict_min must hold everywhere; report the worst point.
        margins = np.asarray(margins, dtype=float)
        i = int(np.argmin(margins))
        ok = bool(margins[i] > strict_min)
        checks.append(CheckResult(name, ok, detail, (float(q[i]), float(x[i]))))

    dc_dq = _central_diff(fam.cost, q, x, axis=0)
    dc_dx = _central_diff(fam.cost, q, x, axis=1)
    record("cost_quality_strictly_costly", dc_dq, "dc/dw_costly > 0 on the grid")

    all_pos = np.all(dc_dx > 0.0)
    all_zero = np.all(np.abs(dc_dx) <= 1e-9)
    checks.append(CheckResult(
        "cost_gaming_uniform_sign", bool(all_pos or all_zero),
        "dc/dw_cheap > 0 everywhere or == 0 everywhere",
        None if (all_pos or all_zero) else (float(q[int(np.argmin(dc_dx))]),
                                            float(x[int(np.argmin(dc_dx))])),
    ))

    c00 = float(fam.cost(0.0, 0.0))
    checks.append(CheckResult("cost_zero_at_opt_out", c00 == 0.0,
                              f"c(0,0) = {c00}"))

    big = 1e9
    checks.append(CheckResult(
        "cost_unbounded_in_quality",
        float(fam.cost(big, 0.0)) > 1.0 and float(fam.cost(2 * big, 0.0)) > float(fam.cost(big, 0.0)),
        "c([X, 0]) grows without bound (probe at X = 1e9)"))

    me_nonneg = np.asarray(fam.engagement(q, x), dtype=float)
    record("engagement_nonnegative", me_nonneg, "M^E >= 0 on the grid", strict_min=-1e-12)
    dm_dq = _central_diff(fam.engagement, q, x, axis=0)
    dm_dx = _central_diff(fam.engagement, q, x, axis=1)
    record("engagement_increasing_quality", dm_dq, "dM^E/dw_costly > 0 on the grid")
    record("engagement_increasing_gaming", dm_dx, "dM^E/dw_cheap > 0 on the grid")

    # Cost-effectiveness of gaming: marginal cost ratio strictly below the
    # marginal engagement ratio.
    ratio_margin = dm_dx / dm_dq - dc_dx / dc_dq
    record("gaming_more_cost_effective", ratio_margin,
           "(dc/dw_cheap)/(dc/dw_costly) < (dM/dw_cheap)/(dM/dw_costly)")

    for t in inst.types:
        ufn = lambda a, b, _t=t: fam.utility(a, b, _t)
        du_dq = _central_diff(ufn, q, x, axis=0)
        du_dx = _central_diff(ufn, q, x, axis=1)
        record(f"utility_increasing_quality[t={t:g}]", du_dq,
               "du/dw_costly > 0 on the grid")
        record(f"utility_decreasing_gaming[t={t:g}]", -du_dx,
               "du/dw_cheap < 0 on the grid")
        checks.append(CheckResult(
            f"utility_limits[t={t:g}]",
            float(fam.utility(big, 0.0, t)) > 0.0 and float(fam.utility(0.0, big, t)) < 0.0,
            "u -> +inf in quality and -> -inf in gaming (probe at 1e9)"))

    for t_lo, t_hi in zip(inst.types, inst.types[1:]):
        u_lo = np.asarray(fam.utility(q, x, t_lo), dtype=float)
        u_hi = np.asarray(fam.utility(q, x, t_hi), dtype=float)
        bad = (u_lo >= 0.0) & (u_hi < -1e-12)
        ok = not bool(bad.any())
        worst = None
        if not ok:
            j = int(np.argmax(bad))
            worst = (float(q[j]), float(x[j]))
        checks.append(CheckResult(
            f"type_monotonicity[{t_lo:g}->{t_hi:g}]", ok,
            "u(w, t) >= 0 implies u(w, t') >= 0 for t' > t", worst))

    return AssumptionReport(tuple(checks))
