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
given gaming level, the one-dimensional cost along that curve, and the
inverses of the curve's cost and engagement.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Union

import numpy as np

from ._frozen import Frozen

ArrayLike = Union[float, np.ndarray]


class PreconditionError(ValueError):
    """An operation's structural preconditions are not met."""


class Content(Frozen):
    """A creator action: quality effort and gaming effort."""

    def __init__(self, w_costly: float, w_cheap: float) -> None:
        for name, v in (("w_costly", w_costly), ("w_cheap", w_cheap)):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        self.__dict__.update(w_costly=w_costly, w_cheap=w_cheap)

    def as_tuple(self) -> tuple[float, float]:
        return (self.w_costly, self.w_cheap)


class TypeSpace(Frozen):
    """Finite set of user tolerances, drawn uniformly at round time."""

    def __init__(self, types: tuple[float, ...]) -> None:
        if len(types) == 0:
            raise ValueError("type space must be nonempty")
        if any(not math.isfinite(t) or t < 0.0 for t in types):
            raise ValueError("types must be finite and >= 0")
        if any(b <= a for a, b in zip(types, types[1:])):
            raise ValueError("types must be strictly increasing")
        self.__dict__.update(types=types)

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


class LinearityParams(Frozen):
    """Linear induced-cost parameters: ``C^E_t(m) = max(0, a_t (m + s) - 1)``.

    Both built-in families satisfy this with ``a_t = 1 / (1 + t)`` whenever
    gaming is costless (and, for the linear family, the baseline is 1).
    """

    def __init__(self, shift: float) -> None:
        self.__dict__.update(shift=shift)

    def coefficient(self, t: ArrayLike) -> ArrayLike:
        return 1.0 / (1.0 + np.asarray(t, dtype=float))


class LinearTwitter(Frozen):
    """Linear utility with baseline ``alpha``; retweet-style engagement."""

    name = "linear"

    def __init__(self, alpha: float, gamma: float = 0.0) -> None:
        if not (math.isfinite(alpha) and alpha > -1.0):
            raise ValueError(f"alpha must be finite and > -1, got {alpha}")
        if not (0.0 <= gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")
        self.__dict__.update(alpha=alpha, gamma=gamma)

    def __repr__(self) -> str:
        return f"LinearTwitter(alpha={self.alpha!r}, gamma={self.gamma!r})"

    def utility(self, w_costly: ArrayLike, w_cheap: ArrayLike, t: ArrayLike) -> ArrayLike:
        return w_costly - w_cheap / t + self.alpha

    def cost(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return w_costly + self.gamma * w_cheap

    def engagement(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return w_costly + w_cheap

    def min_investment(self, t: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return np.maximum(0.0, w_cheap / t - self.alpha)

    def zero_quality_extent(self, t: float) -> float:
        """Largest gaming level that type t accepts with zero quality."""
        return max(0.0, t * self.alpha)

    def linearity_params(self) -> Optional[LinearityParams]:
        """Shift 1 with costless gaming and unit baseline, else None."""
        if self.gamma == 0.0 and self.alpha == 1.0:
            return LinearityParams(shift=1.0)
        return None


class KMR(Frozen):
    """Watch-time model: span/moreishness reparameterized to content space.

    ``W`` is the per-step outside option; the user type ``t`` plays the role
    of the shifted value ratio, so utility scales by ``W * t``.
    """

    name = "kmr"

    def __init__(self, W: float, gamma: float = 0.0) -> None:
        if not (math.isfinite(W) and W > 0.0):
            raise ValueError(f"W must be finite and > 0, got {W}")
        if not (0.0 <= gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")
        self.__dict__.update(W=W, gamma=gamma)

    def __repr__(self) -> str:
        return f"KMR(W={self.W!r}, gamma={self.gamma!r})"

    def utility(self, w_costly: ArrayLike, w_cheap: ArrayLike, t: ArrayLike) -> ArrayLike:
        return self.W * t * (w_costly - w_cheap / t + 1.0)

    def cost(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return w_costly + self.gamma * w_cheap

    def engagement(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return w_costly + w_cheap + 1.0

    def min_investment(self, t: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return np.maximum(0.0, w_cheap / t - 1.0)

    def zero_quality_extent(self, t: float) -> float:
        """Largest gaming level that type t accepts with zero quality."""
        return t

    def linearity_params(self) -> Optional[LinearityParams]:
        """Shift 0 with costless gaming, for any W; else None."""
        return LinearityParams(shift=0.0) if self.gamma == 0.0 else None


Family = Union[LinearTwitter, KMR]


class ModelInstance(Frozen):
    """A model family together with its finite type space."""

    def __init__(self, family: Family, type_space: TypeSpace) -> None:
        # Both built-in families divide by t, so tolerances must be positive.
        if any(t <= 0.0 for t in type_space):
            raise ValueError("built-in families require all types > 0")
        self.__dict__.update(family=family, type_space=type_space)

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

    def curve_cost_polyline(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Breakpoints ``(xs, ys)`` plus tail slope of the curve cost in gaming."""
        gamma = self.family.gamma
        delta = self.family.zero_quality_extent(t)
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
        delta = self.family.zero_quality_extent(t)
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
        return _polyline_inverse(*self.curve_cost_polyline(t), level)

    def curve_x_for_engagement(self, t: float, m: ArrayLike) -> ArrayLike:
        """Invert the curve engagement: the gaming level with M^E = m.

        Values of ``m`` below the curve minimum are clamped to gaming 0.
        """
        return _polyline_inverse(*self.curve_engagement_polyline(t), m)

    def linearity_params(self) -> Optional[LinearityParams]:
        """Parameters making the induced cost linear, or None."""
        return self.family.linearity_params()

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

        def number(value, what: str) -> float:
            # JSON true/false load as bools, which float() reads as 1.0/0.0
            if isinstance(value, bool):
                raise ValueError(f"{what} must be a number, got {value!r}")
            return float(value)

        types = TypeSpace.of(number(t, "'types' entry") for t in cfg["types"])
        gamma = number(cfg.get("gamma", 0.0), "'gamma'")
        if family == "linear":
            if "alpha" not in cfg:
                raise ValueError("linear family requires 'alpha'")
            return cls(LinearTwitter(number(cfg["alpha"], "'alpha'"), gamma), types)
        if family == "kmr":
            if "W" not in cfg:
                raise ValueError("kmr family requires 'W'")
            return cls(KMR(number(cfg["W"], "'W'"), gamma), types)
        raise ValueError(f"unknown family {family!r} (expected 'linear' or 'kmr')")


def _polyline_inverse(xs: np.ndarray, ys: np.ndarray, tail: float,
                      level: ArrayLike) -> ArrayLike:
    """Smallest x at which a nondecreasing polyline, continued past its last
    breakpoint with slope ``tail``, reaches ``level``; vectorized over level.

    Levels at or below ``ys[0]`` give ``xs[0]``, also on a flat start such as
    the zero-cost stretch ``ys = [0, 0]``, where ``np.interp`` alone would
    return the right end.
    """
    level = np.asarray(level, dtype=float)
    inner = np.interp(level, ys, xs)
    if not np.all(np.isfinite(inner)):
        # np.interp forms the slope dx/dy, which overflows on a segment that
        # rises by a subnormal amount; the risen fraction of it does not
        k = np.clip(np.searchsorted(ys, level) - 1, 0, len(ys) - 2)
        frac = (level - ys[k]) / (ys[k + 1] - ys[k])
        inner = np.where(np.isfinite(inner), inner,
                         xs[k] + frac * (xs[k + 1] - xs[k]))
    x = np.where(level > ys[-1], xs[-1] + (level - ys[-1]) / tail, inner)
    x = np.where(level <= ys[0], xs[0], x)
    return x if x.ndim else float(x)


def zero_cost_extent(inst: ModelInstance, t: float) -> float:
    """Largest gaming level on the type-t curve that still costs nothing:
    the zero-quality stretch when gaming is free, else the origin."""
    return inst.family.zero_quality_extent(t) if inst.family.gamma == 0.0 else 0.0


# Numerical audit of the structural assumptions on (c, u, M^E).

class CheckResult(Frozen):
    def __init__(self, name: str, passed: bool, detail: str,
                 worst_point: Optional[tuple[float, float]] = None) -> None:
        self.__dict__.update(name=name, passed=passed, detail=detail,
                             worst_point=worst_point)


class AssumptionReport(Frozen):
    def __init__(self, checks: tuple[CheckResult, ...]) -> None:
        self.__dict__.update(checks=checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail,
                        "worst_point": c.worst_point} for c in self.checks],
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
