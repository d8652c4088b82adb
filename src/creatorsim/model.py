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
import sys
from typing import Iterable, Optional, Union

import numpy as np

from ._frozen import Frozen

ArrayLike = Union[float, np.ndarray]
COST_CAP = 1.2  # past this cost every payoff is below zero, so each curve ends there


class TypeSpace(Frozen):
    """Finite set of user tolerances, drawn uniformly at round time."""

    def __init__(self, types: tuple[float, ...]) -> None:
        if len(types) == 0:
            raise ValueError("type space must be nonempty")
        # both families divide by t, so tolerances must be positive
        if any(not math.isfinite(t) or t <= 0.0 for t in types):
            raise ValueError("types must be finite and > 0")
        if min(types) < sys.float_info.min:  # 1 / t overflows below 5.6e-309
            raise ValueError(f"types must be normal floats, at least "
                             f"{sys.float_info.min!r}")
        if any(b <= a for a, b in zip(types, types[1:])):
            raise ValueError("types must be strictly increasing")
        self.__dict__.update(types=types)

    @classmethod
    def of(cls, types: Iterable[float]) -> "TypeSpace":
        return cls(tuple(float(t) for t in types))

    def __len__(self) -> int:
        return len(self.types)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.integers(0, len(self.types), size=n)
        return np.asarray(self.types, dtype=float)[idx]


_DELTA = 4.0 * float(np.finfo(float).eps)  # slack forgiven, relative to its terms
_WIDEN = 1.0 / (1.0 - _DELTA)


class _LinearFamily(Frozen):
    """Base of both families: cost ``q + gamma * x``, and a type-t user
    accepts exactly when the slack ``q - x / t + baseline`` is nonnegative
    (baseline ``alpha`` for ``linear``, 1 for ``kmr``), so the curve needs
    quality ``max(0, x / t - baseline)`` at gaming x."""

    baseline: float

    def __init__(self, gamma: float, **fields: float) -> None:
        if not (0.0 <= gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")
        self.__dict__.update(gamma=gamma, **fields)

    def cost(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return w_costly + self.gamma * w_cheap

    @np.errstate(over="ignore")  # x / t past the largest float rejects
    def accepts(self, w_costly: ArrayLike, w_cheap: ArrayLike, t: ArrayLike) -> ArrayLike:
        """Whether type t accepts: the slack is at least ``-_DELTA * (x / t
        + max(1, |baseline|))``, folded into one test of the slack's cost, so
        on-curve roundoff passes and the utility's scale never enters."""
        b = self.baseline
        return w_costly - w_cheap / (t * _WIDEN) + (b + _DELTA * max(1.0, abs(b))) >= 0.0

    def min_investment(self, t: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return np.maximum(0.0, w_cheap / t - self.baseline)

    def zero_quality_extent(self, t: float) -> float:
        """Largest gaming level that type t accepts with zero quality."""
        return max(0.0, t * self.baseline)


class LinearTwitter(_LinearFamily):
    """Linear utility with baseline ``alpha``; retweet-style engagement."""

    def __init__(self, alpha: float, gamma: float = 0.0) -> None:
        if not (math.isfinite(alpha) and alpha > -1.0):
            raise ValueError(f"alpha must be finite and > -1, got {alpha}")
        super().__init__(gamma, alpha=alpha, baseline=alpha)

    def __repr__(self) -> str:
        return f"LinearTwitter(alpha={self.alpha!r}, gamma={self.gamma!r})"

    def utility(self, w_costly: ArrayLike, w_cheap: ArrayLike, t: ArrayLike) -> ArrayLike:
        return w_costly - w_cheap / t + self.alpha

    def engagement(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return w_costly + w_cheap

    def linear_shift(self) -> Optional[float]:
        """Shift s of the linear induced cost
        ``C^E_t(m) = max(0, (m + s) / (1 + t) - 1)``: 1 with costless gaming
        and unit baseline, else None."""
        return 1.0 if self.gamma == 0.0 and self.alpha == 1.0 else None


class KMR(_LinearFamily):
    """Watch-time model: span/moreishness reparameterized to content space.

    ``W`` is the per-step outside option; the user type ``t`` plays the role
    of the shifted value ratio, so utility scales by ``W * t``.
    """

    baseline = 1.0

    def __init__(self, W: float, gamma: float = 0.0) -> None:
        if not (math.isfinite(W) and W > 0.0):
            raise ValueError(f"W must be finite and > 0, got {W}")
        super().__init__(gamma, W=W)

    def __repr__(self) -> str:
        return f"KMR(W={self.W!r}, gamma={self.gamma!r})"

    def utility(self, w_costly: ArrayLike, w_cheap: ArrayLike, t: ArrayLike) -> ArrayLike:
        return self.W * t * (w_costly - w_cheap / t + 1.0)

    def engagement(self, w_costly: ArrayLike, w_cheap: ArrayLike) -> ArrayLike:
        return w_costly + w_cheap + 1.0

    def linear_shift(self) -> Optional[float]:
        """Shift s of the linear induced cost (``LinearTwitter.linear_shift``):
        0 with costless gaming, for any W; else None."""
        return 0.0 if self.gamma == 0.0 else None


Family = Union[LinearTwitter, KMR]


class ModelInstance(Frozen):
    """A model family and its type space, every curve finite up to cost ``COST_CAP``."""

    def __init__(self, family: Family, type_space: TypeSpace) -> None:
        self.__dict__.update(family=family, type_space=type_space)
        with np.errstate(all="ignore"):  # an overflow is refused just below
            ends = [self.curve_x_for_cost(t, COST_CAP) for t in self.types]
        if not all(math.isfinite(x) for x in ends):
            raise ValueError(f"a type's curve passes the largest float below cost {COST_CAP}")

    @property
    def types(self) -> tuple[float, ...]:
        return self.type_space.types

    # Point evaluations; all broadcast over numpy arrays.

    @np.errstate(over="ignore", invalid="ignore")  # past the floats: a non-finite estimate
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

    def _curve_polyline(self, t: float, fn, tail: float
                        ) -> tuple[np.ndarray, np.ndarray, float]:
        """Breakpoints ``(xs, ys)`` of ``fn`` (cost or engagement) along the
        type-t curve, whose quality is beta up to the zero-quality extent
        and rises past it, plus the caller's tail slope."""
        delta = self.family.zero_quality_extent(t)
        xs = np.array([0.0, delta]) if delta > 0.0 else np.array([0.0])
        return xs, fn(self.beta(t), xs), tail

    def curve_cost_polyline(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Breakpoints ``(xs, ys)`` plus tail slope of the curve cost in gaming."""
        return self._curve_polyline(t, self.cost, self.family.gamma + 1.0 / t)

    def curve_x_for_cost(self, t: float, level: float) -> float:
        """Gaming level at which the curve cost reaches ``level``."""
        return _polyline_inverse(*self.curve_cost_polyline(t), level)

    def curve_x_for_engagement(self, t: float, m: ArrayLike) -> ArrayLike:
        """Invert the curve engagement: the gaming level with M^E = m.

        Values of ``m`` below the curve minimum are clamped to gaming 0.
        """
        return _polyline_inverse(
            *self._curve_polyline(t, self.engagement, 1.0 + 1.0 / t), m)

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
            # only a JSON number: float() would also read the strings
            # "1_0" and " 0.5 ", and true/false load as bools, an int type
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                got = "null" if value is None else type(value).__name__
                raise ValueError(f"{what} must be a number, got {got}")
            try:
                return float(value)
            except OverflowError:  # an integer past the largest float
                raise ValueError(f"{what} is too large: it must fit in a float")

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


def check_assumptions(inst: ModelInstance) -> dict:
    """Audit the structural conditions on cost, utility, and engagement.

    Both families are linear: the cost gradient is ``(1, gamma)``, the
    engagement gradient is ``(1, 1)``, and type t's utility is
    ``s_t * (q - x / t + baseline)`` with ``s_t = 1`` for ``linear`` and
    ``W * t`` for ``kmr``. Each condition is therefore an exact comparison
    on gamma, W and the types, with no grid and no tolerance. Failures are
    reported, never raised, in the report that ``check_model.json`` holds:
    ``{"all_passed": ..., "checks": [{"name", "passed", "detail"}, ...]}``.
    """
    fam = inst.family
    dc = (1.0, fam.gamma)  # cost gradient in (quality, gaming)
    dm = (1.0, 1.0)        # engagement gradient
    c00 = float(fam.cost(0.0, 0.0))
    m00 = float(fam.engagement(0.0, 0.0))
    kmr = isinstance(fam, KMR)
    checks = [
        ("cost_quality_strictly_costly", dc[0] > 0.0, f"dc/dw_costly = {dc[0]} > 0"),
        ("cost_gaming_uniform_sign", dc[1] >= 0.0,
         f"dc/dw_cheap = gamma = {dc[1]!r} everywhere, > 0 or == 0"),
        ("cost_zero_at_opt_out", c00 == 0.0, f"c(0,0) = {c00}"),
        ("cost_unbounded_in_quality", dc[0] > 0.0,
         f"c([X, 0]) = {dc[0]} * X grows without bound"),
        ("engagement_nonnegative", m00 >= 0.0 and min(dm) >= 0.0,
         f"M^E >= M^E(0,0) = {m00} >= 0"),
        ("engagement_increasing_quality", dm[0] > 0.0, f"dM^E/dw_costly = {dm[0]} > 0"),
        ("engagement_increasing_gaming", dm[1] > 0.0, f"dM^E/dw_cheap = {dm[1]} > 0"),
        ("gaming_more_cost_effective", dc[1] * dm[0] < dm[1] * dc[0],
         f"(dc/dw_cheap)/(dc/dw_costly) = {dc[1]!r} < "
         f"{dm[1] / dm[0]} = (dM/dw_cheap)/(dM/dw_costly)"),
    ]
    for t in inst.types:
        # du/dw_costly = s_t and du/dw_cheap = -s_t / t; the sign of
        # s_t = W * t comes from its factors, which no underflow can zero
        ok = t > 0.0 and (not kmr or fam.W > 0.0)
        scale = f"W * t = {fam.W!r} * {t!r}" if kmr else "1"
        checks += [
            (f"utility_increasing_quality[t={t:g}]", ok,
             f"du/dw_costly = s_t > 0, s_t = {scale}"),
            (f"utility_decreasing_gaming[t={t:g}]", ok,
             f"du/dw_cheap = -s_t / t < 0, s_t = {scale}"),
            (f"utility_limits[t={t:g}]", ok, "u is linear in each coordinate, with "
             "slopes s_t > 0 and -s_t / t < 0, so it -> +inf and -> -inf"),
        ]
    for t_lo, t_hi in zip(inst.types, inst.types[1:]):
        # u(w, t) >= 0 exactly when q - x / t + baseline >= 0, and x / t
        # falls as t rises
        checks.append((f"type_monotonicity[{t_lo:g}->{t_hi:g}]", 0.0 < t_lo < t_hi,
                       "u(w, t) >= 0 implies u(w, t') >= 0 for t' > t"))
    return {"all_passed": all(passed for _, passed, _ in checks),
            "checks": [{"name": name, "passed": passed, "detail": detail}
                       for name, passed, detail in checks]}
