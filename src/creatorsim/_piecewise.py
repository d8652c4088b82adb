"""Piecewise-linear CDFs with exact inverse-transform sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PiecewiseLinearCdf:
    """CDF of the form F(x) = base(x) ** exponent.

    ``base`` is the nondecreasing piecewise-linear interpolant of
    ``(xs, ys)`` with ``ys[-1] == 1``; below ``xs[0]`` the CDF is 0, so a
    positive ``ys[0]`` encodes an atom at ``xs[0]``. Flat stretches encode
    gaps in the support; the inverse maps into them at their left endpoint.
    """

    xs: np.ndarray
    ys: np.ndarray
    exponent: float = 1.0

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) == 0:
            raise ValueError("xs and ys must be equal-length 1-d arrays")
        if np.any(np.diff(xs) < 0) or np.any(np.diff(ys) < -1e-15):
            raise ValueError("breakpoints must be nondecreasing")
        if abs(ys[-1] - 1.0) > 1e-12:
            raise ValueError("base must reach 1 at the last breakpoint")
        if ys[0] < -1e-15:
            raise ValueError("base must be nonnegative")
        if self.exponent <= 0.0:
            raise ValueError("exponent must be positive")

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        base = np.interp(x, self.xs, self.ys)
        base = np.where(x < self.xs[0], 0.0, base)
        out = base ** self.exponent
        return out if out.ndim else float(out)

    def ppf(self, q) -> np.ndarray:
        """Smallest x with F(x) >= q, vectorized over q in [0, 1].

        The segment is found by comparing q with F at the breakpoints, as
        ``cdf`` computes it, so rounding in ``q ** (1 / exponent)`` cannot
        carry q = F(xs[k]) past a flat stretch that starts at xs[k].
        """
        q = np.asarray(q, dtype=float)
        if self.exponent == 1.0:
            target, levels = q, self.ys
        else:
            target, levels = q ** (1.0 / self.exponent), self.ys ** self.exponent
        idx = np.searchsorted(levels, q, side="left")
        idx = np.clip(idx, 0, len(self.xs) - 1)
        lo = np.maximum(idx - 1, 0)
        y0, y1 = self.ys[lo], self.ys[idx]
        x0, x1 = self.xs[lo], self.xs[idx]
        rise = y1 - y0
        frac = np.where(rise > 0.0, (target - y0) / np.where(rise > 0.0, rise, 1.0), 0.0)
        if self.exponent != 1.0:
            # target may round just outside the segment that levels bracket
            frac = np.clip(frac, 0.0, 1.0)
        x = x0 + frac * (x1 - x0)
        x = np.where(idx == 0, self.xs[0], x)
        return x if x.ndim else float(x)

    def breakpoints(self) -> list[tuple[float, float]]:
        return [(float(a), float(b)) for a, b in zip(self.xs, self.ys)]


def clipped_linear_cdf(xs, ys, tail_slope: float, scale: float,
                       exponent: float = 1.0) -> PiecewiseLinearCdf:
    """CDF with base ``min(1, scale * f(x))`` for a polyline f with a tail.

    Leading flat-at-zero breakpoints are trimmed so the support starts at the
    last zero-cost point; the level-1 crossing becomes the final breakpoint.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float) * scale
    bx: list[float] = []
    by: list[float] = []
    for x, y in zip(xs, ys):
        if y >= 1.0:
            # crossing inside the recorded polyline
            prev_x = bx[-1] if bx else x
            prev_y = by[-1] if by else y
            if y > prev_y:
                frac = (1.0 - prev_y) / (y - prev_y)
                bx.append(prev_x + frac * (x - prev_x))
            else:
                bx.append(float(x))
            by.append(1.0)
            break
        bx.append(float(x))
        by.append(float(y))
    else:
        if tail_slope <= 0.0:
            raise ValueError("cdf never reaches 1")
        bx.append(bx[-1] + (1.0 - by[-1]) / (scale * tail_slope))
        by.append(1.0)
    # trim leading zeros, keeping the final one as the support start
    first = 0
    while first + 1 < len(by) and by[first] == 0.0 and by[first + 1] == 0.0:
        first += 1
    return PiecewiseLinearCdf(np.array(bx[first:]), np.array(by[first:]), exponent)
