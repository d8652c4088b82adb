"""Piecewise-linear CDFs with exact inverse-transform sampling."""

from __future__ import annotations

import numpy as np

from ._frozen import Frozen


class PiecewiseLinearCdf(Frozen):
    """CDF of the form F(x) = base(x) ** exponent.

    ``base`` is the nondecreasing piecewise-linear interpolant of
    ``(xs, ys)`` with ``ys[-1] == 1``; below ``xs[0]`` the CDF is 0, so a
    positive ``ys[0]`` encodes an atom at ``xs[0]``. Flat stretches encode
    gaps in the support; the inverse maps into them at their left endpoint.
    """

    def __init__(self, xs, ys, exponent: float = 1.0) -> None:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) == 0:
            raise ValueError("xs and ys must be equal-length 1-d arrays")
        if np.any(np.diff(xs) < 0) or np.any(np.diff(ys) < -1e-15):
            raise ValueError("breakpoints must be nondecreasing")
        if abs(ys[-1] - 1.0) > 1e-12:
            raise ValueError("base must reach 1 at the last breakpoint")
        if ys[0] < -1e-15:
            raise ValueError("base must be nonnegative")
        if exponent <= 0.0:
            raise ValueError("exponent must be positive")
        self.__dict__.update(xs=xs, ys=ys, exponent=exponent)

    def _segments(self, q: np.ndarray) -> np.ndarray:
        """Index of the breakpoint ending the segment of each q:
        ``min(searchsorted(levels, q, "left"), len(xs) - 1)``.

        Every constructor builds at most a handful of breakpoints, so one
        comparison pass per level beats a binary search per key. Counting the
        levels at or above q (rather than those below it) sends NaN to the
        last segment, as ``searchsorted`` does.
        """
        levels = self.ys if self.exponent == 1.0 else self.ys ** self.exponent
        last = len(self.xs) - 1
        idx = np.full(q.shape, last, dtype=np.min_scalar_type(last))
        for level in levels[:-1]:
            idx -= q <= level
        return idx

    def _rise(self, target: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
        """x on the rising segment k for every key, into ``out``.

        The target is first clipped into the segment. That leaves the
        segment's own keys as they are, but for rounding in the target when
        the exponent is not 1, and keeps every other key's x finite. At
        exponent 1 the last segment is clipped from below only, so q past
        ``ys[-1]`` extrapolates.
        """
        y0, x0 = self.ys[k - 1], self.xs[k - 1]
        if k == len(self.xs) - 1 and self.exponent == 1.0:
            np.maximum(target, y0, out=out)
        else:
            np.clip(target, y0, self.ys[k], out=out)
        out -= y0
        out /= self.ys[k] - y0
        out *= self.xs[k] - x0
        out += x0
        return out

    def ppf(self, q) -> np.ndarray:
        """Smallest x with F(x) >= q, vectorized over q in [0, 1].

        The segment is found by comparing q with F at the breakpoints,
        ``ys ** exponent``, so rounding in ``q ** (1 / exponent)`` cannot
        carry q = F(xs[k]) past a flat stretch that starts at xs[k]. Each
        rising segment is then interpolated on every key by ``_rise``, and
        each key keeps its own segment's x by exact 0/1 products: the bits
        of each segment's x, read as integers, times whether the key lies in
        that segment, summed. Integer products carry -0.0 and NaN through
        unchanged, and no key takes a data-dependent branch.

        At exponent 1 a key of segment 0 (q <= ys[0]) clips to ys[0] on a
        rising segment 1 and lands on xs[0] exactly, unless xs[0] is -0.0,
        so segment 1 takes those keys too; a CDF with one rising segment
        then needs no selection at all.
        """
        q = np.asarray(q, dtype=float)
        flat_q = q.reshape(-1)
        target = flat_q if self.exponent == 1.0 else flat_q ** (1.0 / self.exponent)
        x = np.empty_like(flat_q)
        last = len(self.xs) - 1
        merged = (self.exponent == 1.0 and last > 0 and self.ys[1] > self.ys[0]
                  and not np.signbit(self.xs[0]))
        if merged and last == 1:
            x = self._rise(target, 1, x).reshape(q.shape)
            return x if x.ndim else float(x)
        idx = self._segments(flat_q)
        if merged:
            bits = np.zeros(flat_q.shape, dtype=np.int64)
        else:  # segment 0: the support start
            bits = np.multiply(idx == 0, self.xs[:1].view(np.int64))
        for k in range(1, last + 1):
            if self.ys[k] > self.ys[k - 1]:
                picked = self._rise(target, k, x).view(np.int64)
                picked *= (idx <= 1) if merged and k == 1 else (idx == k)
                bits += picked
            else:  # a flat stretch maps to its left end
                x0 = self.xs[k - 1]
                word = np.float64(x0 + 0.0 * (self.xs[k] - x0)).view(np.int64)
                bits += word * (idx == k)
        x = bits.view(float).reshape(q.shape)
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
