"""Monte Carlo estimate containers and a batched moment accumulator."""

from __future__ import annotations

import math

import numpy as np

from ._frozen import Frozen


class MetricEstimate(Frozen):
    """Monte Carlo mean with its standard error and sample count; two
    estimates are equal when all three are."""

    def __init__(self, mean: float, stderr: float, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if stderr < 0.0:
            raise ValueError("stderr must be >= 0")
        self.__dict__.update(mean=mean, stderr=stderr, n=n)

    def __eq__(self, other) -> bool:
        if type(other) is not MetricEstimate:
            return NotImplemented
        return (self.mean, self.stderr, self.n) == (other.mean, other.stderr,
                                                    other.n)

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "MetricEstimate":
        values = np.asarray(values, dtype=float)
        n = values.size
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(mean, stderr, n)

    def to_dict(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr, "n": self.n}


class RunningMoments:
    """Count/mean/M2 accumulator, fed one batch at a time (Chan et al.)."""

    def __init__(self) -> None:
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    @np.errstate(over="ignore", invalid="ignore")  # the caller reports inf or NaN
    def add_samples(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        k, mean = int(values.size), float(values.mean())
        m2 = float(((values - mean) ** 2).sum())
        if self.n == 0:
            self.n, self.mean, self.m2 = k, mean, m2
            return
        n = self.n + k
        delta = mean - self.mean
        self.m2 = self.m2 + m2 + delta * delta * self.n * k / n
        self.mean = self.mean + delta * k / n
        self.n = n

    def estimate(self) -> MetricEstimate:
        if self.n == 0:
            raise ValueError("no samples accumulated")
        # m2 is a sum of squares, so var is >= 0 or NaN; a NaN (from an inf
        # sample) must reach the caller, not turn into stderr 0.0
        var = self.m2 / (self.n - 1) if self.n > 1 else 0.0
        return MetricEstimate(self.mean, math.sqrt(var / self.n), self.n)
