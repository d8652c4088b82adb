"""The package's value classes are read-only once built."""

import numpy as np
import pytest

from creatorsim._stats import MetricEstimate
from creatorsim.empirics import SpearmanResult, Survey, TweetRecord
from creatorsim.game import OpponentPool, simulate_rounds
from creatorsim.model import KMR, LinearTwitter
from creatorsim.verify import best_response_gap
from catalogue import EQUILIBRIA

ONE = EQUILIBRIA["homogeneous_P2"]
TWO = EQUILIBRIA["two_type_case2"]


def component(strategy):
    return strategy.components[0][1]


# a builder of each value class and one of its fields
VALUES = {
    "ModelInstance": (lambda: TWO.inst, "family"),
    "TypeSpace": (lambda: TWO.inst.type_space, "types"),
    "LinearTwitter": (lambda: LinearTwitter(0.5, 0.2), "alpha"),
    "KMR": (lambda: KMR(2.0, 0.1), "W"),
    "AtomComponent": (lambda: component(EQUILIBRIA["random_P2"].strategy()),
                      "w_costly"),
    "CurveComponent": (lambda: component(ONE.strategy()), "t"),
    "QualityComponent": (lambda: component(EQUILIBRIA["investment_P2"].strategy()),
                         "quality"),
    "MixedStrategy": (lambda: TWO.strategy(), "components"),
    "PiecewiseLinearCdf": (lambda: component(ONE.strategy()).cheap, "xs"),
    "OpponentPool": (lambda: OpponentPool.draw(
        *TWO.game(), 50, np.random.default_rng(0)), "order"),
    "RoundBatch": (lambda: simulate_rounds(
        *TWO.game(), 20, np.random.default_rng(0)), "winner"),
    "MetricEstimate": (lambda: MetricEstimate(1.0, 0.5, 3), "mean"),
    "BestResponseReport": (lambda: best_response_gap(
        *TWO.game(), 3, 100, np.random.default_rng(0)), "gap"),
    "TweetRecord": (lambda: TweetRecord("E", "P", 1, 2), "favorites"),
    "Survey": (lambda: Survey.from_records([TweetRecord("C", "NP", 0, 5)]),
               "feed"),
    "SpearmanResult": (lambda: SpearmanResult(0.5, 0.1, 10), "rho"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_cannot_be_set_or_deleted(name):
    make, field = VALUES[name]
    value = make()
    assert type(value).__name__ == name
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, field) is before
    assert not hasattr(value, "not_a_field")

