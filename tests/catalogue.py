"""The model instances and equilibria that the unit tests build.

``EQUILIBRIA`` names each equilibrium the tests share: its instance, the
recommender metric it is played under, the number of creators P and its
constructor. An entry builds its strategy only when a test asks for it.
The builders make the entries' instances, and any other instance a test
needs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from creatorsim import (
    KMR,
    LinearTwitter,
    Metric,
    MixedStrategy,
    ModelInstance,
    TypeSpace,
    engagement_eq_homogeneous,
    engagement_eq_two_types,
    engagement_eq_well_separated,
    investment_eq,
    make_well_separated_types,
    random_eq,
)
from creatorsim.equilibrium import two_type_case


def instance(family, types=(1.0,)) -> ModelInstance:
    return ModelInstance(family, TypeSpace.of(types))


def linear(alpha, gamma=0.0, types=(1.0,)) -> ModelInstance:
    return instance(LinearTwitter(alpha, gamma), types)


def kmr(W=1.0, gamma=0.0, types=(1.0,)) -> ModelInstance:
    return instance(KMR(W, gamma), types)


def two_type(ratio, family="linear") -> ModelInstance:
    """Two types whose coefficients a_t = 1/(1+t) have a1/a2 == ratio: t1 is
    fixed (1 on the linear family, 0.01 on KMR) and t2 solved from it."""
    t1 = 1.0 if family == "linear" else 0.01
    types = (t1, ratio * (1.0 + t1) - 1.0)
    return linear(1.0, types=types) if family == "linear" else kmr(types=types)


def well_separated(N, eps=0.01) -> ModelInstance:
    return ModelInstance(LinearTwitter(1.0, 0.0), make_well_separated_types(N, eps))


class Equilibrium(NamedTuple):
    inst: ModelInstance
    metric: Metric
    P: int
    construct: Callable[[ModelInstance, int], MixedStrategy]

    def strategy(self) -> MixedStrategy:
        return self.construct(self.inst, self.P)

    def game(self) -> tuple:
        """``(inst, metric, strategy, P)``: the leading arguments of
        ``simulate_rounds``, ``best_response_gap``, ``OpponentPool.draw`` and
        the metric estimators."""
        return self.inst, self.metric, self.strategy(), self.P

    def on(self, family, types=None) -> Equilibrium:
        """The same construction for ``family``, on this entry's types or on
        ``types``."""
        space = self.inst.type_space if types is None else TypeSpace.of(types)
        return self._replace(inst=ModelInstance(family, space))


def _two_type_eq(inst, P):
    return engagement_eq_two_types(inst)


def _well_separated_eq(inst, P):
    return engagement_eq_well_separated(inst)


E, I, R = Metric.ENGAGEMENT, Metric.INVESTMENT, Metric.RANDOM

EQUILIBRIA = {
    # homogeneous: the unit baseline, an origin atom of mass 1/2, and
    # origin atoms at P = 2-4 (the P = 3 one is a benchmark certify case)
    "homogeneous_P2": Equilibrium(linear(1.0), E, 2, engagement_eq_homogeneous),
    "homogeneous_atom_half": Equilibrium(linear(-0.5, 0.5), E, 2,
                                         engagement_eq_homogeneous),
    "homogeneous_atom_P2": Equilibrium(linear(-0.3, 0.1, (1.5,)), E, 2,
                                       engagement_eq_homogeneous),
    "homogeneous_atom_P3": Equilibrium(linear(-0.5, 0.3, (2.0,)), E, 3,
                                       engagement_eq_homogeneous),
    "homogeneous_atom_P4": Equilibrium(linear(-0.3, 0.1, (1.5,)), E, 4,
                                       engagement_eq_homogeneous),
    # criterion 3: consumed quality falls as gaming gets costlier, at P = 2, 3
    **{f"homogeneous_a0.5_g{g}_P{P}": Equilibrium(linear(0.5, g), E, P,
                                                  engagement_eq_homogeneous)
       for g in (0.2, 0.8) for P in (2, 3)},
    # the paper's three two-type cases by coefficient ratio (case 2 is the
    # other certify case), and two KMR pairs; on the wide one, t = 0.01 users
    # reject about half of the draws by a slack down to -63
    **{f"two_type_case{two_type_case(r)}": Equilibrium(two_type(r), E, 2, _two_type_eq)
       for r in (2.0, 1.45, 1.2)},
    "kmr_two_type": Equilibrium(kmr(types=(1.0, 1.6)), E, 2, _two_type_eq),
    "kmr_two_type_wide": Equilibrium(two_type(1.5, "kmr"), E, 2, _two_type_eq),
    # criterion 6: user welfare against random reverses from c = 1.2 to 2.0,
    # and at c = 1.45 too it is the density integral (its quadrature row)
    **{f"kmr_two_type_c{c}": Equilibrium(two_type(c, "kmr"), E, 2, _two_type_eq)
       for c in (1.2, 1.45, 2.0)},
    # N = 8 and 64 back criteria 2 (UCQ <= 1/N) and 5 (RE below investment's);
    # the exact tests grid N = 64's 41 components at 2 000 rows each
    **{f"well_separated_N{N}": Equilibrium(well_separated(N), E, 2, _well_separated_eq)
       for N in (2, 3, 4, 5, 8, 64)},
    # the baselines: pure quality, and opt-out/entry atoms under random
    "investment_P2": Equilibrium(linear(1.0), I, 2, investment_eq),
    "investment_atom": Equilibrium(linear(-0.5), I, 2, investment_eq),
    "investment": Equilibrium(linear(-0.5, 0.3, (2.0,)), I, 2, investment_eq),
    "random_P2": Equilibrium(linear(1.0), R, 2, random_eq),
    "random_two_atoms": Equilibrium(linear(-0.75), R, 2, random_eq),
    # two atoms and one score for all: every eligible row ties
    "random_ties": Equilibrium(linear(-0.5, 0.0, (2.0,)), R, 3, random_eq),
}
