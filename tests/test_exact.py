"""Exact payoffs and round metrics on a weighted quantile grid
(``oracles.exact_payoffs``, ``oracles.exact_round_metrics``) against the
Monte Carlo payoff pool and round estimates, and one identity that ties
the pool to the round kernel, on every catalogue equilibrium."""

import itertools
import math

import numpy as np
import pytest

from creatorsim import engagement_eq_homogeneous, random_eq
from creatorsim._stats import MetricEstimate
from creatorsim.equilibrium import (
    AtomComponent,
    MixedStrategy,
    _linear_coefficients,
    _two_type_intervals,
)
from creatorsim.game import OpponentPool, simulate_rounds
from creatorsim.metrics import estimate_round_metrics
from creatorsim.verify import candidate_deviations
from catalogue import (
    EQUILIBRIA,
    E,
    R,
    Equilibrium,
    _two_type_eq,
    _well_separated_eq,
    linear,
    two_type,
    well_separated,
)
from oracles import exact_payoffs, exact_round_metrics, quantile_grid

N = 20_000      # grid rows per continuous component
GRID_K = 20     # candidate points per type curve
SAMPLES = 20_000  # Monte Carlo pool rows


def bound(P):
    """How far the grid may move an exact payoff: of order (P - 1) / N.
    On the catalogue, the on-support spread and the best deviation's gain
    read at most about half of it."""
    return (P - 1) / N


def on_grid_and_candidates(inst, metric, strategy, P):
    """Exact payoffs of the strategy's own grid rows, with their weights,
    and of ``verify``'s candidate deviations, all against the strategy."""
    grid, weight = quantile_grid(strategy, N)
    cands = candidate_deviations(inst, GRID_K)
    exact = exact_payoffs(inst, metric, strategy, P,
                          np.concatenate([grid, cands]), N)
    return exact[:len(grid)], weight, cands, exact[len(grid):]


def _last_ratio_inside_slack(N):
    """N well-separated types whose last coefficient ratio is 1 + 1/N
    shrunk by 5e-10, which the constructor's 1e-9 slack still accepts."""
    *types, _ = well_separated(N).types
    return linear(1.0, types=(*types, (1.0 + types[-1]) * (1.0 + 1.0 / N)
                              * (1.0 - 5e-10) - 1.0))


GOLDEN = (5.0 - math.sqrt(5.0)) / 2.0
# two-type coefficient ratios at the case boundaries, with the case each
# lands in and how many of its intervals outlast the 1e-14 width filter
RATIOS = {
    "1.5": (1.5, 1, 2),
    "below_1.5": (math.nextafter(1.5, 0.0), 2, 2),
    "golden": (GOLDEN, 2, 2),
    "below_golden": (math.nextafter(GOLDEN, 0.0), 3, 2),
    "above_golden": (math.nextafter(GOLDEN, 2.0), 2, 2),
}
# the constructors at the edges of their preconditions, certified by the
# catalogue's body and bound
BOUNDARIES = {
    **{f"two_type_ratio_{key}": Equilibrium(two_type(ratio), E, 2, _two_type_eq)
       for key, (ratio, _, _) in RATIOS.items()},
    # 1 + t == 1 for the low type
    **{f"two_type_low_{t!r}": Equilibrium(linear(1.0, types=(t, 2.0)), E, 2,
                                          _two_type_eq)
       for t in (1e-16, 1.1e-16)},
    "well_separated_N4_slack": Equilibrium(_last_ratio_inside_slack(4), E, 2,
                                           _well_separated_eq),
    # the entry point kappa = 1/P, where nobody opts out
    **{f"random_entry_P{P}": Equilibrium(linear(-1.0 / P), R, P,
                                         random_eq)
       for P in (2, 3, 4)},
    "homogeneous_t7.5e307": Equilibrium(linear(0.5, types=(7.5e307,)), E, 2,
                                        engagement_eq_homogeneous),
}


@pytest.mark.parametrize("key", sorted(RATIOS))
def test_boundary_ratios_land_in_their_case(key):
    ratio, case, kept = RATIOS[key]
    inst = two_type(ratio)
    a1, a2 = _linear_coefficients(inst)
    assert a1 / a2 == ratio
    got, intervals = _two_type_intervals(inst)
    assert (got, len(intervals)) == (case, kept)


@pytest.mark.parametrize("name", sorted(EQUILIBRIA) + sorted(BOUNDARIES))
def test_exact_payoffs_certify_the_equilibrium(name):
    inst, metric, strategy, P = {**EQUILIBRIA, **BOUNDARIES}[name].game()
    on, weight, cands, off = on_grid_and_candidates(inst, metric, strategy, P)
    # every on-support content earns the same, and no candidate earns more
    assert on.max() - on.min() <= bound(P)
    assert off.max() - weight @ on <= bound(P)
    # the pool's counted estimates agree at every candidate
    pool = OpponentPool.draw(inst, metric, strategy, P, SAMPLES,
                             np.random.default_rng(1))
    mean, stderr = pool.estimates(cands)
    assert np.all(np.abs(off - mean) <= 4 * stderr + bound(P))


@pytest.mark.parametrize("name", sorted(EQUILIBRIA))
def test_two_percent_at_the_origin_is_no_equilibrium(name):
    # Monte Carlo at 1e5 samples passes these, under its 0.02 gap floor
    inst, metric, strategy, P = EQUILIBRIA[name].game()
    moved = MixedStrategy(
        tuple((0.98 * w, comp) for w, comp in strategy.components)
        + ((0.02, AtomComponent(0.0, 0.0)),), "moved")
    on, weight, _, off = on_grid_and_candidates(inst, metric, moved, P)
    gap = off.max() - weight @ on
    if name == "random_P2":  # its strategy is the origin atom already
        assert gap == 0.0
    else:
        assert gap > 20 * bound(P)


TICKETS = 40


@pytest.mark.parametrize("name", ["random_P2", "random_two_atoms", "random_ties"])
def test_lift_on_atoms_equals_the_pool_of_every_opponent_tuple(name):
    # the atoms' weights rounded to whole tickets of 1 / TICKETS; the pool's
    # rows are every ordered tuple of P - 1 tickets facing every type, each
    # once, so its plain row average is the expectation over i.i.d.
    # opponents, and the grid of atoms is the rounded strategy itself
    inst, metric, strategy, P = EQUILIBRIA[name].game()
    atoms = [comp for _, comp in strategy.components]
    assert all(isinstance(atom, AtomComponent) for atom in atoms)
    ends = np.round(np.cumsum([w for w, _ in strategy.components]) * TICKETS)
    counts = np.diff(ends, prepend=0.0).astype(int)
    rounded = MixedStrategy(tuple((c / TICKETS, atom)
                                  for c, atom in zip(counts, atoms)), "tickets")
    points = np.array([[atom.w_costly, atom.w_cheap] for atom in atoms])
    tickets = np.repeat(points, counts, axis=0)
    tuples = np.array(list(itertools.product(range(TICKETS), repeat=P - 1)))
    opp = np.tile(tickets[tuples], (len(inst.types), 1, 1))
    pool = OpponentPool.of(inst, metric, opp[..., 0], opp[..., 1],
                           np.repeat(inst.types, len(tuples)))
    contents = np.concatenate([points, candidate_deviations(inst, GRID_K)])
    mean, _ = pool.estimates(contents)
    np.testing.assert_allclose(
        exact_payoffs(inst, metric, rounded, P, contents, N), mean,
        rtol=0.0, atol=1e-12)


ROUNDS = 50_000
PROBES = 256


@pytest.mark.parametrize("name", sorted(EQUILIBRIA))
def test_one_game_two_kernels_one_identity(name):
    """In a symmetric profile the P creators share each consumed round
    alike, so a creator's expected payoff is Pr[the round's user consumes
    something] / P minus the mean cost of one draw. ``simulate_rounds``
    gives that side; the payoff pool gives the other, averaged over
    on-support probes, which stand for the strategy because on an
    equilibrium's support every content earns the same."""
    inst, metric, strategy, P = EQUILIBRIA[name].game()
    rng = np.random.default_rng(5)
    batch = simulate_rounds(inst, metric, strategy, P, ROUNDS, rng)
    won = MetricEstimate.from_samples(batch.consumed / P)
    cost = MetricEstimate.from_samples(
        np.asarray(inst.cost(*strategy.sample(rng, ROUNDS).T), dtype=float))
    probes = strategy.sample(rng, PROBES)
    pool = OpponentPool.draw(inst, metric, strategy, P, ROUNDS, rng)
    played = MetricEstimate.from_samples(pool.payoffs(probes) / PROBES)
    rounds = won.mean - cost.mean
    if name == "random_P2":  # every round ties two creators at the origin
        assert rounds == played.mean == 0.5
    else:
        se = math.sqrt(won.stderr ** 2 + cost.stderr ** 2 + played.stderr ** 2)
        assert abs(rounds - played.mean) <= 4 * se
    # and the pool's side is the probes' exact payoff
    exact = exact_payoffs(inst, metric, strategy, P, probes, N).mean()
    assert abs(played.mean - exact) <= 4 * played.stderr + bound(P)


METRIC_ROUNDS = 100_000


def round_metrics_miss(name, played_P):
    """How far ``estimate_round_metrics`` misses the exact UCQ, RE and UW of
    a catalogue entry beyond 4 se + 1e-4, by metric, when ``played_P``
    creators play the entry's strategy for ``METRIC_ROUNDS`` rounds. The
    1e-4 covers the grid, which moves no catalogue metric by more than
    6e-6 from n = 2e4 to 2e5, and the rounding of metrics that are zero."""
    inst, metric, strategy, P = EQUILIBRIA[name].game()
    exact = exact_round_metrics(inst, metric, strategy, P, N)
    mc = estimate_round_metrics(inst, metric, strategy, played_P, METRIC_ROUNDS,
                                np.random.default_rng(5))
    return {key: abs(mc[key].mean - value) - (4 * mc[key].stderr + 1e-4)
            for key, value in exact.items()}


@pytest.mark.parametrize("name", sorted(EQUILIBRIA))
def test_round_metrics_match_the_exact_oracle(name):
    miss = round_metrics_miss(name, EQUILIBRIA[name].P)
    assert max(miss.values()) <= 0.0, miss


@pytest.mark.parametrize("name", ["homogeneous_atom_P3", "random_ties"])
def test_P3_strategy_played_at_P2_misses_the_oracle(name):
    miss = round_metrics_miss(name, 2)
    assert miss["ucq"] > 0.0 and miss["re"] > 0.0, miss
