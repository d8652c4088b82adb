"""Exact payoffs on a weighted quantile grid (``oracles.exact_payoffs``)
against the Monte Carlo payoff pool, and one identity that ties the pool
to the round kernel, on every catalogue equilibrium."""

import itertools
import math

import numpy as np
import pytest

from creatorsim._stats import MetricEstimate
from creatorsim.equilibrium import AtomComponent, MixedStrategy
from creatorsim.game import OpponentPool, simulate_rounds
from creatorsim.verify import candidate_deviations
from catalogue import EQUILIBRIA
from oracles import exact_payoffs, quantile_grid

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


@pytest.mark.parametrize("name", sorted(EQUILIBRIA))
def test_exact_payoffs_certify_the_equilibrium(name):
    inst, metric, strategy, P = EQUILIBRIA[name].game()
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
