"""Exact payoffs and round metrics on a weighted quantile grid
(``oracles.exact_payoffs``, ``oracles.exact_round_metrics``, both read
from one per-type ``oracles.score_table``) against the Monte Carlo payoff
pool and round estimates, one identity that ties the pool to the round
kernel, on every catalogue equilibrium (the two games on 64 types at
``SPARSE`` rows), each constructor certified over its whole precondition
domain, and the paper's downstream claims stated on the exact metrics
(``CLAIMS``). The independent checks of the table are the Monte Carlo
pool at every candidate, the exhaustive pool of
``test_lift_on_atoms_equals_the_pool_of_every_opponent_tuple`` and the
brute-force references."""

import itertools
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from creatorsim import (KMR, LinearTwitter, closed_form_ucq_homogeneous,
                        engagement_eq_homogeneous, investment_eq,
                        make_well_separated_types, random_eq)
from creatorsim._stats import MetricEstimate
from creatorsim.equilibrium import (
    GOLDEN_RATIO_SPLIT,
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
    I,
    R,
    Equilibrium,
    _two_type_eq,
    _well_separated_eq,
    instance,
    linear,
    two_type,
    well_separated,
)
from oracles import (_two_type_uw_quadrature, exact_payoffs, exact_round_metrics,
                     quantile_grid)

N = 20_000      # grid rows per continuous component
# but on 64 types, whose 41 components would hold 820 000 rows at N
SPARSE = dict.fromkeys(("well_separated_N64", "investment_well_separated_N64"), 2_000)
GRID_K = 20     # candidate points per type curve
SAMPLES = 20_000  # Monte Carlo pool rows


def bound(P, n=N):
    """How far a grid of n rows per component may move an exact payoff: of
    order (P - 1) / n. On the catalogue, the on-support spread and the best
    deviation's gain read at most about half of it."""
    return (P - 1) / n


def on_grid_and_candidates(inst, metric, strategy, P, n=N):
    """Exact payoffs of the strategy's own grid rows, with their weights,
    and of ``verify``'s candidate deviations, all against the strategy."""
    grid, weight = quantile_grid(strategy, n)
    cands = candidate_deviations(inst, GRID_K)
    exact = exact_payoffs(inst, metric, strategy, P,
                          np.concatenate([grid, cands]), n)
    return exact[:len(grid)], weight, cands, exact[len(grid):]


def _last_ratio_inside_slack(N):
    """N well-separated types whose last coefficient ratio is 1 + 1/N
    shrunk by 5e-10, which the constructor's 1e-9 slack still accepts."""
    *types, _ = well_separated(N).types
    return linear(1.0, types=(*types, (1.0 + types[-1]) * (1.0 + 1.0 / N)
                              * (1.0 - 5e-10) - 1.0))


# two-type coefficient ratios at the case boundaries, with the case each
# lands in and how many of its intervals outlast the 1e-14 width filter
RATIOS = {
    "1.5": (1.5, 1, 2),
    "below_1.5": (math.nextafter(1.5, 0.0), 2, 2),
    "golden": (GOLDEN_RATIO_SPLIT, 2, 2),
    "below_golden": (math.nextafter(GOLDEN_RATIO_SPLIT, 0.0), 3, 2),
    "above_golden": (math.nextafter(GOLDEN_RATIO_SPLIT, 2.0), 2, 2),
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
    n = SPARSE.get(name, N)
    on, weight, cands, off = on_grid_and_candidates(inst, metric, strategy, P, n)
    # every on-support content earns the same, and no candidate earns more
    spread, gain = on.max() - on.min(), off.max() - weight @ on
    print(f"{name}: spread {spread / bound(P, n):.3f}, "
          f"gain {gain / bound(P, n):.3f} of the bound")
    assert spread <= bound(P, n)
    assert gain <= bound(P, n)
    # and the grid earns the exact consumption rate / P minus its mean cost,
    # test_one_game_two_kernels_one_identity with both sides exact
    grid, _ = quantile_grid(strategy, n)
    cost = weight @ np.asarray(inst.cost(*grid.T), dtype=float)
    rate = exact_round_metrics(inst, metric, strategy, P, n)["consumption"]
    assert abs(weight @ on - (rate / P - cost)) <= 1e-10
    # the pool's counted estimates agree at every candidate
    pool = OpponentPool.draw(inst, metric, strategy, P, SAMPLES,
                             np.random.default_rng(1))
    mean, stderr = pool.estimates(cands)
    assert np.all(np.abs(off - mean) <= 4 * stderr + bound(P, n))


@pytest.mark.parametrize("name", sorted(EQUILIBRIA))
def test_two_percent_at_the_origin_is_no_equilibrium(name):
    # Monte Carlo at 1e5 samples passes these, under its 0.02 gap floor
    inst, metric, strategy, P = EQUILIBRIA[name].game()
    moved = MixedStrategy(
        tuple((0.98 * w, comp) for w, comp in strategy.components)
        + ((0.02, AtomComponent(0.0, 0.0)),), "moved")
    on, weight, _, off = on_grid_and_candidates(inst, metric, moved, P,
                                                SPARSE.get(name, N))
    gap = off.max() - weight @ on
    if name == "random_P2":  # its strategy is the origin atom already
        assert gap == 0.0
    else:
        assert gap > 20 * bound(P)


SWEEP_N = 2_000  # grid rows per component in the domain sweeps
REFUSED = "a type's curve passes the largest float below cost 1.2"
# every positive normal float: TypeSpace refuses the subnormal ones
TYPES = st.floats(sys.float_info.min, sys.float_info.max)


def families(alphas=st.floats(-1.0, 1e11, exclude_min=True)):
    """Both families, gamma in [0, 1): linear over ``alphas``, KMR over W
    in [1e-12, 1e12]."""
    gammas = st.floats(0.0, 1.0, exclude_max=True)
    return st.one_of(st.builds(LinearTwitter, alphas, gammas),
                     st.builds(KMR, st.floats(1e-12, 1e12), gammas))


def certified_or_refused(build, metric, construct, P):
    """The instance that ``build`` makes, with the strategy ``construct``
    makes on it, is certified by the catalogue's body at ``SWEEP_N``, or the
    model refuses the instance with its one message."""
    try:
        inst = build()
    except ValueError as exc:
        assert str(exc) == REFUSED
        return
    on, weight, _, off = on_grid_and_candidates(inst, metric, construct(inst, P), P,
                                                SWEEP_N)
    assert on.max() - on.min() <= bound(P, SWEEP_N)
    assert off.max() - weight @ on <= bound(P, SWEEP_N)


@settings(max_examples=150, deadline=None)
@given(family=families(), t=TYPES, P=st.integers(2, 8),
       game=st.sampled_from([(E, engagement_eq_homogeneous), (I, investment_eq),
                             (R, random_eq)]))
def test_homogeneous_constructions_certify_on_their_whole_domain(family, t, P, game):
    certified_or_refused(lambda: instance(family, (t,)), *game, P)


@settings(max_examples=100, deadline=None)
@given(family=families(st.floats(0.0, 1e11)),
       types=st.lists(TYPES, min_size=1, max_size=4, unique=True).map(sorted),
       P=st.integers(2, 8), game=st.sampled_from([(I, investment_eq), (R, random_eq)]))
def test_baselines_certify_on_every_type_space_with_free_entry(family, types, P, game):
    # alpha >= 0 on the linear family, and always on KMR: every beta_t is 0
    certified_or_refused(lambda: instance(family, types), *game, P)


@settings(max_examples=100, deadline=None)
@given(ratio=st.floats(1.0, 6.0, exclude_min=True),
       family=st.sampled_from(["linear", "kmr"]))
@example(ratio=1.5, family="linear")
@example(ratio=math.nextafter(1.5, 0.0), family="linear")
@example(ratio=math.nextafter(1.5, 2.0), family="linear")
@example(ratio=GOLDEN_RATIO_SPLIT, family="linear")
@example(ratio=math.nextafter(GOLDEN_RATIO_SPLIT, 0.0), family="linear")
@example(ratio=math.nextafter(GOLDEN_RATIO_SPLIT, 2.0), family="linear")
def test_two_type_certifies_at_every_coefficient_ratio(ratio, family):
    certified_or_refused(lambda: two_type(ratio, family), E, _two_type_eq, 2)


@settings(max_examples=40, deadline=None)  # N = 16 takes about 0.2 s
@given(N=st.integers(1, 16), eps=st.floats(1e-9, 100.0),
       family=st.sampled_from([LinearTwitter(1.0), KMR(1.0)]))
def test_well_separated_certifies_at_every_N_and_eps(N, eps, family):
    types = make_well_separated_types(N, eps).types
    certified_or_refused(lambda: instance(family, types), E, _well_separated_eq, 2)


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
    # and the pool's side is the probes' exact payoff, the rounds' share of
    # consumed rounds the exact consumption rate
    n = SPARSE.get(name, N)
    exact = exact_payoffs(inst, metric, strategy, P, probes, n).mean()
    assert abs(played.mean - exact) <= 4 * played.stderr + bound(P, n)
    rate = exact_round_metrics(inst, metric, strategy, P, n)["consumption"]
    assert abs(batch.consumed.mean() - rate) <= 4 * P * won.stderr + 1e-4


# the catalogue; ``unit`` and ``under`` add the games that only claims compare
GAMES = dict(EQUILIBRIA)


def unit(a, g=0.0, P=2):
    """The engagement game on ``linear(a, g)`` in ``GAMES``, named as the
    catalogue names its own."""
    name = "homogeneous_P2" if (a, g, P) == (1, 0, 2) else f"homogeneous_a{a}_g{g}_P{P}"
    GAMES.setdefault(name, Equilibrium(linear(a, g), E, P, engagement_eq_homogeneous))
    return name


def under(metric, name):
    """The game ``name`` in ``GAMES`` played under a baseline ``metric``,
    named as the catalogue names ``investment_P2`` and ``random_P2``."""
    baseline = f"{metric.value}_{name.removeprefix('homogeneous_')}"
    construct = {I: investment_eq, R: random_eq}[metric]
    GAMES.setdefault(baseline, GAMES[name]._replace(metric=metric, construct=construct))
    return baseline


def chain(key, op):
    """``op`` holds between each game's ``key`` metric and the next one's."""
    return lambda ms: all(op(a[key], b[key]) for a, b in zip(ms, ms[1:]))


def near(key, *values, tol=1e-8):
    """Each game's ``key`` metric is within ``tol`` of its value."""
    return lambda ms: all(abs(m[key] - v) <= tol for m, v in zip(ms, values))


GAMMAS = (0.0, 0.2, 0.4, 0.6, 0.8)
GRID = [(a, g) for a in (-0.5, 0.0, 1.0) for g in (0.0, 0.3, 0.6)]
# the paper's claims (1: consumed quality falls as gaming gets costlier; 2:
# welfare can be below random's; 3: engagement is below quality
# optimisation's) and criteria 2-6. A row holds its claim, the names in
# GAMES it compares and what holds on their exact metrics, in that order;
# a metric is engagement's unless the row names a baseline
CLAIMS = {
    "c2_investment_ucq": ("criterion 2: UCQ under investment is 2/3",
                          (under(I, unit(1.0)),), near("ucq", 2 / 3)),
    **{f"c2_engagement_ucq_N{k}": (
        "criterion 2: UCQ is at most 1/N on N well-separated types",
        (f"well_separated_N{k}",), lambda ms, k=k: ms[0]["ucq"] <= 1 / k)
       for k in (2, 4, 8, 64)},
    **{f"c3_ucq_falls_in_gamma_a{a}_P{P}": (
        "claim 1, criterion 3: UCQ falls as gamma rises",
        tuple(unit(a, g, P) for g in GAMMAS), chain("ucq", operator.gt))
       for a in (1.0, 0.5) for P in (2, 3)},
    **{f"c3_closed_form_a{a}_g{g}": (
        "criterion 3: UCQ is closed_form_ucq_homogeneous",
        (unit(a, g),), near("ucq", closed_form_ucq_homogeneous(a, g, 1.0, 2)))
       for a, g in [*GRID, (-0.9, 0.0)]},
    "c4_uw_alpha1": ("criterion 4: at alpha = 1, UW is 0, and 1 under random",
                     (unit(1.0), under(R, unit(1.0))), near("uw", 0.0, 1.0, tol=1e-12)),
    **{f"c4_uw_below_random_{name}": (
        "claim 2, criterion 4: UW is below UW under random",
        (name, under(R, name)), chain("uw", operator.lt))
       for name in (unit(0.5, 0.2), unit(1.0, 0.2), "well_separated_N8")},
    **{f"c5_re_below_investment_N{k}": (
        "claim 3, criterion 5: RE is below RE under investment",
        (f"well_separated_N{k}", under(I, f"well_separated_N{k}")),
        chain("re", operator.lt)) for k in (8, 64)},
    **{f"c5_re_homogeneous_a{a}_g{g}": (
        "criterion 5: on one type, RE is at least RE under investment",
        (unit(a, g), under(I, unit(a, g))), chain("re", operator.ge)) for a, g in GRID},
    "c5_re_values": ("criterion 5: at alpha = 1, RE is 7/3, and 2/3 under investment",
                     (unit(1.0), under(I, unit(1.0))), near("re", 7 / 3, 2 / 3)),
    **{f"c6_uw_{word}_random_c{c}": (
        f"criterion 6: on KMR two types at c = {c}, UW is {word} UW under random, "
        "which is the mean tolerance (W = 1, every creator at the origin)",
        (f"kmr_two_type_c{c}", under(R, f"kmr_two_type_c{c}")),
        lambda ms, op=op, t=np.mean(two_type(c, "kmr").types): (
            op(ms[0]["uw"], ms[1]["uw"]) and abs(ms[1]["uw"] - t) <= 1e-12))
       for c, word, op in ((1.2, "above", operator.gt), (2.0, "below", operator.lt))},
    **{f"c6_uw_quadrature_c{c}": (
        "criterion 6: on KMR two types, UW is the density integral",
        (f"kmr_two_type_c{c}",),
        lambda ms, c=c: abs(ms[0]["uw"] - _two_type_uw_quadrature(c, 0.01)) <= 1e-5)
       for c in (1.2, 1.45, 2.0)},
}


@pytest.mark.parametrize("key", sorted(CLAIMS))
def test_claim(key):
    claim, games, holds = CLAIMS[key]
    metrics = [exact_round_metrics(*GAMES[name].game(), SPARSE.get(name, N))
               for name in games]
    print(claim)
    for name, m in zip(games, metrics):
        print(f"    {name}: " + ", ".join(f"{k} {v:.6g}" for k, v in m.items()))
    assert holds(metrics)


METRIC_ROUNDS = 100_000


def round_metrics_miss(name, played_P):
    """How far ``estimate_round_metrics`` misses the exact UCQ, RE and UW of
    a game in ``GAMES`` beyond 4 se + 1e-4, by metric, when ``played_P``
    creators play the game's strategy for ``METRIC_ROUNDS`` rounds. The
    1e-4 covers the grid, which moves no catalogue metric by more than
    6e-6 from n = 2e4 to 2e5 (the two ``SPARSE`` games by at most 4.2e-8
    from n = 2e3 to 2e4), and the rounding of metrics that are zero."""
    inst, metric, strategy, P = GAMES[name].game()
    exact = exact_round_metrics(inst, metric, strategy, P, SPARSE.get(name, N))
    mc = estimate_round_metrics(inst, metric, strategy, played_P, METRIC_ROUNDS,
                                np.random.default_rng(5))
    return {key: abs(mc[key].mean - exact[key]) - (4 * mc[key].stderr + 1e-4)
            for key in mc}


@pytest.mark.parametrize("name", sorted(GAMES))
def test_round_metrics_match_the_exact_oracle(name):
    miss = round_metrics_miss(name, GAMES[name].P)
    assert max(miss.values()) <= 0.0, miss


@pytest.mark.parametrize("name", ["homogeneous_atom_P3", "random_ties"])
def test_P3_strategy_played_at_P2_misses_the_oracle(name):
    miss = round_metrics_miss(name, 2)
    assert miss["ucq"] > 0.0 and miss["re"] > 0.0, miss
