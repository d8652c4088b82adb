import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from creatorsim import (
    KMR,
    LinearTwitter,
    MetricEstimate,
    Metric,
    simulate_rounds,
)
from creatorsim.equilibrium import AtomComponent, MixedStrategy
from creatorsim.game import (
    OpponentPool,
    _pick_winners,
    metric_score,
)
from creatorsim.verify import expected_creator_utility
from catalogue import EQUILIBRIA, instance, kmr, linear
from oracles import (
    brute_force_accepts,
    brute_force_payoffs,
    brute_force_shares,
    brute_force_winners,
    lexsort_pool,
    row_loop_payoffs,
    tie_counts,
)


def point_mass(q, x):
    return MixedStrategy(((1.0, AtomComponent(q, x)),), "point_mass")


# one type t = 1 on each scale of the utility: a linear baseline alpha, or
# KMR's W with baseline 1
SCALES = [linear(-0.5), linear(1.0), linear(1e11),
          kmr(1e-12), kmr(1.0), kmr(1e12)]


def edge_point(inst, k):
    """Content whose slack ``q - x + baseline`` at t = 1 is exactly -k ulps
    of the rule's scale ``x + max(1, |baseline|)``: at gaming 0 below a
    baseline <= 0, else at zero quality past the baseline."""
    b = inst.family.baseline
    q, x = (-b, 0.0) if b <= 0.0 else (0.0, b)
    ulp = float(np.spacing(x + max(1.0, abs(b))))
    q, x = (q - k * ulp, x) if b <= 0.0 else (q, x + k * ulp)
    assert q - x + b == -k * ulp  # exact, so the slack is as named
    return q, x


class TestMetricScores:
    def test_random_is_constant_one(self):
        inst = linear(1.0)
        s = metric_score(inst, Metric.RANDOM, np.array([0.0, 3.0]), np.array([1.0, 0.0]))
        assert np.all(s == 1.0)

    def test_investment_is_quality(self):
        inst = linear(1.0)
        s = metric_score(inst, Metric.INVESTMENT, np.array([0.7, 0.2]), np.array([9.0, 9.0]))
        assert np.allclose(s, [0.7, 0.2])


class TestRecommend:
    # one-row landscapes through the round kernel and the brute-force oracle
    def test_investment_argmax(self):
        got, want = pick(linear(1.0), Metric.INVESTMENT, [[1.0, 0.5]],
                         [[0.0, 0.0]], [1.0], 0)
        assert got == want == [0]

    def test_engagement_hand_scored(self):
        got, want = pick(linear(1.0), Metric.ENGAGEMENT, [[0.5, 0.8]],
                         [[0.4, 0.0]], [1.0], 0)
        assert got == want == [0]  # scores 0.9 vs 0.8, both eligible

    def test_none_when_nothing_eligible(self):
        for metric in Metric:
            got, want = pick(linear(1.0), metric, [[0.0]], [[5.0]], [1.0], 0)
            assert got == want == [-1]

    def test_empty_landscape_rejected(self):
        with pytest.raises(ValueError):
            simulate_rounds(linear(1.0), Metric.RANDOM, point_mass(0.0, 0.0), 0, 1,
                            np.random.default_rng(0))

    def test_single_eligible_creator_always_wins(self):
        for seed in range(5):
            got, want = pick(linear(1.0), Metric.ENGAGEMENT, [[0.1]], [[0.2]],
                             [1.0], seed)
            assert got == want == [0]

    def test_eligible_low_score_beats_ineligible_high_score(self):
        got, want = pick(linear(1.0), Metric.ENGAGEMENT, [[0.0, 0.0]],
                         [[0.0, 5.0]], [1.0], 0)
        assert got == want == [0]

    def test_uniform_tie_breaking(self):
        n = 6000
        got, want = pick(linear(1.0), Metric.RANDOM, np.zeros((n, 3)),
                         np.zeros((n, 3)), np.ones(n), 42)
        assert got == want
        counts = np.bincount(got, minlength=3)
        assert np.all(np.abs(counts / n - 1 / 3) < 4 * math.sqrt(2 / 9 / n))

    def test_argmax_invariant_under_increasing_score_transform(self, monkeypatch):
        import creatorsim.game as game_mod
        inst = linear(1.0, types=(0.5, 1.0, 3.0))
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 2, (200, 3, 2))
        ts = rng.choice(inst.types, size=len(pts))
        base, _ = pick(inst, Metric.ENGAGEMENT, pts[..., 0], pts[..., 1], ts, 0)
        original = game_mod.metric_score

        def warped(inst_, metric, q, x):
            s = original(inst_, metric, q, x)
            return np.exp(2.0 * np.asarray(s, dtype=float)) + 3.0

        monkeypatch.setattr(game_mod, "metric_score", warped)
        warped_winners, _ = pick(inst, Metric.ENGAGEMENT, pts[..., 0], pts[..., 1],
                                 ts, 0)
        assert warped_winners == base


class TestPlayRound:
    def test_origin_under_random_rec(self):
        inst = linear(1.0)
        out = simulate_rounds(inst, Metric.RANDOM, point_mass(0.0, 0.0), 2, 1,
                              np.random.default_rng(0))
        assert out.consumed.tolist() == [True]
        assert out.quality.tolist() == [0.0]
        assert out.user_utility.tolist() == [1.0]

    def test_ineligible_point_mass_not_consumed(self):
        inst = linear(1.0)
        out = simulate_rounds(inst, Metric.ENGAGEMENT, point_mass(0.0, 2.0), 2, 1,
                              np.random.default_rng(0))
        assert out.consumed.tolist() == [False]
        assert out.winner.tolist() == [-1]
        assert out.engagement.tolist() == [0.0]
        assert out.quality.tolist() == [0.0]
        assert out.user_utility.tolist() == [0.0]

    def test_equilibrium_support_always_consumed(self):
        batch = simulate_rounds(*EQUILIBRIA["homogeneous_P2"].game(), 10000,
                                np.random.default_rng(1))
        assert batch.consumed.all()

    def test_two_type_consumption_rate(self):
        # a low-tolerance user consumes unless both creators target the
        # high type; here P[target t2] = 1/2 per creator, so the overall
        # consumption rate is 1 - (1/2) * (1/2)^2 = 7/8
        batch = simulate_rounds(*EQUILIBRIA["two_type_case1"].game(), 20000,
                                np.random.default_rng(2))
        rate = batch.consumed.mean()
        assert abs(rate - 0.875) <= 3 * math.sqrt(0.875 * 0.125 / 20000)


def landscape_rounds(inst, metric, strategy, P, n, rng):
    """The general round kernel on the explicit (n, P) landscape of
    ``strategy``'s draws, with the consumption gate as masked stores: its
    ``RoundBatch`` fields, by name."""
    draws = strategy.sample(rng, n * P).reshape(n, P, 2)
    q, x = draws[:, :, 0], draws[:, :, 1]
    ts = inst.type_space.draw(rng, n)
    winner = _pick_winners(inst, metric, q, x, ts, rng)
    consumed = winner >= 0
    rows, cols = np.arange(n), np.maximum(winner, 0)
    wq, wx = q[rows, cols], x[rows, cols]
    fields = {"winner": winner, "consumed": consumed,
              "engagement": np.asarray(inst.engagement(wq, wx), dtype=float),
              "quality": wq.copy(),
              "user_utility": np.asarray(inst.utility(wq, wx, ts), dtype=float)}
    for name in ("engagement", "quality", "user_utility"):
        fields[name][~consumed] = 0.0
    return fields


def assert_same_rounds(got, want, rng, ref_rng):
    """The batch ``got`` has the dtype and bytes of every field of
    ``landscape_rounds``'s ``want``, and both generators end in one state."""
    for name, value in want.items():
        field = getattr(got, name)
        assert field.dtype == value.dtype, name
        assert field.tobytes() == value.tobytes(), name
    assert rng.random() == ref_rng.random()


class TestPointMassRounds:
    # (instance, point): utility u = q - x / t + alpha on the linear family
    cases = {
        "all_accept": (linear(1.0, types=(1.0, 3.0)), (0.0, 0.0)),
        "type_1_rejects": (linear(1.0, types=(1.0, 3.0)), (0.0, 2.0)),
        "none_accept": (linear(-0.5), (0.0, 0.0)),
        "utility_zero": (linear(-0.5), (0.5, 0.0)),
        # slacks of -1 and -16 ulps: just inside and just outside the rule
        "inside_slack": (linear(-0.5), edge_point(linear(-0.5), 1)),
        "outside_slack": (linear(-0.5), edge_point(linear(-0.5), 16)),
        # W t (q - x / t + 1) = t - 1: type 0.5 rejects, type 2 accepts
        "kmr": (instance(KMR(1.0, 0.2), (0.5, 2.0)), (0.0, 1.0)),
    }

    @pytest.mark.parametrize("case", sorted(cases))
    @pytest.mark.parametrize("n", [0, 1, 1000])
    @pytest.mark.parametrize("P", [2, 3, 7])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_matches_the_landscape_kernel_bit_for_bit(self, metric, P, n, case):
        inst, (q, x) = self.cases[case]
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = simulate_rounds(inst, metric, point_mass(q, x), P, n, rng)
        want = landscape_rounds(inst, metric, point_mass(q, x), P, n, ref_rng)
        assert_same_rounds(got, want, rng, ref_rng)

    @pytest.mark.parametrize("n", [0, 1, 1000])
    @pytest.mark.parametrize("name", sorted(EQUILIBRIA))
    def test_catalogue_matches_the_landscape_kernel_bit_for_bit(self, name, n):
        # the landscape path against the same reference, idle rows included
        inst, metric, strategy, P = EQUILIBRIA[name].game()
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        got = simulate_rounds(inst, metric, strategy, P, n, rng)
        want = landscape_rounds(inst, metric, strategy, P, n, ref_rng)
        assert_same_rounds(got, want, rng, ref_rng)

    def test_cases_cover_every_acceptance_pattern(self):
        accepted = {name: set(inst.family.accepts(q, x, np.asarray(inst.types)))
                    for name, (inst, (q, x)) in self.cases.items()}
        assert accepted["all_accept"] == accepted["utility_zero"] == {True}
        assert accepted["type_1_rejects"] == accepted["kmr"] == {False, True}
        assert accepted["none_accept"] == accepted["outside_slack"] == {False}
        inst, (q, x) = self.cases["inside_slack"]
        assert inst.family.accepts(q, x, 1.0) and inst.utility(q, x, 1.0) < 0.0
        inst, (q, x) = self.cases["utility_zero"]
        assert inst.utility(q, x, 1.0) == 0.0

    @pytest.mark.parametrize("k,accepted", [(1, True), (16, False)])
    @pytest.mark.parametrize("inst", SCALES, ids=lambda inst: repr(inst.family))
    def test_slack_edge_matches_the_landscape_kernel(self, inst, k, accepted):
        # a slack of -1 ulp of the rule's scale is accepted and one of -16
        # ulps rejected, whatever the utility's scale
        q, x = edge_point(inst, k)
        assert bool(inst.family.accepts(q, x, 1.0)) is accepted
        assert inst.utility(q, x, 1.0) < 0.0
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = simulate_rounds(inst, Metric.ENGAGEMENT, point_mass(q, x), 3, 1000, rng)
        want = landscape_rounds(inst, Metric.ENGAGEMENT, point_mass(q, x), 3, 1000,
                                ref_rng)
        assert set(got.consumed.tolist()) == {accepted}
        assert_same_rounds(got, want, rng, ref_rng)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            simulate_rounds(linear(1.0), "engagement", point_mass(0.0, 0.0), 2, 1,
                            np.random.default_rng(0))

    def test_builds_no_landscape(self, monkeypatch):
        import creatorsim.game as game_mod

        def fail(*args):
            raise AssertionError("point mass built a landscape")

        monkeypatch.setattr(game_mod, "_pick_winners", fail)
        monkeypatch.setattr(MixedStrategy, "sample", fail)
        batch = simulate_rounds(linear(1.0), Metric.ENGAGEMENT, point_mass(0.0, 0.0),
                                3, 100, np.random.default_rng(0))
        assert batch.consumed.all()


class TestExpectedCreatorUtility:
    def test_dominant_deviation_wins_always(self):
        inst = linear(1.0)
        est = expected_creator_utility(inst, Metric.ENGAGEMENT, (0.0, 1.0),
                                       point_mass(0.0, 0.0), 2, 2000,
                                       np.random.default_rng(0))
        assert est.mean == pytest.approx(1.0)
        assert est.stderr == 0.0

    def test_symmetric_tie_splits(self):
        inst = linear(1.0)
        est = expected_creator_utility(inst, Metric.ENGAGEMENT, (0.0, 0.0),
                                       point_mass(0.0, 0.0), 2, 2000,
                                       np.random.default_rng(0))
        assert est.mean == pytest.approx(0.5)

    def test_ineligible_candidate_earns_nothing(self):
        inst = linear(1.0)
        est = expected_creator_utility(inst, Metric.ENGAGEMENT, (0.0, 1.5),
                                       point_mass(0.0, 0.0), 2, 2000,
                                       np.random.default_rng(0))
        assert est.mean == pytest.approx(0.0)

    def test_on_support_utility_near_zero(self):
        inst, metric, s, P = EQUILIBRIA["homogeneous_P2"].game()
        est = expected_creator_utility(inst, metric, (0.5, 1.5), s, P, 50000,
                                       np.random.default_rng(3))
        assert abs(est.mean) <= 4 * est.stderr + 1e-3

    def test_cost_subtracted(self):
        inst = linear(1.0, 0.5)
        est = expected_creator_utility(inst, Metric.ENGAGEMENT, (1.0, 2.0),
                                       point_mass(0.0, 0.0), 2, 100,
                                       np.random.default_rng(0))
        # wins always (score 3, eligible u = 0), cost 1 + 0.5 * 2
        assert est.mean == pytest.approx(1.0 - 2.0)


class TestDeterminism:
    def test_play_round_reproducible(self):
        game = EQUILIBRIA["homogeneous_P2"].game()
        a = simulate_rounds(*game, 1, np.random.default_rng(5))
        b = simulate_rounds(*game, 1, np.random.default_rng(5))
        for field in ("winner", "consumed", "engagement", "quality", "user_utility"):
            assert getattr(a, field).tolist() == getattr(b, field).tolist()


def pick(inst, metric, q, x, ts, seed):
    """_pick_winners and the brute-force oracle on the same uniform stream."""
    q, x, ts = (np.asarray(a, dtype=float) for a in (q, x, ts))
    got = _pick_winners(inst, metric, q, x, ts, np.random.default_rng(seed))
    uniforms = np.random.default_rng(seed).random(len(ts))
    want = brute_force_winners(inst, metric.value, q.tolist(), x.tolist(),
                               ts.tolist(), uniforms.tolist())
    return got.tolist(), want


class TestPickWinners:
    # values on a coarse grid, so rows often hold exact ties and contents on
    # the edge of eligibility (u = q - x / t + 1 = 0)
    grid = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), P=st.integers(1, 5), n=st.integers(1, 12),
           metric=st.sampled_from(list(Metric)), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_brute_force_oracle(self, data, P, n, metric, seed):
        inst = linear(1.0, types=(0.5, 1.0, 2.0))
        q = data.draw(st.lists(st.lists(self.grid, min_size=P, max_size=P),
                               min_size=n, max_size=n))
        x = data.draw(st.lists(st.lists(self.grid, min_size=P, max_size=P),
                               min_size=n, max_size=n))
        ts = data.draw(st.lists(st.sampled_from(inst.types), min_size=n, max_size=n))
        got, want = pick(inst, metric, q, x, ts, seed)
        assert got == want

    @pytest.mark.parametrize("inst", SCALES, ids=lambda inst: repr(inst.family))
    def test_eligibility_edge_in_ulps_of_the_slack(self, inst):
        # slacks of -1 and -16 ulps of the rule's scale, at every scale
        inside, outside = edge_point(inst, 1), edge_point(inst, 16)
        assert brute_force_accepts(inst, *inside, 1.0)
        assert not brute_force_accepts(inst, *outside, 1.0)
        got, want = pick(inst, Metric.ENGAGEMENT, [[inside[0]], [outside[0]]],
                         [[inside[1]], [outside[1]]], [1.0, 1.0], 0)
        assert got == want == [0, -1]

    @pytest.mark.parametrize("score", [1.0, 1e11])
    def test_equal_scores_tie_and_adjacent_floats_do_not(self, score):
        inst = linear(1.0)
        q = [[score, score]] * 200 + [[score, np.nextafter(score, np.inf)]] * 200
        got, want = pick(inst, Metric.INVESTMENT, q, [[0.0, 0.0]] * 400,
                         [1.0] * 400, 3)
        assert got == want
        assert set(got[:200]) == {0, 1}
        assert set(got[200:]) == {1}

    def test_minus_one_when_nothing_eligible(self):
        inst = linear(1.0, types=(1.0, 2.0))
        for metric in Metric:
            got, want = pick(inst, metric, [[0.0, 0.0, 0.5]] * 3,
                             [[2.5, 5.0, 4.0]] * 3, [1.0, 2.0, 1.0], 1)
            assert got == want == [-1, -1, -1]

    def test_tie_shares_uniform_in_frequency(self):
        # three eligible columns tie at the top; the fourth scores lower
        inst = linear(1.0)
        n = 30000
        q = np.tile([0.5, 0.7, 0.7, 0.7], (n, 1))
        got, want = pick(inst, Metric.INVESTMENT, q, np.zeros((n, 4)), np.ones(n), 9)
        assert got == want
        freq = np.bincount(got, minlength=4) / n
        assert freq[0] == 0.0
        assert np.all(np.abs(freq[1:] - 1 / 3) < 4 * math.sqrt(2 / 9 / n))


def constructions(family):
    """Every equilibrium constructor that accepts ``family``, on one type
    and, where the induced costs are linear, on two and four types."""
    out = [EQUILIBRIA[name].on(family, (1.5,)) for name in (
        "homogeneous_atom_P2", "homogeneous_atom_P3", "investment", "random_ties")]
    if family.linear_shift() is not None:
        out += [EQUILIBRIA[name].on(family)
                for name in ("two_type_case2", "well_separated_N4")]
    return out


class TestEligibilityAtScale:
    # KMR's utility is W * t times the curve slack, and a large alpha puts
    # the curve far from the origin: acceptance must keep on-curve draws at
    # every scale, and must not depend on W at all
    @pytest.mark.parametrize("family", [
        *(KMR(W, g) for W in (1e-12, 1e-9, 1.0, 1e6, 1e12) for g in (0.0, 0.3)),
        *(LinearTwitter(a, g) for a in (-0.5, 1.0, 1e3, 1e6, 1e9, 1e11)
          for g in (0.0, 0.3)),
    ], ids=repr)
    def test_constructed_draws_are_eligible_for_their_curve(self, family):
        for entry in constructions(family):
            inst, strategy = entry.inst, entry.strategy()
            pts = strategy.sample(np.random.default_rng(0), 100_000)
            q, x = pts[:, 0], pts[:, 1]
            types = np.asarray(inst.types)
            # a draw sits on the curve whose minimum investment at its gaming
            # level is nearest its quality; the origin is the opt-out point
            off = np.abs(q[:, None] - inst.min_investment(types, x[:, None]))
            t = types[off.argmin(axis=1)]
            opt_out = (q == 0.0) & (x == 0.0)
            assert np.all(inst.family.accepts(q, x, t) | opt_out), strategy.descriptor

    @pytest.mark.parametrize("W", [1e-12, 1e-9, 1e12])
    def test_kmr_acceptance_does_not_depend_on_W(self, W):
        # every type's verdict on every draw, against the same draws at W = 1
        for entry in constructions(KMR(1.0)):
            pts = entry.strategy().sample(np.random.default_rng(0), 100_000)
            q, x = pts[:, :1], pts[:, 1:]
            types = np.asarray(entry.inst.types)
            scaled = entry.on(KMR(W)).inst
            assert np.array_equal(scaled.family.accepts(q, x, types),
                                  entry.inst.family.accepts(q, x, types))


class TestOpponentPoolReductions:
    # a coarse grid, so rows hold exact ties and near-ties one ulp apart
    # around 1, and contents on the edge of eligibility (slack q - x / t + 1)
    # or one or 16 ulps of 2 past it, inside and outside the rule
    q_grid = st.sampled_from([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0,
                              np.nextafter(1.0, 2.0), 1.5, 2.0, 3.0])
    x_grid = st.sampled_from([0.0, 0.5, 1.0, 2.0, np.nextafter(2.0, 3.0),
                              2.0 + 16 * np.spacing(2.0), 3.0, 4.0])

    @staticmethod
    def check(pool, inst, metric, q, x, ts, contents):
        points = np.array(contents, dtype=float)
        wins, ties = np.zeros(len(ts), dtype=int), np.zeros(len(ts), dtype=int)
        mean, stderr = pool.estimates(points)
        assert mean.shape == stderr.shape == (len(contents),)
        for i, w in enumerate(contents):
            want = brute_force_payoffs(inst, metric.value, q, x, ts, w)
            payoffs = pool.payoffs(points[i:i + 1])
            assert payoffs.tolist() == want
            shares = np.array(brute_force_shares(inst, metric.value, q, x, ts, w))
            wins += shares == 1.0
            ties += (0.0 < shares) & (shares < 1.0)
            ref = MetricEstimate.from_samples(payoffs)
            assert len(pool.order) == ref.n == len(ts)
            assert abs(mean[i] - ref.mean) <= 1e-12
            assert abs(stderr[i] - ref.stderr) <= 1e-12
        # several contents at once: per row, the outright wins minus the
        # summed costs, plus each tie's share of the row's top
        cost = np.array([float(inst.cost(*w)) for w in contents]).sum()
        tied = tie_counts(inst, metric, np.array(q), np.array(x), np.array(ts))
        total = (wins - cost) + ties / (1 + tied)
        assert pool.payoffs(points).tolist() == total.tolist()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), P=st.integers(2, 5), n=st.integers(1, 12),
           metric=st.sampled_from(list(Metric)),
           family=st.sampled_from([LinearTwitter(1.0, 0.3), KMR(1.0, 0.3)]),
           types=st.sets(st.sampled_from([0.5, 1.0, 2.0]), min_size=1))
    def test_scatter_and_counts_match_oracle(self, data, P, n, metric, family, types):
        inst = instance(family, sorted(types))

        def rows(grid):
            return data.draw(st.lists(st.lists(grid, min_size=P - 1, max_size=P - 1),
                                      min_size=n, max_size=n))

        q, x = rows(self.q_grid), rows(self.x_grid)
        ts = data.draw(st.lists(st.sampled_from(inst.types), min_size=n, max_size=n))
        contents = data.draw(st.lists(st.tuples(self.q_grid, self.x_grid),
                                      min_size=1, max_size=6))
        pool = OpponentPool.of(inst, metric, np.array(q), np.array(x), np.array(ts))
        self.check(pool, inst, metric, q, x, ts, contents)

    def test_single_row_has_zero_stderr(self):
        inst = linear(1.0, 0.3, types=(1.0, 2.0))
        q, x, ts = [[1.0, 0.5]], [[0.0, 1.0]], [2.0]
        contents = [(1.0, 0.0), (0.0, 0.0), (0.0, 4.0)]
        for metric in Metric:
            pool = OpponentPool.of(inst, metric, np.array(q), np.array(x), np.array(ts))
            self.check(pool, inst, metric, q, x, ts, contents)
            points = np.array(contents)
            assert pool.estimates(points)[1].tolist() == [0.0] * 3

    def test_all_ineligible_rows(self):
        # no opponent is acceptable, so eligible content wins every row alone
        inst = linear(1.0, 0.0, types=(0.5, 1.0))
        q, x, ts = [[0.0, 0.5]] * 4, [[3.0, 4.0]] * 4, [0.5, 1.0, 1.0, 0.5]
        for metric in Metric:
            pool = OpponentPool.of(inst, metric, np.array(q), np.array(x), np.array(ts))
            self.check(pool, inst, metric, q, x, ts, [(0.0, 0.0)])
            assert pool.payoffs(np.array([[0.0, 0.0]])).tolist() == [1.0] * 4
            # acceptable to type 1 only
            assert pool.payoffs(np.array([[0.0, 1.0]])).tolist() == [0.0, 1.0, 1.0, 0.0]


class TestPayoffsBySegment:
    # payoffs counts wins and ties once per segment between cuts; the same
    # formula on counts made row by row must agree bit for bit

    @staticmethod
    def contents(strategy, m, seed):
        """m contents: draws of the strategy, with the origin and a point
        that no type accepts mixed in."""
        drawn = strategy.sample(np.random.default_rng(seed), m)
        drawn[1::7] = (0.0, 0.0)
        drawn[3::11] = (0.0, 50.0)
        return drawn

    @staticmethod
    def pool(game, n, seed):
        """``OpponentPool.draw`` on the game, and ``tie_counts`` of its
        opponents, from the same draws made again."""
        inst, metric, strategy, P = game
        pool = OpponentPool.draw(inst, metric, strategy, P, n,
                                 np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        opp = strategy.sample(rng, n * (P - 1)).reshape(n, P - 1, 2)
        ts = inst.type_space.draw(rng, n)
        return pool, tie_counts(inst, metric, opp[:, :, 0], opp[:, :, 1], ts)

    # a 71 % atom at the origin, which type 2 rejects
    p3 = EQUILIBRIA["homogeneous_atom_P3"]
    # atoms at the origin and at (0.5, 0), which type 2 accepts
    atoms = EQUILIBRIA["random_ties"].on(p3.inst.family)
    two = EQUILIBRIA["two_type_case2"]
    pools = {
        "random_two_type": two._replace(metric=Metric.RANDOM),
        "random_homogeneous": p3._replace(metric=Metric.RANDOM),
        "random_eq": atoms,
        "rejected_atom": p3,
        "eligible_atoms": atoms._replace(metric=Metric.ENGAGEMENT),
        "two_type": two,
    }

    @pytest.mark.parametrize("m", [0, 1, 32, 200])
    @pytest.mark.parametrize("case", ["random_two_type", "random_homogeneous",
                                      "random_eq", "rejected_atom",
                                      "eligible_atoms", "two_type"])
    def test_matches_row_loop_oracle(self, case, m):
        game = self.pools[case].game()
        pool, tied = self.pool(game, 3000, 4)
        contents = self.contents(game[2], m, 5)
        got = pool.payoffs(contents)
        assert got.shape == (3000,)
        assert got.tobytes() == row_loop_payoffs(pool, contents, tied).tobytes()
        if m and case not in ("rejected_atom", "two_type"):
            # these pools put rows in some content's band of ties
            _, lo, hi = pool._cuts(*contents.T)
            assert np.any(hi > lo)

    @pytest.mark.parametrize("case", ["random_two_type", "random_homogeneous",
                                      "random_eq", "eligible_atoms"])
    def test_scoring_leaves_pool_unchanged(self, case):
        # payoffs and then estimates read the pool and write nothing into
        # it, so they repeat bit for bit and give what a fresh pool gives
        inst, metric, strategy, P = self.pools[case].game()

        def draw():
            return OpponentPool.draw(inst, metric, strategy, P, 3000,
                                     np.random.default_rng(4))

        def state(pool):
            return {name: (value.dtype.str, value.shape, value.tobytes())
                    if isinstance(value, np.ndarray) else (id(value), repr(value))
                    for name, value in vars(pool).items()}

        pool = draw()
        contents = self.contents(strategy, 32, 5)
        _, lo, hi = pool._cuts(*contents.T)
        assert np.any(hi > lo)
        before = state(pool)
        sums = pool.payoffs(contents)
        estimates = pool.estimates(contents)
        assert state(pool) == before
        assert pool.payoffs(contents).tobytes() == sums.tobytes()
        assert estimate_bits(pool.estimates(contents)) == estimate_bits(estimates)
        assert state(pool) == before
        assert sums.tobytes() == draw().payoffs(contents).tobytes()
        assert estimate_bits(estimates) == estimate_bits(draw().estimates(contents))

    @pytest.mark.parametrize("P", [2, 3, 7])
    @pytest.mark.parametrize("case", ["random_two_type", "random_eq", "two_type"])
    def test_pool_keeps_one_entry_per_row(self, case, P):
        # whatever P, the pool keeps n numbers per array, T + 1 type starts,
        # and each row's count of opponents at its top, 1 to P - 1
        inst, metric, strategy, _ = self.pools[case].game()
        pool, tied = self.pool((inst, metric, strategy, P), 500, 7)
        arrays = {name: value.shape for name, value in vars(pool).items()
                  if isinstance(value, np.ndarray)}
        assert {"order", "sorted_top", "tied", "type_start"} <= set(arrays)
        for name, shape in arrays.items():
            assert shape == ((len(inst.types) + 1,) if name == "type_start"
                             else (500,)), name
        assert pool.tied.tolist() == tied[pool.order].tolist()
        assert 1 <= pool.tied.min() and pool.tied.max() <= P - 1

    def test_random_metric_ties_every_eligible_row(self):
        # under RANDOM every opponent scores 1: an eligible content ties with
        # every row that has an eligible opponent
        inst, metric, strategy, P = self.pools["random_homogeneous"].game()
        pool = OpponentPool.draw(inst, metric, strategy, P, 3000,
                                 np.random.default_rng(6))
        _, lo, hi = pool._cuts(np.ones(1), np.zeros(1))
        assert hi[0, 0] == 3000
        assert hi[0, 0] - lo[0, 0] == np.count_nonzero(pool.sorted_top > -np.inf) > 0
        won = 1.0 - float(inst.cost(1.0, 0.0))
        payoffs = pool.payoffs(np.array([[1.0, 0.0]]))
        assert np.all(payoffs[pool.order[lo[0, 0]:]] < won)
        assert np.all(payoffs[pool.order[:lo[0, 0]]] == won)

    # coarse grids: many contents share bands of ties, and some rows hold
    # scores one ulp from a content's
    grid = st.tuples(TestOpponentPoolReductions.q_grid,
                     TestOpponentPoolReductions.x_grid)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), P=st.integers(2, 4), n=st.integers(1, 40),
           metric=st.sampled_from(list(Metric)),
           types=st.sets(st.sampled_from([0.5, 1.0, 2.0]), min_size=1))
    def test_overlapping_tie_bands_match_row_loop(self, data, P, n, metric, types):
        inst = linear(1.0, 0.3, types=sorted(types))
        rows = data.draw(st.lists(st.lists(self.grid, min_size=P - 1, max_size=P - 1),
                                  min_size=n, max_size=n))
        q = np.array([[a for a, _ in row] for row in rows])
        x = np.array([[b for _, b in row] for row in rows])
        ts = np.array(data.draw(st.lists(st.sampled_from(inst.types),
                                         min_size=n, max_size=n)))
        contents = np.array(data.draw(st.lists(self.grid, max_size=40)),
                            dtype=float).reshape(-1, 2)
        pool = OpponentPool.of(inst, metric, q, x, ts)
        tied = tie_counts(inst, metric, q, x, ts)
        assert (pool.payoffs(contents).tobytes()
                == row_loop_payoffs(pool, contents, tied).tobytes())


class TestOneTieRule:
    # the pool pays a content its exact share of the win as column 0 under
    # the round kernel's rule: the tied are the scores equal to the best
    q_grid = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0, 1e3])
    x_grid = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])

    @staticmethod
    def column0_shares(inst, metric, q, x, ts, w):
        """Column 0's share of the win per row under ``brute_force_winners``,
        with ``w`` prepended as column 0: the fraction of 12 evenly spread
        uniforms that pick it, exact for up to 4 tied columns."""
        u = ((np.arange(12) + 0.5) / 12).tolist()
        shares = []
        for row_q, row_x, t in zip(q, x, ts):
            wins = brute_force_winners(inst, metric.value, [[w[0], *row_q]] * 12,
                                       [[w[1], *row_x]] * 12, [t] * 12, u)
            shares.append(wins.count(0) / 12)
        return shares

    def check(self, inst, metric, q, x, ts, w):
        pool = OpponentPool.of(inst, metric, np.array(q, dtype=float),
                               np.array(x, dtype=float), np.array(ts, dtype=float))
        shares = self.column0_shares(inst, metric, q, x, ts, w)
        cost = float(inst.cost(*w))
        # payoff + cost == share, written as the pool computes it
        assert pool.payoffs(np.array([w])).tolist() == [s - cost for s in shares]
        mean, _ = pool.estimates(np.array([w]))
        assert abs(mean[0] - (sum(shares) / len(shares) - cost)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), P=st.integers(2, 4), n=st.integers(1, 8),
           metric=st.sampled_from(list(Metric)),
           family=st.sampled_from([LinearTwitter(1.0, 0.3), KMR(1.0, 0.3)]),
           types=st.sets(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=3))
    def test_pool_pays_column0_share_next_to_one_ulp_neighbours(
            self, data, P, n, metric, family, types):
        inst = instance(family, sorted(types))
        w = (data.draw(self.q_grid), data.draw(self.x_grid))
        s0 = float(metric_score(inst, metric, w[0], w[1]))
        step = float(np.spacing(max(1.0, abs(s0))))
        # an opponent is an atom on the grid or sits a few ulps of the score
        # from w, reached by moving w's quality
        near = st.builds(lambda k: (w[0] + k * step, w[1]), st.integers(-3, 3))
        opponent = st.one_of(st.tuples(self.q_grid, self.x_grid), near)
        rows = data.draw(st.lists(st.lists(opponent, min_size=P - 1, max_size=P - 1),
                                  min_size=n, max_size=n))
        q = [[a for a, _ in row] for row in rows]
        x = [[b for _, b in row] for row in rows]
        ts = data.draw(st.lists(st.sampled_from(inst.types), min_size=n, max_size=n))
        self.check(inst, metric, q, x, ts, w)
        # the round kernel plays the same rows by the same rule
        got, want = pick(inst, metric, [[w[0], *r] for r in q],
                         [[w[1], *r] for r in x], ts, 0)
        assert got == want


def estimate_bits(estimates):
    mean, stderr = estimates
    return [(m.hex(), se.hex()) for m, se in zip(mean.tolist(), stderr.tolist())]


@pytest.mark.parametrize("P, n, message", [(2, 0, "n must be >= 1"),
                                           (2, -1, "n must be >= 1"),
                                           (1, 10, "P must be >= 2")])
def test_pool_draw_rejects_empty_pool_or_no_opponent(P, n, message):
    inst, metric, strategy, _ = EQUILIBRIA["homogeneous_P2"].game()
    with pytest.raises(ValueError, match=message):
        OpponentPool.draw(inst, metric, strategy, P, n, np.random.default_rng(0))


class TestOpponentPoolOrder:
    # coarse grids, so many rows share their top, and gaming levels that
    # every type rejects, so whole rows score -inf; past 256 types the type
    # index no longer fits in a byte
    q_grid = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    x_grid = st.sampled_from([0.0, 1.0, 3.0, 50.0])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), T=st.one_of(st.integers(1, 4), st.integers(250, 300)),
           P=st.integers(2, 4), n=st.integers(1, 60),
           metric=st.sampled_from(list(Metric)))
    def test_any_order_by_type_then_top_gives_same_results(self, data, T, P, n,
                                                          metric):
        inst = linear(1.0, 0.3, np.linspace(0.5, 3.5, T))

        def rows(grid):
            return np.array(data.draw(st.lists(
                st.lists(grid, min_size=P - 1, max_size=P - 1),
                min_size=n, max_size=n)))

        q, x = rows(self.q_grid), rows(self.x_grid)
        ts = np.array(data.draw(st.lists(st.sampled_from(inst.types),
                                         min_size=n, max_size=n)))
        contents = np.array(data.draw(st.lists(st.tuples(self.q_grid, self.x_grid),
                                               min_size=1, max_size=4)))
        pool = OpponentPool.of(inst, metric, q, x, ts)

        assert sorted(pool.order.tolist()) == list(range(n))
        assert pool.type_start[0] == 0 and pool.type_start[-1] == n
        for k, (a, b) in enumerate(zip(pool.type_start[:-1], pool.type_start[1:])):
            top = pool.sorted_top[a:b]
            assert np.all(top[:-1] <= top[1:])
            assert np.all(ts[pool.order[a:b]] == inst.types[k])

        payoffs = pool.payoffs(contents)
        estimates = estimate_bits(pool.estimates(contents))
        perm = np.array(data.draw(st.permutations(range(n))))
        shuffled = OpponentPool.of(inst, metric, q[perm], x[perm], ts[perm])
        assert estimate_bits(shuffled.estimates(contents)) == estimates
        assert shuffled.payoffs(contents).tobytes() == payoffs[perm].tobytes()

        ref = lexsort_pool(inst, metric, q, x, ts)
        assert ref.sorted_top.tobytes() == pool.sorted_top.tobytes()
        assert ref.type_start.tolist() == pool.type_start.tolist()
        assert estimate_bits(ref.estimates(contents)) == estimates
        assert ref.payoffs(contents).tobytes() == payoffs.tobytes()
