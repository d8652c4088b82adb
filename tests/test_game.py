import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from creatorsim import (
    KMR,
    Content,
    LinearTwitter,
    MetricEstimate,
    Metric,
    expected_creator_utility,
    simulate_rounds,
)
from creatorsim.equilibrium import AtomComponent, MixedStrategy
from creatorsim.game import (
    ELIGIBILITY_ATOL,
    TIE_RTOL,
    OpponentPool,
    _pick_winners,
    _tie_floor,
    is_eligible,
    metric_score,
)
from catalogue import EQUILIBRIA, instance, linear
from oracles import (
    brute_force_payoffs,
    brute_force_winners,
    lexsort_pool,
    row_loop_payoffs,
)


def point_mass(q, x):
    return MixedStrategy(((1.0, AtomComponent(q, x)),), "point_mass")


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


def landscape_rounds(inst, metric, q, x, P, n, rng):
    """The general round kernel on the explicit (n, P) landscape of the
    point (q, x): its ``RoundBatch`` fields, by name."""
    ts = inst.type_space.draw(rng, n)
    winner = _pick_winners(inst, metric, np.full((n, P), q), np.full((n, P), x),
                           ts, rng)
    consumed = winner >= 0
    wq, wx = np.full(n, q), np.full(n, x)
    fields = {"user_type": ts, "winner": winner, "consumed": consumed,
              "engagement": np.asarray(inst.engagement(wq, wx), dtype=float),
              "quality": wq.copy(),
              "user_utility": np.asarray(inst.utility(wq, wx, ts), dtype=float)}
    for name in ("engagement", "quality", "user_utility"):
        fields[name][~consumed] = 0.0
    return fields


class TestPointMassRounds:
    # (instance, point): utility u = q - x / t + alpha on the linear family
    cases = {
        "all_accept": (linear(1.0, types=(1.0, 3.0)), (0.0, 0.0)),
        "type_1_rejects": (linear(1.0, types=(1.0, 3.0)), (0.0, 2.0)),
        "none_accept": (linear(-0.5), (0.0, 0.0)),
        "utility_zero": (linear(-0.5), (0.5, 0.0)),
        "inside_atol": (linear(-0.5), (0.5 - 0.5 * ELIGIBILITY_ATOL, 0.0)),
        "outside_atol": (linear(-0.5), (0.5 - 2.0 * ELIGIBILITY_ATOL, 0.0)),
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
        want = landscape_rounds(inst, metric, q, x, P, n, ref_rng)
        for name, value in want.items():
            field = getattr(got, name)
            assert field.dtype == value.dtype, name
            assert field.tobytes() == value.tobytes(), name
        assert rng.random() == ref_rng.random()

    def test_cases_cover_every_acceptance_pattern(self):
        accepted = {name: set(is_eligible(inst, q, x, np.asarray(inst.types)))
                    for name, (inst, (q, x)) in self.cases.items()}
        assert accepted["all_accept"] == accepted["utility_zero"] == {True}
        assert accepted["type_1_rejects"] == accepted["kmr"] == {False, True}
        assert accepted["none_accept"] == accepted["outside_atol"] == {False}
        inst, (q, x) = self.cases["inside_atol"]
        assert is_eligible(inst, q, x, 1.0) and inst.utility(q, x, 1.0) < 0.0
        inst, (q, x) = self.cases["utility_zero"]
        assert inst.utility(q, x, 1.0) == 0.0

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
        est = expected_creator_utility(inst, Metric.ENGAGEMENT, Content(0.0, 1.0),
                                       point_mass(0.0, 0.0), 2, 2000,
                                       np.random.default_rng(0))
        assert est.mean == pytest.approx(1.0)
        assert est.stderr == 0.0

    def test_symmetric_tie_splits(self):
        inst = linear(1.0)
        est = expected_creator_utility(inst, Metric.ENGAGEMENT, Content(0.0, 0.0),
                                       point_mass(0.0, 0.0), 2, 2000,
                                       np.random.default_rng(0))
        assert est.mean == pytest.approx(0.5)

    def test_ineligible_candidate_earns_nothing(self):
        inst = linear(1.0)
        est = expected_creator_utility(inst, Metric.ENGAGEMENT, Content(0.0, 1.5),
                                       point_mass(0.0, 0.0), 2, 2000,
                                       np.random.default_rng(0))
        assert est.mean == pytest.approx(0.0)

    def test_on_support_utility_near_zero(self):
        inst, metric, s, P = EQUILIBRIA["homogeneous_P2"].game()
        est = expected_creator_utility(inst, metric, Content(0.5, 1.5), s, P, 50000,
                                       np.random.default_rng(3))
        assert abs(est.mean) <= 4 * est.stderr + 1e-3

    def test_cost_subtracted(self):
        inst = linear(1.0, 0.5)
        est = expected_creator_utility(inst, Metric.ENGAGEMENT, Content(1.0, 2.0),
                                       point_mass(0.0, 0.0), 2, 100,
                                       np.random.default_rng(0))
        # wins always (score 3, eligible u = 0), cost 1 + 0.5 * 2
        assert est.mean == pytest.approx(1.0 - 2.0)


class TestDeterminism:
    def test_play_round_reproducible(self):
        game = EQUILIBRIA["homogeneous_P2"].game()
        a = simulate_rounds(*game, 1, np.random.default_rng(5))
        b = simulate_rounds(*game, 1, np.random.default_rng(5))
        for field in ("user_type", "winner", "consumed", "engagement", "quality",
                      "user_utility"):
            assert getattr(a, field).tolist() == getattr(b, field).tolist()


def pick(inst, metric, q, x, ts, seed):
    """_pick_winners and the brute-force oracle on the same uniform stream."""
    q, x, ts = (np.asarray(a, dtype=float) for a in (q, x, ts))
    got = _pick_winners(inst, metric, q, x, ts, np.random.default_rng(seed))
    uniforms = np.random.default_rng(seed).random(len(ts))
    want = brute_force_winners(inst, metric.value, q.tolist(), x.tolist(),
                               ts.tolist(), uniforms.tolist(),
                               ELIGIBILITY_ATOL, TIE_RTOL)
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

    def test_eligibility_edge_at_atol(self):
        # u = -x_excess for content (0, 1 + x_excess) at t = 1
        inst = linear(1.0)
        inside, outside = 1.0 + 0.5 * ELIGIBILITY_ATOL, 1.0 + 2.0 * ELIGIBILITY_ATOL
        got, want = pick(inst, Metric.ENGAGEMENT, [[0.0], [0.0]],
                         [[inside], [outside]], [1.0, 1.0], 0)
        assert got == want == [0, -1]

    def test_scores_within_tie_rtol_tie(self):
        inst = linear(1.0)
        near, far = 1.0 + 0.5 * TIE_RTOL, 1.0 + 10.0 * TIE_RTOL
        q = [[1.0, near]] * 200 + [[1.0, far]] * 200
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
    # ELIGIBILITY_ATOL is absolute, while KMR's utility is W * t times the
    # curve slack: a large W magnifies any roundoff in the curve quality
    @pytest.mark.parametrize("family", [
        *(KMR(W, g) for W in (1.0, 1e6, 1e12) for g in (0.0, 0.3)),
        *(LinearTwitter(a, g) for a in (-0.5, 1.0, 1e3, 1e6) for g in (0.0, 0.3)),
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
            assert np.all(is_eligible(inst, q, x, t) | opt_out), strategy.descriptor


class TestOpponentPoolReductions:
    # a coarse grid, so rows hold exact ties, scores within TIE_RTOL of each
    # other or exactly on the edge of the tie band around 1, and contents
    # just inside or just outside eligibility (u = q - x + 1 at t = 1)
    q_grid = st.sampled_from([0.0, 0.5, 1.0 - TIE_RTOL, 1.0, 1.0 + 0.5 * TIE_RTOL,
                              1.0 + TIE_RTOL, 1.5, 2.0, 3.0])
    x_grid = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.0 + 0.5 * ELIGIBILITY_ATOL,
                              2.0 + 2.0 * ELIGIBILITY_ATOL, 3.0, 4.0])

    @staticmethod
    def check(pool, inst, metric, q, x, ts, contents):
        points = np.array([w.as_tuple() for w in contents])
        total = np.zeros(len(ts))
        mean, stderr = pool.estimates(points)
        assert mean.shape == stderr.shape == (len(contents),)
        for i, w in enumerate(contents):
            want = brute_force_payoffs(inst, metric.value, q, x, ts,
                                       w.as_tuple(), ELIGIBILITY_ATOL, TIE_RTOL)
            payoffs = pool.payoffs(points[i:i + 1])
            assert payoffs.tolist() == want
            total += np.array(want)
            ref = MetricEstimate.from_samples(payoffs)
            assert len(pool.order) == ref.n == len(ts)
            assert abs(mean[i] - ref.mean) <= 1e-12
            assert abs(stderr[i] - ref.stderr) <= 1e-12
        # several contents at once: the per-sample sum, in the same order
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
        contents = data.draw(st.lists(st.builds(Content, self.q_grid, self.x_grid),
                                      min_size=1, max_size=6))
        pool = OpponentPool.of(inst, metric, np.array(q), np.array(x), np.array(ts))
        self.check(pool, inst, metric, q, x, ts, contents)

    def test_single_row_has_zero_stderr(self):
        inst = linear(1.0, 0.3, types=(1.0, 2.0))
        q, x, ts = [[1.0, 0.5]], [[0.0, 1.0]], [2.0]
        contents = [Content(1.0, 0.0), Content(0.0, 0.0), Content(0.0, 4.0)]
        for metric in Metric:
            pool = OpponentPool.of(inst, metric, np.array(q), np.array(x), np.array(ts))
            self.check(pool, inst, metric, q, x, ts, contents)
            points = np.array([w.as_tuple() for w in contents])
            assert pool.estimates(points)[1].tolist() == [0.0] * 3

    def test_all_ineligible_rows(self):
        # no opponent is acceptable, so eligible content wins every row alone
        inst = linear(1.0, 0.0, types=(0.5, 1.0))
        q, x, ts = [[0.0, 0.5]] * 4, [[3.0, 4.0]] * 4, [0.5, 1.0, 1.0, 0.5]
        for metric in Metric:
            pool = OpponentPool.of(inst, metric, np.array(q), np.array(x), np.array(ts))
            self.check(pool, inst, metric, q, x, ts, [Content(0.0, 0.0)])
            assert pool.payoffs(np.array([[0.0, 0.0]])).tolist() == [1.0] * 4
            # acceptable to type 1 only
            assert pool.payoffs(np.array([[0.0, 1.0]])).tolist() == [0.0, 1.0, 1.0, 0.0]


class TestPayoffsBySegment:
    # payoffs sums whole segments between cuts and walks rows only in tie
    # bands; the row-by-row loop it replaced must agree bit for bit

    @staticmethod
    def contents(strategy, m, seed):
        """m contents: draws of the strategy, with the origin and a point
        that no type accepts mixed in."""
        drawn = strategy.sample(np.random.default_rng(seed), m)
        drawn[1::7] = (0.0, 0.0)
        drawn[3::11] = (0.0, 50.0)
        return drawn

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
        inst, metric, strategy, P = self.pools[case].game()
        pool = OpponentPool.draw(inst, metric, strategy, P, 3000,
                                 np.random.default_rng(4))
        contents = self.contents(strategy, m, 5)
        got = pool.payoffs(contents)
        assert got.shape == (3000,)
        assert got.tobytes() == row_loop_payoffs(pool, contents).tobytes()
        if m and case not in ("rejected_atom", "two_type"):
            # these pools put rows in some content's tie band
            _, _, lo, hi = pool._cuts(*contents.T)
            assert np.any(hi > lo)

    @pytest.mark.parametrize("case", ["random_two_type", "random_homogeneous",
                                      "random_eq", "eligible_atoms"])
    def test_pool_counts_each_tie_band_once(self, case):
        # payoffs and then estimates on one pool count each tie band's tied
        # opponents once between them, and give what fresh pools give bit
        # for bit
        inst, metric, strategy, P = self.pools[case].game()

        def draw():
            return OpponentPool.draw(inst, metric, strategy, P, 3000,
                                     np.random.default_rng(4))

        pool = draw()
        contents = self.contents(strategy, 32, 5)
        floor, _, lo, hi = pool._cuts(*contents.T)
        bands = {(lo[i, k], hi[i, k], floor[i]) for i, k in zip(*np.nonzero(hi > lo))}
        gathers = []

        class Spied(np.ndarray):
            # counting a band's tied opponents gathers the band's rows of
            # scores, the only read of scores after the pool is built
            def __getitem__(self, index):
                gathers.append(index)
                return np.asarray(self)[index]

        pool.__dict__["scores"] = pool.scores.view(Spied)
        sums = pool.payoffs(contents)
        estimates = pool.estimates(contents)
        assert bands and len(gathers) == len(bands)
        assert sums.tobytes() == draw().payoffs(contents).tobytes()
        assert estimate_bits(estimates) == estimate_bits(draw().estimates(contents))
        assert pool.payoffs(contents).tobytes() == sums.tobytes()
        assert len(gathers) == len(bands)

    def test_random_metric_ties_every_eligible_row(self):
        # under RANDOM every opponent scores 1: an eligible content ties with
        # every row that has an eligible opponent
        inst, metric, strategy, P = self.pools["random_homogeneous"].game()
        pool = OpponentPool.draw(inst, metric, strategy, P, 3000,
                                 np.random.default_rng(6))
        _, _, lo, hi = pool._cuts(np.ones(1), np.zeros(1))
        assert hi[0, 0] == 3000
        assert hi[0, 0] - lo[0, 0] == np.count_nonzero(pool.sorted_top > -np.inf) > 0
        won = 1.0 - float(inst.cost(1.0, 0.0))
        payoffs = pool.payoffs(np.array([[1.0, 0.0]]))
        assert np.all(payoffs[pool.order[lo[0, 0]:]] < won)
        assert np.all(payoffs[pool.order[:lo[0, 0]]] == won)

    # coarse grids: many contents share or overlap tie bands with different
    # floors, and some rows hold scores within TIE_RTOL of a band's edge
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
        assert (pool.payoffs(contents).tobytes()
                == row_loop_payoffs(pool, contents).tobytes())


class TestOneTieRule:
    # the pool pays a content its exact share of the win as column 0 under
    # the round kernel's rule: ties are measured from the row's best score
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
                                       [[w[1], *row_x]] * 12, [t] * 12, u,
                                       ELIGIBILITY_ATOL, TIE_RTOL)
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
        return shares

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), P=st.integers(2, 4), n=st.integers(1, 8),
           metric=st.sampled_from(list(Metric)),
           family=st.sampled_from([LinearTwitter(1.0, 0.3), KMR(1.0, 0.3)]),
           types=st.sets(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=3))
    def test_pool_pays_column0_share_on_near_tie_chains(self, data, P, n, metric,
                                                         family, types):
        inst = instance(family, sorted(types))
        w = (data.draw(self.q_grid), data.draw(self.x_grid))
        s0 = float(metric_score(inst, metric, w[0], w[1]))
        band = TIE_RTOL * max(1.0, abs(s0))
        # an opponent is an atom on the grid or sits on the chain
        # s0 + k * 0.45 * band, reached by moving w's quality
        chain = st.builds(lambda k: (w[0] + k * 0.45 * band, w[1]), st.integers(-3, 3))
        opponent = st.one_of(st.tuples(self.q_grid, self.x_grid), chain)
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

    def test_near_tie_chain_shares_with_the_higher_opponent_only(self):
        # scores 0.5 and 0.5 ± 0.9e-12 with band 1e-12: the floor of the
        # row's best, 0.5 + 0.9e-12, admits the content and the higher
        # opponent but not the lower one
        inst = linear(1.0)
        q = [[0.5 + 0.9e-12, 0.5 - 0.9e-12]]
        assert self.check(inst, Metric.INVESTMENT, q, [[0.0, 0.0]], [1.0],
                          (0.5, 0.0)) == [0.5]
        n = 20000
        got, want = pick(inst, Metric.INVESTMENT, [[0.5, *q[0]]] * n,
                         np.zeros((n, 3)), np.ones(n), 11)
        assert got == want
        freq = np.bincount(got, minlength=3) / n
        assert freq[2] == 0.0
        assert abs(freq[0] - 0.5) < 4 * math.sqrt(0.25 / n)

    finite_or_inf = st.floats(allow_nan=False, allow_infinity=True)

    @settings(max_examples=500, deadline=None)
    @given(a=finite_or_inf, b=finite_or_inf)
    @example(a=-math.inf, b=math.inf)
    def test_tie_floor_nondecreasing(self, a, b):
        lo, hi = sorted((a, b))
        with np.errstate(over="ignore"):  # the floor of -max is -inf
            f_lo, f_hi = _tie_floor(np.array([lo, hi])).tolist()
        assert f_lo <= f_hi
        for score, floor in ((lo, f_lo), (hi, f_hi)):
            # at most the score, and ±inf map to themselves
            assert floor <= score and (floor == score or not math.isinf(score))


def estimate_bits(estimates):
    mean, stderr = estimates
    return [(m.hex(), se.hex()) for m, se in zip(mean.tolist(), stderr.tolist())]


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
