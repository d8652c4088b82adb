import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from creatorsim import (
    KMR,
    Metric,
    MetricEstimate,
    closed_form_ucq_homogeneous,
    engagement_eq_homogeneous,
    estimate_re,
    estimate_ucq,
    estimate_uw,
    expected_max_from_cdf,
    ks_distance,
    limit_engagement_cdf,
    random_eq,
)
from creatorsim._piecewise import PiecewiseLinearCdf
from creatorsim._stats import RunningMoments
from creatorsim.metrics import (E_LIMIT_TOP, ROUND_ROWS, estimate_round_metrics,
                                homogeneous_quality_cdf)
from catalogue import EQUILIBRIA, kmr, linear
from oracles import exact_expected_max, piecewise_cdf

# the unit baseline's engagement equilibrium
HOMOGENEOUS = EQUILIBRIA["homogeneous_P2"]


def fields(estimates: dict) -> dict:
    """Each estimate's mean, stderr and n, by metric name."""
    return {name: vars(est) for name, est in estimates.items()}


class TestEstimateContainers:
    def test_metric_estimate_validation(self):
        with pytest.raises(ValueError):
            MetricEstimate(0.0, -1.0, 10)
        with pytest.raises(ValueError):
            MetricEstimate(0.0, 0.0, 0)

    def test_running_moments_batches_match_direct(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.0, size=997)
        total = RunningMoments()
        for chunk in np.array_split(data, 7):
            total.add_samples(chunk)
        est = total.estimate()
        assert est.mean == pytest.approx(data.mean(), abs=1e-12)
        assert est.stderr == pytest.approx(data.std(ddof=1) / math.sqrt(len(data)),
                                           abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(batches=st.lists(st.lists(st.floats(-1e6, 1e6), max_size=8),
                            min_size=1, max_size=8),
           data=st.data())
    def test_running_moments_batch_order_invariant(self, batches, data):
        def accumulated(order):
            total = RunningMoments()
            for i in order:
                total.add_samples(np.array(batches[i], dtype=float))
            return total

        ref = accumulated(range(len(batches)))
        other = accumulated(data.draw(st.permutations(range(len(batches)))))
        values = [v for b in batches for v in b]
        scale = max([1.0] + [abs(v) for v in values])
        assert other.n == ref.n == len(values)
        assert other.mean == pytest.approx(ref.mean, rel=1e-9, abs=1e-12 * scale)
        assert other.m2 == pytest.approx(
            ref.m2, rel=1e-9, abs=1e-12 * scale ** 2 * max(1, len(values)))

    def test_running_moments_nan_variance_propagates(self):
        with np.errstate(invalid="ignore"):
            batch = RunningMoments()
            batch.add_samples(np.array([1.0, np.inf]))
            total = RunningMoments()
            total.add_samples(np.array([2.0, 3.0]))
            total.add_samples(np.array([1.0, np.inf]))
        for moments in (batch, total):
            est = moments.estimate()
            assert est.mean == np.inf
            assert math.isnan(est.stderr)


class TestClosedFormCdfs:
    def test_limit_cdf_boundaries(self):
        for eps in (0.0, 0.01, 0.3):
            assert limit_engagement_cdf(1.0 + eps, eps) == 0.0
            assert limit_engagement_cdf((1.0 + eps) * E_LIMIT_TOP, eps) \
                == pytest.approx(1.0, abs=1e-12)

    def test_limit_cdf_interior_value(self):
        assert limit_engagement_cdf(math.exp(0.5), 0.0) == pytest.approx(math.log(2.0))

    def test_limit_cdf_monotone(self):
        v = np.linspace(0.5, 2.5, 500)
        out = np.asarray(limit_engagement_cdf(v, 0.01))
        assert np.all(np.diff(out) >= -1e-12)


class TestExpectedMax:
    def test_investment_pair_value(self):
        # shifted engagement under the investment baseline: uniform on [1, 2]
        got = expected_max_from_cdf(lambda v: np.clip(v - 1.0, 0.0, 1.0), 2, 2.0,
                                    breakpoints=(1.0, 2.0))
        assert got == pytest.approx(5.0 / 3.0, abs=1e-6)

    def test_degenerate_point_mass(self):
        c = 0.7

        def step(v):
            v = np.asarray(v, dtype=float)
            out = (v >= c).astype(float)
            return out if out.ndim else float(out)

        for P in (1, 2, 5):
            got = expected_max_from_cdf(step, P, 1.0, breakpoints=(c,))
            assert got == pytest.approx(c, abs=1e-6)

    def test_limit_engagement_below_investment(self):
        got = expected_max_from_cdf(lambda v: limit_engagement_cdf(v, 0.0), 2,
                                    E_LIMIT_TOP, breakpoints=(1.0, E_LIMIT_TOP))
        assert got < 5.0 / 3.0
        assert got == pytest.approx(1.616, abs=2e-3)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, 5), atom=st.booleans(),
           P=st.integers(2, 8), linear_power=st.booleans())
    def test_piecewise_linear_matches_exact_antiderivative(self, data, k, atom,
                                                           P, linear_power):
        # 2-6 breakpoints, flat stretches allowed, an atom at xs[0] or not
        widths = data.draw(st.lists(st.floats(1e-3, 3.0), min_size=k, max_size=k))
        rises = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                                   min_size=k, max_size=k))
        if sum(rises) == 0.0:
            rises[-1] = 1.0
        head = data.draw(st.floats(1e-3, 2.0)) if atom else 0.0
        ys = np.cumsum([head, *rises]) / (head + sum(rises))
        ys[-1] = 1.0
        xs = data.draw(st.floats(0.0, 2.0)) + np.cumsum([0.0, *widths])
        cdf = PiecewiseLinearCdf(xs, ys, 1.0 if linear_power else 1.0 / (P - 1))
        got = expected_max_from_cdf(lambda v: piecewise_cdf(cdf, v), P, xs[-1],
                                    breakpoints=xs)
        # exact for a polynomial integrand; a fractional power is smooth
        # enough between breakpoints for 64 nodes to reach 1e-9
        tol = (1e-13 if linear_power else 1e-9) * max(1.0, xs[-1])
        assert abs(got - exact_expected_max(cdf, P)) <= tol

    def test_atom_at_panel_end_is_exact(self):
        cdf = PiecewiseLinearCdf([0.5, 1.0], [0.001, 1.0])
        got = expected_max_from_cdf(lambda v: piecewise_cdf(cdf, v), 2, 1.0,
                                    breakpoints=cdf.xs)
        assert abs(got - exact_expected_max(cdf, 2)) <= 1e-15

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="monotone"):
            expected_max_from_cdf(lambda v: np.abs(np.sin(3 * np.asarray(v))), 2, 3.0)

    def test_rejects_cdf_not_reaching_one(self):
        with pytest.raises(ValueError, match="reaches"):
            expected_max_from_cdf(lambda v: 0.5 * np.clip(v, 0, 1), 2, 1.0)


class TestClosedFormUcq:
    def test_costless_gaming_matches_investment_value(self):
        assert closed_form_ucq_homogeneous(1.0, 0.0, 1.0, 2) \
            == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_costly_gaming_value(self):
        # hand integral: 1/3 - (1 - 0.125)/4.5 = 5/36
        got = closed_form_ucq_homogeneous(1.0, 0.5, 1.0, 2)
        assert got == pytest.approx(5.0 / 36.0, abs=1e-8)
        assert got < 2.0 / 3.0

    def test_strictly_decreasing_in_gamma(self):
        for P in (2, 3):
            vals = [closed_form_ucq_homogeneous(0.5, g, 1.0, P)
                    for g in (0.0, 0.2, 0.4, 0.6, 0.8)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_engagement_never_beats_investment(self):
        inv = expected_max_from_cdf(lambda x: np.clip(x, 0, 1), 2, 1.0)
        for g in (0.0, 0.1, 0.5, 0.9):
            e = closed_form_ucq_homogeneous(0.5, g, 1.0, 2)
            if g == 0.0:
                assert e == pytest.approx(inv, abs=1e-9)
            else:
                assert e < inv


class TestEstimators:
    def test_random_rec_trivial_values(self):
        game = EQUILIBRIA["random_P2"].game()
        rng = np.random.default_rng(1)
        assert estimate_ucq(*game, 5000, rng).mean == 0.0
        assert estimate_re(*game, 5000, rng).mean == 0.0
        assert estimate_uw(*game, 5000, rng).mean == 1.0

    def test_uw_zero_on_zero_utility_support(self):
        est = estimate_uw(*HOMOGENEOUS.game(), 20000, np.random.default_rng(4))
        assert abs(est.mean) <= 1e-9

    def test_kmr_engagement_keeps_unit_offset(self):
        # watch-time engagement includes the +1 shift; estimators never renormalize
        inst = kmr()
        s = random_eq(inst, 2)
        est = estimate_re(inst, Metric.RANDOM, s, 2, 2000, np.random.default_rng(7))
        assert est.mean == 1.0  # origin content has engagement exactly 1

    @pytest.mark.parametrize("n", [3, 9999, 2 * ROUND_ROWS + 5])
    def test_round_metrics_keys_counts_and_reruns(self, n):
        game = EQUILIBRIA["well_separated_N4"].game()
        one, two = (estimate_round_metrics(*game, n, np.random.default_rng(9))
                    for _ in range(2))
        assert list(one) == ["ucq", "re", "uw"]
        assert all(est.n == n for est in one.values())
        assert fields(one) == fields(two)

    def test_round_metrics_match_single_metric_wrappers(self):
        inst = linear(1.0, 0.3)
        s = engagement_eq_homogeneous(inst, 2)
        both = estimate_round_metrics(inst, Metric.ENGAGEMENT, s, 2, 5000,
                                      np.random.default_rng(11))
        for name, fn in (("ucq", estimate_ucq), ("re", estimate_re),
                         ("uw", estimate_uw)):
            assert vars(fn(inst, Metric.ENGAGEMENT, s, 2, 5000,
                           np.random.default_rng(11))) == vars(both[name])

    def test_pass_is_a_loop_over_the_children_of_one_spawn(self, monkeypatch):
        # shards as even as np.array_split makes them, each drawn from the
        # next child of one rng.spawn(shards) call and reduced on its own
        import creatorsim.metrics as met
        from creatorsim.game import simulate_rounds

        monkeypatch.setattr(met, "ROUND_ROWS", 4)
        game = HOMOGENEOUS.game()
        n = 4 * 150 + 3  # 151 shards: 150 of 4 rounds, then 1 of 3
        shards = -(-n // 4)
        totals = [RunningMoments() for _ in range(3)]
        for rows, sub in zip(np.array_split(np.arange(n), shards),
                             np.random.default_rng(6).spawn(shards)):
            batch = simulate_rounds(*game, len(rows), sub)
            for total, values in zip(totals, (batch.quality, batch.engagement,
                                              batch.user_utility)):
                total.add_samples(values)
        want = dict(zip(["ucq", "re", "uw"], (t.estimate() for t in totals)))
        assert all(est.n == n for est in want.values())
        got = estimate_round_metrics(*game, n, np.random.default_rng(6))
        assert fields(got) == fields(want)

    @pytest.mark.parametrize("name,P", [("well_separated_N4", 2), ("investment", 7)])
    def test_memory_does_not_grow_with_round_count(self, name, P):
        import tracemalloc

        game = EQUILIBRIA[name]._replace(P=P).game()
        estimate_round_metrics(*game, ROUND_ROWS, np.random.default_rng(0))  # warm-up
        peaks = []
        tracemalloc.start()
        try:
            for shards in (1, 8):
                tracemalloc.reset_peak()
                estimate_round_metrics(*game, shards * ROUND_ROWS,
                                       np.random.default_rng(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks

    @pytest.mark.parametrize("n", [0, -1])
    def test_round_metrics_reject_nonpositive_n(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            estimate_round_metrics(*EQUILIBRIA["random_P2"].game(), n,
                                   np.random.default_rng(0))

    @pytest.mark.parametrize("n,sizes", [(1, [1]), (4, [4]), (14, [4, 4, 3, 3])])
    def test_shard_sizes_as_even_as_array_split(self, monkeypatch, n, sizes):
        import creatorsim.metrics as met
        calls = []
        real = met.simulate_rounds

        def spy(inst, metric, strategy, P, rows, rng):
            calls.append(rows)
            return real(inst, metric, strategy, P, rows, rng)

        monkeypatch.setattr(met, "ROUND_ROWS", 4)
        monkeypatch.setattr(met, "simulate_rounds", spy)
        estimate_round_metrics(*HOMOGENEOUS.game(), n, np.random.default_rng(0))
        assert calls == sizes

    def test_shard_exception_propagates_and_stops_the_pass(self, monkeypatch):
        import creatorsim.metrics as met
        calls = []
        real = met.simulate_rounds

        def failing(inst, metric, strategy, P, rows, rng):
            calls.append(rows)
            if len(calls) == 2:
                raise RuntimeError("shard failed")
            return real(inst, metric, strategy, P, rows, rng)

        monkeypatch.setattr(met, "ROUND_ROWS", 100)
        monkeypatch.setattr(met, "simulate_rounds", failing)
        with pytest.raises(RuntimeError, match="shard failed"):
            estimate_round_metrics(*HOMOGENEOUS.game(), 5000,
                                   np.random.default_rng(0))
        assert calls == [100, 100]  # no shard after the failing one runs

    def test_each_batch_freed_before_the_next_shard_draws(self, monkeypatch):
        import weakref

        import creatorsim.metrics as met
        batches = []
        real = met.simulate_rounds

        def spy(inst, metric, strategy, P, rows, rng):
            assert all(ref() is None for ref in batches)
            batch = real(inst, metric, strategy, P, rows, rng)
            batches.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(met, "ROUND_ROWS", 8)
        monkeypatch.setattr(met, "simulate_rounds", spy)
        estimate_round_metrics(*HOMOGENEOUS.game(), 8 * 5, np.random.default_rng(0))
        assert len(batches) == 5
        assert all(ref() is None for ref in batches)

    @pytest.mark.parametrize("n", [1, ROUND_ROWS, ROUND_ROWS + 1])
    def test_pass_leaves_rng_as_one_spawn_would(self, n):
        # the caller's generator is spawned from, never drawn from, and its
        # next child follows the pass's children as after rng.spawn(shards)
        shards = -(-n // ROUND_ROWS)
        used = np.random.default_rng(13)
        estimate_round_metrics(*HOMOGENEOUS.game(), n, used)
        fresh = np.random.default_rng(13)
        want_child = fresh.spawn(shards + 1)[shards].random(4)
        assert np.array_equal(used.spawn(1)[0].random(4), want_child)
        assert np.array_equal(used.random(4), np.random.default_rng(13).random(4))

    @pytest.mark.parametrize("name", ["homogeneous_P2", "investment", "random_ties"])
    def test_merged_shards_match_moments_of_all_rounds(self, monkeypatch, name):
        # the per-shard reduction merged over uneven shards agrees with
        # the moments of every round's value taken at once
        import creatorsim.metrics as met
        batches = []
        real = met.simulate_rounds

        def keep(inst, metric, strategy, P, rows, rng):
            batches.append(real(inst, metric, strategy, P, rows, rng))
            return batches[-1]

        monkeypatch.setattr(met, "ROUND_ROWS", 7)
        monkeypatch.setattr(met, "simulate_rounds", keep)
        n = 7 * 40 + 5
        got = estimate_round_metrics(*EQUILIBRIA[name].game(), n,
                                     np.random.default_rng(14))
        assert len(batches) == 41
        for key, field in (("ucq", "quality"), ("re", "engagement"),
                           ("uw", "user_utility")):
            values = np.concatenate([getattr(b, field) for b in batches])
            assert got[key].n == len(values) == n
            assert got[key].mean == pytest.approx(values.mean(), rel=1e-12,
                                                  abs=1e-12)
            assert got[key].stderr == pytest.approx(
                values.std(ddof=1) / math.sqrt(n), rel=1e-9, abs=1e-12)


class TestKmrScaleInvariance:
    # users accept and the platform ties without regard to KMR's W: only
    # user welfare, W * t times the slack, scales with it
    @pytest.mark.parametrize("W", [1e-12, 1e12])
    @pytest.mark.parametrize("name", [name for name, entry in EQUILIBRIA.items()
                                      if isinstance(entry.inst.family, KMR)])
    def test_ucq_and_re_same_and_uw_scales(self, name, W):
        entry = EQUILIBRIA[name]
        base, scaled = (estimate_round_metrics(*e.game(), 20000,
                                               np.random.default_rng(2))
                        for e in (entry, entry.on(KMR(W))))
        for key in ("ucq", "re"):
            assert vars(scaled[key]) == vars(base[key]), key
        uw, ref = scaled["uw"], base["uw"]
        assert uw.mean == pytest.approx(W * ref.mean, rel=1e-12, abs=0.0)
        assert uw.stderr == pytest.approx(W * ref.stderr, rel=1e-12, abs=0.0)


class TestKsDistance:
    def test_uniform_sample(self):
        rng = np.random.default_rng(10)
        d = ks_distance(rng.random(20000), lambda x: np.clip(x, 0.0, 1.0))
        assert d < 0.015

    def test_atom_handling(self):
        # half the mass at zero, half uniform on [0.5, 1]
        rng = np.random.default_rng(11)
        n = 20000
        vals = np.where(rng.random(n) < 0.5, 0.0, 0.5 + 0.5 * rng.random(n))

        def cdf(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0.0, 0.0, np.clip(0.5 + (x - 0.5), 0.5, 1.0))

        assert ks_distance(vals, cdf) < 0.015

    def test_detects_shifted_distribution(self):
        rng = np.random.default_rng(12)
        d = ks_distance(rng.random(5000) + 0.1, lambda x: np.clip(x, 0.0, 1.0))
        assert d > 0.08

    def test_quality_marginal_cdf_is_valid_cdf(self):
        cdf, top, _ = homogeneous_quality_cdf(-0.5, 0.3, 2.0, 3)
        grid = np.linspace(-0.5, top + 0.5, 400)
        vals = np.asarray(cdf(grid))
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(1.0)


class TestWelfareZeroCases:
    def test_uw_zero_with_costly_gaming_negative_baseline(self):
        inst = linear(-0.5, 0.3)
        s = engagement_eq_homogeneous(inst, 2)
        est = estimate_uw(inst, Metric.ENGAGEMENT, s, 2, 20000,
                          np.random.default_rng(20))
        assert abs(est.mean) <= 1e-9
