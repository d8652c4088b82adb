import numpy as np
import pytest

from creatorsim import (
    Content,
    LinearTwitter,
    Metric,
    ModelInstance,
    TypeSpace,
    best_response_gap,
    candidate_deviations,
    check_positive_correlation,
    engagement_eq_homogeneous,
    engagement_eq_two_types,
    investment_eq,
    make_well_separated_types,
    support_containment,
)
from creatorsim.equilibrium import AtomComponent, MixedStrategy
from creatorsim.game import OpponentPool


def linear(alpha, gamma=0.0, types=(1.0,)):
    return ModelInstance(LinearTwitter(alpha, gamma), TypeSpace.of(types))


class TestCandidateDeviations:
    def test_homogeneous_grid_span(self):
        inst = linear(1.0, 0.0)
        cands = candidate_deviations(inst, 3)
        assert cands[0] == Content(0.0, 0.0)
        assert len(cands) == 4
        gaming = [c.w_cheap for c in cands[1:]]
        assert gaming == pytest.approx([1.0, 1.6, 2.2])
        assert [c.w_costly for c in cands[1:]] == pytest.approx([0.0, 0.6, 1.2])

    def test_two_type_count(self):
        inst = linear(1.0, 0.0, types=(1.0, 3.0))
        assert len(candidate_deviations(inst, 2)) == 5

    def test_homogeneous_count(self):
        assert len(candidate_deviations(linear(1.0, 0.0), 2)) == 3

    def test_costly_gaming_grid_starts_at_zero(self):
        inst = linear(1.0, 0.5)
        cands = candidate_deviations(inst, 2)
        assert cands[1].w_cheap == 0.0

    def test_candidates_lie_on_curves(self):
        inst = linear(-0.5, 0.3, types=(0.7, 2.0))
        cands = candidate_deviations(inst, 10)
        pts = np.array([[c.w_costly, c.w_cheap] for c in cands])
        assert support_containment(pts, inst, 1e-9) == []


class TestPositiveCorrelation:
    def test_constructed_counterexample(self):
        samples = np.array([[1.0, 0.0], [0.0, 1.0]])
        violations = check_positive_correlation(samples, 1e-12)
        assert violations == [(0, 1)]

    def test_single_sample_has_no_pairs(self):
        assert check_positive_correlation(np.array([[1.0, 2.0]]), 1e-12) == []

    def test_equal_gaming_quality_spread_is_violation(self):
        samples = np.array([[0.0, 1.0], [5.0, 1.0]])
        violations = check_positive_correlation(samples, 1e-12)
        assert violations == [(1, 0)]

    def test_tolerance_suppresses_noise(self):
        samples = np.array([[0.5, 1.0], [0.5 - 1e-13, 2.0]])
        assert check_positive_correlation(samples, 1e-12) == []

    def test_equilibrium_samples_clean(self):
        inst = linear(0.5, 0.1)
        s = engagement_eq_homogeneous(inst, 2)
        pts = s.sample(np.random.default_rng(0), 10000)
        assert check_positive_correlation(pts, 1e-12) == []

    def test_enumerates_all_offending_pairs(self):
        samples = np.array([[3.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
        got = set(check_positive_correlation(samples, 1e-12))
        assert got == {(0, 1), (0, 2), (1, 2)}


class TestSupportContainment:
    def test_off_curve_sample_flagged(self):
        inst = linear(1.0)
        bad = np.array([[0.5, 0.1]])
        out = support_containment(bad, inst, 1e-9)
        assert len(out) == 1
        assert out[0][0] == 0
        assert out[0][2] == pytest.approx(0.5)

    def test_origin_always_allowed(self):
        inst = linear(-0.5)
        assert support_containment(np.array([[0.0, 0.0]]), inst, 1e-9) == []

    def test_sampler_outputs_contained(self):
        inst = ModelInstance(LinearTwitter(1.0, 0.0), make_well_separated_types(3, 0.01))
        from creatorsim import engagement_eq_well_separated
        s = engagement_eq_well_separated(inst)
        pts = s.sample(np.random.default_rng(1), 5000)
        assert support_containment(pts, inst, 1e-9) == []


class TestBestResponseGap:
    def test_true_equilibrium_passes_small_scale(self):
        inst = linear(1.0, 0.0)
        s = engagement_eq_homogeneous(inst, 2)
        rep = best_response_gap(inst, Metric.ENGAGEMENT, s, 2, grid_k=60,
                                n_per_candidate=20000, rng=np.random.default_rng(0))
        assert rep.passes()
        assert rep.grid_size == 60
        assert rep.samples_per_candidate == 20000

    def test_origin_point_mass_rejected(self):
        inst = linear(1.0, 0.0)
        fake = MixedStrategy(((1.0, AtomComponent(0.0, 0.0)),), "origin")
        rep = best_response_gap(inst, Metric.ENGAGEMENT, fake, 2, grid_k=60,
                                n_per_candidate=5000, rng=np.random.default_rng(1))
        assert rep.gap >= 0.45
        assert not rep.passes()

    def test_investment_play_fails_under_engagement_metric(self):
        inst = linear(1.0, 0.5)
        mu_i = investment_eq(inst, 2)
        rep = best_response_gap(inst, Metric.ENGAGEMENT, mu_i, 2, grid_k=60,
                                n_per_candidate=10000, rng=np.random.default_rng(2))
        assert rep.gap > 0.05

    def test_probe_utilities_mutually_consistent(self):
        inst = linear(1.0, 0.0)
        s = engagement_eq_homogeneous(inst, 2)
        rep = best_response_gap(inst, Metric.ENGAGEMENT, s, 2, grid_k=20,
                                n_per_candidate=20000, rng=np.random.default_rng(3))
        means = np.array([e.mean for e in rep.probe_utilities])
        ses = np.array([e.stderr for e in rep.probe_utilities])
        spread = np.abs(means - means.mean())
        assert np.all(spread <= 3 * np.maximum(ses, 1e-4) + 1e-3)

    def test_two_type_on_support_utility_matches_closed_form(self):
        # equilibrium payoff is ratio/2 - 1/2 in the overlapping-case regimes
        inst = ModelInstance(LinearTwitter(1.0, 0.0), TypeSpace.of([1.0, 2 * 1.2 - 1]))
        s = engagement_eq_two_types(inst)
        rep = best_response_gap(inst, Metric.ENGAGEMENT, s, 2, grid_k=30,
                                n_per_candidate=20000, rng=np.random.default_rng(4))
        expected = 1.2 / 2.0 - 0.5
        assert abs(rep.eq_utility.mean - expected) <= 3 * rep.eq_utility.stderr + 2e-3

    def test_well_separated_on_support_utility_matches_closed_form(self):
        # for N types, on-support payoff is ((N - N' + 1)/N) * sum_{j<N'} 1/(N-j+1)
        inst = ModelInstance(LinearTwitter(1.0, 0.0), make_well_separated_types(4, 0.01))
        from creatorsim import engagement_eq_well_separated
        s = engagement_eq_well_separated(inst)
        rep = best_response_gap(inst, Metric.ENGAGEMENT, s, 2, grid_k=20,
                                n_per_candidate=20000, rng=np.random.default_rng(5))
        expected = (4 - 3 + 1) / 4 * (1 / 4 + 1 / 3)
        assert abs(rep.eq_utility.mean - expected) <= 3 * rep.eq_utility.stderr + 2e-3

    def test_report_serializes(self):
        import json
        inst = linear(1.0, 0.0)
        s = engagement_eq_homogeneous(inst, 2)
        rep = best_response_gap(inst, Metric.ENGAGEMENT, s, 2, grid_k=5,
                                n_per_candidate=500, rng=np.random.default_rng(6))
        payload = json.loads(rep.to_json())
        assert len(payload["candidates"]) == len(payload["candidate_utilities"])
        assert "gap" in payload and "passes" in payload


class TestSharedOpponentPool:
    @pytest.mark.parametrize("grid_k", [2, 10, 60])
    def test_samples_once_for_probes_and_once_for_pool(self, grid_k, monkeypatch):
        calls = []
        original = MixedStrategy.sample

        def spy(self, rng, n):
            calls.append(n)
            return original(self, rng, n)

        monkeypatch.setattr(MixedStrategy, "sample", spy)
        inst = linear(-0.5, 0.3, types=(2.0,))
        s = engagement_eq_homogeneous(inst, 3)
        best_response_gap(inst, Metric.ENGAGEMENT, s, 3, grid_k=grid_k,
                          n_per_candidate=400, rng=np.random.default_rng(0))
        assert calls == [32, 400 * 2]

    def test_combined_stderr_is_paired_difference_stderr(self):
        inst = linear(1.0, 0.0, types=(1.0, 1.9))
        s = engagement_eq_two_types(inst)
        n = 3000
        rep = best_response_gap(inst, Metric.ENGAGEMENT, s, 2, grid_k=20,
                                n_per_candidate=n, rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        probes = [Content(float(q), float(x)) for q, x in s.sample(rng, 32)]
        pool = OpponentPool.draw(inst, Metric.ENGAGEMENT, s, 2, n, rng)
        eq = np.mean([pool.payoffs(c) for c in probes], axis=0)
        diff = pool.payoffs(rep.argmax_candidate) - eq
        expected = diff.std(ddof=1) / np.sqrt(n)
        assert rep.combined_stderr == pytest.approx(expected, rel=1e-12)
        assert rep.gap == pytest.approx(diff.mean(), abs=1e-12)

    def test_paired_stderr_below_marginal_hypot_on_equilibrium(self):
        inst = linear(1.0, 0.0)
        s = engagement_eq_homogeneous(inst, 2)
        rep = best_response_gap(inst, Metric.ENGAGEMENT, s, 2, grid_k=30,
                                n_per_candidate=5000, rng=np.random.default_rng(0))
        marginal = np.hypot(rep.best_deviation_utility.stderr, rep.eq_utility.stderr)
        assert 0.0 < rep.combined_stderr < marginal
