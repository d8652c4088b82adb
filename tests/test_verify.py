import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from creatorsim import (
    KMR,
    LinearTwitter,
    Metric,
    best_response_gap,
    candidate_deviations,
    check_positive_correlation,
    engagement_eq_homogeneous,
    engagement_eq_two_types,
    investment_eq,
    support_containment,
)
from creatorsim.equilibrium import AtomComponent, MixedStrategy
from creatorsim.game import OpponentPool
from creatorsim.verify import N_PROBES, failure_summary
from catalogue import EQUILIBRIA, instance, linear
from oracles import loop_best_response_gap, loop_candidate_deviations


class TestCandidateDeviations:
    def test_homogeneous_grid_span(self):
        cands = candidate_deviations(linear(1.0), 3)
        assert cands[0].tolist() == [0.0, 0.0]
        assert cands.shape == (4, 2)
        gaming = cands[1:, 1].tolist()
        assert gaming == pytest.approx([1.0, 1.6, 2.2])
        assert cands[1:, 0].tolist() == pytest.approx([0.0, 0.6, 1.2])

    def test_two_type_count(self):
        assert len(candidate_deviations(linear(1.0, types=(1.0, 3.0)), 2)) == 5

    def test_homogeneous_count(self):
        assert len(candidate_deviations(linear(1.0), 2)) == 3

    def test_costly_gaming_grid_starts_at_zero(self):
        cands = candidate_deviations(linear(1.0, 0.5), 2)
        assert cands[1, 1] == 0.0

    def test_candidates_lie_on_curves(self):
        inst = linear(-0.5, 0.3, types=(0.7, 2.0))
        cands = candidate_deviations(inst, 10)
        assert support_containment(cands, inst, 1e-9) == []

    @settings(max_examples=150, deadline=None)
    @given(kmr=st.booleans(), alpha=st.sampled_from([-0.5, 1.0]),
           gamma=st.sampled_from([0.0, 0.3]), grid_k=st.integers(2, 200),
           types=st.sets(st.floats(0.2, 5.0), min_size=1, max_size=4))
    def test_matches_scalar_loop_bitwise(self, kmr, alpha, gamma, grid_k, types):
        family = KMR(1.0, gamma) if kmr else LinearTwitter(alpha, gamma)
        inst = instance(family, sorted(types))

        def bits(rows):
            return [(q.hex(), x.hex()) for q, x in rows]

        assert bits(candidate_deviations(inst, grid_k).tolist()) == \
            bits(loop_candidate_deviations(inst, grid_k))


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
        s = engagement_eq_homogeneous(linear(0.5, 0.1), 2)
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
        entry = EQUILIBRIA["well_separated_N3"]
        pts = entry.strategy().sample(np.random.default_rng(1), 5000)
        assert support_containment(pts, entry.inst, 1e-9) == []


class TestBestResponseGap:
    def test_true_equilibrium_passes_small_scale(self):
        rep = best_response_gap(*EQUILIBRIA["homogeneous_P2"].game(), grid_k=60,
                                n_per_candidate=20000, rng=np.random.default_rng(0))
        assert rep.passes()
        assert rep.grid_size == 60
        assert rep.samples_per_candidate == 20000

    def test_origin_point_mass_rejected(self):
        fake = MixedStrategy(((1.0, AtomComponent(0.0, 0.0)),), "origin")
        rep = best_response_gap(linear(1.0), Metric.ENGAGEMENT, fake, 2, grid_k=60,
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
        rep = best_response_gap(*EQUILIBRIA["homogeneous_P2"].game(), grid_k=20,
                                n_per_candidate=20000, rng=np.random.default_rng(3))
        means, ses = rep.probe_mean, rep.probe_stderr
        spread = np.abs(means - means.mean())
        assert np.all(spread <= 3 * np.maximum(ses, 1e-4) + 1e-3)

    def test_two_type_on_support_utility_matches_closed_form(self):
        # equilibrium payoff is ratio/2 - 1/2 in the overlapping-case regimes
        rep = best_response_gap(*EQUILIBRIA["two_type_case3"].game(), grid_k=30,
                                n_per_candidate=20000, rng=np.random.default_rng(4))
        expected = 1.2 / 2.0 - 0.5
        assert abs(rep.eq_utility.mean - expected) <= 3 * rep.eq_utility.stderr + 2e-3

    def test_well_separated_on_support_utility_matches_closed_form(self):
        # for N types, on-support payoff is ((N - N' + 1)/N) * sum_{j<N'} 1/(N-j+1)
        rep = best_response_gap(*EQUILIBRIA["well_separated_N4"].game(), grid_k=20,
                                n_per_candidate=20000, rng=np.random.default_rng(5))
        expected = (4 - 3 + 1) / 4 * (1 / 4 + 1 / 3)
        assert abs(rep.eq_utility.mean - expected) <= 3 * rep.eq_utility.stderr + 2e-3

    @pytest.mark.parametrize("family", [LinearTwitter(1.0), KMR(1.0)], ids=repr)
    def test_two_types_where_one_plus_t_rounds_to_one_pass(self, family):
        # the low type's support starts at its kink t, not at gaming 0
        inst = instance(family, (1e-16, 2.0))
        rep = best_response_gap(inst, Metric.ENGAGEMENT, engagement_eq_two_types(inst),
                                2, grid_k=200, n_per_candidate=20000,
                                rng=np.random.default_rng(3))
        assert rep.passes(), failure_summary(rep)

    def test_report_serializes(self):
        rep = best_response_gap(*EQUILIBRIA["homogeneous_P2"].game(), grid_k=5,
                                n_per_candidate=500, rng=np.random.default_rng(6))
        payload = json.loads(json.dumps(rep.to_dict()))
        utilities = payload["candidate_utilities"]
        assert len(payload["candidates"]) == len(utilities["mean"])
        assert len(payload["candidates"]) == len(utilities["stderr"])
        assert "gap" in payload and "passes" in payload

    def test_curves_give_each_curve_best_and_hold_the_argmax(self):
        # two atoms, one on each curve, that a type 1.9 curve deviation beats
        inst = linear(1.0, types=(1.0, 1.9))
        s = MixedStrategy(((0.5, AtomComponent(0.6, 1.6)),
                           (0.5, AtomComponent(0.2, 2.28))), "two atoms")
        k = 60
        rep = best_response_gap(inst, Metric.ENGAGEMENT, s, 2, grid_k=k,
                                n_per_candidate=5000, rng=np.random.default_rng(2))
        assert not rep.passes()
        assert " on the type 1.9 curve " in failure_summary(rep)
        payload = rep.to_dict()
        curves = payload["curves"]
        assert [c["t"] for c in curves] == [1.0, 1.9]
        for j, curve in enumerate(curves):
            i = 1 + j * k + int(np.argmax(rep.candidate_mean[1 + j * k:1 + (j + 1) * k]))
            assert curve["best"] == payload["candidates"][i]
            assert curve["mean"] == payload["candidate_utilities"]["mean"][i]
            assert curve["stderr"] == payload["candidate_utilities"]["stderr"][i]
            assert curve["gap"] == curve["mean"] - rep.eq_utility.mean
        assert curves[1]["best"] == payload["argmax_candidate"]
        assert curves[1]["mean"] == rep.best_deviation_utility.mean
        assert curves[1]["gap"] == rep.gap
        assert curves[0]["mean"] < curves[1]["mean"]


def kmr_entries():
    return [name for name, entry in EQUILIBRIA.items()
            if isinstance(entry.inst.family, KMR)]


class TestScaleInvariance:
    # acceptance and ties do not depend on KMR's W, so neither does a report
    @pytest.mark.parametrize("W", [1e-12, 1e12])
    @pytest.mark.parametrize("name", kmr_entries())
    def test_kmr_report_is_the_same_at_every_W(self, name, W):
        entry = EQUILIBRIA[name]

        def report(e):
            rep = best_response_gap(*e.game(), grid_k=50, n_per_candidate=4000,
                                    rng=np.random.default_rng(1))
            return json.dumps(rep.to_dict())

        assert report(entry.on(KMR(W))) == report(entry)


class TestGateNegativeControls:
    # strategies a little off equilibrium, which the Monte Carlo gate must
    # still fail at the acceptance criteria's grid and sample count
    @staticmethod
    def controls(inst):
        s2 = engagement_eq_homogeneous(inst, 2)
        moved = MixedStrategy(((0.1, AtomComponent(0.0, 0.0)),
                               *((0.9 * w, c) for w, c in s2.components)),
                              "10% moved to the origin")
        return {"P3_strategy_at_P2": engagement_eq_homogeneous(inst, 3),
                "origin_10pct": moved}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("control", ["P3_strategy_at_P2", "origin_10pct"])
    @pytest.mark.parametrize("alpha", [1.0, -0.5])
    def test_gate_fails(self, alpha, control, seed):
        inst = linear(alpha)
        rep = best_response_gap(inst, Metric.ENGAGEMENT, self.controls(inst)[control],
                                2, grid_k=200, n_per_candidate=100_000,
                                rng=np.random.default_rng(seed))
        assert not rep.passes(), (rep.gap, rep.combined_stderr)


class TestSharedOpponentPool:
    @pytest.mark.parametrize("grid_k", [2, 10, 60])
    def test_samples_once_for_probes_and_once_for_pool(self, grid_k, monkeypatch):
        calls = []
        original = MixedStrategy.sample

        def spy(self, rng, n):
            calls.append(n)
            return original(self, rng, n)

        monkeypatch.setattr(MixedStrategy, "sample", spy)
        best_response_gap(*EQUILIBRIA["homogeneous_atom_P3"].game(), grid_k=grid_k,
                          n_per_candidate=400, rng=np.random.default_rng(0))
        assert calls == [N_PROBES, 400 * 2]

    @pytest.mark.parametrize("grid_k", [2, 10, 60])
    def test_candidates_are_count_scored(self, grid_k, monkeypatch):
        # per-sample payoff vectors only for the probes and the argmax
        calls = []
        original = OpponentPool.payoffs

        def spy(self, contents):
            calls.append(np.asarray(contents).tolist())
            return original(self, contents)

        monkeypatch.setattr(OpponentPool, "payoffs", spy)
        rep = best_response_gap(*EQUILIBRIA["two_type_case2"].game(), grid_k=grid_k,
                                n_per_candidate=400, rng=np.random.default_rng(0))
        assert len(rep.candidates) == 1 + 2 * grid_k
        assert sum(map(len, calls)) <= N_PROBES + 1
        best = rep.candidates[rep.argmax_index]
        assert calls == [rep.probes.tolist(), [best.tolist()]]

    def test_combined_stderr_is_paired_difference_stderr(self):
        game = EQUILIBRIA["two_type_case2"].game()
        n = 3000
        rep = best_response_gap(*game, grid_k=20, n_per_candidate=n,
                                rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        probes = game[2].sample(rng, 32)
        pool = OpponentPool.draw(*game, n, rng)
        eq = np.mean([pool.payoffs(probes[i:i + 1]) for i in range(32)], axis=0)
        i = rep.argmax_index
        diff = pool.payoffs(rep.candidates[i:i + 1]) - eq
        expected = diff.std(ddof=1) / np.sqrt(n)
        assert rep.combined_stderr == pytest.approx(expected, rel=1e-12)
        assert rep.gap == pytest.approx(diff.mean(), abs=1e-12)

    def test_paired_stderr_below_marginal_hypot_on_equilibrium(self):
        rep = best_response_gap(*EQUILIBRIA["homogeneous_P2"].game(), grid_k=30,
                                n_per_candidate=5000, rng=np.random.default_rng(0))
        marginal = np.hypot(rep.best_deviation_utility.stderr, rep.eq_utility.stderr)
        assert 0.0 < rep.combined_stderr < marginal


ORACLE_CASES = {
    # the benchmark's two certify cases
    "two_type_ratio_1.45": EQUILIBRIA["two_type_case2"],
    **{name: EQUILIBRIA[name] for name in (
        "homogeneous_atom_P3", "homogeneous_atom_P2", "homogeneous_atom_P4",
        "kmr_two_type", "investment", "random_ties", "well_separated_N4")},
}


class TestMatchesLoopOracle:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_report_bitwise_but_probe_utilities(self, case, seed):
        args = (*ORACLE_CASES[case].game(), 50, 4000)
        got = best_response_gap(*args, rng=np.random.default_rng(seed)).to_dict()
        want = loop_best_response_gap(*args, rng=np.random.default_rng(seed)).to_dict()
        # probe utilities are counted estimates now, equal up to rounding
        got_probes, want_probes = got.pop("probe_utilities"), want.pop("probe_utilities")
        assert sorted(got_probes) == sorted(want_probes) == ["mean", "stderr"]
        for key in ("mean", "stderr"):
            for a, b in zip(got_probes[key], want_probes[key], strict=True):
                assert abs(a - b) <= 1e-12
        # float repr round-trips, so equal JSON text is equal bits
        assert json.dumps(got) == json.dumps(want)
