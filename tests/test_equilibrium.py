import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from creatorsim import (
    PreconditionError,
    engagement_eq_homogeneous,
    engagement_eq_two_types,
    engagement_eq_well_separated,
    investment_eq,
    ks_distance,
    make_well_separated_types,
    n_prime,
    random_eq,
    support_containment,
)
from creatorsim.equilibrium import (
    AtomComponent,
    MixedStrategy,
    _two_type_intervals,
    stay_in_probability,
    two_type_case,
    well_separated_weights,
)
from creatorsim._piecewise import PiecewiseLinearCdf
from creatorsim.metrics import homogeneous_quality_cdf
from catalogue import EQUILIBRIA, kmr, linear, two_type, well_separated
from oracles import (cheap_marginal_cdf, curve_engagement, mask_mixture_sample,
                     piecewise_cdf, searchsorted_ppf, two_type_cheap_cdf)


def same_state(a, b):
    """Bit generator states equal, comparing array entries by value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


# coefficient ratios a1/a2 in each two-type case, on and around the case
# boundaries (1.5 and the golden split) and near the ends
TWO_TYPE_RATIOS = [1.0 + 1e-7, 1.05, 1.2, (5 - math.sqrt(5)) / 2, 1.382, 1.45,
                   1.5 - 1e-7, 1.5, 1.5 + 1e-7, 2.0, 50.0]


class TestNPrime:
    @pytest.mark.parametrize("N,expected", [(1, 1), (2, 2), (3, 3), (4, 3)])
    def test_small_values(self, N, expected):
        assert n_prime(N) == expected

    @pytest.mark.parametrize("N", [50, 100, 500, 1000])
    def test_large_N_sandwich(self, N):
        np_ = n_prime(N)
        lower = (N + 1) / math.e - 1.0
        upper = N / math.exp(1.0 - 3.0 / (N + 1))
        assert lower < N - np_ + 1 < upper

    def test_weights_sum_to_one(self):
        for N in (1, 2, 3, 4, 7, 64):
            w = well_separated_weights(N)
            assert len(w) == n_prime(N)
            assert sum(w) == pytest.approx(1.0, abs=1e-12)
        assert well_separated_weights(4) == pytest.approx([0.25, 1 / 3, 5 / 12])


class TestWellSeparatedTypes:
    def test_formula_values(self):
        ts = make_well_separated_types(2, 0.01)
        assert ts.types == pytest.approx((0.01, 0.515))

    def test_single_type(self):
        assert make_well_separated_types(1, 0.5).types == pytest.approx((0.5,))

    def test_coefficient_ratio_hits_bound(self):
        ts = make_well_separated_types(2, 0.01)
        a = [1.0 / (1.0 + t) for t in ts.types]
        assert a[0] / a[1] == pytest.approx(1.5, abs=1e-12)


class TestHomogeneous:
    def test_costless_uniform_on_unit_interval(self):
        s = engagement_eq_homogeneous(linear(0.0), 2)
        pts = s.sample(np.random.default_rng(0), 20000)
        assert np.allclose(pts[:, 0], pts[:, 1], atol=1e-12)
        assert ks_distance(pts[:, 1], lambda x: np.clip(x, 0.0, 1.0)) < 0.02
        assert cheap_marginal_cdf(s, 0.25) == pytest.approx(0.25)

    def test_atom_mass_for_negative_baseline(self):
        s = EQUILIBRIA["homogeneous_atom_half"].strategy()
        assert cheap_marginal_cdf(s, 0.0) == pytest.approx(0.5)
        pts = s.sample(np.random.default_rng(1), 40000)
        at_origin = (pts[:, 1] == 0.0)
        assert np.allclose(pts[at_origin, 0], 0.0)
        assert at_origin.mean() == pytest.approx(0.5, abs=0.01)

    def test_unit_baseline_uniform_shifted(self):
        s = EQUILIBRIA["homogeneous_P2"].strategy()
        # hand inversion of min(1, x - 1): uniform gaming on [1, 2]
        pts = s.sample(np.random.default_rng(2), 20000)
        assert pts[:, 1].min() >= 1.0 - 1e-12
        assert pts[:, 1].max() <= 2.0 + 1e-12
        assert ks_distance(pts[:, 1], lambda x: np.clip(x - 1.0, 0.0, 1.0)) < 0.02
        assert np.allclose(pts[:, 0], pts[:, 1] - 1.0, atol=1e-12)

    def test_quality_marginal_matches_closed_form(self):
        # engagement equilibrium quality CDF, costly-gaming setting
        s = engagement_eq_homogeneous(linear(0.5, 0.4), 3)
        pts = s.sample(np.random.default_rng(3), 100000)
        cdf, _, _ = homogeneous_quality_cdf(0.5, 0.4, 1.0, 3)
        assert ks_distance(pts[:, 0], cdf) <= 0.01

    def test_exponent_scales_with_P(self):
        s = engagement_eq_homogeneous(linear(0.0), 3)
        assert cheap_marginal_cdf(s, 0.25) == pytest.approx(0.5)  # 0.25 ** (1/2)

    def test_entry_cost_below_one_at_the_edge_of_alpha(self):
        # beta = -alpha < 1 for every valid alpha, so the gaming CDF starts
        # at the cost of entry and still rises to 1
        alpha = math.nextafter(-1.0, 0.0)
        s = engagement_eq_homogeneous(linear(alpha), 2)
        points = s.components[0][1].cheap.breakpoints()
        assert points[0] == (0.0, -alpha) and points[-1][1] == 1.0

    def test_requires_single_type(self):
        with pytest.raises(PreconditionError):
            engagement_eq_homogeneous(linear(1.0, types=(1.0, 2.0)), 2)


class TestTwoTypes:
    @pytest.mark.parametrize("ratio,case", [(2.0, 1), (1.5, 1), (1.45, 2),
                                            (1.382, 2), (1.2, 3), (1.05, 3)])
    def test_case_dispatch(self, ratio, case):
        assert two_type_case(ratio) == case

    def test_case_boundary_exactly_15_takes_case_1(self):
        s = engagement_eq_two_types(two_type(1.5))
        assert "case1" in s.descriptor

    @pytest.mark.parametrize("ratio", [1.45, 1.2])
    def test_low_type_marginal(self, ratio):
        # a draw on the low curve has quality max(0, x/t1 - 1); one on the
        # high curve (x >= t2) has x/t2 - 1, lower by at least t2/t1 - 1
        inst = two_type(ratio)
        s = engagement_eq_two_types(inst)
        pts = s.sample(np.random.default_rng(5), 60000)
        low = np.abs(pts[:, 0] - inst.min_investment(inst.types[0], pts[:, 1])) <= 1e-9
        frac = low.mean()
        se = math.sqrt(frac * (1 - frac) / len(low))
        assert abs(frac - (2.0 - ratio)) <= 3 * se

    @pytest.mark.parametrize("family", ["linear", "kmr"])
    @pytest.mark.parametrize("ratio", TWO_TYPE_RATIOS)
    def test_weights_are_the_type_shares(self, ratio, family):
        s = engagement_eq_two_types(two_type(ratio, family))
        assert [comp.to_dict()["kind"] for _, comp in s.components] == ["curve", "curve"]
        weights = [w for w, _ in s.components]
        assert weights[1] == 1.0 - weights[0]
        low = 0.5 if ratio >= 1.5 else 2.0 - ratio
        assert weights[0] == pytest.approx(low, abs=1e-12)

    @pytest.mark.parametrize("family", ["linear", "kmr"])
    @pytest.mark.parametrize("ratio", TWO_TYPE_RATIOS)
    def test_components_match_the_density_oracle(self, ratio, family):
        # each type's weight times its curve CDF is that type's share of
        # the paper's (v, t) density, integrated up to each gaming level
        inst = two_type(ratio, family)
        s = engagement_eq_two_types(inst)
        _, intervals = _two_type_intervals(inst)
        by_type = {comp.t: (w, comp) for w, comp in s.components}
        assert set(by_type) == set(inst.types)
        for t, low in zip(inst.types, (True, False)):
            w, comp = by_type[t]
            assert comp.cheap.exponent == 1.0
            x = np.concatenate([np.linspace(-0.5, 2.0 * comp.cheap.xs[-1], 2001),
                                comp.cheap.xs, np.nextafter(comp.cheap.xs, 0.0)])
            want = two_type_cheap_cdf(inst, intervals, t, low, x)
            assert np.abs(w * np.asarray(piecewise_cdf(comp.cheap, x)) - want).max() <= 1e-12

    @pytest.mark.parametrize("ratio", [2.0, 1.45, 1.2])
    def test_samples_live_on_curves(self, ratio):
        inst = two_type(ratio)
        s = engagement_eq_two_types(inst)
        pts = s.sample(np.random.default_rng(6), 20000)
        assert support_containment(pts, inst, 1e-9) == []

    def test_case1_matches_well_separated_representation(self):
        # ratio 1.5 sits in both constructions: the same weights, curves and
        # breakpoints, so the same draws bit for bit
        inst = two_type(1.5)
        vt = engagement_eq_two_types(inst)
        ws = engagement_eq_well_separated(inst)
        assert [w for w, _ in vt.components] == [w for w, _ in ws.components]
        for (_, a), (_, b) in zip(vt.components, ws.components, strict=True):
            assert a.t == b.t
            assert a.cheap.breakpoints() == b.cheap.breakpoints()
            assert a.cheap.exponent == b.cheap.exponent
        for seed, n in ((0, 0), (1, 7), (2, 50000)):
            got = vt.sample(np.random.default_rng(seed), n)
            assert got.tobytes() == ws.sample(np.random.default_rng(seed), n).tobytes()

    def test_vt_cheap_cdf_matches_empirical(self):
        inst = two_type(1.2)
        s = engagement_eq_two_types(inst)
        _, intervals = _two_type_intervals(inst)
        pts = s.sample(np.random.default_rng(7), 50000)
        for x in (1.0, 1.5, 2.0, 3.0):
            emp = (pts[:, 1] <= x).mean()
            exact = sum(float(two_type_cheap_cdf(inst, intervals, t, low, x))
                        for t, low in zip(inst.types, (True, False)))
            assert abs(emp - exact) <= 3 * math.sqrt(0.25 / len(pts)) + 1e-3

    @pytest.mark.parametrize("family", ["linear", "kmr"])
    @pytest.mark.parametrize("t", [1.0, 1e-15, 2e-16, 1e-16, 2.2250738585072014e-308])
    def test_each_support_starts_at_its_kink(self, t, family):
        # below about 1.1e-16, 1 + t rounds to 1, so the low type's first
        # engagement level 1/a_t - shift rounds to 0 rather than to its kink
        inst = (linear(1.0, types=(t, 2.0)) if family == "linear"
                else kmr(types=(t, 2.0)))
        for _, comp in engagement_eq_two_types(inst).components:
            kink = inst.family.zero_quality_extent(comp.t)
            assert comp.cheap.xs[0] >= kink
            assert comp.cheap.xs[0] == pytest.approx(kink, rel=1e-15)

    def test_requires_two_types(self):
        with pytest.raises(PreconditionError):
            engagement_eq_two_types(linear(1.0, types=(1.0,)))

    def test_requires_costless_gaming(self):
        with pytest.raises(PreconditionError):
            engagement_eq_two_types(linear(1.0, 0.2, types=(1.0, 2.0)))

    def test_kmr_supported(self):
        inst = two_type(1.3, family="kmr")
        s = engagement_eq_two_types(inst)
        pts = s.sample(np.random.default_rng(8), 5000)
        assert support_containment(pts, inst, 1e-9) == []


class TestWellSeparated:
    def test_n2_weights(self):
        inst = well_separated(2)
        s = engagement_eq_well_separated(inst)
        assert [w for w, _ in s.components] == pytest.approx([0.5, 0.5])

    def test_n4_weights(self):
        inst = well_separated(4)
        s = engagement_eq_well_separated(inst)
        assert [w for w, _ in s.components] == pytest.approx([0.25, 1 / 3, 5 / 12])

    def test_n1_single_component(self):
        inst = well_separated(1, 0.5)
        s = engagement_eq_well_separated(inst)
        assert [w for w, _ in s.components] == pytest.approx([1.0])

    def test_disjoint_reparameterized_supports(self):
        inst = well_separated(6)
        s = engagement_eq_well_separated(inst)
        shift = inst.family.linear_shift()
        spans = []
        for w, comp in s.components:
            lo = float(curve_engagement(inst, comp.t, comp.cheap.xs[0])) + shift
            hi = float(curve_engagement(inst, comp.t, comp.cheap.xs[-1])) + shift
            spans.append((lo, hi))
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi <= lo + 1e-9

    def test_separation_violation_names_pair(self):
        inst = linear(1.0, types=(1.0, 1.05))
        with pytest.raises(PreconditionError, match="1 and 1.05"):
            engagement_eq_well_separated(inst)

    def test_samples_contained(self):
        inst = well_separated(3)
        s = engagement_eq_well_separated(inst)
        pts = s.sample(np.random.default_rng(9), 20000)
        assert support_containment(pts, inst, 1e-9) == []


class TestInvestment:
    def test_unit_baseline_uniform(self):
        s = EQUILIBRIA["investment_P2"].strategy()
        pts = s.sample(np.random.default_rng(10), 20000)
        assert np.all(pts[:, 1] == 0.0)
        assert ks_distance(pts[:, 0], lambda x: np.clip(x, 0.0, 1.0)) < 0.02

    def test_negative_baseline_atom_plus_uniform(self):
        s = EQUILIBRIA["investment_atom"].strategy()
        pts = s.sample(np.random.default_rng(11), 40000)
        at_zero = pts[:, 0] == 0.0
        assert at_zero.mean() == pytest.approx(0.5, abs=0.01)
        body = pts[~at_zero, 0]
        assert body.min() >= 0.5 - 1e-12
        assert ks_distance(body, lambda x: np.clip((x - 0.5) / 0.5, 0.0, 1.0)) < 0.02

    def test_three_creators_square_root_cdf(self):
        s = investment_eq(linear(1.0), 3)
        pts = s.sample(np.random.default_rng(12), 40000)
        assert ks_distance(pts[:, 0], lambda x: np.clip(x, 0.0, 1.0) ** 0.5) < 0.02

    def test_entry_cost_below_one_at_the_edge_of_alpha(self):
        # the opt-out atom holds mass kappa = beta = -alpha < 1
        alpha = math.nextafter(-1.0, 0.0)
        s = investment_eq(linear(alpha), 2)
        points = s.components[0][1].quality.breakpoints()
        assert points[0] == (0.0, -alpha) and points[-1] == (1.0, 1.0)

    def test_heterogeneous_requires_free_entry(self):
        with pytest.raises(PreconditionError):
            investment_eq(linear(-0.5, types=(1.0, 2.0)), 2)

    def test_heterogeneous_free_entry_allowed(self):
        s = investment_eq(linear(1.0, types=(1.0, 2.0)), 2)
        pts = s.sample(np.random.default_rng(13), 1000)
        assert np.all(pts[:, 1] == 0.0)


class TestRandom:
    def test_opt_out_probability_values(self):
        assert 1.0 - stay_in_probability(0.75, 2) == pytest.approx(0.5, abs=1e-9)
        assert 1.0 - stay_in_probability(0.3, 2) == 0.0
        assert 1.0 - stay_in_probability(1.0, 3) == pytest.approx(1.0, abs=1e-9)
        assert 1.0 - stay_in_probability(0.5, 2) == 0.0  # kappa == 1/P boundary

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 0.999])
    def test_opt_out_probability_at_large_P(self, kappa):
        # a sum of P powers per bisection step would take minutes here
        P = 10**9
        start = time.perf_counter()
        nu = 1.0 - stay_in_probability(kappa, P)
        assert time.perf_counter() - start < 1.0

        def sum_of_powers(v):
            return (1.0 - v ** P) / (1.0 - v)

        # the root lies within 1e-12 of nu
        assert sum_of_powers(nu - 1e-12) < P * kappa <= sum_of_powers(nu + 1e-12)

    @pytest.mark.parametrize("P, kappa", [(10**9, 0.999), (10**9, 0.5), (10**6, 0.9)])
    def test_stay_in_probability_to_a_relative_1e_12(self, P, kappa):
        # an absolute 1e-12 stop on nu left 1 - nu 13.6 % off at the first
        # pair, 1.7e-4 at the second and 1.1e-6 at the third
        y = stay_in_probability(kappa, P)

        def excess(v):  # sum((1 - v)^i, i < P) - P * kappa
            return -math.expm1(P * math.log1p(-v)) / v - P * kappa

        assert excess(y * (1.0 - 1e-12)) > 0.0 > excess(y * (1.0 + 1e-12))
        weights = {comp.w_costly: w for w, comp in random_eq(linear(-kappa), P).components}
        assert weights == {0.0: 1.0 - y, kappa: y}

    def test_opt_out_probability_matches_the_sum_of_powers(self):
        for P in (2, 3, 7, 40):
            for kappa in np.linspace(1.0 / P, 1.0, 23)[1:-1]:
                nu = 1.0 - stay_in_probability(kappa, P)
                total = math.fsum(nu ** i for i in range(P))
                slope = math.fsum(i * nu ** (i - 1) for i in range(1, P))
                assert abs(total - P * kappa) <= 1e-12 * slope

    def test_two_point_strategy(self):
        s = EQUILIBRIA["random_two_atoms"].strategy()
        weights = dict()
        for w, comp in s.components:
            weights[(comp.w_costly, comp.w_cheap)] = w
        assert weights[(0.0, 0.0)] == pytest.approx(0.5, abs=1e-9)
        assert weights[(0.75, 0.0)] == pytest.approx(0.5, abs=1e-9)

    def test_kappa_below_threshold_plays_beta(self):
        s = random_eq(linear(-0.3), 2)
        assert len(s.components) == 1
        comp = s.components[0][1]
        assert (comp.w_costly, comp.w_cheap) == (pytest.approx(0.3), 0.0)

    def test_free_entry_point_mass_at_origin(self):
        s = random_eq(linear(1.0, types=(1.0, 2.0)), 2)
        comp = s.components[0][1]
        assert (comp.w_costly, comp.w_cheap) == (0.0, 0.0)


# every sampler kind: curve mixtures (the two-type ones with several
# breakpoints per curve), atoms, a quality CDF, a curve with an atom and a
# zero-weight component
STRATEGY_BUILDS = [
    *(pytest.param(EQUILIBRIA[name].strategy, id=name) for name in (
        "well_separated_N2", "well_separated_N3", "well_separated_N4",
        "well_separated_N5", "two_type_case1", "two_type_case2", "two_type_case3",
        "random_two_atoms", "investment_atom")),
    pytest.param(EQUILIBRIA["homogeneous_atom_P3"].strategy, id="homogeneous_P3_atom"),
    pytest.param(lambda: MixedStrategy(((0.5, AtomComponent(0.1, 0.0)),
                                        (0.0, AtomComponent(0.2, 0.0)),
                                        (0.5, AtomComponent(0.3, 0.0))), "zero weight"),
                 id="zero_weight_component"),
]


class TestStrategyMechanics:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixedStrategy(((0.5, AtomComponent(0.0, 0.0)),), "bad")

    def test_point_mass_sampling(self):
        s = MixedStrategy(((1.0, AtomComponent(0.25, 0.5)),), "pm")
        assert s.sample(np.random.default_rng(0), 1).tolist() == [[0.25, 0.5]]

    def test_homogeneous_empirical_mean(self):
        s = engagement_eq_homogeneous(linear(0.0), 2)
        pts = s.sample(np.random.default_rng(14), 100000)
        assert abs(pts[:, 1].mean() - 0.5) <= 0.005

    def test_cdf_limits(self):
        s = engagement_eq_homogeneous(linear(0.5, 0.2), 2)
        assert cheap_marginal_cdf(s, 1e9) == pytest.approx(1.0)
        assert cheap_marginal_cdf(s, -1e-9) == 0.0

    def test_marginal_cdfs_monotone_everywhere(self):
        grid = np.linspace(-1.0, 10.0, 1000)
        for name in ("homogeneous_atom_half", "two_type_case3", "well_separated_N4",
                     "investment_atom", "random_two_atoms"):
            s = EQUILIBRIA[name].strategy()
            vals = np.asarray(cheap_marginal_cdf(s, grid))
            assert np.all(np.diff(vals) >= -1e-12), s.descriptor
            assert vals[-1] == pytest.approx(1.0)

    def test_sampling_deterministic_per_seed(self):
        s = EQUILIBRIA["two_type_case2"].strategy()
        a = s.sample(np.random.default_rng(123), 500)
        b = s.sample(np.random.default_rng(123), 500)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("build", STRATEGY_BUILDS)
    @pytest.mark.parametrize("n", [0, 1, 7, 5000])
    def test_sample_bytes_equal_mask_oracle(self, build, n):
        s = build()
        for seed in (0, 1):
            got = s.sample(np.random.default_rng(seed), n)
            want = mask_mixture_sample(s, np.random.default_rng(seed), n)
            assert got.shape == (n, 2)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("build", STRATEGY_BUILDS)
    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
        np.random.SFC64], ids=lambda bg: bg.__name__)
    @pytest.mark.parametrize("n", [0, 1, 7, 5000])
    def test_sample_draws_only_the_rows_it_reads(self, build, bit_generator, n):
        # the oracle draws its k rows as one rng.random((k, n)) block; sample
        # must end in the same state, the one rng.random(k * n) leaves, so
        # the stream's length depends on the strategy alone; also with the
        # 32-bit half a small integers draw leaves pending (MT19937 makes
        # 32-bit outputs and keeps none)
        s = build()
        got, want, flat = (np.random.Generator(bit_generator(11)) for _ in range(3))
        for rng in (got, want, flat):
            rng.integers(0, 3, size=1)
        assert got.bit_generator.state.get("has_uint32", 1) == 1
        drawn = s.sample(got, n)
        assert drawn.tobytes() == mask_mixture_sample(s, want, n).tobytes()
        k = (len(s.components) > 1) + any(comp.reads for _, comp in s.components)
        flat.random(k * n)
        assert same_state(got.bit_generator.state, want.bit_generator.state)
        assert same_state(got.bit_generator.state, flat.bit_generator.state)
        assert got.integers(0, 3, size=5).tolist() == want.integers(0, 3, size=5).tolist()
        assert got.random(3).tobytes() == want.random(3).tobytes()

    def test_component_choice_at_cumulative_weights(self):
        # selection uniforms on, just below and just above each cumulative
        # weight, and past a total that rounds short of 1
        class Fixed:
            # hands out successive rows of u, as many as size asks for
            def __init__(self, u):
                self.u, self.next = u, 0

            def random(self, size):
                k = np.prod(size) // self.u.shape[1]
                rows = self.u[self.next:self.next + k]
                self.next += k
                return rows.reshape(size)

        weights = (0.25, 0.0, 0.5, 0.25 - 1e-13)
        s = MixedStrategy(tuple((w, AtomComponent(float(k), 0.0))
                                for k, w in enumerate(weights)), "edges")
        cum = np.cumsum(weights)
        u_sel = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
                                [0.0, 1.0 - 1e-14]])
        u = u_sel[np.newaxis]  # atoms read no main row
        got = s.sample(Fixed(u), u_sel.size)
        assert got.tobytes() == mask_mixture_sample(s, Fixed(u), u_sel.size).tobytes()
        assert got[-1, 0] == 3.0

    def test_serialization_roundtrips_through_json(self):
        for entry in (EQUILIBRIA["homogeneous_atom_half"], EQUILIBRIA["two_type_case2"],
                      EQUILIBRIA["investment_P2"],
                      EQUILIBRIA["random_two_atoms"]._replace(P=3)):
            s = entry.strategy()
            payload = json.loads(json.dumps(s.to_dict()))
            assert payload["descriptor"] == s.descriptor
            assert abs(sum(c["weight"] for c in payload["components"]) - 1.0) < 1e-12


class TestTwoTypeDensityTables:
    def intervals(self, ratio):
        inst = two_type(ratio)
        _, intervals = _two_type_intervals(inst)
        a1 = 1.0 / (1.0 + inst.types[0])
        a2 = 1.0 / (1.0 + inst.types[1])
        return intervals, a1, a2

    def test_case1_low_type_segment(self):
        (seg1, seg2), a1, a2 = self.intervals(2.0)
        assert seg1 == pytest.approx((1 / a1, 1.5 / a1, a1, 1.0))
        assert seg2 == pytest.approx((1 / a2, 1.25 / a2, 2 * a2, 0.0))

    def test_case2_segments(self):
        (seg1, seg2, seg3), a1, a2 = self.intervals(1.45)
        r = a1 / a2
        assert seg1 == pytest.approx((1 / a1, 1 / a2, a1, 1.0))
        assert seg2 == pytest.approx((1 / a2, 1 / (2 * a2 * (r - 1)), 2 * a2, r - 1))
        assert seg3 == pytest.approx((1 / (2 * a2 * (r - 1)), (2 - r / 2) / a2,
                                      2 * a2, 0.0))

    def test_case3_segments(self):
        (seg1, seg2, seg3), a1, a2 = self.intervals(1.2)
        r = a1 / a2
        mid = (3 - r) / (2 * a2 * (2 - r))
        top = 1 / a1 + (1 / a1 - 1 / (2 * a2)) * (3 - r) / (2 - r)
        assert seg1 == pytest.approx((1 / a1, 1 / a2, a1, 1.0))
        assert seg2 == pytest.approx((1 / a2, mid, 2 * a2, r - 1))
        assert seg3 == pytest.approx((mid, top, a1, 1.0))

    def test_exact_type_marginal_from_intervals(self):
        for ratio in (1.45, 1.2):
            ivs, _, _ = self.intervals(ratio)
            p_low = sum(d * (hi - lo) * p for lo, hi, d, p in ivs)
            assert p_low == pytest.approx(2.0 - ratio, abs=1e-12)


class TestCaseBoundaryRobustness:
    @pytest.mark.parametrize("ratio", [
        1.0 + 1e-7,
        (5 - math.sqrt(5)) / 2,     # case 2/3 boundary
        1.5 - 1e-7, 1.5, 1.5 + 1e-7,
        50.0,
    ])
    def test_construction_and_sampling_at_boundaries(self, ratio):
        inst = two_type(ratio)
        s = engagement_eq_two_types(inst)
        pts = s.sample(np.random.default_rng(0), 2000)
        assert support_containment(pts, inst, 1e-9) == []
        grid = np.linspace(0.0, 300.0, 200)
        cdf = np.asarray(cheap_marginal_cdf(s, grid))
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0)


class TestFiniteNEngagementCdf:
    def finite_cdf(self, N, eps):
        # uniform-conditional mixture built from the type formulas alone
        np_ = n_prime(N)
        weights = well_separated_weights(N)
        lows = [(1.0 + eps) * (1.0 + 1.0 / N) ** i for i in range(np_)]
        highs = []
        for i in range(np_):
            if i < np_ - 1:
                highs.append(lows[i] * (1.0 + 1.0 / N))
            else:
                residual = weights[-1]
                highs.append(lows[i] * (1.0 + (N - np_ + 1) / N * residual))

        def cdf(v):
            v = np.asarray(v, dtype=float)
            acc = np.zeros_like(v)
            for w, lo, hi in zip(weights, lows, highs):
                acc = acc + w * np.clip((v - lo) / (hi - lo), 0.0, 1.0)
            return acc

        return cdf

    @pytest.mark.parametrize("N", [2, 8, 64])
    def test_sampled_engagement_matches_uniform_mixture(self, N):
        inst = well_separated(N)
        s = engagement_eq_well_separated(inst)
        pts = s.sample(np.random.default_rng(40 + N), 100000)
        shifted = np.asarray(inst.engagement(pts[:, 0], pts[:, 1])) + 1.0
        assert ks_distance(shifted, self.finite_cdf(N, 0.01)) <= 0.01


@st.composite
def piecewise_cdfs(draw):
    """CDFs with an atom at xs[0] (ys[0] > 0) or not, flat gaps (zero-mass
    segments), exponents other than 1, and breakpoints that round."""
    k = draw(st.integers(1, 6))
    widths = draw(st.lists(st.sampled_from([0.1, 0.25, 0.3, 1.0, 1.7]),
                           min_size=k, max_size=k))
    masses = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0]),
                           min_size=k + 1, max_size=k + 1))
    if sum(masses[1:]) == 0.0:
        masses[-1] = 1.0
    xs = draw(st.sampled_from([-0.5, 0.0, 0.3])) + np.cumsum([0.0] + widths)
    ys = np.cumsum(masses) / sum(masses)
    ys[-1] = 1.0
    return PiecewiseLinearCdf(xs, ys, draw(st.sampled_from([1.0, 0.5, 1 / 3, 0.25, 2.0])))


class TestPiecewiseLinearCdf:
    @settings(max_examples=500, deadline=None)
    @given(cdf=piecewise_cdfs(), qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_ppf_is_monotone_generalised_inverse(self, cdf, qs):
        q = np.sort(qs)
        x = cdf.ppf(q)
        assert np.all(np.diff(x) >= 0.0)
        # F(ppf(q)) >= q, up to rounding of ppf(q) itself
        assert np.all(piecewise_cdf(cdf, x + 1e-12 * np.maximum(1.0, np.abs(x))) >= q)

    @settings(max_examples=500, deadline=None)
    @given(cdf=piecewise_cdfs())
    def test_ppf_lands_on_left_end_of_flat_gaps_and_atom(self, cdf):
        for level in np.unique(cdf.ys):
            first = int(np.nonzero(cdf.ys == level)[0][0])
            q = piecewise_cdf(cdf, cdf.xs[first:first + 1])
            assert cdf.ppf(q)[0] == pytest.approx(cdf.xs[first], rel=1e-12, abs=1e-12)
        atom = piecewise_cdf(cdf, cdf.xs[:1])[0]
        assert np.all(cdf.ppf(np.linspace(0.0, atom, 7)) == cdf.xs[0])

    @settings(max_examples=300, deadline=None)
    @given(cdf=piecewise_cdfs(), qs=st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_segments_and_ppf_match_searchsorted(self, cdf, qs):
        levels = cdf.ys if cdf.exponent == 1.0 else cdf.ys ** cdf.exponent
        on_levels = np.concatenate([levels, np.nextafter(levels, 0.0),
                                    np.nextafter(levels, 2.0), cdf.ys, [0.0, 1.0]])
        q = np.concatenate([qs, on_levels[(on_levels >= 0.0) & (on_levels <= 1.0)]])
        want = np.minimum(np.searchsorted(levels, q, side="left"), len(cdf.xs) - 1)
        assert np.array_equal(cdf._segments(q), want)
        assert np.array_equal(cdf._segments(q[:, None]), want[:, None])
        assert cdf._segments(np.asarray(q[0])).shape == ()
        assert cdf._segments(np.asarray(q[0])) == want[0]
        q = np.append(q, np.nan)
        assert cdf.ppf(q).tobytes() == searchsorted_ppf(cdf, q).tobytes()
        grid = q[: q.size // 2 * 2].reshape(2, -1)
        assert cdf.ppf(grid).shape == grid.shape
        assert cdf.ppf(grid).tobytes() == searchsorted_ppf(cdf, grid).tobytes()
        for scalar in (0.0, 1.0, float(q[0])):
            assert repr(cdf.ppf(scalar)) == repr(searchsorted_ppf(cdf, scalar))

    @staticmethod
    def ppf_matches_oracle(cdf, q):
        """ppf(q), after checking its bytes against the binary-search oracle
        with overflow and invalid operations raised, not warned."""
        want = searchsorted_ppf(cdf, q)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = cdf.ppf(q)
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize("exponent", [1.0, 0.5, 2.0])
    def test_ppf_subnormal_rise(self, exponent):
        # a segment that rises by the smallest subnormal: dividing any key
        # outside it by that rise overflows, and inf * 0 would then be NaN
        tiny = 5e-324
        cdf = PiecewiseLinearCdf([0.0, 1.0, 3.0], [0.0, tiny, 1.0], exponent)
        levels = cdf.ys ** exponent
        q = np.concatenate([[0.0, tiny, 2 * tiny, 1e-300, 1e-10, 0.5, 1.0],
                            levels, np.nextafter(levels, 1.0)])
        x = self.ppf_matches_oracle(cdf, q)
        assert np.all(np.isfinite(x))
        assert cdf.ppf(1.0) == 3.0

    def test_ppf_negative_breakpoints_and_signed_zero(self):
        cdfs = [
            PiecewiseLinearCdf([-0.0, 1.0], [0.3, 1.0]),  # an atom at -0.0
            # a flat stretch from -1 to -0.0, then a rise
            PiecewiseLinearCdf([-2.0, -1.0, -0.0, 1.5], [0.0, 0.4, 0.4, 1.0]),
            PiecewiseLinearCdf([-3.0, -0.0, 0.0, 2.0], [0.1, 0.5, 0.7, 1.0], 0.5),
            # -0.0 after +0.0 passes the nondecreasing check
            PiecewiseLinearCdf([0.0, -0.0, 1.0], [0.5, 0.6, 1.0]),
            PiecewiseLinearCdf([-4.0, -1.0], [0.25, 1.0], 2.0),
        ]
        for cdf in cdfs:
            levels = cdf.ys ** cdf.exponent
            q = np.concatenate([[0.0, -0.0, 0.05, 0.2, 0.45, 0.55, 0.9, 1.0],
                                levels, np.nextafter(levels, 0.0),
                                np.nextafter(levels, 1.0)])
            self.ppf_matches_oracle(cdf, q[(q >= 0.0) & (q <= 1.0)])
        atom = cdfs[0]
        # the atom's keys keep the support start's sign
        assert np.all(np.signbit(atom.ppf(np.array([0.0, 0.1, 0.3]))))
        assert math.copysign(1.0, atom.ppf(0.2)) == -1.0
        assert atom.ppf(0.65) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("exponent", [1.0, 0.5])
    def test_ppf_nan_stays_nan(self, exponent):
        cdf = PiecewiseLinearCdf([0.0, 1.0, 1.0, 2.0], [0.2, 0.5, 0.6, 1.0], exponent)
        x = self.ppf_matches_oracle(cdf, np.array([np.nan, 0.3, np.nan, 1.0]))
        assert np.isnan(x[[0, 2]]).all() and np.isfinite(x[[1, 3]]).all()
        assert math.isnan(cdf.ppf(math.nan))

    @pytest.mark.parametrize("exponent", [1.0, 0.5, 1 / 3])
    def test_ppf_on_each_level(self, exponent):
        # an atom at 0.5, a rise, a gap from 1 to 2 and a last rise: a key
        # exactly on F at a breakpoint takes that segment's right end, or
        # the left end of the gap that starts there
        cdf = PiecewiseLinearCdf([0.5, 1.0, 2.0, 3.0], [0.2, 0.6, 0.6, 1.0], exponent)
        levels = piecewise_cdf(cdf, cdf.xs)
        x = self.ppf_matches_oracle(cdf, levels)
        assert x.tolist() == [0.5, 1.0, 1.0, 3.0]
        assert np.all(piecewise_cdf(cdf, x) >= levels)

    def test_tiny_quantile_skips_leading_zero_stretch(self):
        # q ** 2 underflows to 0, which must not map into the zero-mass [0, 0.1]
        cdf = PiecewiseLinearCdf(np.array([0.0, 0.1, 0.2]), np.array([0.0, 0.0, 1.0]), 0.5)
        assert cdf.ppf(1e-300) == 0.1
        assert cdf.ppf(0.0) == 0.0
