import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from creatorsim import (
    KMR,
    Content,
    LinearTwitter,
    ModelInstance,
    TypeSpace,
    check_assumptions,
)
from oracles import grid_min_induced_cost


def linear(alpha, gamma=0.0, types=(1.0,)):
    return ModelInstance(LinearTwitter(alpha, gamma), TypeSpace.of(types))


def kmr(W=1.0, gamma=0.0, types=(1.0,)):
    return ModelInstance(KMR(W, gamma), TypeSpace.of(types))


class TestDomainTypes:
    def test_content_rejects_negative_and_nonfinite(self):
        Content(0.0, 0.0)
        with pytest.raises(ValueError):
            Content(-0.1, 0.0)
        with pytest.raises(ValueError):
            Content(0.0, float("inf"))

    def test_type_space_validation(self):
        TypeSpace.of([0.5, 1.0])
        with pytest.raises(ValueError):
            TypeSpace.of([])
        with pytest.raises(ValueError):
            TypeSpace.of([1.0, 1.0])
        with pytest.raises(ValueError):
            TypeSpace.of([2.0, 1.0])
        with pytest.raises(ValueError):
            TypeSpace.of([-1.0, 1.0])

    def test_builtin_families_need_positive_types(self):
        with pytest.raises(ValueError):
            linear(1.0, types=(0.0, 1.0))

    def test_family_parameter_ranges(self):
        with pytest.raises(ValueError):
            LinearTwitter(alpha=-1.0)
        with pytest.raises(ValueError):
            LinearTwitter(alpha=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            KMR(W=0.0)
        with pytest.raises(ValueError, match="alpha must be finite"):
            LinearTwitter(alpha=float("inf"))
        with pytest.raises(ValueError, match="W must be finite"):
            KMR(W=float("inf"))

    def test_cost_zero_at_origin_exactly(self):
        assert linear(0.3, 0.7).cost(0.0, 0.0) == 0.0
        assert kmr(2.0, 0.5).cost(0.0, 0.0) == 0.0


class TestMinInvestment:
    def test_linear_example(self):
        assert linear(1.0, types=(2.0,)).min_investment(2.0, 4.0) == pytest.approx(1.0)

    def test_no_gaming_needs_no_offset(self):
        assert linear(1.0).min_investment(1.0, 0.0) == 0.0

    def test_kmr_example(self):
        assert kmr(1.0).min_investment(1.0, 3.0) == pytest.approx(2.0)

    def test_weakly_increasing_in_gaming(self):
        rng = np.random.default_rng(7)
        for inst in (linear(1.0, 0.1), linear(-0.5, 0.4), kmr(2.0, 0.2)):
            for t in inst.types:
                a = rng.uniform(0.0, 10.0, size=500)
                b = a + rng.uniform(0.0, 5.0, size=500)
                fa = np.asarray(inst.min_investment(t, a))
                fb = np.asarray(inst.min_investment(t, b))
                assert np.all(fb >= fa - 1e-12)

    def test_curve_engagement_strictly_increasing(self):
        rng = np.random.default_rng(8)
        for inst in (linear(0.5, 0.0), linear(-0.2, 0.3), kmr(1.0, 0.0)):
            x = np.sort(rng.uniform(0.0, 12.0, size=400))
            e = np.asarray(inst.curve_engagement(1.0, x))
            assert np.all(np.diff(e) > 0)


class TestCurveCost:
    def test_costly_gaming_above_kink(self):
        assert linear(1.0, 0.1).curve_cost(1.0, 2.0) == pytest.approx(1.2)

    def test_costly_gaming_below_kink(self):
        assert linear(1.0, 0.1).curve_cost(1.0, 0.5) == pytest.approx(0.05)

    def test_costless_gaming_zero_branch(self):
        assert linear(1.0, 0.0).curve_cost(1.0, 0.5) == 0.0

    def test_nondecreasing(self):
        x = np.linspace(0.0, 10.0, 300)
        for inst in (linear(1.0, 0.2), linear(-0.5, 0.0), kmr(1.0, 0.3)):
            c = np.asarray(inst.curve_cost(1.0, x))
            assert np.all(np.diff(c) >= -1e-12)

    def test_polyline_matches_pointwise(self):
        for inst in (linear(1.0, 0.25), linear(-0.4, 0.0), kmr(3.0, 0.5)):
            t = inst.types[0]
            xs, ys, tail = inst.curve_cost_polyline(t)
            probe = np.linspace(0.0, float(xs[-1]) + 4.0, 101)
            interp = np.interp(probe, xs, ys)
            beyond = probe > xs[-1]
            interp[beyond] = ys[-1] + tail * (probe[beyond] - xs[-1])
            direct = np.asarray(inst.curve_cost(t, probe))
            assert np.allclose(interp, direct, atol=1e-12)


def induced_cost(inst, t, m):
    """Cheapest cost of engagement ``m`` for type t: the curve cost at the
    gaming level whose curve engagement is ``m``."""
    return float(inst.curve_cost(t, inst.curve_x_for_engagement(t, m)))


class TestInducedCost:
    def test_linear_example(self):
        assert induced_cost(linear(1.0, 0.0), 1.0, 2.0) == pytest.approx(0.5, abs=1e-9)

    def test_below_floor_costs_nothing(self):
        assert induced_cost(linear(1.0, 0.0), 1.0, 0.5) == 0.0

    def test_clamps_to_curve_minimum_cost(self):
        inst = linear(-0.5, 0.0)
        assert induced_cost(inst, 1.0, -3.0) == pytest.approx(0.5)

    def test_kmr_example_against_grid_oracle(self):
        inst = kmr(1.0, 0.0, types=(3.0,))
        got = induced_cost(inst, 3.0, 6.0)
        oracle = grid_min_induced_cost(inst, 3.0, 6.0)
        assert got == pytest.approx(0.5, abs=1e-6)
        assert got == pytest.approx(oracle, abs=1e-5)

    def test_matches_linear_form_on_random_inputs(self):
        rng = np.random.default_rng(11)
        cases = [
            linear(1.0, 0.0, types=(0.3, 1.0, 4.0)),
            kmr(2.5, 0.0, types=(0.2, 1.7)),
        ]
        for inst in cases:
            params = inst.linearity_params()
            assert params is not None
            for _ in range(1000 // len(cases)):
                t = float(rng.choice(inst.types))
                m = float(rng.uniform(-1.0, 30.0))
                a_t = float(params.coefficient(t))
                expected = max(0.0, a_t * (m + params.shift) - 1.0)
                assert induced_cost(inst, t, m) == pytest.approx(expected, abs=1e-9)


def _curve_families():
    gammas = st.one_of(st.just(0.0), st.floats(0.0, 0.95))
    return st.one_of(
        st.builds(LinearTwitter, st.floats(-0.95, 5.0), gammas),
        st.builds(KMR, st.floats(0.01, 10.0), gammas))


class TestCurveInverse:
    """curve_x_for_engagement and curve_x_for_cost invert the polylines."""

    @settings(max_examples=300, deadline=None)
    @given(family=_curve_families(), t=st.floats(0.05, 20.0),
           above=st.floats(0.0, 50.0), below=st.floats(0.0, 50.0))
    def test_engagement_round_trip(self, family, t, above, below):
        inst = ModelInstance(family, TypeSpace.of([t]))
        floor = inst.engagement_floor(t)
        x = inst.curve_x_for_engagement(t, floor + above)
        assert x >= 0.0
        assert float(inst.curve_engagement(t, x)) == pytest.approx(
            floor + above, rel=1e-9, abs=1e-9)
        assert inst.curve_x_for_engagement(t, floor - below) == 0.0
        both = inst.curve_x_for_engagement(t, np.array([floor - below, floor + above]))
        assert both.tolist() == [0.0, x]

    @settings(max_examples=300, deadline=None)
    @given(family=_curve_families(), t=st.floats(0.05, 20.0),
           above=st.floats(0.0, 50.0), below=st.floats(0.0, 50.0))
    def test_cost_round_trip(self, family, t, above, below):
        inst = ModelInstance(family, TypeSpace.of([t]))
        start = float(inst.curve_cost(t, 0.0))
        x = inst.curve_x_for_cost(t, start + above)
        assert x >= 0.0
        assert float(inst.curve_cost(t, x)) == pytest.approx(
            start + above, rel=1e-9, abs=1e-9)
        # at or below the curve start the inverse is the origin, also where
        # the cost is flat at zero over the zero-quality stretch
        assert inst.curve_x_for_cost(t, start - below) == 0.0

    def test_cost_inverse_on_a_subnormal_rise(self):
        # gamma * delta is subnormal, so np.interp's slope dx/dy overflows
        gamma = 2.225073858507203e-309
        inst = ModelInstance(LinearTwitter(1.0, gamma), TypeSpace.of([2.0]))
        x = inst.curve_x_for_cost(2.0, gamma)
        assert x == 1.0
        assert float(inst.curve_cost(2.0, x)) == gamma

    @pytest.mark.parametrize("inst, t, m", [
        (linear(0.6, 0.3, types=(1.5,)), 1.5, 0.5),  # inside the zero-quality stretch
        (linear(0.6, 0.3, types=(1.5,)), 1.5, 2.5),
        (linear(-0.4, 0.5, types=(0.8,)), 0.8, 3.0),
        (kmr(2.0, 0.25, types=(1.2,)), 1.2, 4.0),
    ])
    def test_induced_cost_with_costly_gaming_against_grid_oracle(self, inst, t, m):
        got = induced_cost(inst, t, m)
        oracle = grid_min_induced_cost(inst, t, m)
        # the grid step is 2.5e-5 and the curve cost rises at most gamma + 1/t
        step_cost = (inst.family.gamma + 1.0 / t) * 2.5e-5
        assert got - 1e-12 <= oracle <= got + step_cost


class TestLinearityParams:
    def test_linear_unit_baseline(self):
        params = linear(1.0, 0.0).linearity_params()
        assert params is not None
        assert params.coefficient(1.0) == pytest.approx(0.5)
        assert params.shift == 1.0

    def test_kmr(self):
        params = kmr(1.0, 0.0).linearity_params()
        assert params is not None
        assert params.coefficient(1.0) == pytest.approx(0.5)
        assert params.shift == 0.0

    def test_costly_gaming_has_none(self):
        assert linear(1.0, 0.3).linearity_params() is None

    def test_other_baselines_have_none(self):
        assert linear(0.5, 0.0).linearity_params() is None


class TestBeta:
    def test_negative_baseline(self):
        assert linear(-0.5, types=(0.7,)).beta(0.7) == pytest.approx(0.5)

    def test_positive_baseline(self):
        assert linear(1.0).beta(1.0) == 0.0

    def test_kmr_always_zero(self):
        assert kmr(2.0, types=(0.7,)).beta(0.7) == 0.0


class TestReparam:
    """Reparameterized engagement v = M^E + s maps to the type-t curve at
    gaming ``curve_x_for_engagement(t, v - s)``."""

    @staticmethod
    def on_curve(inst, v, t):
        x = float(inst.curve_x_for_engagement(t, v - inst.linearity_params().shift))
        return float(inst.min_investment(t, x)), x

    def test_on_curve_point(self):
        q, x = self.on_curve(linear(1.0, 0.0), 3.0, 1.0)
        assert (q, x) == (pytest.approx(0.5, abs=1e-9), pytest.approx(1.5, abs=1e-9))

    def test_zero_cost_curve_start(self):
        q, x = self.on_curve(linear(1.0, 0.0), 2.0, 1.0)
        assert (q, x) == (pytest.approx(0.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))

    def test_kmr_origin(self):
        q, x = self.on_curve(kmr(1.0, 0.0), 1.0, 1.0)
        assert (q, x) == (pytest.approx(0.0, abs=1e-9), pytest.approx(0.0, abs=1e-9))

    def test_zero_utility_when_invested(self):
        rng = np.random.default_rng(12)
        for inst in (linear(1.0, 0.0, types=(0.5, 2.0)), kmr(1.5, 0.0, types=(0.8,))):
            shift = inst.linearity_params().shift
            for _ in range(200):
                t = float(rng.choice(inst.types))
                v = float(rng.uniform(1.0 / (1.0 / (1.0 + t)), 8.0))
                q, x = self.on_curve(inst, v, t)
                if q > 0.0:
                    u = float(inst.utility(q, x, t))
                    assert abs(u) <= 1e-9
                assert float(inst.engagement(q, x)) == pytest.approx(v - shift, abs=1e-9)


class TestTypeMonotonicity:
    def test_grid_adjacent_pairs(self):
        for inst in (linear(0.4, 0.2, types=(0.5, 1.0, 3.0)),
                     kmr(1.0, 0.0, types=(0.2, 0.9, 2.0))):
            g = np.linspace(0.0, 5.0, 40)
            q, x = np.meshgrid(g, g, indexing="ij")
            for t_lo, t_hi in zip(inst.types, inst.types[1:]):
                u_lo = np.asarray(inst.utility(q, x, t_lo))
                u_hi = np.asarray(inst.utility(q, x, t_hi))
                assert np.all(u_hi[u_lo >= 0.0] >= -1e-12)


class _EquallyCostlyGaming(LinearTwitter):
    """Hypothetical family where gaming costs as much as quality."""

    def cost(self, w_costly, w_cheap):
        return w_costly + 1.0 * w_cheap


class TestCheckAssumptions:
    def test_linear_passes(self):
        report = check_assumptions(linear(1.0, 0.5), grid_n=50, span=5.0)
        assert report.all_passed, [c.name for c in report.checks if not c.passed]

    def test_kmr_passes(self):
        report = check_assumptions(kmr(1.0, 0.0))
        assert report.all_passed, [c.name for c in report.checks if not c.passed]

    def test_gaming_as_costly_as_quality_fails_cost_effectiveness(self):
        fam = _EquallyCostlyGaming(alpha=1.0, gamma=0.0)
        inst = ModelInstance(fam, TypeSpace.of([1.0]))
        report = check_assumptions(inst, grid_n=20, span=3.0)
        failed = {c.name for c in report.checks if not c.passed}
        assert "gaming_more_cost_effective" in failed

    def test_report_serializes(self):
        import json
        report = check_assumptions(linear(0.2, 0.1), grid_n=10, span=2.0)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["all_passed"] is True
        assert len(payload["checks"]) >= 8


class TestFromConfig:
    def test_linear_roundtrip(self):
        inst = ModelInstance.from_config(
            {"family": "linear", "alpha": 1, "gamma": 0, "types": [1, 2]})
        assert isinstance(inst.family, LinearTwitter)
        assert inst.types == (1.0, 2.0)

    def test_kmr_roundtrip(self):
        inst = ModelInstance.from_config(
            {"family": "kmr", "W": 2, "gamma": 0.1, "types": [0.5]})
        assert isinstance(inst.family, KMR)

    def test_missing_types(self):
        with pytest.raises(ValueError, match="types"):
            ModelInstance.from_config({"family": "linear", "alpha": 1})

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            ModelInstance.from_config({"family": "clicks", "types": [1]})

    def test_gamma_one_rejected(self):
        with pytest.raises(ValueError):
            ModelInstance.from_config(
                {"family": "linear", "alpha": 1, "gamma": 1.0, "types": [1]})
