"""Each argument check of the package raises its own error with its own
message: one row per check that no other test reaches."""

import re

import numpy as np
import pytest

from creatorsim.equilibrium import (
    AtomComponent,
    MixedStrategy,
    engagement_eq_homogeneous,
    investment_eq,
    make_well_separated_types,
    n_prime,
    random_eq,
    stay_in_probability,
)
from creatorsim.metrics import (
    expected_max_from_cdf,
    homogeneous_quality_cdf,
    ks_distance,
    limit_engagement_cdf,
)
from creatorsim.model import KMR, ModelInstance, TypeSpace
from creatorsim.verify import (
    candidate_deviations,
    check_positive_correlation,
    support_containment,
)
from creatorsim._piecewise import PiecewiseLinearCdf, clipped_linear_cdf
from creatorsim._stats import RunningMoments
from catalogue import linear

ONE = linear(1.0)
ATOM = AtomComponent(0.0, 0.0)
SAMPLES = "samples must be an (n, 2) array of (quality, gaming)"

# (call, exception, the whole message)
CHECKS = {
    "cdf_shape": (lambda: PiecewiseLinearCdf([0.0, 1.0], [1.0]), ValueError,
                  "xs and ys must be equal-length 1-d arrays"),
    "cdf_order": (lambda: PiecewiseLinearCdf([1.0, 0.0], [0.0, 1.0]), ValueError,
                  "breakpoints must be nondecreasing"),
    "cdf_top": (lambda: PiecewiseLinearCdf([0.0, 1.0], [0.0, 0.5]), ValueError,
                "base must reach 1 at the last breakpoint"),
    "cdf_sign": (lambda: PiecewiseLinearCdf([0.0, 1.0], [-0.5, 1.0]), ValueError,
                 "base must be nonnegative"),
    "cdf_exponent": (lambda: PiecewiseLinearCdf([0.0, 1.0], [0.0, 1.0], 0.0),
                     ValueError, "exponent must be positive"),
    "clipped_scale": (lambda: clipped_linear_cdf([0.0, 1.0], [0.0, 0.5], 1.0, 0.0),
                      ValueError, "scale must be positive"),
    "clipped_no_top": (lambda: clipped_linear_cdf([0.0, 1.0], [0.0, 0.5], 0.0, 1.0),
                       ValueError, "cdf never reaches 1"),
    "moments_empty": (lambda: RunningMoments().estimate(), ValueError,
                      "no samples accumulated"),
    "weights_sign": (lambda: MixedStrategy(((-0.5, ATOM), (1.5, ATOM)), "x"),
                     ValueError, "component weights must be nonnegative"),
    "homogeneous_P": (lambda: engagement_eq_homogeneous(ONE, 1), ValueError,
                      "P must be >= 2"),
    "n_prime_N": (lambda: n_prime(0), ValueError, "N must be >= 1"),
    "separated_N": (lambda: make_well_separated_types(0, 0.1), ValueError,
                    "N must be >= 1"),
    "separated_eps": (lambda: make_well_separated_types(2, 0.0), ValueError,
                      "eps must be > 0"),
    "investment_P": (lambda: investment_eq(ONE, 1), ValueError, "P must be >= 2"),
    "stay_in_P": (lambda: stay_in_probability(0.5, 1), ValueError,
                  "P must be >= 2"),
    "stay_in_kappa": (lambda: stay_in_probability(1.5, 2), ValueError,
                      "kappa must be in [0, 1]"),
    "random_P": (lambda: random_eq(ONE, 1), ValueError, "P must be >= 2"),
    "limit_eps": (lambda: limit_engagement_cdf(1.0, -0.1), ValueError,
                  "eps must be >= 0"),
    "max_P": (lambda: expected_max_from_cdf(lambda v: v, 0, 1.0), ValueError,
              "P must be >= 1"),
    "max_upper": (lambda: expected_max_from_cdf(lambda v: v, 2, 0.0), ValueError,
                  "upper must be positive"),
    "closed_alpha": (lambda: homogeneous_quality_cdf(-1.0, 0.0, 1.0, 2),
                     ValueError, "alpha must be > -1"),
    "closed_gamma": (lambda: homogeneous_quality_cdf(1.0, 1.0, 1.0, 2),
                     ValueError, "gamma must be in [0, 1)"),
    "closed_P": (lambda: homogeneous_quality_cdf(1.0, 0.0, 1.0, 1), ValueError,
                 "P must be >= 2"),
    "ks_empty": (lambda: ks_distance([], lambda v: v), ValueError,
                 "samples must be nonempty"),
    "config_object": (lambda: ModelInstance.from_config([]), ValueError,
                      "model config must be a JSON object"),
    # the curve reaches cost 1.2 at gaming 2.2 t, past the largest float
    "curve_overflow": (lambda: ModelInstance(KMR(1.0), TypeSpace((2.0 ** 1023,))),
                       ValueError,
                       "a type's curve passes the largest float below cost 1.2"),
    "grid_k": (lambda: candidate_deviations(ONE, 1), ValueError,
               "grid_k must be >= 2"),
    "correlation_shape": (lambda: check_positive_correlation(np.zeros(3), 0.0),
                          ValueError, SAMPLES),
    "containment_shape": (lambda: support_containment(np.zeros((3, 3)), ONE, 0.0),
                          ValueError, SAMPLES),
}


@pytest.mark.parametrize("name", CHECKS)
def test_check_raises_its_message(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
