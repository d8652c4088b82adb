"""Creator-competition simulator under engagement-based recommendation."""

# numpy loads numpy.random lazily, on first use; every Monte Carlo command
# draws from it, so it is loaded with the package instead of mid-command.
import numpy.random  # noqa: F401

from ._stats import MetricEstimate
from .model import (
    KMR,
    LinearTwitter,
    ModelInstance,
    TypeSpace,
    check_assumptions,
)
from .equilibrium import (
    MixedStrategy,
    engagement_eq_homogeneous,
    engagement_eq_two_types,
    engagement_eq_well_separated,
    investment_eq,
    make_well_separated_types,
    n_prime,
    random_eq,
)
from .game import Metric, simulate_rounds
from .metrics import (
    closed_form_ucq_homogeneous,
    estimate_re,
    estimate_ucq,
    estimate_uw,
    expected_max_from_cdf,
    ks_distance,
    limit_engagement_cdf,
)
from .verify import (
    BestResponseReport,
    best_response_gap,
    candidate_deviations,
    check_positive_correlation,
    support_containment,
)

__all__ = [
    "BestResponseReport", "KMR", "LinearTwitter",
    "MetricEstimate", "Metric", "MixedStrategy",
    "ModelInstance", "TypeSpace", "best_response_gap",
    "candidate_deviations", "check_assumptions", "check_positive_correlation",
    "closed_form_ucq_homogeneous", "engagement_eq_homogeneous",
    "engagement_eq_two_types", "engagement_eq_well_separated",
    "estimate_re", "estimate_ucq", "estimate_uw",
    "expected_max_from_cdf", "investment_eq",
    "ks_distance", "limit_engagement_cdf", "make_well_separated_types",
    "n_prime", "random_eq", "simulate_rounds",
    "support_containment",
]

__version__ = "0.1.0"
