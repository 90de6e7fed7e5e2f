"""cloudprobe: periodic-probe availability measurement with bounded retries.

Simulates alternating up/outage timelines, samples them on a slot/retry probe
schedule (or probes a live HTTP target the same way), and quantifies what the
methodology does to the numbers: retry inflation of availability estimates,
censoring of short outages, and the resulting SLA-compliance conclusions.
"""
__version__ = "0.1.0"  # pyproject.toml's version; a test keeps the two equal

from .model import (
    AttemptCounts,
    AttemptLog,
    CampaignConfig,
    ConfigError,
    EstimateSet,
    InsufficientDataError,
    MalformedLogError,
    Timeline,
    aggregate_counts,
    expected_tries,
)
from .simulate import (
    DurationDistribution,
    NetworkBurst,
    OutageProcess,
    generate_timeline,
    sample_campaign,
    true_unavailability,
)
from .estimators import (
    SlaClaim,
    SlaTestResult,
    build_estimate_set,
    clopper_pearson_interval,
    first_try_availability,
    from_nines,
    nines,
    overestimation_factor,
    overestimation_factor_from_nines,
    per_attempt_availability,
    retry_filtered_availability,
    sla_test,
    standard_error,
    wald_interval,
)
from .detection import (
    DetectionReport,
    SlaMetrics,
    detect_outages,
    detection_report,
    sla_metrics,
    true_sla_metrics,
    undetected_curve,
    undetected_monte_carlo,
    undetected_probability,
)
from .prober import ProbeTarget, probe_once, run_campaign

__all__ = [name for name in dir() if not name.startswith("_")]
