"""cloudprobe: periodic-probe availability measurement with bounded retries.

Simulates alternating up/outage timelines, samples them on a slot/retry probe
schedule (or probes a live HTTP target the same way), and quantifies what the
methodology does to the numbers: retry inflation of availability estimates,
censoring of short outages, and the resulting SLA-compliance conclusions.

The public names are imported on first use, so that `import cloudprobe`, and
the CLI commands that need no arrays, do not load numpy.
"""
__version__ = "0.1.0"  # pyproject.toml's version; a test keeps the two equal

# each public name -> the submodule that defines it; a submodule maps to itself
_HOME = {name: module for module, names in (
    ("errors", "ConfigError InsufficientDataError MalformedLogError"),
    ("model", "model AttemptCounts AttemptLog CampaignConfig Timeline "
              "aggregate_counts expected_tries"),
    ("simulate", "simulate DurationDistribution NetworkBurst OutageProcess generate_timeline "
                 "sample_campaign true_unavailability"),
    ("estimators", "estimators EstimateSet SlaClaim SlaTestResult build_estimate_set "
                   "clopper_pearson_interval first_try_availability from_nines nines "
                   "overestimation_factor overestimation_factor_from_nines "
                   "per_attempt_availability retry_filtered_availability sla_test "
                   "standard_error wald_interval"),
    ("detection", "detection DetectionReport SlaMetrics detect_outages detection_report "
                  "sla_metrics true_sla_metrics undetected_curve undetected_monte_carlo "
                  "undetected_probability"),
    ("prober", "prober ProbeTarget probe_once run_campaign"),
    ("logs", "logs"),
) for name in names.split()}

__all__ = list(_HOME)
# names the CLI also resolves here, which are not public
_HOME.update(configfile="configfile", report="report", write_undetected_curve="detection")


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # as `from .module import name` does: -X importtime reports __import__, not importlib
    module = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    value = module if name == _HOME[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
