"""Report fragments and the merged campaign report.

Estimate and detect workflows each emit a fragment tied to the attempt-log
digest; merging requires the digests to agree, so a report can never mix
artifacts from different campaigns. Reports contain no wall-clock values, so a
fixed seed reproduces them byte for byte.
"""
from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from importlib import resources
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:  # annotations only: the report command loads no numpy
    from .detection import DetectionReport, SlaMetrics
    from .model import AttemptCounts, EstimateSet

SCHEMA_VERSION = "1"


class ReportError(ValueError):
    """Fragments reference different inputs or violate the report schema."""


def _to_json(obj):
    """Dataclass fields as JSON values: tuples become lists, non-finite floats null."""
    if is_dataclass(obj):
        return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_to_json(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _base(kind: str, provenance: dict, config_echo: dict | None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "tool": {"name": "cloudprobe", "version": __version__},
        "provenance": provenance,
        "config": config_echo,
    }


def estimate_fragment(log_sha256: str, counts: AttemptCounts,
                      estimates: EstimateSet | None, sla_results,
                      config_echo: dict | None = None) -> dict:
    """The estimate fragment; estimates is None when the log has too little data."""
    frag = _base("estimate", {"log_sha256": log_sha256}, config_echo)
    frag["insufficient_data"] = estimates is None
    frag["counts"] = _to_json(counts)
    if estimates is not None:
        frag["estimates"] = {**_to_json(estimates), "first_attempts": counts.attempts[0]}
    frag["sla_tests"] = [_to_json(r) for r in sla_results]
    return frag


def detect_fragment(log_sha256: str, truth_sha256: str, config_sha256: str,
                    config_echo: dict, detection: DetectionReport,
                    detected_metrics: SlaMetrics, true_metrics: SlaMetrics,
                    threshold_s: float) -> dict:
    frag = _base("detect", {
        "log_sha256": log_sha256,
        "truth_sha256": truth_sha256,
        "config_sha256": config_sha256,
    }, config_echo)
    frag["detection"] = _to_json(detection)
    frag["sla_metrics"] = {
        "detected": {**_to_json(detected_metrics), "threshold_s": threshold_s},
        "true": {**_to_json(true_metrics), "threshold_s": threshold_s},
    }
    return frag


def merge_fragments(fragments) -> dict:
    """Merge fragments about the same attempt log into one report."""
    frags = list(fragments)
    if not frags:
        raise ReportError("no fragments to merge")
    if not all(isinstance(f, dict) for f in frags):
        raise ReportError("fragments must be JSON objects")
    provenances = [f.get("provenance", {}) for f in frags]
    if not all(isinstance(p, dict) for p in provenances):
        raise ReportError("fragment provenance must be a JSON object")
    for digest in (p["log_sha256"] for p in provenances if "log_sha256" in p):
        if not isinstance(digest, str):
            raise ReportError(f"fragment log_sha256 must be a string, got {digest!r}")
    digests = {p.get("log_sha256") for p in provenances}
    if len(digests) != 1 or None in digests:
        raise ReportError(f"fragments reference different logs: {sorted(map(str, digests))}")

    report = _base("report", {}, None)
    del report["kind"]  # a merged report is not a fragment, so it has no kind
    for frag in frags:
        if frag.get("schema_version") != SCHEMA_VERSION:
            raise ReportError(f"unsupported fragment schema_version {frag.get('schema_version')!r}")
        report["provenance"].update(frag.get("provenance", {}))
        if report["config"] is None and frag.get("config"):
            report["config"] = frag["config"]
        for key in ("counts", "estimates", "sla_tests", "insufficient_data",
                    "detection", "sla_metrics"):
            if key in frag:
                report[key] = frag[key]
    validate_report(report)
    return report


def load_schema() -> dict:
    text = resources.files("cloudprobe").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


def validate_report(doc: dict) -> None:
    import jsonschema  # deferred: only the report command validates, and it is slow to import

    # jsonschema.validate minus its check of our own schema, which a test makes
    schema = load_schema()
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        raise ReportError(f"report does not match schema: {error.message}") from error


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
