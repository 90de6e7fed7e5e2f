"""Report fragments and the merged campaign report.

Estimate and detect workflows each emit a fragment tied to the attempt-log
digest; merging requires the digests, every other provenance digest, the
config echoes and each section two fragments both carry to agree, so a report
can never mix artifacts from different campaigns or runs. Reports contain no
wall-clock values, so a fixed seed reproduces them byte for byte.
"""
from __future__ import annotations

import json
import math
import numbers
import re
from importlib import resources
from typing import TYPE_CHECKING

from . import __version__
from .errors import ReportError  # re-exported

if TYPE_CHECKING:  # annotations only: the report command loads no numpy
    from .detection import DetectionReport, SlaMetrics
    from .model import AttemptCounts, EstimateSet

SCHEMA_VERSION = "1"
_TYPES = {"array": list, "boolean": bool, "integer": int, "null": type(None),
          "number": numbers.Number, "object": dict, "string": str}
# each keyword _conforms reads -> its test of the value v under the keyword's
# argument a in the schema s (r is the root, p None or v's path, never empty), as
# jsonschema's _keywords module makes it: a keyword about one JSON type passes a
# value of any other type. oneOf and additionalProperties fail at v, as jsonschema's do
_KEYWORDS = {
    "type": lambda v, a, s, r, p: any(_is(v, t) for t in ([a] if isinstance(a, str) else a)),
    "const": lambda v, a, s, r, p: _equal(v, a),
    "enum": lambda v, a, s, r, p: any(_equal(v, c) for c in a),
    "minimum": lambda v, a, s, r, p: not _is(v, "number") or not v < a,
    "exclusiveMinimum": lambda v, a, s, r, p: not _is(v, "number") or not v <= a,
    "maximum": lambda v, a, s, r, p: not _is(v, "number") or not v > a,
    "pattern": lambda v, a, s, r, p: not isinstance(v, str) or re.search(a, v) is not None,
    "required": lambda v, a, s, r, p: not isinstance(v, dict) or all(k in v for k in a),
    "properties": lambda v, a, s, r, p: not isinstance(v, dict) or all(
        _conforms(v[k], sub, r, p and (*p, k)) for k, sub in a.items() if k in v),
    "additionalProperties": lambda v, a, s, r, p: not isinstance(v, dict) or all(
        _conforms(x, a, r) for k, x in v.items() if k not in s.get("properties", {})),
    "prefixItems": lambda v, a, s, r, p: not isinstance(v, list) or all(
        _conforms(x, sub, r, p and (*p, i)) for i, (x, sub) in enumerate(zip(v, a))),
    "items": lambda v, a, s, r, p: not isinstance(v, list) or all(
        _conforms(v[i], a, r, p and (*p, i)) for i in range(len(s.get("prefixItems", [])), len(v))),
    "minItems": lambda v, a, s, r, p: not isinstance(v, list) or not len(v) < a,
    "maxItems": lambda v, a, s, r, p: not isinstance(v, list) or not len(v) > a,
    "oneOf": lambda v, a, s, r, p: sum(_conforms(v, sub, r) for sub in a) == 1,
    "$ref": lambda v, a, s, r, p: _conforms(v, r["$defs"][a.removeprefix("#/$defs/")], r, p),
    **dict.fromkeys(("title", "$defs", "$schema", "$id"), lambda *_: True),  # annotations
}


def _to_json(obj):
    """Dataclass fields as JSON values: tuples become lists, non-finite floats null."""
    names = getattr(type(obj), "__dataclass_fields__", None)  # no field is a ClassVar
    if names is not None:
        return {name: _to_json(getattr(obj, name)) for name in names}
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
    """Merge fragments about the same attempt log into one report. Each fragment
    is checked against the schema, so the report is valid: its every key comes
    from a checked fragment, and no keyword of the schema relates two keys."""
    frags = list(fragments)
    if not frags:
        raise ReportError("no fragments to merge")
    schema = load_schema()
    for number, frag in enumerate(frags, 1):
        _conforms(frag, schema, schema, (f"fragment {number}",))
    digests = {frag["provenance"]["log_sha256"] for frag in frags}
    if len(digests) != 1:
        raise ReportError(f"fragments reference different logs: {sorted(digests)}")

    report = _base("report", {}, None)
    del report["kind"]  # a merged report is not a fragment, so it has no kind
    for frag in frags:
        for key, value in frag["provenance"].items():
            _agree(f"provenance {key}", report["provenance"].setdefault(key, value), value)
        if frag.get("config"):
            report["config"] = report["config"] or frag["config"]
            _agree("config", report["config"], frag["config"])
        for key in ("counts", "estimates", "sla_tests", "insufficient_data",
                    "detection", "sla_metrics"):
            if key in frag:
                _agree(key, report.setdefault(key, frag[key]), frag[key])
    return report


def _agree(what: str, old, new) -> None:
    """Raise unless two fragments give one value for what; the fields of an
    object are compared one by one, so that the error names the field."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            _agree(f"{what} {key}", old.get(key), new.get(key))
    if old != new:
        raise ReportError(f"fragments disagree on {what}: {old!r} != {new!r}")


def load_schema() -> dict:
    text = resources.files("cloudprobe").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


def _is(value, name: str) -> bool:
    """Whether value is of the type name as jsonschema tells it: a bool is only a
    boolean, and an integral float is an integer."""
    if isinstance(value, bool):
        return _TYPES[name] is bool
    return isinstance(value, _TYPES[name]) or (
        name == "integer" and isinstance(value, float) and value.is_integer())


def _equal(a, b) -> bool:
    """a == b as jsonschema's const and enum test it for a JSON scalar b: a bool
    equals no number."""
    return a is b or isinstance(a, bool) == isinstance(b, bool) and a == b


def _conforms(value, schema, root, path=None) -> bool:
    """Whether value is valid under schema, a part of the packaged 2020-12 schema
    root, as jsonschema decides it. A test pins that root holds only the keywords,
    type names, $refs and scalar consts that _KEYWORDS reads. Given value's path (a
    document name, then keys and indices), the first failing check raises ReportError
    instead, naming the place and the keyword; it shows value only if a scalar."""
    if isinstance(schema, bool):
        return schema
    failed = next((k for k, a in schema.items() if not _KEYWORDS[k](value, a, schema, root, path)),
                  None)
    if failed is None or path is None:
        return failed is None
    name, *keys = path
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).removeprefix(".")
    shown = f" ({value!r})" if isinstance(value, (str, int, float, type(None))) else ""
    if failed == "required":
        failed += f": {next(k for k in schema[failed] if k not in value)!r} is missing"
    elif failed == "additionalProperties":
        extra = next(k for k in value if k not in schema.get("properties", {}))
        failed += f": {extra!r} is not allowed"
    raise ReportError(f"{name} does not match schema: {where or 'top level'}{shown} fails {failed}")


def validate_report(doc: dict) -> None:
    """Raise ReportError, as _conforms words it, unless doc matches the schema."""
    schema = load_schema()
    _conforms(doc, schema, schema, ("report",))


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
