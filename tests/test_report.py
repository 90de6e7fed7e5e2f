"""report._conforms, the report's only schema check, against jsonschema.

jsonschema is a test dependency alone: _conforms decides every fragment and
report, so it must decide exactly as jsonschema does, and these tests compare
both ways. A document it rejects is named by the place and keyword that
jsonschema also reports.
"""
import copy
import functools
import json
import math
import operator

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cloudprobe import report
from cloudprobe.cli import main
from cloudprobe.model import CampaignConfig
from cloudprobe.simulate import DurationDistribution, OutageProcess

from conftest import write_config

SCHEMA = report.load_schema()
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def conforms(doc, schema=SCHEMA) -> bool:
    return report._conforms(doc, schema, schema)


@pytest.fixture(scope="module")
def merged(tmp_path_factory):
    """A merged report with every section: SLA tests, detected runs, duration pairs."""
    base = tmp_path_factory.mktemp("report")
    config, out = base / "c.ini", base / "out"
    write_config(config, CampaignConfig(probe_interval_s=600.0, horizon_days=3.0,
                                        vantage_points=2, retry_max=3, retry_gap_s=1.0, seed=3),
                 OutageProcess(up_mean_s=7200.0,
                               duration_dist=DurationDistribution.exponential(1500.0),
                               network_fail_prob=0.01))
    log, truth = str(out / "attempts.jsonl"), str(out / "truth.jsonl")
    for argv in (["simulate"], ["estimate", "--log", log, "--claim", "0.99", "--claim", "0.5"],
                 ["detect", "--log", log, "--truth", truth, "--threshold-s", "600"]):
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
    assert main(["report", str(out / "estimate.json"), str(out / "detect.json"),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["sla_tests"] and doc["detection"]["duration_estimates"]
    return doc


def paths(node, at=()):
    """Every place in a JSON document, as a tuple of keys and indices."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, (*at, key))


def variants(value) -> list:
    """Values to put where value is: each JSON type, the numbers the schema's bounds
    and integer type turn on, and near misses of value itself."""
    out = [None, True, False, 0, 1, -1, 2, 0.0, 1.0, -0.0, 0.5, -0.5, 2.0, 1e300,
           math.nan, math.inf, -math.inf, "", "x", [], [1.0, 2.0], {}, {"extra": 1}]
    if isinstance(value, bool):
        out += [int(value), float(value)]
    elif isinstance(value, (int, float)) and math.isfinite(value):
        out += [float(value), -value, value + 1, value - 1, value + 0.5, int(value)]
    elif isinstance(value, str):
        out += [value + "\n", value.upper(), value[:-1], value + "0", "\n" + value, "0" * 64]
    elif isinstance(value, list):
        out += [value[:-1], value[:1], value + value[-1:], value + [None], [value]]
    elif isinstance(value, dict):
        out += [{**value, "extra": 1}, *({k: v for k, v in value.items() if k != key}
                                         for key in value)]
    return out


MISSING = object()  # put at a key, removes it


def place(doc, at, value):
    """doc with value put at the place at, where the empty place is doc itself."""
    if not at:
        return value
    parent = functools.reduce(operator.getitem, at[:-1], doc)
    if value is MISSING:
        del parent[at[-1]]
    else:
        parent[at[-1]] = value
    return doc


@st.composite
def mutants(draw, doc):
    """doc with one to three places changed: replaced by a variant, or removed."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(list(paths(doc))))
        value = draw(st.sampled_from(variants(functools.reduce(operator.getitem, at, doc))))
        if at and isinstance(at[-1], str) and draw(st.booleans()):
            value = MISSING
        doc = place(doc, at, value if value is MISSING else copy.deepcopy(value))
    return doc


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_conforms_decides_as_jsonschema(merged, data):
    doc = data.draw(mutants(merged))
    assert conforms(doc) == VALIDATOR.is_valid(doc), doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_rejection_names_a_place_jsonschema_reports(merged, data):
    # given a path, _conforms raises at its first failing check: that place and
    # keyword must be one of the errors jsonschema yields for the document
    doc = data.draw(mutants(merged))
    errors = {(place_name(e.absolute_path), e.validator) for e in VALIDATOR.iter_errors(doc)}
    if not errors:
        assert report._conforms(doc, SCHEMA, SCHEMA, ("doc",))
        return
    with pytest.raises(report.ReportError) as error:
        report._conforms(doc, SCHEMA, SCHEMA, ("doc",))
    assert fault(str(error.value)) in errors, (error.value, doc)


def place_name(at) -> str:
    """A place as the error names it: keys joined by dots, indices in brackets."""
    name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in at)
    return name.removeprefix(".") or "top level"


def fault(message: str) -> tuple:
    """The place and keyword a schema error names."""
    body = message.removeprefix("doc does not match schema: ")
    head, keyword = body.rsplit(" fails ", 1)
    return head.split(" (", 1)[0], keyword.split(":", 1)[0]


@pytest.mark.parametrize("key, value, message", [
    (("provenance", "log_sha256"), "abc", "provenance.log_sha256 ('abc') fails pattern"),
    (("provenance", "log_sha256"), MISSING,
     "provenance fails required: 'log_sha256' is missing"),
    (("provenance", "extra"), "a" * 64,
     "provenance fails additionalProperties: 'extra' is not allowed"),
    (("tool",), MISSING, "top level fails required: 'tool' is missing"),
    (("counts",), [1], "counts fails type"),  # no value shown unless a scalar
    (("counts", "attempts", 0), -1, "counts.attempts[0] (-1) fails minimum"),
    (("sla_tests", 0, "method"), "wald", "sla_tests[0].method ('wald') fails enum"),
    (("estimates", "nines"), -1.0, "estimates.nines (-1.0) fails oneOf"),
    (("detection", "duration_estimates", 0), [1.0],
     "detection.duration_estimates[0] fails minItems"),
    ((), None, "top level (None) fails type"),
])
def test_error_names_place_keyword_and_key(merged, key, value, message):
    doc = place(copy.deepcopy(merged), key, value)
    with pytest.raises(report.ReportError) as error:
        report.validate_report(doc)
    assert str(error.value) == f"report does not match schema: {message}"
    assert not VALIDATOR.is_valid(doc)


@pytest.mark.parametrize("key, value, valid", [
    (("counts", "attempts", 0), 3.0, True),  # an integral float is an integer
    (("counts", "attempts", 0), 3.5, False),
    (("counts", "attempts", 0), True, False),  # a bool is no integer
    (("counts", "retry_max"), False, False),
    (("estimates", "first_try"), math.nan, True),  # NaN fails no comparison
    (("estimates", "first_try"), math.inf, False),
    (("estimates", "first_try"), -0.0, True),
    (("estimates", "nines"), None, True),
    (("estimates", "nines"), -1.0, False),  # neither oneOf branch
    (("config",), None, True),
    (("config",), {}, False),
    (("config", "vantage_points"), 0, False),
    (("config", "extra"), 1, True),  # config allows other keys
    (("provenance", "extra"), "a" * 64, False),  # provenance does not
    (("detection", "duration_estimates", 0), [1.0], False),
    (("detection", "duration_estimates", 0), [1.0, 2.0, 3.0], False),
    (("detection", "duration_estimates", 0), [1, 2], True),
    (("sla_tests", 0, "method"), "wald", False),
    (("sla_tests", 0, "z"), None, True),
])
def test_conforms_cases(merged, key, value, valid):
    doc = place(copy.deepcopy(merged), key, value)
    assert VALIDATOR.is_valid(doc) is valid
    assert conforms(doc) is valid


@pytest.mark.parametrize("edit, valid", [
    (lambda s: s + "\n", True),  # "$" matches before a final newline, under re.search
    (lambda s: s.upper(), False),
    (lambda s: "\n" + s, False),
    (lambda s: s[:-1], False),
])
def test_sha256_pattern_as_re_search(merged, edit, valid):
    doc = copy.deepcopy(merged)
    doc["provenance"]["log_sha256"] = edit(doc["provenance"]["log_sha256"])
    assert VALIDATOR.is_valid(doc) is valid
    assert conforms(doc) is valid


DRAFT = "https://json-schema.org/draft/2020-12/schema"
# the keywords of _KEYWORDS whose argument holds subschemas: a map of them, a list
# of them, or one
SCHEMA_MAPS = {"properties", "$defs"}
SCHEMA_LISTS = {"prefixItems", "oneOf"}
SCHEMA_ONE = {"additionalProperties", "items"}


def subschemas(schema):
    """schema and every schema inside it."""
    yield schema
    if isinstance(schema, bool):
        return
    for key, arg in schema.items():
        subs = (arg.values() if key in SCHEMA_MAPS else arg if key in SCHEMA_LISTS
                else [arg] if key in SCHEMA_ONE else [])
        for sub in subs:
            yield from subschemas(sub)


def test_packaged_schema_is_what_conforms_reads():
    # _conforms reads the packaged schema alone; a keyword, type name, $ref or const it
    # cannot read fails here, not as a KeyError out of validate_report
    assert SCHEMA_MAPS | SCHEMA_LISTS | SCHEMA_ONE <= set(report._KEYWORDS)
    assert SCHEMA["$schema"] == DRAFT
    schemas = list(subschemas(SCHEMA))
    assert len(schemas) > 50
    for schema in schemas:
        if isinstance(schema, bool):
            continue
        assert set(schema) <= set(report._KEYWORDS), schema
        assert schema is SCHEMA or not {"$schema", "$id"} & set(schema), schema
        types = schema.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(report._TYPES), schema
        if "$ref" in schema:
            name = schema["$ref"].removeprefix("#/$defs/")
            assert schema["$ref"] == f"#/$defs/{name}" and name.isidentifier(), schema
            assert name in SCHEMA["$defs"], schema
        for value in [schema["const"]] if "const" in schema else schema.get("enum", []):
            assert not isinstance(value, (list, dict)), schema


@pytest.mark.parametrize("schema", [{"type": "decimal"}, {"type": ["number", "decimal"]},
                                    {"$ref": "#/$defs/nope"}, {"$ref": "other.json"}])
def test_unknown_type_or_ref_is_not_read(schema):
    # jsonschema raises on these rather than rejecting, and _conforms does not
    # guess at them either; the packaged schema holds none
    with pytest.raises(KeyError):
        report._conforms("x", schema, SCHEMA)


@pytest.mark.parametrize("schema, value", [
    ({"const": 1}, True), ({"const": 1}, 1.0), ({"const": False}, 0), ({"const": None}, None),
    ({"enum": [0, "a"]}, False), ({"enum": [0, "a"]}, 0.0), ({"enum": [True]}, 1),
    ({"enum": [True]}, True), ({"const": "a"}, ["a"]),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1),  # both: not one of them
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1.5),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, "1"),
    ({"oneOf": [True, False, {"minimum": 2}]}, 3),
])
def test_small_schemas_decide_as_jsonschema(schema, value):
    # the packaged schema's const, enum and oneOf take only strings or disjoint branches
    schema = {"$schema": DRAFT, **schema}
    assert report._conforms(value, schema, schema) is \
        jsonschema.Draft202012Validator(schema).is_valid(value)


def test_valid_report_skips_jsonschema(merged, monkeypatch):
    # jsonschema is looked up in sys.modules by the import statement; None there
    # makes the import fail, so neither a valid nor a rejected document may reach it
    monkeypatch.setitem(__import__("sys").modules, "jsonschema", None)
    report.validate_report(copy.deepcopy(merged))
    with pytest.raises(report.ReportError, match=r"counts.retry_max \(-1\) fails minimum"):
        report.validate_report(place(copy.deepcopy(merged), ("counts", "retry_max"), -1))
