"""Command-line entry point: simulate, estimate, detect, probe, report.

Exit codes: 0 success (statistical "reject" conclusions are data, not errors),
1 usage or config error, 2 data error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import configfile, logs, report
from .detection import detect_outages, detection_report, sla_metrics, true_sla_metrics, \
    undetected_curve, write_undetected_curve
from .estimators import SlaClaim, build_estimate_set, sla_test
from .model import (
    ConfigError,
    DataError,
    InsufficientDataError,
    MalformedLogError,
    Timeline,
    aggregate_counts,
    expected_tries,
)
from .prober import ProbeTarget, run_campaign
from .simulate import generate_timeline, sample_campaign

log = logging.getLogger("cloudprobe")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _common(parser):
    parser.add_argument("--config", help="campaign config file (INI)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="stdout format for result documents")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cloudprobe",
                     description="Periodic-probe availability measurement toolkit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("simulate", help="generate a campaign attempt log from a simulated timeline")
    _common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="availability estimates and SLA tests from an attempt log")
    _common(p)
    p.add_argument("--log", required=True, help="attempt log (JSONL)")
    p.add_argument("--claim", type=float, action="append", default=[],
                   help="claimed availability to test (repeatable)")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("detect", help="detection/censoring analysis against ground truth")
    _common(p)
    p.add_argument("--log", required=True, help="attempt log (JSONL)")
    p.add_argument("--truth", required=True, help="ground-truth outages (JSONL)")
    p.add_argument("--threshold-s", type=float, default=0.0,
                   help="long-outage threshold for SLA metrics")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("probe", help="run a live HTTP probing campaign")
    _common(p)
    p.add_argument("--resume", action="store_true",
                   help="continue after the checkpointed slot")
    p.add_argument("--url", help="override the config target URL")
    p.add_argument("--timeout-ms", type=float, help="per-attempt timeout")
    p.add_argument("--success-status", type=int, action="append",
                   help="HTTP status treated as success (repeatable)")
    p.add_argument("--expected-body-hash", help="hex sha256 the body must match")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("report", help="merge estimate/detect fragments into one report")
    _common(p)
    p.add_argument("fragments", nargs="+", help="fragment JSON files")
    p.set_defaults(func=cmd_report)

    return parser


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_campaign(args, need_process: bool = False) -> configfile.ParsedConfig:
    if not args.config:
        raise UsageError("--config is required for this command")
    parsed = configfile.read_config(args.config)
    campaign = parsed.campaign
    if args.seed is not None:
        campaign = dataclasses.replace(campaign, seed=args.seed)
        parsed = dataclasses.replace(parsed, campaign=campaign)
    if need_process and parsed.process is None:
        raise ConfigError("config needs [process] and [duration] sections for simulation")
    return parsed


def _emit(args, doc: dict, default_name: str) -> None:
    text = report.dumps(doc) if args.format == "json" else _to_csv(doc)
    if args.out:
        path = _out_dir(args) / default_name
        path.write_text(text, encoding="utf-8")
        print(str(path))
    else:
        sys.stdout.write(text)


def _to_csv(doc) -> str:
    rows = []

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in sorted(node.items()):
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{key}[{i}]")
        else:
            rows.append(f"{key},{json.dumps(node)}")

    walk(doc, "")
    return "\n".join(rows) + "\n"


def cmd_simulate(args) -> int:
    parsed = _load_campaign(args, need_process=True)
    campaign, process = parsed.campaign, parsed.process
    if campaign.mode != "simulate":
        raise ConfigError("simulate needs mode=simulate")

    timeline = generate_timeline(process, campaign.horizon_s, campaign.seed)
    records = sample_campaign(timeline, campaign, process.network_fail_prob)

    out = _out_dir(args)
    log_path = out / "attempts.jsonl"
    truth_path = out / "truth.jsonl"
    logs.write_attempt_log(log_path, records)
    logs.write_truth(truth_path, timeline)

    counts = aggregate_counts(records, retry_max=campaign.retry_max)
    print(f"expected tries: {expected_tries(campaign)}")
    print(f"actual first attempts: {counts.first_attempts}")
    print(f"attempt log: {log_path}")
    print(f"ground truth: {truth_path}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    try:
        claims = [SlaClaim(c, args.alpha) for c in args.claim]
    except ValueError as exc:
        raise UsageError(f"--claim/--alpha: {exc}") from exc
    retry_max = None
    config_echo = None
    if args.config:
        parsed = configfile.read_config(args.config)
        retry_max = parsed.campaign.retry_max
        config_echo = configfile.config_echo(parsed.campaign)

    records = logs.read_attempt_log(args.log)
    counts = aggregate_counts(records, retry_max=retry_max)
    log_sha = logs.sha256_file(args.log)

    try:
        estimates = build_estimate_set(counts)
        results = [sla_test(counts, claim) for claim in claims]
        frag = report.estimate_fragment(log_sha, counts, estimates, results,
                                        config_echo=config_echo)
    except InsufficientDataError as exc:
        log.warning("insufficient data: %s", exc)
        frag = report.estimate_fragment(log_sha, counts, None, [], config_echo=config_echo)
    _emit(args, frag, "estimate.json")
    return EXIT_OK


def cmd_detect(args) -> int:
    if not args.threshold_s >= 0:
        raise UsageError("--threshold-s must be >= 0")
    parsed = _load_campaign(args)
    campaign = parsed.campaign

    events = logs.read_truth(args.truth)
    try:
        timeline = Timeline.from_events(campaign.horizon_s, events)
    except ValueError as exc:
        raise DataError(f"truth file {args.truth}: {exc}") from exc
    records = logs.read_attempt_log(args.log)

    runs = detect_outages(records, campaign)
    rep = detection_report(timeline, records, campaign, runs)
    detected = sla_metrics(runs, args.threshold_s)
    truth_metrics = true_sla_metrics(timeline, args.threshold_s)

    out = _out_dir(args)
    curve_path = out / "nodetect_curve.csv"
    write_undetected_curve(curve_path, undetected_curve(campaign.probe_interval_s))

    frag = report.detect_fragment(
        log_sha256=logs.sha256_file(args.log),
        truth_sha256=logs.sha256_file(args.truth),
        config_sha256=logs.sha256_file(args.config),
        config_echo=configfile.config_echo(campaign),
        detection=rep,
        detected_metrics=detected,
        true_metrics=truth_metrics,
        threshold_s=args.threshold_s,
    )
    _emit(args, frag, "detect.json")
    print(f"curve: {curve_path}", file=sys.stderr)
    return EXIT_OK


def cmd_probe(args) -> int:
    parsed = _load_campaign(args)
    campaign = parsed.campaign
    if campaign.mode != "live":
        raise ConfigError("probe needs mode=live")

    target = parsed.target or ProbeTarget(url=campaign.target)
    overrides = {}
    # a given flag overrides even when empty or zero, so ProbeTarget rejects it
    if args.url is not None:
        overrides["url"] = args.url
    if args.timeout_ms is not None:
        overrides["timeout_ms"] = args.timeout_ms
    if args.success_status is not None:
        overrides["success_statuses"] = frozenset(args.success_status)
    if args.expected_body_hash is not None:
        overrides["expected_body_hash"] = args.expected_body_hash
    if overrides:
        target = dataclasses.replace(target, **overrides)

    out = _out_dir(args)
    log_path = out / "attempts.jsonl"
    records = run_campaign(target, campaign, log_path, resume=args.resume)
    counts = aggregate_counts(records, retry_max=campaign.retry_max)
    print(f"slots completed: {counts.first_attempts} of {campaign.slots}")
    print(f"first-attempt successes: {counts.successes[0] if counts.successes else 0}")
    print(f"attempt log: {log_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    frags = []
    for path in args.fragments:
        try:
            with open(path, "r", encoding="utf-8") as f:
                frags.append(json.load(f))
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DataError(f"fragment {path}: {exc}") from exc
    merged = report.merge_fragments(frags)
    _emit(args, merged, "report.json")
    return EXIT_OK


def _setup_logging() -> None:
    raw = os.environ.get("CLOUDPROBE_LOG_LEVEL", "warn").lower()
    level = _LOG_LEVELS.get(raw, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    if raw not in _LOG_LEVELS:
        log.warning("unknown CLOUDPROBE_LOG_LEVEL %r; using warn", raw)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MalformedLogError, DataError, report.ReportError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
