"""Command-line entry point: simulate, estimate, detect, probe, report.

Exit codes: 0 success (statistical "reject" conclusions are data, not errors),
1 usage or config error, 2 data error, 3 I/O error, 130 interrupted (Ctrl-C).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .errors import ConfigError, DataError, InsufficientDataError, MalformedLogError

# the layer names each command calls, which the package resolves; report touches
# no array, so it loads no numpy
_COMMAND_NAMES = {command: tuple(names.split()) for command, names in (
    ("simulate", "configfile logs expected_tries generate_timeline sample_campaign"),
    ("estimate", "configfile logs report aggregate_counts SlaClaim build_estimate_set sla_test"),
    ("detect", "configfile logs report aggregate_counts detect_outages detection_report "
               "sla_metrics true_sla_metrics undetected_curve write_undetected_curve"),
    ("probe", "configfile logs aggregate_counts run_campaign"),
    ("report", "report"),
)}


def _load_layers(names) -> None:
    """Bind the given layer names as globals of this module, importing their
    layers on first use. A name already bound, as by a caller's patch, stays."""
    package = sys.modules[__package__]
    for name in names:
        globals().setdefault(name, getattr(package, name))


def __getattr__(name):
    # only a layer name loads a layer; a probe such as __path__ must not load numpy
    if not any(name in names for names in _COMMAND_NAMES.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_layers([name])
    return globals()[name]


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130  # as a shell reports a process that SIGINT ended

_LOG_LEVELS = ("error", "warn", "info", "debug")  # CLOUDPROBE_LOG_LEVEL; all but error show warnings


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cloudprobe",
                     description="Periodic-probe availability measurement toolkit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    # the shared flags, each given only to the commands that read it
    config, seed, out, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    config.add_argument("--config", help="campaign config file (INI)")
    seed.add_argument("--seed", type=int, help="override the config seed")
    out.add_argument("--out", help="output directory")
    fmt.add_argument("--format", choices=("json", "csv"), default="json",
                     help="stdout format for result documents")

    p = sub.add_parser("simulate", parents=[config, seed, out],
                       help="generate a campaign attempt log from a simulated timeline")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", parents=[config, seed, out, fmt],
                       help="availability estimates and SLA tests from an attempt log")
    p.add_argument("--log", required=True, help="attempt log (JSONL)")
    p.add_argument("--claim", type=float, action="append", default=[],
                   help="claimed availability to test (repeatable)")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("detect", parents=[config, seed, out, fmt],
                       help="detection/censoring analysis against ground truth")
    p.add_argument("--log", required=True, help="attempt log (JSONL)")
    p.add_argument("--truth", required=True, help="ground-truth outages (JSONL)")
    p.add_argument("--threshold-s", type=float, default=0.0,
                   help="long-outage threshold for SLA metrics")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("probe", parents=[config, out], help="run a live HTTP probing campaign")
    p.add_argument("--resume", action="store_true",
                   help="continue after the last slot the log completes")
    p.add_argument("--url", help="override the config target URL")
    p.add_argument("--timeout-ms", type=float, help="per-attempt timeout")
    p.add_argument("--success-status", type=int, action="append",
                   help="HTTP status treated as success (repeatable)")
    p.add_argument("--expected-body-hash", help="hex sha256 the body must match")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("report", parents=[out, fmt],
                       help="merge estimate/detect fragments into one report")
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
    if getattr(args, "seed", None) is not None:  # probe takes no --seed
        from dataclasses import replace  # model, which read_config loads, has imported it
        parsed = replace(parsed, campaign=replace(parsed.campaign, seed=args.seed))
    if need_process and parsed.process is None:
        raise ConfigError("config needs [process] and [duration] sections for simulation")
    return parsed


def _emit(args, doc: dict, default_name: str) -> None:
    """The document to stdout in --format, or with --out to a JSON file, whose path
    goes to stdout; a fragment file stays JSON, so that report can read it."""
    if args.out:
        path = _out_dir(args) / default_name
        path.write_text(report.dumps(doc), encoding="utf-8")
        print(str(path))
    else:
        sys.stdout.write(report.dumps(doc) if args.format == "json" else _to_csv(doc))


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

    print(f"expected tries: {expected_tries(campaign)}")
    print(f"actual first attempts: {int((records.attempt == 1).sum())}")
    print(f"attempt log: {log_path}")
    print(f"ground truth: {truth_path}")
    return EXIT_OK


def _read_log(path):
    import hashlib  # logs has loaded it; report alone needs neither
    digest = hashlib.sha256()
    return logs.read_attempt_log(path, digest), digest.hexdigest()


def cmd_estimate(args) -> int:
    if not 0 < args.alpha < 1:  # a usage error with or without --claim
        raise UsageError("--alpha must be in (0, 1)")
    try:
        claims = [SlaClaim(c, args.alpha) for c in args.claim]
    except ValueError as exc:
        raise UsageError(f"--claim: {exc}") from exc
    if args.seed is not None and not args.config:  # the seed reaches only the config echo
        raise UsageError("--seed needs --config")
    retry_max = config_echo = None
    if args.config:  # its echo carries a --seed override, as detect's does
        campaign = _load_campaign(args).campaign
        retry_max, config_echo = campaign.retry_max, configfile.config_echo(campaign)

    records, log_sha = _read_log(args.log)
    counts = aggregate_counts(records, retry_max=retry_max, path=args.log)

    try:
        estimates = build_estimate_set(counts)
        results = [sla_test(counts, claim) for claim in claims]
        frag = report.estimate_fragment(log_sha, counts, estimates, results,
                                        config_echo=config_echo)
    except InsufficientDataError as exc:
        _warn(f"insufficient data: {exc}")
        frag = report.estimate_fragment(log_sha, counts, None, [], config_echo=config_echo)
    _emit(args, frag, "estimate.json")
    return EXIT_OK


def cmd_detect(args) -> int:
    if not 0 <= args.threshold_s < math.inf:
        raise UsageError("--threshold-s must be finite and >= 0")
    campaign = _load_campaign(args).campaign

    timeline = logs.read_truth(args.truth, campaign.horizon_s)
    records, log_sha = _read_log(args.log)
    aggregate_counts(records, retry_max=campaign.retry_max, path=args.log)  # estimate's check

    runs = detect_outages(records)
    rep = detection_report(timeline, records, campaign, runs)
    detected = sla_metrics(runs[:, 1] * campaign.probe_interval_s, args.threshold_s)
    truth_metrics = true_sla_metrics(timeline, args.threshold_s)

    out = _out_dir(args)
    curve_path = out / "nodetect_curve.csv"
    write_undetected_curve(curve_path, undetected_curve(campaign.probe_interval_s))

    frag = report.detect_fragment(
        log_sha256=log_sha,
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
    campaign, target = parsed.campaign, parsed.target  # read_config builds a live target
    if campaign.mode != "live":
        raise ConfigError("probe needs mode=live")
    # a given flag overrides even when empty or zero, so ProbeTarget rejects it
    flags = {"url": args.url, "timeout_ms": args.timeout_ms,
             "success_statuses": args.success_status and frozenset(args.success_status),
             "expected_body_hash": args.expected_body_hash}
    from dataclasses import replace  # loaded with model, as in _load_campaign
    target = replace(target, **{k: v for k, v in flags.items() if v is not None})

    out = _out_dir(args)
    log_path = out / "attempts.jsonl"
    records = run_campaign(target, campaign, log_path, resume=args.resume)
    counts = aggregate_counts(records, retry_max=campaign.retry_max)
    print(f"slots completed: {counts.first_attempts} of {campaign.slots}")
    print(f"first-attempt successes: {counts.successes[0] if counts.successes else 0}")
    print(f"attempt log: {log_path}")
    return EXIT_OK


def _finite(text: str) -> float:  # a JSON number or constant, refused unless finite
    if not math.isfinite(value := float(text)):
        raise ValueError(f"number {text} is not finite")
    return value


def cmd_report(args) -> int:
    frags = []
    for path in args.fragments:
        try:
            with open(path, "r", encoding="utf-8") as f:
                frags.append(json.load(f, parse_float=_finite, parse_constant=_finite))
        except (ValueError, RecursionError) as exc:  # not finite JSON, not UTF-8, or too deep
            raise DataError(f"fragment {path}: {exc}") from exc
    merged = report.merge_fragments(frags)
    _emit(args, merged, "report.json")
    return EXIT_OK


def _warn(message: str) -> None:
    """One warning line to the current stderr, unless CLOUDPROBE_LOG_LEVEL is error."""
    if os.environ.get("CLOUDPROBE_LOG_LEVEL", "warn").lower() != "error":
        print(f"WARNING cloudprobe: {message}", file=sys.stderr)


def main(argv=None) -> int:
    level = os.environ.get("CLOUDPROBE_LOG_LEVEL", "warn").lower()
    if level not in _LOG_LEVELS:
        _warn(f"unknown CLOUDPROBE_LOG_LEVEL {level!r}; using warn")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        _load_layers(_COMMAND_NAMES[args.command])
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MalformedLogError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:  # as Ctrl-C stops a live campaign, whose log keeps whole slots
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
