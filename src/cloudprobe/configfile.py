"""INI campaign config: [campaign] keys are the CampaignConfig fields and
[probe] keys the ProbeTarget fields (its url is the campaign target), with the
dataclass defaults; [process] + [duration] describe the simulated outage
process."""
from __future__ import annotations

import configparser
from dataclasses import MISSING, asdict, dataclass, fields
from typing import TYPE_CHECKING

from .model import CampaignConfig, ConfigError
from .simulate import DurationDistribution, NetworkBurst, OutageProcess

if TYPE_CHECKING:  # the prober is imported only to build a live target
    from .prober import ProbeTarget

_PROCESS_KEYS = {"up_mean_s", "network_fail_prob", "burst_rate_per_day", "burst_duration_s"}

# INI value parsers keyed by the field annotation (a string under postponed
# annotations); None means an empty value, which leaves the field's default
_PARSE = {
    "float": float,
    "int": int,
    "str": str,
    "str | None": lambda raw: raw or None,
    "frozenset[int]": lambda raw: frozenset(int(s) for s in raw.replace(",", " ").split()) or None,
}


@dataclass(frozen=True)
class ParsedConfig:
    """Everything a config file can carry; process/target present per mode."""

    campaign: CampaignConfig
    process: OutageProcess | None = None
    target: ProbeTarget | None = None


def _check_keys(section: str, present, allowed) -> None:
    unknown = set(present) - set(allowed)
    if unknown:
        raise ConfigError(f"[{section}] unknown keys: {', '.join(sorted(unknown))}")


def _from_section(cls, name: str, section, **given):
    """Build a config dataclass from an INI section whose keys are its fields.

    Fields passed in `given` come from elsewhere and are not keys of the
    section; absent keys take the dataclass default.
    """
    keys = [f for f in fields(cls) if f.name not in given]
    _check_keys(name, section, [f.name for f in keys])
    kwargs = dict(given)
    for f in keys:
        if f.name not in section:
            if f.default is MISSING:
                raise ConfigError(f"[{name}] missing required key {f.name}")
            continue
        try:
            value = _PARSE[f.type](section[f.name])
        except ValueError as exc:
            raise ConfigError(f"[{name}] {f.name}: {exc}") from exc
        if value is not None:
            kwargs[f.name] = value
    return cls(**kwargs)


def read_config(path) -> ParsedConfig:
    # no interpolation: '%' is literal, as in percent-encoded target URLs
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    if "campaign" not in parser:
        raise ConfigError("config must have a [campaign] section")
    campaign = _from_section(CampaignConfig, "campaign", parser["campaign"])

    process = None
    if "process" in parser:
        proc = parser["process"]
        _check_keys("process", proc.keys(), _PROCESS_KEYS)
        if "duration" not in parser:
            raise ConfigError("[process] requires a [duration] section")
        dur = parser["duration"]
        _check_keys("duration", dur.keys(), [f.name for f in fields(DurationDistribution)])
        try:
            burst = None
            if "burst_rate_per_day" in proc or "burst_duration_s" in proc:
                burst = NetworkBurst(
                    rate_per_day=proc.getfloat("burst_rate_per_day"),
                    duration_s=proc.getfloat("burst_duration_s"),
                )
            process = OutageProcess(
                up_mean_s=proc.getfloat("up_mean_s"),
                duration_dist=_parse_duration(dur),
                network_fail_prob=proc.getfloat("network_fail_prob", 0.0),
                network_burst=burst,
            )
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[process]/[duration] {exc}") from exc
    elif "duration" in parser:
        raise ConfigError("[duration] requires a [process] section")

    target = None
    if campaign.mode == "live":
        from .prober import ProbeTarget
        probe = parser["probe"] if "probe" in parser else {}
        target = _from_section(ProbeTarget, "probe", probe, url=campaign.target)
    elif "probe" in parser:
        raise ConfigError("[probe] section only applies to live mode")

    return ParsedConfig(campaign=campaign, process=process, target=target)


def _parse_duration(section) -> DurationDistribution:
    kind = section.get("kind")
    if kind == "fixed":
        return DurationDistribution.fixed(section.getfloat("value_s"))
    if kind == "exponential":
        return DurationDistribution.exponential(section.getfloat("mean_s"))
    if kind == "generalized_pareto":
        return DurationDistribution.generalized_pareto(
            shape=section.getfloat("shape"),
            scale=section.getfloat("scale"),
            location=section.getfloat("location", 0.0),
        )
    if kind == "empirical":
        raw = section.get("values", "")
        values = tuple(float(v) for v in raw.replace(",", " ").split())
        return DurationDistribution.empirical(values)
    raise ConfigError(f"unknown duration kind {kind!r}")


def config_echo(campaign: CampaignConfig) -> dict:
    """Campaign fields as a JSON-ready mapping for the report."""
    return asdict(campaign)
