"""INI campaign config. Each section's keys are the fields of one dataclass,
absent keys taking the field defaults: [campaign] CampaignConfig, [probe]
ProbeTarget (its url is the campaign target), [process] OutageProcess with
NetworkBurst's fields as burst_ keys, and [duration] DurationDistribution. Any other
section, and any [DEFAULT] key, is an error."""
from __future__ import annotations

import configparser
from dataclasses import MISSING, fields
from typing import TYPE_CHECKING, NamedTuple

from .model import CampaignConfig, ConfigError
from .simulate import DurationDistribution, NetworkBurst, OutageProcess

if TYPE_CHECKING:  # the prober is imported only to build a live target
    from .prober import ProbeTarget

# INI value parsers keyed by the field annotation (a string under postponed
# annotations); None means an empty value, which leaves the field's default
_PARSE = {
    "float": float,
    "int": int,
    "str": str,
    "float | None": float,
    "str | None": lambda raw: raw or None,
    "tuple[float, ...] | None": lambda raw: tuple(float(s) for s in raw.replace(",", " ").split()),
    "frozenset[int]": lambda raw: frozenset(int(s) for s in raw.replace(",", " ").split()) or None,
}


class ParsedConfig(NamedTuple):
    """Everything a config file can carry; process/target present per mode."""

    campaign: CampaignConfig
    process: OutageProcess | None = None
    target: ProbeTarget | None = None


def _from_section(cls, name: str, section, prefix: str = "", **given):
    """Build a config dataclass from an INI section whose keys are its fields,
    each after prefix.

    Fields passed in `given` come from elsewhere and are not keys of the
    section; absent keys take the dataclass default.
    """
    keys = {prefix + f.name: f for f in fields(cls) if f.name not in given}
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"[{name}] unknown keys: {', '.join(sorted(unknown))}")
    kwargs = dict(given)
    for key, f in keys.items():
        if key not in section:
            if f.default is MISSING:
                raise ConfigError(f"[{name}] missing required key {key}")
            continue
        try:
            value = _PARSE[f.type](section[key])
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key}: {exc}") from exc
        if value is not None:
            kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:  # ConfigError too: the dataclass names the field, this the section
        raise ConfigError(f"[{name}] {exc}") from exc


def read_config(path) -> ParsedConfig:
    # no interpolation: '%' is literal, as in percent-encoded target URLs
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    # configparser would give [DEFAULT]'s keys to every section
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] keys are not allowed: {', '.join(parser.defaults())}")
    if unknown := set(parser) - {"DEFAULT", "campaign", "probe", "process", "duration"}:
        raise ConfigError(f"unknown sections: {', '.join(f'[{s}]' for s in sorted(unknown))}")

    if "campaign" not in parser:
        raise ConfigError("config must have a [campaign] section")
    campaign = _from_section(CampaignConfig, "campaign", parser["campaign"])

    process = None
    if "process" in parser:
        if "duration" not in parser:
            raise ConfigError("[process] requires a [duration] section")
        proc = dict(parser["process"])
        burst = {key: proc.pop(key) for key in list(proc) if key.startswith("burst_")}
        process = _from_section(
            OutageProcess, "process", proc,
            duration_dist=_from_section(DurationDistribution, "duration", parser["duration"]),
            network_burst=_from_section(NetworkBurst, "process", burst, "burst_") if burst else None)
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


def config_echo(campaign: CampaignConfig) -> dict:
    """Campaign fields as a JSON-ready mapping for the report."""
    from .report import _to_json  # here, so that simulate and probe load no report
    return _to_json(campaign)
