"""Golden digests: a fixed seed must reproduce every CLI output byte for byte.

The campaign config is a literal here rather than the output of write_config,
so its digest (echoed in detect.json as config_sha256) cannot move with the
config writer. When an intended change alters an output, re-pin the digest
and say why in the change description.
"""
import hashlib
import textwrap

import pytest

from cloudprobe.cli import main
from cloudprobe.model import CampaignConfig
from cloudprobe.prober import ProbeTarget
from cloudprobe.simulate import DurationDistribution, NetworkBurst, OutageProcess

from conftest import write_config

# every report these tests build passes report's own schema check
pytestmark = pytest.mark.usefixtures("reports_pass_own_check")

CAMPAIGN_INI = """\
[campaign]
probe_interval_s = 600
horizon_days = 2
vantage_points = 2
retry_max = 3
retry_gap_s = 1.5
seed = 20140803
mode = simulate

[process]
up_mean_s = 5000
network_fail_prob = 0.02
burst_rate_per_day = 2
burst_duration_s = 30

[duration]
kind = exponential
mean_s = 400
"""

PIPELINE_SHA256 = {
    "attempts.jsonl": "e5e953d2ff57ee82b7563992a97cf0465072cddf5c9cbfc15af15c6fd7e3ebcc",
    "truth.jsonl": "4bc64fcdee6cd982dcd4b3a077e506ee5ed5863faf11451213845482c6877b07",
    "estimate.json": "a0997f94e3bf0e0cf44b5e9091a087bcf45b4000d08e3e707fab933d5fc73537",
    "detect.json": "f66ebe53c61a2c7654c140d4f07c40af117939b9b8fd8518dfbb31cee7688ee2",
    "report.json": "bf12858f66fbececaed18c0196780d98480630a4193b3bf772c3822e68b3e00d",
}

# three slots, all first-try successes: nines and the exact test's z are null
ALL_SUCCESS_LOG = "".join(
    f'{{"ts_s":{600 * k},"vantage":0,"slot":{k},"attempt":1,"outcome":"success"}}\n'
    for k in range(3))
ALL_SUCCESS_SHA256 = {
    "json": "cd37f118a7868ef40938256827b55425841961b4bb7db52e9ed9eaedd8c0f9d9",
    "csv": "09890b7a59645c53e86521b21710fcaa0097dcf15586a12c9eddc99c2dd82676",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_pipeline_outputs_are_pinned(tmp_path):
    config = tmp_path / "campaign.ini"
    config.write_text(CAMPAIGN_INI, encoding="utf-8")
    out = tmp_path / "run"
    log, truth = str(out / "attempts.jsonl"), str(out / "truth.jsonl")
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert main(["estimate", "--log", log, "--claim", "0.9", "--claim", "0.999",
                 "--alpha", "0.01", "--config", str(config), "--out", str(out)]) == 0
    assert main(["detect", "--log", log, "--truth", truth, "--config", str(config),
                 "--threshold-s", "600", "--out", str(out)]) == 0
    assert main(["report", str(out / "estimate.json"), str(out / "detect.json"),
                 "--out", str(out)]) == 0
    digests = {name: sha256((out / name).read_bytes()) for name in PIPELINE_SHA256}
    assert digests == PIPELINE_SHA256


def test_all_success_estimate_is_pinned(tmp_path, capsys):
    log = tmp_path / "attempts.jsonl"
    log.write_text(ALL_SUCCESS_LOG, encoding="utf-8")
    digests = {}
    for fmt in ALL_SUCCESS_SHA256:
        capsys.readouterr()
        assert main(["estimate", "--log", str(log), "--claim", "0.999",
                     "--format", fmt]) == 0
        digests[fmt] = sha256(capsys.readouterr().out.encode("utf-8"))
    assert digests == ALL_SUCCESS_SHA256


def test_write_config_simulate_bytes(tmp_path):
    path = tmp_path / "sim.ini"
    write_config(
        path,
        CampaignConfig(probe_interval_s=660.0, horizon_days=75.0, vantage_points=54,
                       retry_max=9, retry_gap_s=2.5, seed=123),
        OutageProcess(up_mean_s=3600.0,
                      duration_dist=DurationDistribution.generalized_pareto(0.25, 120.0, 10.0),
                      network_fail_prob=0.01,
                      network_burst=NetworkBurst(rate_per_day=3.0, duration_s=4.5)))
    assert path.read_text(encoding="utf-8") == textwrap.dedent("""\
        [campaign]
        probe_interval_s = 660
        horizon_days = 75
        vantage_points = 54
        retry_max = 9
        retry_gap_s = 2.5
        seed = 123
        mode = simulate

        [process]
        up_mean_s = 3600
        network_fail_prob = 0.01
        burst_rate_per_day = 3
        burst_duration_s = 4.5

        [duration]
        kind = generalized_pareto
        shape = 0.25
        scale = 120
        location = 10

        """)


def test_write_config_live_bytes(tmp_path):
    path = tmp_path / "live.ini"
    campaign = CampaignConfig(probe_interval_s=0.25, horizon_days=0.5, retry_max=2,
                              retry_gap_s=0.05, mode="live",
                              target="https://storage.example/probe.bin")
    write_config(path, campaign, target=ProbeTarget(
        url=campaign.target, timeout_ms=2500.0, success_statuses=frozenset({204, 200}),
        expected_body_hash="ab" * 32))
    assert path.read_text(encoding="utf-8") == textwrap.dedent(f"""\
        [campaign]
        probe_interval_s = 0.25
        horizon_days = 0.5
        vantage_points = 1
        retry_max = 2
        retry_gap_s = 0.05
        seed = 0
        mode = live
        target = https://storage.example/probe.bin

        [probe]
        timeout_ms = 2500
        success_statuses = 200 204
        expected_body_hash = {"ab" * 32}

        """)
