import hashlib
import importlib.util
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import cloudprobe
from cloudprobe import cli, configfile, logs, report
from cloudprobe.cli import main
from cloudprobe.detection import detect_outages
from cloudprobe.model import CampaignConfig, ConfigError, Timeline
from cloudprobe.prober import ProbeTarget
from cloudprobe.simulate import DurationDistribution, NetworkBurst, OutageProcess, sample_campaign

from conftest import BAD_URLS, attempt_line, write_config

# every report these tests build passes report's own schema check
pytestmark = pytest.mark.usefixtures("reports_pass_own_check")

QUIET = OutageProcess(up_mean_s=1e12, duration_dist=DurationDistribution.fixed(1.0))
LIVE = ("probe_interval_s = 600\nhorizon_days = 1\nmode = live\n"
        "target = http://host.example/obj\n")
DEEP = "[" * 100_000 + "]" * 100_000 + "\n"  # nested past any recursion limit
# a fragment with the keys the schema requires, its provenance left to fill in
FRAGMENT = '{"schema_version":"1","tool":{"name":"cloudprobe","version":"0"},"provenance":%s}'


def write_sim_config(path, campaign=None, process=None):
    campaign = campaign or CampaignConfig(
        probe_interval_s=600.0, horizon_days=1.0, vantage_points=2,
        retry_max=3, retry_gap_s=1.0, seed=7)
    write_config(path, campaign, process or QUIET)
    return campaign


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        campaign = CampaignConfig(probe_interval_s=660.0, horizon_days=75.0,
                                  vantage_points=54, retry_max=9, retry_gap_s=2.5,
                                  seed=123)
        process = OutageProcess(
            up_mean_s=3600.0,
            duration_dist=DurationDistribution.generalized_pareto(0.25, 120.0, 10.0),
            network_fail_prob=0.01,
            network_burst=NetworkBurst(rate_per_day=3.0, duration_s=4.5),
        )
        path = tmp_path / "campaign.ini"
        write_config(path, campaign, process)
        parsed = configfile.read_config(path)
        assert parsed.campaign == campaign
        assert parsed.process == process

    def test_live_round_trip(self, tmp_path):
        # a percent-encoded URL must survive the INI round trip verbatim
        campaign = CampaignConfig(probe_interval_s=600.0, horizon_days=1.0,
                                  mode="live", target="http://host.example/my%20obj")
        target = ProbeTarget(url=campaign.target, timeout_ms=5000.0,
                             success_statuses=frozenset({200, 204}),
                             expected_body_hash="ab" * 32)
        path = tmp_path / "live.ini"
        write_config(path, campaign, target=target)
        parsed = configfile.read_config(path)
        assert parsed.campaign == campaign
        assert parsed.target == target

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[campaign]\nprobe_interval_s = 600\nhorizon_days = 1\nbogus = 1\n")
        with pytest.raises(ConfigError) as err:
            configfile.read_config(path)
        assert "bogus" in str(err.value)

    def test_field_level_error_message(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[campaign]\nprobe_interval_s = 0\nhorizon_days = 1\n")
        with pytest.raises(ConfigError) as err:
            configfile.read_config(path)
        assert "probe_interval_s" in str(err.value)

    @pytest.mark.parametrize("body, key", [
        ("horizon_days = 1\n", "probe_interval_s"),
        ("probe_interval_s = nan\nhorizon_days = 1\n", "probe_interval_s"),
        ("probe_interval_s = 600\nhorizon_days = inf\n", "horizon_days"),
        ("probe_interval_s = 600\nhorizon_days = 1\nseed =\n", "seed"),
        ("probe_interval_s = 600\nhorizon_days = 1\n[process]\nup_mean_s = nan\n"
         "[duration]\nkind = fixed\nvalue_s = 1\n", "up_mean_s"),
        (LIVE + "[probe]\nsuccess_statuses = abc\n", "success_statuses"),
        (LIVE + "[probe]\ntimeout_ms = nan\n", "timeout_ms"),
        (LIVE + "[probe]\nurl = http://other.example/\n", "url"),
        ("probe_interval_s = 600\nhorizon_days = 1\n[process]\nnetwork_fail_prob = 0\n"
         "[duration]\nkind = fixed\nvalue_s = 1\n", "up_mean_s"),
        ("probe_interval_s = 600\nhorizon_days = 1\n[process]\nup_mean_s = 3600\n"
         "burst_rate_per_day = 2\n[duration]\nkind = fixed\nvalue_s = 1\n", "burst_duration_s"),
        ("probe_interval_s = 600\nhorizon_days = 1\n[process]\nup_mean_s = 3600\n"
         "[duration]\nkind = fixed\nvalue_s = 1\nmean_s = 99\n", "mean_s"),
    ], ids=["missing-interval", "nan-interval", "inf-horizon", "empty-seed", "nan-up-mean",
            "bad-statuses", "nan-timeout", "url-in-probe", "missing-up-mean",
            "one-burst-key", "key-of-another-kind"])
    def test_bad_value_names_key_and_exits_one(self, tmp_path, capsys, body, key):
        path = tmp_path / "c.ini"
        path.write_text("[campaign]\n" + body)
        with pytest.raises(ConfigError) as err:
            configfile.read_config(path)
        assert key in str(err.value)
        assert main(["probe", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_values_mean_defaults(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[campaign]\n" + LIVE + "[probe]\nsuccess_statuses =\n"
                        "expected_body_hash =\n")
        assert configfile.read_config(path).target == ProbeTarget(url="http://host.example/obj")
        path.write_text("[campaign]\nprobe_interval_s = 600\nhorizon_days = 1\ntarget =\n")
        assert configfile.read_config(path).campaign == CampaignConfig(600.0, 1.0)

    def test_duration_requires_process(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[campaign]\nprobe_interval_s = 600\nhorizon_days = 1\n"
                        "[duration]\nkind = fixed\nvalue_s = 10\n")
        with pytest.raises(ConfigError):
            configfile.read_config(path)

    def test_empirical_duration_values(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[campaign]\nprobe_interval_s = 600\nhorizon_days = 1\n"
            "[process]\nup_mean_s = 3600\n"
            "[duration]\nkind = empirical\nvalues = 30 60 90\n")
        parsed = configfile.read_config(path)
        assert parsed.process.duration_dist.values == (30.0, 60.0, 90.0)


class TestCmdSimulate:
    def test_writes_logs_and_reports_tries(self, tmp_path, capsys):
        config_path = tmp_path / "c.ini"
        write_sim_config(config_path)
        rc = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "expected tries: 288" in out  # 2 vantage * 144 slots
        assert "actual first attempts: 288" in out
        records = logs.read_attempt_log(tmp_path / "out" / "attempts.jsonl")
        assert len(records) == 288  # quiet process: no retries
        assert (tmp_path / "out" / "truth.jsonl").exists()

    def test_same_seed_identical_digests(self, tmp_path):
        config_path = tmp_path / "c.ini"
        write_sim_config(config_path, process=OutageProcess(
            up_mean_s=3600.0, duration_dist=DurationDistribution.exponential(120.0),
            network_fail_prob=0.02))
        digests = []
        for name in ("a", "b"):
            rc = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / name)])
            assert rc == 0
            digests.append((logs.sha256_file(tmp_path / name / "attempts.jsonl"),
                            logs.sha256_file(tmp_path / name / "truth.jsonl")))
        assert digests[0] == digests[1]

    def test_seed_override_changes_output(self, tmp_path):
        config_path = tmp_path / "c.ini"
        write_sim_config(config_path, process=OutageProcess(
            up_mean_s=3600.0, duration_dist=DurationDistribution.exponential(120.0)))
        main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(config_path), "--seed", "999",
              "--out", str(tmp_path / "b")])
        assert (logs.sha256_file(tmp_path / "a" / "truth.jsonl")
                != logs.sha256_file(tmp_path / "b" / "truth.jsonl"))

    def test_published_campaign_one_tally(self, tmp_path, capsys):
        config_path = tmp_path / "c.ini"
        write_sim_config(config_path, campaign=CampaignConfig(
            probe_interval_s=600.0, horizon_days=33.0, vantage_points=23,
            retry_max=1, retry_gap_s=0.0, seed=1))
        rc = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "expected tries: 109296" in out
        assert "actual first attempts: 109296" in out

    def test_bad_config_exits_one(self, tmp_path, capsys):
        config_path = tmp_path / "c.ini"
        config_path.write_text("[campaign]\nprobe_interval_s = 0\nhorizon_days = 1\n")
        rc = main(["simulate", "--config", str(config_path)])
        assert rc == 1
        assert "probe_interval_s" in capsys.readouterr().err

    def test_missing_process_exits_one(self, tmp_path):
        config_path = tmp_path / "c.ini"
        write_config(config_path, CampaignConfig(
            probe_interval_s=600.0, horizon_days=1.0))
        assert main(["simulate", "--config", str(config_path)]) == 1


class TestCmdEstimate:
    @pytest.fixture
    def sim_out(self, tmp_path):
        config_path = tmp_path / "c.ini"
        write_sim_config(config_path, campaign=CampaignConfig(
            probe_interval_s=600.0, horizon_days=1.0, vantage_points=1,
            retry_max=3, retry_gap_s=1.0, seed=7))
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        return config_path, out / "attempts.jsonl"

    def test_fragment_on_stdout(self, sim_out, capsys):
        config_path, log_path = sim_out
        rc = main(["estimate", "--log", str(log_path), "--claim", "0.999",
                   "--alpha", "0.01", "--config", str(config_path)])
        assert rc == 0
        frag = json.loads(capsys.readouterr().out)
        assert frag["kind"] == "estimate"
        assert frag["estimates"]["first_try"] == 1.0
        assert frag["counts"]["attempts"][0] == 144
        assert frag["sla_tests"][0]["reject"] is False  # perfect record
        assert frag["provenance"]["log_sha256"] == logs.sha256_file(log_path)
        assert frag["config"]["retry_max"] == 3

    def test_empty_claim_list_gives_estimates_only(self, sim_out, capsys):
        _, log_path = sim_out
        rc = main(["estimate", "--log", str(log_path)])
        assert rc == 0
        frag = json.loads(capsys.readouterr().out)
        assert frag["sla_tests"] == []
        assert "estimates" in frag

    def test_insufficient_data_exits_zero_with_flag(self, tmp_path, capsys):
        log_path = tmp_path / "empty.jsonl"
        log_path.write_text("")
        rc = main(["estimate", "--log", str(log_path), "--claim", "0.999"])
        assert rc == 0
        frag = json.loads(capsys.readouterr().out)
        assert frag["insufficient_data"] is True
        assert "estimates" not in frag

    def test_malformed_log_exits_two(self, tmp_path, capsys):
        log_path = tmp_path / "bad.jsonl"
        log_path.write_text(
            '{"ts_s":0,"vantage":0,"slot":0,"attempt":1,"outcome":"success"}\n'
            '{"ts_s":1,"vantage":0,"slot":0,"attempt":2,"outcome":"success"}\n')
        rc = main(["estimate", "--log", str(log_path)])
        assert rc == 2
        assert "slot=0" in capsys.readouterr().err

    def test_missing_log_exits_three(self, tmp_path):
        assert main(["estimate", "--log", str(tmp_path / "nope.jsonl")]) == 3

    def test_csv_format(self, sim_out, capsys):
        _, log_path = sim_out
        rc = main(["estimate", "--log", str(log_path), "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimates.first_try,1.0" in out

    def test_persistence_extreme_report_shows_no_retry_filtering(self, tmp_path, capsys):
        # long outages, immediate retries: the filtered estimate cannot exceed
        # the first-try estimate, and the report shows them equal
        config_path = tmp_path / "c.ini"
        write_sim_config(config_path, campaign=CampaignConfig(
            probe_interval_s=600.0, horizon_days=7.0, vantage_points=1,
            retry_max=9, retry_gap_s=0.0, seed=2),
            process=OutageProcess(up_mean_s=7200.0,
                                  duration_dist=DurationDistribution.fixed(3600.0)))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["estimate", "--log", str(out / "attempts.jsonl"),
                   "--config", str(config_path)])
        assert rc == 0
        frag = json.loads(capsys.readouterr().out)
        est = frag["estimates"]
        assert 0.0 < est["first_try"] < 1.0
        assert est["retry_filtered"] == est["first_try"]


class TestCmdDetect:
    @pytest.fixture
    def campaign_dir(self, tmp_path):
        config_path = tmp_path / "c.ini"
        write_sim_config(config_path, campaign=CampaignConfig(
            probe_interval_s=600.0, horizon_days=2.0, vantage_points=1,
            retry_max=3, retry_gap_s=1.0, seed=3),
            process=OutageProcess(up_mean_s=4000.0,
                                  duration_dist=DurationDistribution.exponential(500.0)))
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        return config_path, out

    def test_fragment_and_curve(self, campaign_dir, tmp_path, capsys):
        config_path, out = campaign_dir
        rc = main(["detect", "--log", str(out / "attempts.jsonl"),
                   "--truth", str(out / "truth.jsonl"),
                   "--config", str(config_path),
                   "--threshold-s", "3600",
                   "--out", str(tmp_path / "det")])
        assert rc == 0
        frag = json.loads((tmp_path / "det" / "detect.json").read_text())
        det = frag["detection"]
        assert det["detected"] + det["undetected"] == det["total_true_outages"] > 0
        metrics = frag["sla_metrics"]
        assert metrics["detected"]["failure_count"] <= metrics["true"]["failure_count"]
        assert metrics["true"]["threshold_s"] == 3600.0

        curve = (tmp_path / "det" / "nodetect_curve.csv").read_text().splitlines()
        assert curve[0] == "l_over_t,p_nodet"
        rows = {float(a): float(b) for a, b in (line.split(",") for line in curve[1:])}
        assert rows[0.5] == pytest.approx(0.5)
        assert rows[1.0] == 0.0

    def test_zero_threshold_counts_all_long(self, campaign_dir, tmp_path):
        config_path, out = campaign_dir
        main(["detect", "--log", str(out / "attempts.jsonl"),
              "--truth", str(out / "truth.jsonl"), "--config", str(config_path),
              "--out", str(tmp_path / "det0")])
        frag = json.loads((tmp_path / "det0" / "detect.json").read_text())
        detected = frag["sla_metrics"]["detected"]
        assert detected["long_outage_count"] == detected["failure_count"]

    def test_log_estimate_rejects_exits_two(self, campaign_dir, tmp_path, capsys):
        # slot 1 starts at attempt 2: detect_outages alone would read this log
        config_path, out = campaign_dir
        log_path = tmp_path / "bad.jsonl"
        log_path.write_text("".join(
            f'{{"ts_s":{600 * slot + attempt - 1},"vantage":0,"slot":{slot},'
            f'"attempt":{attempt},"outcome":"success"}}\n'
            for slot, attempt in ((0, 1), (1, 2), (2, 1))))
        capsys.readouterr()
        for argv in (["estimate"], ["detect", "--truth", str(out / "truth.jsonl")]):
            assert main([*argv, "--log", str(log_path), "--config", str(config_path),
                         "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == (f"data error: malformed attempt log {log_path} at "
                                               "vantage=0 slot=1: expected attempt 1, found 2\n")
        assert not (tmp_path / "o" / "detect.json").exists()

    def test_horizon_mismatch_exits_two(self, campaign_dir, tmp_path, capsys):
        config_path, out = campaign_dir
        short = tmp_path / "short.ini"
        write_sim_config(short, campaign=CampaignConfig(
            probe_interval_s=600.0, horizon_days=0.01, vantage_points=1,
            retry_max=3, retry_gap_s=1.0, seed=3))
        rc = main(["detect", "--log", str(out / "attempts.jsonl"),
                   "--truth", str(out / "truth.jsonl"), "--config", str(short)])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err


def _flip_sidecar_sha(log_path):
    sidecar = logs.sidecar_path(log_path)
    data = bytearray(Path(sidecar).read_bytes())
    data[24] ^= 1  # the first byte of the log's sha256 in the header
    Path(sidecar).write_bytes(bytes(data))


class TestLogSha256:
    """estimate and detect give the log's sha256 as their read of the log took
    it, feeding the log's bytes to a hash once, whichever way the log is read."""

    CASES = {  # how each case leaves the log and its sidecar, and whether the log is parsed
        "sidecar": (lambda path: None, False),
        "no-sidecar": (lambda path: os.remove(logs.sidecar_path(path)), True),
        "wrong-sidecar-sha": (_flip_sidecar_sha, True),
        "crlf": (lambda path: path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n")),
                 True),
    }

    @staticmethod
    def count_hashed_bytes(monkeypatch):
        """A list that every sha256 made from now on extends by the length of
        each piece it is fed."""
        fed, sha256 = [], hashlib.sha256

        class Counting:
            def __init__(self, data=b""):
                self._hash = sha256()
                self.update(data)

            def update(self, data):
                fed.append(len(data))
                self._hash.update(data)

            def digest(self):
                return self._hash.digest()

            def hexdigest(self):
                return self._hash.hexdigest()

        monkeypatch.setattr(hashlib, "sha256", Counting)
        return fed

    @pytest.mark.parametrize("command", ["estimate", "detect"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_log_is_hashed_once(self, tmp_path, monkeypatch, command, case):
        config = tmp_path / "c.ini"
        write_sim_config(config)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        log_path, truth = out / "attempts.jsonl", out / "truth.jsonl"
        spoil, parsed = self.CASES[case]
        spoil(log_path)
        argv = {"estimate": ["estimate", "--log", str(log_path), "--out", str(out)],
                "detect": ["detect", "--log", str(log_path), "--truth", str(truth),
                           "--config", str(config), "--out", str(out)]}[command]
        others = [] if command == "estimate" else [truth, config]  # detect hashes them too
        parses, parse = [], logs._parse
        monkeypatch.setattr(logs, "_parse", lambda text: parses.append(text) or parse(text))
        fed = self.count_hashed_bytes(monkeypatch)
        assert main(argv) == 0
        assert sum(fed) == sum(path.stat().st_size for path in [log_path, *others])
        frag = json.loads((out / f"{command}.json").read_text())
        want = hashlib.sha256(log_path.read_bytes()).hexdigest()
        assert frag["provenance"]["log_sha256"] == want
        assert b"".join(parses) == (log_path.read_bytes() if parsed else b"")


class TestCmdReport:
    def make_fragments(self, tmp_path):
        config_path = tmp_path / "c.ini"
        write_sim_config(config_path, campaign=CampaignConfig(
            probe_interval_s=600.0, horizon_days=1.0, vantage_points=1,
            retry_max=3, retry_gap_s=1.0, seed=5),
            process=OutageProcess(up_mean_s=7200.0,
                                  duration_dist=DurationDistribution.fixed(900.0)))
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_path), "--out", str(out)])
        main(["estimate", "--log", str(out / "attempts.jsonl"), "--claim", "0.999",
              "--config", str(config_path), "--out", str(out)])
        main(["detect", "--log", str(out / "attempts.jsonl"),
              "--truth", str(out / "truth.jsonl"), "--config", str(config_path),
              "--threshold-s", "600", "--out", str(out)])
        return config_path, out

    def test_merge_validates_schema(self, tmp_path, capsys):
        def refuse(constant):  # each document is strict JSON: no NaN or Infinity
            raise ValueError(constant)

        _, out = self.make_fragments(tmp_path)
        for name in ("estimate.json", "detect.json"):
            json.loads((out / name).read_text(), parse_constant=refuse)
        capsys.readouterr()  # drop fragment-step output
        rc = main(["report", str(out / "estimate.json"), str(out / "detect.json")])
        assert rc == 0
        merged = json.loads(capsys.readouterr().out, parse_constant=refuse)
        report.validate_report(merged)
        assert merged["tool"] == {"name": "cloudprobe", "version": cloudprobe.__version__}
        assert "estimates" in merged and "detection" in merged
        assert set(merged["provenance"]) == {"log_sha256", "truth_sha256", "config_sha256"}

    def test_packaged_schema_is_valid(self):
        # validate_report does not check the schema itself on each run, so it is checked here
        schema = report.load_schema()
        validator = jsonschema.validators.validator_for(schema)
        assert validator is jsonschema.Draft202012Validator  # as its $schema names
        validator.check_schema(schema)

    def test_schema_violation_exits_two(self, tmp_path, capsys):
        _, out = self.make_fragments(tmp_path)
        bad = json.loads((out / "estimate.json").read_text())
        bad["counts"]["attempts"][0] = -1  # two errors: the first in schema order is named
        bad["estimates"]["first_try"] = 2.0
        (out / "bad.json").write_text(json.dumps(bad))
        errors = jsonschema.Draft202012Validator(report.load_schema()).iter_errors(bad)
        assert (["counts", "attempts", 0], "minimum") in \
            [(list(e.absolute_path), e.validator) for e in errors]
        capsys.readouterr()  # drop fragment-step output
        assert main(["report", str(out / "detect.json"), str(out / "bad.json")]) == 2
        assert capsys.readouterr().err == ("data error: fragment 2 does not match schema: "
                                           "counts.attempts[0] (-1) fails minimum\n")

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, number):
        # JSON has no non-finite number, so no fragment may hold one, even by overflow
        _, out = self.make_fragments(tmp_path)
        bad = json.loads((out / "estimate.json").read_text())
        bad["estimates"]["first_try"] = "X"
        (out / "bad.json").write_text(json.dumps(bad).replace('"X"', number))
        capsys.readouterr()  # drop fragment-step output
        assert main(["report", str(out / "bad.json")]) == 2
        assert capsys.readouterr() == ("", f"data error: fragment {out / 'bad.json'}: "
                                           f"number {number} is not finite\n")

    def test_single_fragment_pass_through(self, tmp_path, capsys):
        _, out = self.make_fragments(tmp_path)
        capsys.readouterr()  # drop fragment-step output
        rc = main(["report", str(out / "estimate.json")])
        assert rc == 0
        merged = json.loads(capsys.readouterr().out)
        assert "estimates" in merged and "detection" not in merged

    def test_non_object_fragment_exits_two(self, tmp_path):
        path = tmp_path / "frag.json"
        path.write_text("[1, 2]")
        assert main(["report", str(path)]) == 2

    def detect_under(self, tmp_path, out, config_text, name):
        """A detect fragment on out's log and truth, under another config file."""
        config_path = tmp_path / f"{name}.ini"
        config_path.write_text(config_text)
        assert main(["detect", "--log", str(out / "attempts.jsonl"),
                     "--truth", str(out / "truth.jsonl"), "--config", str(config_path),
                     "--threshold-s", "600", "--out", str(tmp_path / name)]) == 0
        return tmp_path / name / "detect.json"

    def test_config_echo_mismatch_exits_two(self, tmp_path, capsys):
        # detection computed at 300 s must not merge with an estimate made at 600 s
        config_path, out = self.make_fragments(tmp_path)
        text = config_path.read_text()
        c300 = self.detect_under(tmp_path, out, text.replace(
            "probe_interval_s = 600", "probe_interval_s = 300"), "c300")
        capsys.readouterr()  # drop fragment-step output
        assert main(["report", str(out / "estimate.json"), str(c300)]) == 2
        assert capsys.readouterr().err == ("data error: fragments disagree on config "
                                           "probe_interval_s: 600.0 != 300.0\n")

    def test_provenance_mismatch_exits_two(self, tmp_path, capsys):
        # two configs with one [campaign] but another [process] echo alike, and differ
        # in their digest
        config_path, out = self.make_fragments(tmp_path)
        text = config_path.read_text()
        other = self.detect_under(tmp_path, out, text.replace(
            "up_mean_s = 7200", "up_mean_s = 3600"), "other")
        assert json.loads(other.read_text())["config"] == \
            json.loads((out / "detect.json").read_text())["config"]
        capsys.readouterr()  # drop fragment-step output
        assert main(["report", str(out / "detect.json"), str(other)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: fragments disagree on provenance config_sha256: ")
        # the same config file again, under another name, merges
        same = self.detect_under(tmp_path, out, text, "same")
        assert main(["report", str(out / "estimate.json"), str(out / "detect.json"),
                     str(same)]) == 0

    @pytest.mark.parametrize("command, flags, message", [
        ("detect", ["--threshold-s", "0"], "sla_metrics detected "),
        ("estimate", ["--claim", "0.99"], "sla_tests: [{"),
    ], ids=["detect-threshold", "estimate-claim"])
    def test_section_mismatch_exits_two(self, tmp_path, capsys, command, flags, message):
        # a second fragment of one log and config, under other flags, must not
        # replace the first one's section
        config_path, out = self.make_fragments(tmp_path)
        log, truth = str(out / "attempts.jsonl"), str(out / "truth.jsonl")
        argv = [command, "--log", log, "--config", str(config_path), *flags,
                "--out", str(tmp_path / "other")]
        assert main(argv + (["--truth", truth] if command == "detect" else [])) == 0
        capsys.readouterr()  # drop fragment-step output
        assert main(["report", str(out / "estimate.json"), str(out / f"{command}.json"),
                     str(tmp_path / "other" / f"{command}.json")]) == 2
        assert capsys.readouterr().err.startswith(f"data error: fragments disagree on {message}")

    def test_seed_override_echoes_alike(self, tmp_path, capsys):
        # estimate and detect both echo the --seed that overrides the config's seed
        config_path, out = self.make_fragments(tmp_path)
        log, truth = str(out / "attempts.jsonl"), str(out / "truth.jsonl")
        seeded = tmp_path / "seeded"
        for argv in (["estimate", "--log", log], ["detect", "--log", log, "--truth", truth]):
            assert main([*argv, "--config", str(config_path), "--seed", "9",
                         "--out", str(seeded)]) == 0
        capsys.readouterr()  # drop fragment-step output
        assert main(["report", str(seeded / "estimate.json"), str(seeded / "detect.json")]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 9

    def test_digest_mismatch_exits_two(self, tmp_path, capsys):
        _, out = self.make_fragments(tmp_path)
        frag = json.loads((out / "estimate.json").read_text())
        frag["provenance"]["log_sha256"] = "0" * 64
        (out / "tampered.json").write_text(json.dumps(frag))
        rc = main(["report", str(out / "tampered.json"), str(out / "detect.json")])
        assert rc == 2
        assert "different logs" in capsys.readouterr().err

    def test_csv_format_writes_json_files(self, tmp_path, capsys):
        # --format is the stdout format; a file written with --out stays JSON, so
        # that report can read the fragments back
        config_path, out = self.make_fragments(tmp_path)
        csv_out = tmp_path / "csv"
        log, truth = str(out / "attempts.jsonl"), str(out / "truth.jsonl")
        for argv in (["estimate", "--log", log, "--claim", "0.999"],
                     ["detect", "--log", log, "--truth", truth, "--threshold-s", "600"]):
            assert main([*argv, "--config", str(config_path), "--format", "csv",
                         "--out", str(csv_out)]) == 0
        frags = [str(csv_out / name) for name in ("estimate.json", "detect.json")]
        assert main(["report", *frags, "--format", "csv", "--out", str(csv_out)]) == 0
        assert main(["report", str(out / "estimate.json"), str(out / "detect.json"),
                     "--out", str(out)]) == 0
        for name in ("estimate.json", "detect.json", "report.json"):
            assert (csv_out / name).read_bytes() == (out / name).read_bytes()

    def test_end_to_end_determinism(self, tmp_path):
        texts = []
        for name in ("r1", "r2"):
            base = tmp_path / name
            config_path = base / "c.ini"
            base.mkdir()
            write_sim_config(config_path, campaign=CampaignConfig(
                probe_interval_s=600.0, horizon_days=1.0, vantage_points=2,
                retry_max=3, retry_gap_s=1.0, seed=11),
                process=OutageProcess(up_mean_s=5000.0,
                                      duration_dist=DurationDistribution.exponential(300.0)))
            out = base / "out"
            assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
            assert main(["estimate", "--log", str(out / "attempts.jsonl"),
                         "--claim", "0.99", "--config", str(config_path),
                         "--out", str(out)]) == 0
            assert main(["detect", "--log", str(out / "attempts.jsonl"),
                         "--truth", str(out / "truth.jsonl"),
                         "--config", str(config_path), "--out", str(out)]) == 0
            assert main(["report", str(out / "estimate.json"), str(out / "detect.json"),
                         "--out", str(out)]) == 0
            texts.append((out / "report.json").read_bytes())
        assert texts[0] == texts[1]


class TestCmdProbe:
    def test_probe_and_resume(self, http_fixture, tmp_path, capsys):
        config_path = tmp_path / "live.ini"
        campaign = CampaignConfig(probe_interval_s=0.25, horizon_days=3 * 0.25 / 86400.0,
                                  retry_max=2, retry_gap_s=0.05, seed=0,
                                  mode="live", target=http_fixture.url)
        write_config(config_path, campaign,
                     target=ProbeTarget(url=http_fixture.url, timeout_ms=2000))
        out = tmp_path / "out"
        rc = main(["probe", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        assert "slots completed: 3 of 3" in capsys.readouterr().out
        records = logs.read_attempt_log(out / "attempts.jsonl")
        assert records.slot.tolist() == [0, 1, 2]

        # longer campaign resumes after the log's last slot without duplicating slots
        longer = tmp_path / "longer.ini"
        write_config(
            longer,
            CampaignConfig(probe_interval_s=0.25, horizon_days=5 * 0.25 / 86400.0,
                           retry_max=2, retry_gap_s=0.05, seed=0,
                           mode="live", target=http_fixture.url),
            target=ProbeTarget(url=http_fixture.url, timeout_ms=2000))
        rc = main(["probe", "--config", str(longer), "--out", str(out), "--resume"])
        assert rc == 0
        records = logs.read_attempt_log(out / "attempts.jsonl")
        assert records.slot.tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.skipif(sys.platform == "win32", reason="sends SIGINT, as Ctrl-C does on POSIX")
    def test_ctrl_c_exits_130_and_leaves_a_readable_log(self, tmp_path):
        # each slot makes two attempts, refused at a closed loopback port, 0.4 s apart
        # in a 0.5 s slot; SIGINT comes just after the first slot is written, so in the
        # second slot's retry gap
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        config = tmp_path / "live.ini"
        write_config(config, CampaignConfig(
            probe_interval_s=0.5, horizon_days=100 * 0.5 / 86400.0, retry_max=2,
            retry_gap_s=0.4, mode="live", target=f"http://127.0.0.1:{port}/x"))
        log = tmp_path / "attempts.jsonl"
        env = {**os.environ, "PYTHONPATH": str(Path(cloudprobe.__file__).parents[1])}
        child = subprocess.Popen(
            [sys.executable, "-m", "cloudprobe", "probe", "--config", str(config),
             "--out", str(tmp_path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
            # a Python started with SIGINT ignored, as a background job is, keeps ignoring it
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            deadline = time.monotonic() + 30
            while not (log.exists() and log.stat().st_size) and time.monotonic() < deadline:
                time.sleep(0.02)
            time.sleep(0.2)
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=30)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 130
        assert "Traceback" not in err and err == "interrupted\n"
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert rows and all((row["outcome"], row["reason"]) == ("fail", "connect") for row in rows)
        assert main(["estimate", "--config", str(config), "--log", str(log),
                     "--out", str(tmp_path)]) == 0

    def test_bad_scheme_rejected_before_probing(self, tmp_path, capsys):
        config_path = tmp_path / "live.ini"
        config_path.write_text(
            "[campaign]\nprobe_interval_s = 0.25\nhorizon_days = 1e-5\n"
            "retry_max = 1\nretry_gap_s = 0\nmode = live\ntarget = ftp://host/x\n")
        rc = main(["probe", "--config", str(config_path)])
        assert rc == 1
        assert "http" in capsys.readouterr().err

    def test_simulate_mode_config_rejected(self, tmp_path):
        config_path = tmp_path / "c.ini"
        write_sim_config(config_path)
        assert main(["probe", "--config", str(config_path)]) == 1

    @pytest.mark.parametrize("flag, value, needle", [
        ("--timeout-ms", "0", "timeout_ms"), ("--url", "", "http"),
        ("--expected-body-hash", "", "expected_body_hash")])
    def test_empty_or_zero_flag_rejected_before_probing(self, http_fixture, tmp_path, capsys,
                                                         flag, value, needle):
        config_path = tmp_path / "live.ini"
        write_config(config_path, CampaignConfig(
            probe_interval_s=0.25, horizon_days=0.25 / 86400.0, retry_max=1, retry_gap_s=0.0,
            mode="live", target=http_fixture.url))
        out = tmp_path / "out"
        assert main(["probe", "--config", str(config_path), "--out", str(out), flag, value]) == 1
        assert needle in capsys.readouterr().err
        assert http_fixture.count == 0 and not (out / "attempts.jsonl").exists()

    @pytest.mark.parametrize("url", BAD_URLS)
    def test_bad_url_exits_one_before_probing(self, http_fixture, tmp_path, capsys, url):
        config_path = tmp_path / "live.ini"
        write_config(config_path, CampaignConfig(
            probe_interval_s=0.25, horizon_days=0.25 / 86400.0, retry_max=1, retry_gap_s=0.0,
            mode="live", target=http_fixture.url))
        out = tmp_path / "out"
        assert main(["probe", "--config", str(config_path), "--out", str(out), "--url", url]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: target URL {url!r}") and "Traceback" not in err
        assert http_fixture.count == 0 and not (out / "attempts.jsonl").exists()


class TestMalformedInput:
    @pytest.mark.parametrize("argv, files, code, needle", [
        (["estimate", "--log", "{log}", "--claim", "1.5"], {}, 1, "claimed_availability"),
        (["estimate", "--log", "{log}", "--claim", "0.99", "--alpha", "0"], {}, 1, "alpha"),
        (["estimate", "--log", "{log}", "--alpha", "7"], {}, 1, "--alpha must be in (0, 1)"),
        # the seed reaches only the config echo, so without --config it would go unread
        (["estimate", "--log", "{log}", "--seed", "4"], {}, 1, "error: --seed needs --config"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}",
          "--threshold-s", "-1"], {}, 1, "--threshold-s"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}",
          "--threshold-s", "inf"], {}, 1, "error: --threshold-s must be finite and >= 0"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}"],
         {"truth.jsonl": '{"start_s":0,"duration_s":100,"cause":"cloud"}\n'
                         '{"start_s":50,"duration_s":10,"cause":"cloud"}\n'},
         2, "overlapping"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}"],
         {"attempts.jsonl": '{"ts_s":0,"vantage":"a","slot":0,"attempt":1,"outcome":"success"}\n'
                            '{"ts_s":0,"vantage":0,"slot":0,"attempt":1,"outcome":"success"}\n'},
         2, "vantage"),
        (["estimate", "--log", "{log}"],
         {"attempts.jsonl": '{"ts_s":NaN,"vantage":0,"slot":0,"attempt":1,"outcome":"success"}\n'},
         2, "ts_s"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}"],
         {"truth.jsonl": '{"start_s":NaN,"duration_s":100,"cause":"cloud"}\n'},
         2, "start_s"),
        (["estimate", "--log", "{log}"],
         {"attempts.jsonl": '{"ts_s":0,"vantage":0,"slot":1.7,"attempt":1,"outcome":"success"}\n'},
         2, "slot"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}"],
         {"truth.jsonl": '{"start_s":86000,"duration_s":1000,"cause":"cloud"}\n'},
         2, "exceeds horizon"),
        (["estimate", "--log", "{log}"],
         {"attempts.jsonl": '{"ts_s":0,"vantage":0,"slot":0,"attempt":1,"outcome":"success",'
                            '"latency_ms":NaN}\n'},
         2, "line 1: latency_ms"),
        (["estimate", "--log", "{log}"],
         {"attempts.jsonl": '{"ts_s":0,"vantage":0,"slot":0,"attempt":1,"outcome":"success",'
                            '"latency_ms":true}\n'},
         2, "line 1: latency_ms must be a number, got True"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}"],
         {"attempts.jsonl": '{"ts_s":0,"vantage":0,"slot":0,"attempt":1,"outcome":"success"}\n'
                            '{"ts_s":600,"vantage":0,"slot":1,"attempt":1,"outcome":"fail",'
                            '"latency_ms":Infinity,"reason":"timeout"}\n'},
         2, "line 2: latency_ms"),
        (["estimate", "--log", "{log}"],
         {"attempts.jsonl": b'{"ts_s":0,"vantage":0,"slot":0,"attempt":1,"outcome":"success"}\n'
                            b'\xff\xfe\n'},
         2, "line 2: 'utf-8' codec can't decode"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}"],
         {"truth.jsonl": b'\xff\xfe\n'}, 2, "line 1: 'utf-8' codec can't decode"),
        (["report", "{out}/frag.json"], {"frag.json": b'\xff\xfe{}\n'},
         2, "'utf-8' codec can't decode"),
        (["estimate", "--log", "{log}", "--config", "{out}/bad.ini"],
         {"bad.ini": b'[campaign]\n\xff\xfe\n'}, 1, "cannot parse config"),
        (["estimate", "--log", "{log}"],
         {"attempts.jsonl": '{"ts_s":"5","vantage":0,"slot":0,"attempt":1,"outcome":"success"}\n'},
         2, "line 1: ts_s must be a number, got '5'"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}"],
         {"truth.jsonl": '{"start_s":0,"duration_s":10,"cause":"cloud"}\n'
                         '{"start_s":"5","duration_s":10,"cause":"cloud"}\n'},
         2, "line 2: start_s must be a number, got '5'"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}"],
         {"truth.jsonl": '{"start_s":5,"duration_s":true,"cause":"cloud"}\n'},
         2, "line 1: duration_s must be a number, got True"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}"],
         {"truth.jsonl": '{"start_s":' + "1" * 400 + ',"duration_s":10,"cause":"cloud"}\n'},
         2, "line 1: int too large to convert to float"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}"],
         {"truth.jsonl": '{"start_s":0,"duration_s":10}\n'
                         '{"start_s":50,"duration_s":10,"cause":"storm"}\n'},
         2, "line 2: cause must be one of cloud, network, got 'storm'"),
        (["report", "{out}/frag.json"], {"frag.json": FRAGMENT % '[1]'},
         2, "data error: fragment 1 does not match schema: provenance fails type"),
        (["report", "{out}/frag.json"], {"frag.json": FRAGMENT % '{"log_sha256":["a"]}'},
         2, "data error: fragment 1 does not match schema: provenance.log_sha256 fails type"),
        (["report", "{out}/frag.json"], {"frag.json": DEEP},
         2, "frag.json: maximum recursion depth exceeded"),
        (["estimate", "--log", "{log}"], {"attempts.jsonl": DEEP},
         2, "line 1: maximum recursion depth exceeded"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}"],
         {"truth.jsonl": DEEP}, 2, "line 1: maximum recursion depth exceeded"),
        # a log written under retry_max 2 resumed under 3, refused before any probe
        (["probe", "--config", "{out}/live.ini", "--out", "{out}", "--resume"],
         {"live.ini": "[campaign]\nprobe_interval_s = 0.2\nhorizon_days = 0.00001\n"
                      "retry_max = 3\nretry_gap_s = 0.05\nmode = live\n"
                      "target = http://127.0.0.1:9/obj\n",
          "attempts.jsonl": '{"ts_s":0.0,"vantage":0,"slot":0,"attempt":1,"outcome":"fail"}\n'
                            '{"ts_s":0.05,"vantage":0,"slot":0,"attempt":2,"outcome":"fail"}\n'
                            '{"ts_s":0.2,"vantage":0,"slot":1,"attempt":1,"outcome":"success"}\n'},
         2, "slot=0: slot ended after failed attempt 2 of 3"),
        # a log of six slots resumed under a config of four, refused before any probe
        (["probe", "--config", "{out}/live.ini", "--out", "{out}", "--resume"],
         {"live.ini": "[campaign]\nprobe_interval_s = 0.2\nhorizon_days = 0.00001\n"
                      "retry_max = 3\nretry_gap_s = 0.05\nmode = live\n"
                      "target = http://127.0.0.1:9/obj\n",
          "attempts.jsonl": "".join(attempt_line(0.2 * slot, 0, slot, 1, "success")
                                    for slot in range(6))},
         2, "a record lies outside this campaign's vantage 0, slots 0 to 3"),
        (["estimate", "--log", "{log}", "--config", "{out}/bad.ini"],
         {"bad.ini": "[process]\nup_mean_s = 7200\n"}, 1, "config must have a [campaign] section"),
        (["estimate", "--log", "{log}", "--config", "{out}/bad.ini"],
         {"bad.ini": "[campaign]\nprobe_interval_s = 600\nhorizon_days = 1\n"
                     "[process]\nup_mean_s = 7200\n"},
         1, "[process] requires a [duration] section"),
        (["estimate", "--log", "{log}", "--config", "{out}/bad.ini"],
         {"bad.ini": "[campaign]\nprobe_interval_s = 600\nhorizon_days = 1\nmode = simulate\n"
                     "[probe]\ntimeout_ms = 100\n"},
         1, "[probe] section only applies to live mode"),
        (["simulate", "--config", "{out}/live.ini", "--out", "{out}/sim"],
         {"live.ini": "[campaign]\nprobe_interval_s = 600\nhorizon_days = 1\nmode = live\n"
                      "target = http://127.0.0.1:9/obj\n[process]\nup_mean_s = 7200\n"
                      "[duration]\nkind = exponential\nmean_s = 900\n"},
         1, "simulate needs mode=simulate"),
        (["detect", "--log", "{log}", "--truth", "{truth}"], {},
         1, "--config is required for this command"),
    ], ids=["claim-above-one", "alpha-zero", "alpha-without-claim", "seed-without-config",
            "negative-threshold", "infinite-threshold", "overlapping-truth", "string-vantage",
            "nan-ts", "nan-truth", "fractional-slot", "truth-beyond-horizon",
            "nan-latency", "bool-latency", "infinite-latency", "non-utf8-log", "non-utf8-truth",
            "non-utf8-fragment", "non-utf8-config", "string-ts",
            "string-truth", "bool-truth", "huge-int-truth", "unknown-cause-truth",
            "provenance-not-object", "digest-not-string", "deep-fragment", "deep-log",
            "deep-truth", "resume-other-retry-max", "resume-longer-log", "no-campaign-section",
            "process-without-duration", "probe-section-in-simulate", "simulate-live-config",
            "detect-without-config"])
    def test_documented_exit_code(self, tmp_path, capsys, argv, files, code, needle):
        config = tmp_path / "c.ini"
        write_sim_config(config, campaign=CampaignConfig(
            probe_interval_s=600.0, horizon_days=1.0, retry_max=3, seed=3))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        for name, text in files.items():
            (out / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        paths = {"log": out / "attempts.jsonl", "truth": out / "truth.jsonl", "config": config,
                 "out": out}
        capsys.readouterr()
        assert main([arg.format(**paths) for arg in argv]) == code
        err = capsys.readouterr().err
        assert needle in err
        if "truth.jsonl" in files:
            assert f"truth file {paths['truth']}" in err and "attempt log" not in err
        if "attempts.jsonl" in files:
            assert f"attempt log {paths['log']}" in err and "truth file" not in err

    def test_resume_of_a_slot_cut_short_probes_nothing(self, http_fixture, tmp_path, capsys):
        # slot 1 ends after its first failed attempt of 3, as only an older version, a
        # torn write or a hand edit leaves a log: exit 2, no probe, the log unchanged
        config = tmp_path / "live.ini"
        write_config(config, CampaignConfig(probe_interval_s=0.2, horizon_days=0.00001,
                                            retry_max=3, retry_gap_s=0.05, mode="live",
                                            target=http_fixture.url))
        log = tmp_path / "attempts.jsonl"
        log.write_text(attempt_line(0.0, 0, 0, 1, "success", 1.25)
                       + attempt_line(0.2, 0, 1, 1, "fail", None, "status"))
        before = log.read_bytes()
        capsys.readouterr()
        assert main(["probe", "--config", str(config), "--out", str(tmp_path), "--resume"]) == 2
        assert capsys.readouterr().err == (f"data error: malformed attempt log {log} at vantage=0"
                                           " slot=1: slot ended after failed attempt 1 of 3\n")
        assert http_fixture.requests == []
        assert log.read_bytes() == before


class TestUsage:
    def test_import_leaves_unused_modules_unloaded(self):
        # only `probe` uses the HTTP stack and only the commands that write a fragment
        # or a report load `report`, so no other command pays for their imports; what a
        # fresh interpreter importing only numpy already loads (say, through a host's
        # site hooks) is not cloudprobe's doing
        names = ("jsonschema", "http.client", "urllib.request", "ssl", "email", "socket",
                 "importlib.metadata", "cloudprobe.report")
        env = {**os.environ, "PYTHONPATH": str(Path(cloudprobe.__file__).parents[1])}

        def loaded_by(module):
            code = f"import sys, {module}; print(*[n for n in {names!r} if n in sys.modules])"
            return set(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, env=env, check=True).stdout.split())

        assert loaded_by("cloudprobe.cli") - loaded_by("numpy") == set()

    def test_startup_loads_no_numpy(self, tmp_path):
        # the package and the CLI import their layers on first use, and report
        # touches no array, so none of these pays for numpy
        env = {**os.environ, "PYTHONPATH": str(Path(cloudprobe.__file__).parents[1])}
        for module in ("cloudprobe", "cloudprobe.cli"):
            code = f"import sys, {module}; print(*sorted(sys.modules))"
            loaded = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                    text=True, env=env, check=True).stdout.split()
            assert {"numpy", "jsonschema"}.isdisjoint(loaded), module
        config = tmp_path / "c.ini"
        write_sim_config(config)
        out = tmp_path / "out"
        log = str(out / "attempts.jsonl")
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["estimate", "--log", log, "--out", str(out)]) == 0
        assert main(["detect", "--log", log, "--truth", str(out / "truth.jsonl"),
                     "--config", str(config), "--out", str(out)]) == 0
        bad = json.loads((out / "estimate.json").read_text())
        bad["counts"]["attempts"][0] = -1
        (out / "bad.json").write_text(json.dumps(bad))
        schema_stack = {"jsonschema", "referencing", "attrs", "jsonschema_specifications"}
        # report decides a valid and a rejected fragment alike without jsonschema.
        # -X importtime names each module a run imports, on stderr
        for estimate, code in (("estimate.json", 0), ("bad.json", 2)):
            run = subprocess.run([sys.executable, "-X", "importtime", "-m", "cloudprobe",
                                  "report", str(out / estimate), str(out / "detect.json")],
                                 capture_output=True, text=True, env=env)
            assert run.returncode == code, run.stderr
            imported = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                        if line.startswith("import time:")}
            assert "cloudprobe.report" in imported and "numpy" not in imported
            assert not schema_stack & imported, estimate
        assert "data error: fragment 1 does not match schema: counts.attempts[0] (-1) " \
               "fails minimum\n" in run.stderr

    def test_each_command_imports_only_its_layers(self, tmp_path):
        # -X importtime names each module the run imports, on stderr; each command's
        # own layer is named, so the absence of another is not an artefact of how
        # the CLI imports them
        env = {**os.environ, "PYTHONPATH": str(Path(cloudprobe.__file__).parents[1])}
        config = tmp_path / "c.ini"
        write_sim_config(config)
        out = str(tmp_path / "out")
        log, truth = f"{out}/attempts.jsonl", f"{out}/truth.jsonl"
        for argv, own, absent in (
                (["simulate", "--config", str(config), "--out", out], "cloudprobe.simulate",
                 {"cloudprobe.detection", "cloudprobe.estimators", "cloudprobe.prober",
                  "cloudprobe.report"}),
                (["estimate", "--config", str(config), "--log", log, "--claim", "0.99",
                  "--out", out], "cloudprobe.estimators",
                 {"cloudprobe.detection", "cloudprobe.prober", "statistics"}),
                (["detect", "--config", str(config), "--log", log, "--truth", truth,
                  "--out", out], "cloudprobe.detection",
                 {"cloudprobe.estimators", "cloudprobe.prober", "numpy.ma"})):
            run = subprocess.run([sys.executable, "-X", "importtime", "-m", "cloudprobe", *argv],
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
            imported = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                        if line.startswith("import time:")}
            assert {own, "cloudprobe.configfile", "cloudprobe.logs"} <= imported, argv[0]
            assert not absent & imported, argv[0]

    def test_startup_loads_no_logging_or_dataclasses(self, tmp_path):
        # the CLI warns without logging, and report turns dataclasses into JSON without
        # dataclasses (which loads inspect, dis and ast), so neither an import of the CLI
        # nor report pays for them; the array commands load dataclasses and inspect with
        # their layers, and still no logging. -X importtime names each module a run
        # imports, on stderr; what a bare interpreter imports (say, through a host's
        # site hooks) is not cloudprobe's doing
        env = {**os.environ, "PYTHONPATH": str(Path(cloudprobe.__file__).parents[1])}
        stdlib = {"logging", "dataclasses", "inspect"}

        def imported(*args):
            run = subprocess.run([sys.executable, "-X", "importtime", *args],
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
            return stdlib & {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                             if line.startswith("import time:")}

        bare = imported("-c", "pass")
        assert imported("-c", "import cloudprobe.cli") - bare == set()
        config = str(tmp_path / "c.ini")
        write_sim_config(config)
        out = str(tmp_path / "out")
        log, truth = f"{out}/attempts.jsonl", f"{out}/truth.jsonl"
        for argv in (["simulate", "--config", config, "--out", out],
                     ["estimate", "--config", config, "--log", log, "--out", out],
                     ["detect", "--config", config, "--log", log, "--truth", truth,
                      "--out", out]):
            assert imported("-m", "cloudprobe", *argv) - bare == {"dataclasses", "inspect"}, argv
        assert imported("-m", "cloudprobe", "report", f"{out}/estimate.json",
                        f"{out}/detect.json", "--out", out) - bare == set()

    def test_live_config_parses_to_a_probe_target(self, tmp_path):
        # configfile imports the prober only to build a live target, in a fresh
        # interpreter as in a command's
        env = {**os.environ, "PYTHONPATH": str(Path(cloudprobe.__file__).parents[1])}
        path = tmp_path / "live.ini"
        path.write_text("[campaign]\n" + LIVE + "[probe]\ntimeout_ms = 250\n")
        code = ("import sys; from cloudprobe import configfile; "
                "loaded = 'cloudprobe.prober' in sys.modules; "
                f"target = configfile.read_config({str(path)!r}).target; "
                "print(loaded, type(target).__module__, type(target).__name__, target.timeout_ms)")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert run.stdout.split() == ["False", "cloudprobe.prober", "ProbeTarget", "250.0"]

    def test_public_names(self):
        assert sorted(cloudprobe.__all__) == [
            "AttemptCounts", "AttemptLog", "CampaignConfig", "ConfigError", "DetectionReport",
            "DurationDistribution", "EstimateSet", "InsufficientDataError", "MalformedLogError",
            "NetworkBurst", "OutageProcess", "ProbeTarget", "SlaClaim", "SlaMetrics",
            "SlaTestResult", "Timeline", "aggregate_counts", "build_estimate_set",
            "clopper_pearson_interval", "detect_outages", "detection", "detection_report",
            "estimators", "expected_tries", "first_try_availability", "from_nines",
            "generate_timeline", "logs", "model", "nines", "overestimation_factor",
            "overestimation_factor_from_nines", "per_attempt_availability", "probe_once",
            "prober", "retry_filtered_availability", "run_campaign", "sample_campaign",
            "simulate", "sla_metrics", "sla_test", "standard_error", "true_sla_metrics",
            "true_unavailability", "undetected_curve", "undetected_monte_carlo",
            "undetected_probability", "wald_interval"]
        for name in cloudprobe.__all__:
            assert getattr(cloudprobe, name) is not None, name
        assert set(cloudprobe.__all__) <= set(dir(cloudprobe))
        assert cloudprobe.ConfigError is cloudprobe.model.ConfigError
        with pytest.raises(AttributeError):
            cloudprobe.no_such_name

    def test_one_version_string(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^version = "([^"]*)"$', text, re.M)[1] == cloudprobe.__version__

    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["estimate", "--nope"]) == 1

    @pytest.mark.parametrize("argv, flag", [
        (["report", "--config", "{tmp}/nonexistent.ini", "{tmp}/estimate.json"], "--config"),
        (["report", "--seed", "99", "{tmp}/estimate.json"], "--seed"),
        (["simulate", "--config", "{tmp}/c.ini", "--format", "csv"], "--format"),
        (["probe", "--config", "{tmp}/c.ini", "--format", "json"], "--format"),
        (["probe", "--config", "{tmp}/c.ini", "--seed", "99"], "--seed"),
    ], ids=["report-config", "report-seed", "simulate-format", "probe-format", "probe-seed"])
    def test_flag_the_command_does_not_read_exits_one(self, tmp_path, capsys, argv, flag):
        # each command takes only the shared flags it reads, so one it would ignore is
        # refused before any file is read
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_log_level_env_tolerated(self, tmp_path, monkeypatch, capsys):
        # a warning is one line on the current stderr; error silences it, every other
        # level shows it, and an unknown level warns once and acts as warn
        log_path = tmp_path / "empty.jsonl"
        log_path.write_text("")
        warning = "WARNING cloudprobe: insufficient data: no first attempts recorded\n"
        for level, err in ((None, warning), ("error", ""), ("ERROR", ""), ("info", warning),
                           ("debug", warning), ("shout", "WARNING cloudprobe: unknown "
                            "CLOUDPROBE_LOG_LEVEL 'shout'; using warn\n" + warning)):
            if level is None:
                monkeypatch.delenv("CLOUDPROBE_LOG_LEVEL", raising=False)
            else:
                monkeypatch.setenv("CLOUDPROBE_LOG_LEVEL", level)
            assert main(["estimate", "--log", str(log_path)]) == 0
            assert capsys.readouterr().err == err, level


class TestBenchmarkContract:
    """perfbench/run.py patches the layer functions cloudprobe.cli calls by
    module and name, and counts what some of them return, so a renamed layer
    function or a result without len() breaks the traced benchmark run."""

    @pytest.fixture
    def targets(self, monkeypatch):
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(bench))  # run.py imports its siblings by name
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
        spec.loader.exec_module(run)
        return run.layer_targets(cloudprobe)

    def test_every_target_resolves(self, targets):
        assert targets
        for module, attr, _, _ in targets:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    @pytest.fixture
    def fresh_cli(self):
        """A new cloudprobe.cli module, which has bound no layer name yet."""
        spec = importlib.util.find_spec("cloudprobe.cli")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert "sample_campaign" not in vars(module)
        return module

    def test_cli_targets_resolve_on_a_fresh_module(self, targets, fresh_cli):
        names = [attr for module, attr, _, _ in targets if module is cli]
        assert names
        for attr in names:
            assert callable(getattr(fresh_cli, attr)), attr

    @pytest.mark.parametrize("command, attr", [("simulate", "sample_campaign"),
                                               ("detect", "detect_outages")])
    def test_patched_layer_is_called(self, tmp_path, monkeypatch, fresh_cli, command, attr):
        # the traced benchmark patches cli's layer names by setattr before main runs
        calls = []
        original = getattr(fresh_cli, attr)

        def spy(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)

        config = tmp_path / "c.ini"
        write_sim_config(config)
        out = tmp_path / "out"
        if command == "detect":
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        monkeypatch.setattr(fresh_cli, attr, spy)
        argv = {"simulate": ["simulate", "--config", str(config), "--out", str(out)],
                "detect": ["detect", "--log", str(out / "attempts.jsonl"),
                           "--truth", str(out / "truth.jsonl"), "--config", str(config),
                           "--out", str(out)]}[command]
        assert fresh_cli.main(argv) == 0
        assert calls == [attr]

    def test_counts_read_the_results(self, targets, tmp_path):
        count = {name: fn for _, _, name, fn in targets}
        path = tmp_path / "truth.jsonl"
        logs.write_truth(path, Timeline(1000.0, [100.0, 500.0], [50.0, 2.0], [0, 1]))
        assert count["logs.read_truth"](logs.read_truth(path, 1000.0)) == {"events": 2}
        config = CampaignConfig(probe_interval_s=600.0, horizon_days=1.0, retry_max=1)
        runs = detect_outages(sample_campaign(Timeline(config.horizon_s, [0.0], [1200.0]),
                                              config))
        assert count["detection.detect_outages"](runs) == {"runs": 1}
