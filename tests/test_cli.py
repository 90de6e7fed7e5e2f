import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import cloudprobe
from cloudprobe import configfile, logs, report
from cloudprobe.cli import main
from cloudprobe.model import CampaignConfig, ConfigError
from cloudprobe.prober import ProbeTarget
from cloudprobe.simulate import DurationDistribution, NetworkBurst, OutageProcess

QUIET = OutageProcess(up_mean_s=1e12, duration_dist=DurationDistribution.fixed(1.0))
LIVE = ("probe_interval_s = 600\nhorizon_days = 1\nmode = live\n"
        "target = http://host.example/obj\n")


def write_sim_config(path, campaign=None, process=None):
    campaign = campaign or CampaignConfig(
        probe_interval_s=600.0, horizon_days=1.0, vantage_points=2,
        retry_max=3, retry_gap_s=1.0, seed=7)
    configfile.write_config(path, campaign, process or QUIET)
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
        configfile.write_config(path, campaign, process)
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
        configfile.write_config(path, campaign, target=target)
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
    ], ids=["missing-interval", "nan-interval", "inf-horizon", "empty-seed", "nan-up-mean",
            "bad-statuses", "nan-timeout", "url-in-probe"])
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
        configfile.write_config(config_path, CampaignConfig(
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
        _, out = self.make_fragments(tmp_path)
        capsys.readouterr()  # drop fragment-step output
        rc = main(["report", str(out / "estimate.json"), str(out / "detect.json")])
        assert rc == 0
        merged = json.loads(capsys.readouterr().out)
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
        frags = [json.loads((out / name).read_text()) for name in ("estimate.json", "detect.json")]
        bad = json.loads((out / "estimate.json").read_text())
        bad["counts"]["attempts"][0] = -1  # two errors, so the message is the best match
        bad["estimates"]["first_try"] = 2.0
        (out / "bad.json").write_text(json.dumps(bad))
        doc = {**report.merge_fragments(frags), "counts": bad["counts"],
               "estimates": bad["estimates"]}
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, report.load_schema())
        capsys.readouterr()  # drop fragment-step output
        assert main(["report", str(out / "bad.json"), str(out / "detect.json")]) == 2
        assert capsys.readouterr().err == \
            f"data error: report does not match schema: {expected.value.message}\n"

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

    def test_digest_mismatch_exits_two(self, tmp_path, capsys):
        _, out = self.make_fragments(tmp_path)
        frag = json.loads((out / "estimate.json").read_text())
        frag["provenance"]["log_sha256"] = "0" * 64
        (out / "tampered.json").write_text(json.dumps(frag))
        rc = main(["report", str(out / "tampered.json"), str(out / "detect.json")])
        assert rc == 2
        assert "different logs" in capsys.readouterr().err

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
        configfile.write_config(config_path, campaign,
                                target=ProbeTarget(url=http_fixture.url, timeout_ms=2000))
        out = tmp_path / "out"
        rc = main(["probe", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        assert "slots completed: 3 of 3" in capsys.readouterr().out
        records = logs.read_attempt_log(out / "attempts.jsonl")
        assert records.slot.tolist() == [0, 1, 2]

        # longer campaign resumes from the checkpoint without duplicating slots
        longer = tmp_path / "longer.ini"
        configfile.write_config(
            longer,
            CampaignConfig(probe_interval_s=0.25, horizon_days=5 * 0.25 / 86400.0,
                           retry_max=2, retry_gap_s=0.05, seed=0,
                           mode="live", target=http_fixture.url),
            target=ProbeTarget(url=http_fixture.url, timeout_ms=2000))
        rc = main(["probe", "--config", str(longer), "--out", str(out), "--resume"])
        assert rc == 0
        records = logs.read_attempt_log(out / "attempts.jsonl")
        assert records.slot.tolist() == [0, 1, 2, 3, 4]

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
        configfile.write_config(config_path, CampaignConfig(
            probe_interval_s=0.25, horizon_days=0.25 / 86400.0, retry_max=1, retry_gap_s=0.0,
            mode="live", target=http_fixture.url))
        out = tmp_path / "out"
        assert main(["probe", "--config", str(config_path), "--out", str(out), flag, value]) == 1
        assert needle in capsys.readouterr().err
        assert http_fixture.count == 0 and not (out / "attempts.jsonl").exists()


class TestMalformedInput:
    @pytest.mark.parametrize("argv, files, code, needle", [
        (["estimate", "--log", "{log}", "--claim", "1.5"], {}, 1, "claimed_availability"),
        (["estimate", "--log", "{log}", "--claim", "0.99", "--alpha", "0"], {}, 1, "alpha"),
        (["detect", "--log", "{log}", "--truth", "{truth}", "--config", "{config}",
          "--threshold-s", "-1"], {}, 1, "--threshold-s"),
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
        (["probe", "--config", "{out}/live.ini", "--out", "{out}", "--resume"],
         {"live.ini": "[campaign]\n" + LIVE, "attempts.jsonl.checkpoint": "abc\n"},
         2, "attempts.jsonl.checkpoint: invalid literal"),
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
    ], ids=["claim-above-one", "alpha-zero", "negative-threshold", "overlapping-truth",
            "string-vantage", "nan-ts", "nan-truth", "fractional-slot", "truth-beyond-horizon",
            "nan-latency", "infinite-latency", "non-utf8-log", "non-utf8-truth",
            "non-utf8-fragment", "non-utf8-config", "bad-checkpoint", "string-ts",
            "string-truth", "bool-truth", "huge-int-truth"])
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
        assert needle in capsys.readouterr().err


class TestUsage:
    def test_import_leaves_unused_modules_unloaded(self):
        # only `probe` uses the HTTP stack and only `report` validates, so no other
        # command pays for their imports; what a fresh interpreter importing only numpy
        # already loads (say, through a host's site hooks) is not cloudprobe's doing
        names = ("jsonschema", "http.client", "urllib.request", "ssl", "email", "socket",
                 "importlib.metadata")
        env = {**os.environ, "PYTHONPATH": str(Path(cloudprobe.__file__).parents[1])}

        def loaded_by(module):
            code = f"import sys, {module}; print(*[n for n in {names!r} if n in sys.modules])"
            return set(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, env=env, check=True).stdout.split())

        assert loaded_by("cloudprobe.cli") - loaded_by("numpy") == set()

    def test_one_version_string(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^version = "([^"]*)"$', text, re.M)[1] == cloudprobe.__version__

    def test_no_command_exits_one(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["estimate", "--nope"]) == 1

    def test_bad_log_level_env_tolerated(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CLOUDPROBE_LOG_LEVEL", "shout")
        log_path = tmp_path / "empty.jsonl"
        log_path.write_text("")
        assert main(["estimate", "--log", str(log_path)]) == 0
