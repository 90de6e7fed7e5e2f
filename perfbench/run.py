"""cloudprobe benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload paper-c1 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from ``src/``
and the CLI is run as ``python3 -m cloudprobe`` with ``PYTHONPATH=src``.
``--trace 0`` runs rounds until ``--seconds`` is spent: an interpreter
start-up, then the CLI pipeline (simulate, estimate, detect, report) as
subprocesses with a pass of the censoring Monte Carlo in process after
simulate and after detect, and reports the end-to-end metrics. A unit of fixed
reference work (reference.py) runs in process after each timed step, and each
step's time is scaled by the host speed the references around it show.
``--trace 1`` replays one round in process, adding a live prober campaign
against a scripted stub server (a child process) after each command, with a
span around each call into a cloudprobe module, and reports the per-layer
metrics. The workload fixes the inputs and sizes of each phase.
See README.md.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import reference
from stub import BODY as STUB_BODY
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
DEFAULT_SEED = 1
MC_AFTER = ("simulate", "detect")  # the untraced run's Monte Carlo passes, per round
# Timings are reported at the host speed at which reference.work() takes this long
REFERENCE_S = 0.15
MC_L_OVER_T = (0.1, 0.3, 0.5, 0.7, 0.9, 1.2)
CLAIMS = ("0.999", "0.9999")  # 0.9999 forces the exact binomial path of sla_test
ALPHA = "0.01"
THRESHOLD_S = "600"
LIVE_INTERVAL_S = 0.001  # every slot is already due: the prober runs saturated
LIVE_TIMEOUT_MS = 5000.0


@dataclass(frozen=True)
class MonteCarlo:
    interval_s: float
    trials: int  # per L/T grid point, per pass
    retry_max: int = 9
    retry_gap_s: float = 1.0


@dataclass(frozen=True)
class Live:
    slots: int
    retry_max: int
    period: int  # the stub answers 503 to `fails` of every `period` requests
    fails: int


@dataclass(frozen=True)
class Workload:
    campaign: dict  # INI sections for the CLI pipeline; [campaign] seed is added
    monte_carlo: MonteCarlo
    live: Live


def _campaign(interval, days, vantages, retry_max, gap, process, duration):
    return {
        "campaign": {"probe_interval_s": interval, "horizon_days": days,
                     "vantage_points": vantages, "retry_max": retry_max,
                     "retry_gap_s": gap, "mode": "simulate"},
        "process": process,
        "duration": duration,
    }


# Each workload runs every phase, so each reports every metric. Why each
# workload exists: BENCHMARK.json and README.md.
WORKLOADS = {
    "paper-c1": Workload(
        campaign=_campaign(600, 33, 23, 9, 1,
                           {"up_mean_s": 30000, "network_fail_prob": 0.002},
                           {"kind": "exponential", "mean_s": 120}),
        monte_carlo=MonteCarlo(interval_s=600.0, trials=1000),
        live=Live(slots=250, retry_max=3, period=10, fails=1),
    ),
    "retry-storm": Workload(
        campaign=_campaign(60, 20, 1, 9, 1,
                           {"up_mean_s": 1800, "network_fail_prob": 0.05,
                            "burst_rate_per_day": 24, "burst_duration_s": 90},
                           {"kind": "generalized_pareto", "shape": 0.5, "scale": 300}),
        monte_carlo=MonteCarlo(interval_s=60.0, trials=1000),
        live=Live(slots=250, retry_max=3, period=4, fails=3),
    ),
}

END_TO_END = {
    "setup_s": "s", "simulate_s": "s", "estimate_s": "s", "detect_s": "s",
    "report_s": "s", "pipeline_slots_per_s": "slots/s", "peak_rss_mb": "MB",
    "mc_trials_per_s": "trials/s",
}
COMMANDS = ("simulate", "estimate", "detect", "report")


@dataclass
class Tally:
    """Operations attempted and failed; a failed check or nonzero exit fails."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CLOUDPROBE_LOG_LEVEL", None)
    return env


def run_child(argv, stderr_path) -> tuple[int, float, float]:
    """Run a child interpreter; returns (exit code, wall seconds, max RSS MB)."""
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL,
                                stderr=err, env=_child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def time_reference() -> float:
    """Wall seconds of one unit of the fixed reference work."""
    started = time.perf_counter()
    reference.work()
    return time.perf_counter() - started


def cli_argv(command: str, config: Path, out: Path) -> list[str]:
    log, truth = str(out / "attempts.jsonl"), str(out / "truth.jsonl")
    if command == "simulate":
        return ["simulate", "--config", str(config), "--out", str(out)]
    if command == "estimate":
        claims = [a for c in CLAIMS for a in ("--claim", c)]
        return ["estimate", "--config", str(config), "--log", log, *claims,
                "--alpha", ALPHA, "--out", str(out)]
    if command == "detect":
        return ["detect", "--config", str(config), "--log", log, "--truth", truth,
                "--threshold-s", THRESHOLD_S, "--out", str(out)]
    return ["report", str(out / "estimate.json"), str(out / "detect.json"), "--out", str(out)]


def write_config(path: Path, workload: Workload, seed: int) -> None:
    parser = configparser.ConfigParser()
    for section, values in workload.campaign.items():
        parser[section] = {k: repr(v) if isinstance(v, float) else str(v)
                           for k, v in values.items()}
    parser["campaign"]["seed"] = str(seed)
    with open(path, "w", encoding="utf-8") as f:
        parser.write(f)


def scheduled_slots(workload: Workload) -> int:
    camp = workload.campaign["campaign"]
    slots = int(camp["horizon_days"] * 86400 / camp["probe_interval_s"] + 1e-9)
    return camp["vantage_points"] * slots


class Stub:
    """The scripted HTTP target, in a child process, for one benchmark run."""

    def __init__(self, live: Live, seed: int):
        self.offset = seed % live.period
        self.requests = 0  # /object requests served so far, by the script's count
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"),
             str(live.period), str(live.fails), str(self.offset)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.close()
            raise RuntimeError(f"stub server did not start: {line}")
        self.url = f"http://127.0.0.1:{line[1]}/object"

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, work: Path, cp):
        self.name, self.workload, self.seed, self.work, self.cp = name, workload, seed, work, cp
        self.stub: Stub | None = None  # the live target, up during the traced run
        self.config = work / "campaign.ini"
        write_config(self.config, workload, seed)
        self.tally = Tally()
        self.digests: dict = {}
        self.child_rss: list[float] = []
        self.schema = json.loads((SRC / "cloudprobe" / "report_schema.json").read_text("utf-8"))
        self.samples: dict = {}
        self.steps: list = []

    # -- phases ------------------------------------------------------------
    def cli_pipeline(self, out: Path, between=lambda command, wall: True) -> dict | None:
        """The four commands as subprocesses, then the output check; returns
        {command: (wall, rss)}. ``between(command, wall)`` runs after each
        command and returns False to stop."""
        out.mkdir(parents=True, exist_ok=True)
        result = {}
        for command in COMMANDS:
            code, wall, rss = run_child(["-m", "cloudprobe", *cli_argv(command, self.config, out)],
                                        out / f"{command}.stderr")
            self.child_rss.append(rss)
            if not self.tally.record(f"cloudprobe {command}", [f"exit {code}"] if code else []):
                return None
            result[command] = (wall, rss)
            if not between(command, wall):
                return None
        return result if self.check_pipeline(out) else None

    def check_pipeline(self, out: Path) -> bool:
        """The full check on the first pipeline; later ones, which run the same
        inputs, must then give the same files byte for byte."""
        digests = {f"cli/{name}": checks.sha256_file(out / name)
                   for name in ("attempts.jsonl", "truth.jsonl", "report.json")}
        if self.digests.get("cli/report.json") is None:
            self.digests.update(digests)
            return self.tally.record("pipeline output", checks.check_pipeline(out, self.schema))
        return self.tally.record("pipeline output equals the first round's", [
            f"{name} differs" for name, digest in digests.items() if self.digests[name] != digest])

    def monte_carlo(self, tracer=None) -> tuple[float, int] | None:
        """The L/T grid; returns (seconds, trials)."""
        mc = self.workload.monte_carlo
        mc_fn = self.cp.undetected_monte_carlo
        if tracer is not None:
            mc_fn = tracer.wrap("detection.undetected_monte_carlo", mc_fn)
        started = time.perf_counter()
        rates = [mc_fn(r * mc.interval_s, mc.interval_s, mc.trials, seed=self.seed,
                       retry_max=mc.retry_max, retry_gap_s=mc.retry_gap_s)
                 for r in MC_L_OVER_T]
        elapsed = time.perf_counter() - started
        self.digests["monte_carlo/rates"] = hashlib.sha256(repr(rates).encode()).hexdigest()
        if not self.tally.record("monte carlo", checks.check_monte_carlo(rates, MC_L_OVER_T, mc.trials)):
            return None
        return elapsed, mc.trials * len(MC_L_OVER_T)

    def live_campaign(self, out: Path, tracer=None) -> tuple[float, int] | None:
        """One saturated run_campaign; returns (seconds, records)."""
        live, cp = self.workload.live, self.cp
        out.mkdir(parents=True, exist_ok=True)
        config = cp.CampaignConfig(
            probe_interval_s=LIVE_INTERVAL_S, horizon_days=live.slots * LIVE_INTERVAL_S / 86400.0,
            vantage_points=1, retry_max=live.retry_max, retry_gap_s=0.0, seed=self.seed,
            mode="live", target=self.stub.url)
        if config.slots != live.slots:
            raise RuntimeError(f"live horizon gives {config.slots} slots, not {live.slots}")
        target = cp.ProbeTarget(url=self.stub.url, timeout_ms=LIVE_TIMEOUT_MS,
                                expected_body_hash=hashlib.sha256(STUB_BODY).hexdigest())
        log_path = out / "attempts.jsonl"
        run, probe_fn = cp.run_campaign, cp.probe_once
        if tracer is not None:
            # probe_once is timed only through run_campaign's probe_fn seam
            run = tracer.wrap("prober.run_campaign", run, lambda r: {"records": len(r)})
            probe_fn = tracer.wrap("prober.probe_once", probe_fn)
        started = time.perf_counter()
        records = run(target, config, log_path, probe_fn=probe_fn)
        elapsed = time.perf_counter() - started
        problems, used = checks.check_live_log(log_path, self.stub.requests, live.slots,
                                               live.retry_max, live.period, live.fails,
                                               self.stub.offset)
        self.stub.requests += used
        self.digests["live/attempts.jsonl"] = cp.logs.sha256_file(log_path)
        if not self.tally.record("live campaign", problems):
            return None
        return elapsed, len(records)

    # -- untraced run --------------------------------------------------------
    def timed_run(self, seconds: float) -> dict:
        samples = self.samples = {name: [] for name in END_TO_END if name != "peak_rss_mb"}
        steps = self.steps = []  # (metric, wall, reference before, reference after)
        slots = scheduled_slots(self.workload)
        before = time_reference()

        def scaled(metric: str, wall: float) -> float:
            """``wall`` at the host speed of REFERENCE_S, judged by the reference
            runs just before and just after the step."""
            nonlocal before
            after = time_reference()
            steps.append((metric, wall, before, after))
            value = wall * 2.0 * REFERENCE_S / (before + after)
            before = after
            return value

        round_s: dict = {}

        def between(command: str, wall: float) -> bool:
            round_s[command] = scaled(f"{command}_s", wall)
            if command not in MC_AFTER:
                return True
            mc = self.monte_carlo()
            if mc:
                samples["mc_trials_per_s"].append(mc[1] / scaled("mc_trials_per_s", mc[0]))
            return bool(mc)

        started = time.perf_counter()
        rounds = 0
        while not self.tally.failed:
            # a fresh interpreter up to `import cloudprobe.cli` done
            code, wall, rss = run_child(["-c", "import cloudprobe.cli"], self.work / "setup.stderr")
            self.child_rss.append(rss)
            if not self.tally.record("import cloudprobe.cli", [f"exit {code}"] if code else []):
                break
            samples["setup_s"].append(scaled("setup_s", wall))
            if self.cli_pipeline(self.work / "cli", between) is None:
                break
            rounds += 1
            for command in COMMANDS:
                samples[f"{command}_s"].append(round_s[command])
            samples["pipeline_slots_per_s"].append(slots / sum(round_s.values()))
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * elapsed / rounds > seconds:  # end within half a round
                break
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: (statistics.median(vals), END_TO_END[name], len(vals))
                   for name, vals in samples.items() if vals}
        metrics["peak_rss_mb"] = (max(self.child_rss + [own_rss]), "MB", len(self.child_rss) + 1)
        return {name: metrics[name] for name in END_TO_END if name in metrics}

    # -- traced run ----------------------------------------------------------
    def inprocess_round(self, out: Path, tracer=None) -> float:
        """One round in this process: each CLI command via cloudprobe.cli.main,
        followed by a Monte Carlo pass and a live campaign; returns wall seconds."""
        cli = self.cp.cli
        out.mkdir(parents=True, exist_ok=True)
        gc.collect()
        started = time.perf_counter()
        for command in COMMANDS:
            argv = cli_argv(command, self.config, out)
            with contextlib.ExitStack() as stack:
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
                if tracer is not None:
                    stack.enter_context(tracer.patched(layer_targets(self.cp)))
                    stack.enter_context(tracer.span(f"cli.{command}"))
                code = cli.main(argv)
            if not (self.tally.record(f"in-process cloudprobe {command}",
                                      [f"exit {code}"] if code else [])
                    and self.monte_carlo(tracer)
                    and self.live_campaign(out / "live", tracer)):
                return time.perf_counter() - started
        elapsed = time.perf_counter() - started
        same = (out / "report.json").read_bytes() == (self.work / "cli" / "report.json").read_bytes()
        self.tally.record("in-process report.json equals the CLI's",
                          [] if same else ["report.json differs"])
        return elapsed

    def traced_run(self) -> dict:
        cli = self.cli_pipeline(self.work / "cli")
        if cli is None:
            return {}
        with contextlib.closing(Stub(self.workload.live, self.seed)) as self.stub:
            untraced = self.inprocess_round(self.work / "inproc-untraced")
            with Tracer(self.name) as tracer:
                traced = self.inprocess_round(self.work / "inproc-traced", tracer)
        tracer.write(self.work / "trace.json")
        if self.tally.failed:
            return {}
        metrics = layer_metrics(tracer, self.workload, self.work / "cli")
        for command in COMMANDS:
            metrics[f"cli.{command}.rss_mb"] = (cli[command][1], "MB", 1)
        metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%", 1)
        return metrics


def layer_targets(cp):
    """The public calls cloudprobe.cli makes into each layer, as patch targets."""
    cli, logs, configfile, report = cp.cli, cp.logs, cp.configfile, cp.report
    return [
        (configfile, "read_config", "configfile.read_config", None),
        (configfile, "config_echo", "configfile.config_echo", None),
        (cli, "generate_timeline", "simulate.generate_timeline", None),
        (cli, "sample_campaign", "simulate.sample_campaign", lambda r: {"records": len(r)}),
        (cli, "aggregate_counts", "model.aggregate_counts", None),
        (cli, "expected_tries", "model.expected_tries", None),
        (logs, "write_attempt_log", "logs.write_attempt_log", None),
        (logs, "write_truth", "logs.write_truth", None),
        (logs, "read_attempt_log", "logs.read_attempt_log", lambda r: {"records": len(r)}),
        (logs, "read_truth", "logs.read_truth", lambda r: {"events": len(r)}),
        (logs, "sha256_file", "logs.sha256_file", None),
        (cli, "build_estimate_set", "estimators.build_estimate_set", None),
        (cli, "sla_test", "estimators.sla_test", None),
        (cli, "detection_report", "detection.detection_report",
         lambda r: {"true_outages": r.total_true_outages}),
        (cli, "detect_outages", "detection.detect_outages", lambda r: {"runs": len(r)}),
        (cli, "sla_metrics", "detection.sla_metrics", None),
        (cli, "true_sla_metrics", "detection.true_sla_metrics", None),
        (cli, "undetected_curve", "detection.undetected_curve", None),
        (cli, "write_undetected_curve", "detection.write_undetected_curve", None),
        (report, "estimate_fragment", "report.estimate_fragment", None),
        (report, "detect_fragment", "report.detect_fragment", None),
        (report, "merge_fragments", "report.merge_fragments", None),
        (report, "dumps", "report.dumps", None),
    ]


PER_CALL_SPANS = (
    "simulate.generate_timeline", "simulate.sample_campaign", "logs.write_attempt_log",
    "logs.read_attempt_log", "logs.read_truth", "logs.sha256_file", "model.aggregate_counts",
    "configfile.read_config", "estimators.build_estimate_set", "estimators.sla_test",
    "detection.detection_report", "detection.detect_outages", "report.merge_fragments",
    "report.dumps", "detection.undetected_monte_carlo",
)


def layer_metrics(tracer, workload: Workload, cli_out: Path) -> dict:
    """Per-layer metrics from the spans: {name: (value, unit, samples)}."""
    def durations(name):
        return [s["end"] - s["start"] for s in tracer.named(name)]

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in tracer.named(name))

    metrics = {}
    for name in PER_CALL_SPANS:
        d = durations(name)
        metrics[f"{name}_s"] = (statistics.fmean(d) if d else 0.0, "s", len(d))
    records = count("simulate.sample_campaign", "records")
    metrics["simulate.records"] = (records, "count", 1)
    metrics["simulate.attempts_per_slot"] = (records / scheduled_slots(workload), "ratio", 1)
    metrics["logs.log_bytes"] = ((cli_out / "attempts.jsonl").stat().st_size, "bytes", 1)
    metrics["detection.true_outages"] = (count("detection.detection_report", "true_outages"), "count", 1)
    metrics["detection.runs"] = (count("detection.detect_outages", "runs"), "count", 1)
    for command in COMMANDS:
        (span,) = tracer.named(f"cli.{command}")
        metrics[f"cli.{command}.self_s"] = (tracer.self_time(span), "s", 1)
        metrics[f"gc.cli.{command}.gen2_collections"] = (span["gen2_collections"], "count", 1)

    mc_spans = tracer.named("detection.undetected_monte_carlo")
    trials = workload.monte_carlo.trials * len(mc_spans)
    mc_total = sum(durations("detection.undetected_monte_carlo"))
    metrics["detection.mc_us_per_trial"] = (1e6 * mc_total / trials, "us", trials)
    metrics["gc.detection.undetected_monte_carlo.gen2_collections"] = (
        sum(s["gen2_collections"] for s in mc_spans), "count", len(mc_spans))

    probes = sorted(1000.0 * d for d in durations("prober.probe_once"))
    campaigns = tracer.named("prober.run_campaign")
    slots = workload.live.slots * len(campaigns)
    metrics["prober.probe_once_ms.p50"] = (statistics.median(probes), "ms", len(probes))
    metrics["prober.probe_once_ms.p99"] = (statistics.quantiles(probes, n=100)[98], "ms", len(probes))
    metrics["prober.run_campaign_self_ms_per_slot"] = (
        1000.0 * sum(map(tracer.self_time, campaigns)) / slots, "ms", slots)
    metrics["prober.attempts_per_slot"] = (count("prober.run_campaign", "records") / slots, "ratio", slots)
    metrics["prober.slots_per_s"] = (slots / sum(durations("prober.run_campaign")), "slots/s", slots)
    metrics["gc.prober.run_campaign.gen2_collections"] = (
        sum(s["gen2_collections"] for s in campaigns), "count", len(campaigns))
    return metrics


def stamp(seed: int) -> dict:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"seed": seed, "commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


def import_cloudprobe():
    """cloudprobe from this checkout's src/, never from site-packages."""
    if not (SRC / "cloudprobe" / "__init__.py").is_file():
        raise SystemExit(f"error: no cloudprobe sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cloudprobe
    import cloudprobe.cli
    import cloudprobe.configfile
    import cloudprobe.logs
    import cloudprobe.report
    if Path(cloudprobe.__file__).resolve().parent != (SRC / "cloudprobe").resolve():
        raise SystemExit(f"error: imported cloudprobe from {cloudprobe.__file__}, not {SRC}")
    return cloudprobe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")

    cp = import_cloudprobe()

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload]
    bench = Bench(args.workload, workload, args.seed, work, cp)
    try:
        metrics = bench.traced_run() if args.trace else bench.timed_run(args.seconds)
    finally:
        for log in work.rglob("*.jsonl"):
            log.unlink()

    info = stamp(args.seed)
    for problem in bench.tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "trace": args.trace, **info,
        "samples": {name: n for name, (_, _, n) in metrics.items()},
        "round_samples": bench.samples, "steps": bench.steps, "digests": bench.digests, "problems": bench.tally.problems, **result,
    }, indent=2), encoding="utf-8")

    print(f"workload {args.workload} " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit:<8} n={n}")
    print(f"  error_rate {bench.tally.failed}/{bench.tally.attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
