#!/usr/bin/env python3
"""Benchmark of prtrust's fetch -> sample -> analyze -> summary pipeline.

One run builds one workload's seeded inputs, then times the four
user-facing commands through prtrust's public functions in a closed loop
(one caller, one command at a time), checks every output, and prints one
JSON object as its last line of output:

    python3 bench/run.py --workload deep-history --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. ``--smoke`` runs every workload at a
tiny size, traced and untraced, with every check on. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from checks import DIMENSIONS  # noqa: E402
from fakehub import FakeGitHub  # noqa: E402
from spans import Tracer, patched  # noqa: E402
from workloads import BUILDERS, WORDS, expected_fetch  # noqa: E402
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SAMPLE_N = 100            # the paper's sample size
ACCEPT_RATIO = 0.75
SAMPLE_SEED = 2023
FETCH_CONCURRENCY = 1     # at or below nproc; see README "Host drift"
SETUP_REPEATS = 5
RSS_REPEATS = 2
MIN_ROUNDS = 3
REF_ITERATIONS = 15_000
REF_NOMINAL_S = 0.0125    # times are scaled to a host where the reference loop takes this
SMOKE_SCALE = 0.05

# The commands timed end to end. A timed round runs SCHEDULE: the shortest
# command twice, interleaved with the long ones, so every command gets
# enough samples. A cold fetch fills the cache once per untraced run
# (in the warm-up round) and once per traced round; see README.
OPERATIONS = ("fetch_warm", "sample", "analyze", "summary")
SCHEDULE = ("summary", "fetch_warm", "sample", "summary", "analyze")
COLD_ROUND = ("fetch_cold", "fetch_warm", "sample", "analyze", "summary")

END_TO_END = {
    "setup_s": "s",
    "fetch_warm_s": "s",
    "sample_s": "s",
    "analyze_s": "s",
    "summary_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "corpus.load_s": "s",
    "corpus.decode_s": "s",
    "corpus.validate_s": "s",
    "corpus.save_s": "s",
    "corpus.snapshot_bytes": "B",
    "config.load_s": "s",
    "metrics.action_s": "s",
    "metrics.commitment_s": "s",
    "metrics.institutional_s": "s",
    "metrics.transferred_s": "s",
    "metrics.competence_s": "s",
    "metrics.personality_s": "s",
    "aggregate.analyze_s": "s",
    "aggregate.summarize_s": "s",
    "aggregate.sample_s": "s",
    "report.bundle_s": "s",
    "report.emit_json_s": "s",
    "report.load_bundle_s": "s",
    "report.markdown_s": "s",
    "ingest.fetch_cold_s": "s",
    "ingest.fetch_warm_s": "s",
    "ingest.requests_cold": "count",
    "ingest.requests_warm": "count",
    "ingest.cache_files": "count",
    "ingest.cache_bytes": "B",
    "ingest.fake_session_s": "s",
    "cli.import_s": "s",
    "cli.analyze_process_s": "s",
}

# Per-layer times are the summed durations of these spans in one round.
SPAN_METRICS = {
    "corpus.load_s": "corpus.load",
    "corpus.decode_s": "corpus.decode",
    "corpus.validate_s": "corpus.validate",
    "corpus.save_s": "corpus.save",
    "config.load_s": "config.load",
    "metrics.action_s": "metrics.action",
    "metrics.commitment_s": "metrics.commitment",
    "metrics.institutional_s": "metrics.institutional",
    "metrics.transferred_s": "metrics.transferred",
    "metrics.competence_s": "metrics.competence",
    "metrics.personality_s": "metrics.personality",
    "aggregate.analyze_s": "aggregate.analyze",
    "aggregate.summarize_s": "aggregate.summarize",
    "aggregate.sample_s": "aggregate.sample",
    "report.bundle_s": "report.bundle",
    "report.emit_json_s": "report.emit_json",
    "report.load_bundle_s": "report.load_bundle",
    "report.markdown_s": "report.markdown",
    "ingest.fetch_cold_s": "ingest.fetch_cold",
    "ingest.fetch_warm_s": "ingest.fetch_warm",
}


# Inputs of the reference loop: fixed, and independent of prtrust.
_REF_RNG = random.Random(0)
_REF_TEXTS = tuple(" ".join(_REF_RNG.choices(WORDS, k=40)) for _ in range(300))
_REF_PATTERNS = tuple(f"zz{i} pattern" for i in range(30))
_REF_DOCUMENT = json.dumps({"rows": [
    {"id": i, "text": _REF_TEXTS[i % 300][:60], "score": i / 7.0, "flags": [True, None, i]}
    for i in range(400)
]})


def reference_loop() -> float:
    """A fixed piece of work, independent of prtrust; returns seconds.

    It mixes what the commands spend their time on: interpreter-bound
    dict and integer work, lower-casing and substring search, and JSON
    decoding and indented encoding. A plain integer loop tracked the
    host's speed less well (see README, "Host drift").
    """
    started = perf_counter()
    acc = 0
    table = {}
    for i in range(REF_ITERATIONS):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
    hits = 0
    for text in _REF_TEXTS:
        lowered = text.lower()
        for pattern in _REF_PATTERNS:
            if lowered.find(pattern) >= 0:
                hits += 1
    json.dumps(json.loads(_REF_DOCUMENT), indent=2)
    return perf_counter() - started


def _no_span(name):
    return nullcontext()


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def child_import_seconds() -> float:
    """``import prtrust`` timed inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import prtrust; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


class Bench:
    """One workload's inputs, fake GitHub and commands."""

    def __init__(self, name: str, seed: int, scale: float, workdir: Path):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.setup_times: list[float] = []
        self.references: list[float] = []
        self.import_times: list[float] = []

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """Import time in a fresh process plus building the inputs, SETUP_REPEATS times."""
        for i in range(SETUP_REPEATS):
            self.references.append(reference_loop())
            imported = child_import_seconds()
            started = perf_counter()
            workload = BUILDERS[self.name](self.seed, self.scale)
            inputs = self.workdir / f"inputs-{i}"
            inputs.mkdir()
            snapshot_path = inputs / "snapshot.json"
            snapshot_path.write_text(json.dumps(workload.snapshot, indent=2, ensure_ascii=False) + "\n",
                                     encoding="utf-8")
            config_path = None
            if workload.config_text is not None:
                lexicon_path = inputs / "lexicon.txt"
                lexicon_path.write_text("\n".join(workload.patterns) + "\n", encoding="utf-8")
                config_path = inputs / "analysis.conf"
                config_path.write_text(
                    workload.config_text.format(lexicon=lexicon_path.relative_to(ROOT)), encoding="utf-8")
            fake = FakeGitHub(workload)
            self.setup_times.append(imported + perf_counter() - started)
            self.import_times.append(imported)
        self.workload = workload
        self.fake = fake
        self.expected_fetch = expected_fetch(workload)
        self.snapshot_path = snapshot_path
        self.config_path = config_path
        self.raw = workload.snapshot
        self.weights = workload.weights or {d: 1.0 / 6.0 for d in DIMENSIONS}
        self.analysis_input = snapshot_path

    def fetch_analysis_input(self) -> None:
        """fetch-cache analyzes what it fetched: one untimed fetch makes its input."""
        rd = self.workdir / "input-fetch"
        rd.mkdir()
        self.analysis_input = self.fetch(rd / "fetched.json", rd / "cache", "cold", _no_span)["path"]
        self.raw = json.loads(self.analysis_input.read_text(encoding="utf-8"))

    # -- the four commands ------------------------------------------------------

    def fetch(self, out: Path, cache: Path, label: str, span) -> dict:
        from prtrust import FetchPlan, fetch_snapshot, save_snapshot

        plan = FetchPlan(
            repo_owner=self.workload.snapshot["repo"]["owner"],
            repo_name=self.workload.snapshot["repo"]["name"],
            max_pulls=self.workload.fetch_max_pulls, cache_dir=cache,
            concurrency=FETCH_CONCURRENCY,
        )
        self.fake.reset()
        started = perf_counter()
        with span(f"ingest.fetch_{label}"):
            snapshot = fetch_snapshot(plan, session=self.fake)
        with span("corpus.save"):
            save_snapshot(snapshot, out)
        elapsed = perf_counter() - started
        return {"seconds": elapsed, "path": out, "requests": self.fake.requests,
                "statuses": dict(self.fake.statuses), "fake_s": self.fake.session_s}

    def sample(self, out: Path, span) -> dict:
        from prtrust import SamplePlan, load_snapshot, restrict, save_snapshot, stratified_sample

        started = perf_counter()
        with span("corpus.load"):
            snapshot = load_snapshot(self.analysis_input)
        with span("aggregate.sample"):
            numbers = stratified_sample(snapshot, SamplePlan(SAMPLE_N, ACCEPT_RATIO, SAMPLE_SEED))
        restricted = restrict(snapshot, numbers)
        with span("corpus.save"):
            save_snapshot(restricted, out)
        elapsed = perf_counter() - started
        return {"seconds": elapsed, "path": out, "numbers": numbers}

    def analyze(self, out: Path, span) -> dict:
        from prtrust import (AnalysisConfig, analyze_snapshot, build_bundle, config_echo, emit,
                             load_config, load_snapshot)

        started = perf_counter()
        with span("config.load"):
            config = load_config(self.config_path) if self.config_path else AnalysisConfig()
            lexicon = config.load_lexicon()
        with span("corpus.load"):
            snapshot = load_snapshot(self.analysis_input)
        with span("aggregate.analyze"):
            profiles, summary = analyze_snapshot(snapshot, config, lexicon)
        with span("report.bundle"):
            bundle = build_bundle(snapshot, profiles, summary, config_echo(config, lexicon))
        with span("report.emit_json"):
            emit(bundle, "json", out)
        elapsed = perf_counter() - started
        return {"seconds": elapsed, "path": out}

    def summary(self, report: Path, span) -> dict:
        from prtrust import load_bundle, markdown_summary

        started = perf_counter()
        with span("report.load_bundle"):
            bundle = load_bundle(report)
        with span("report.markdown"):
            text = markdown_summary(bundle)
        elapsed = perf_counter() - started
        return {"seconds": elapsed, "text": text}

    def analyze_process(self, rd: Path) -> dict:
        """``prtrust analyze`` as its own process; wall time and peak RSS."""
        out = rd / "report-child.json"
        cmd = [sys.executable, "-m", "prtrust.cli", "analyze", "--in", str(self.analysis_input),
               "--out", str(out), "--format", "json"]
        if self.config_path is not None:
            cmd += ["--config", str(self.config_path.relative_to(ROOT))]
        with open(rd / "child.stderr", "wb") as stderr:
            started = perf_counter()
            proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                                    stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - started
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"prtrust analyze exited {code}: "
                               + (rd / "child.stderr").read_text(errors="replace")[-2000:])
        return {"seconds": elapsed, "path": out, "peak_rss_mb": usage.ru_maxrss / 1024.0}


class Runner:
    """Rounds of the timed operations, with their checks."""

    def __init__(self, bench: Bench, root_dir: Path):
        self.bench = bench
        self.checks = checks
        self.root_dir = root_dir
        self.rounds = 0
        self.attempted = 0
        self.oracle = checks.load_oracle(ROOT)
        self.cold: dict | None = None
        self.references: list[float] = []
        self.reference: dict = {}

    def round(self, cold: bool, span=_no_span) -> dict[str, list[dict]]:
        """Run one round; returns each operation's results, in order.

        A cold round fetches into an empty cache first and then runs each
        command once; its warm fetch reads that cache. A timed round runs
        ``SCHEDULE`` against the cache of the last cold round, and its
        summaries read the last report written. A reference loop is timed
        before the first operation and after each one.
        """
        b = self.bench
        rd = self.root_dir / f"round-{self.rounds}"
        rd.mkdir()
        self.rounds += 1
        cache = rd / "cache" if cold else self.cold["cache"]
        schedule = COLD_ROUND if cold else SCHEDULE
        results: dict[str, list[dict]] = {}
        gc.collect()
        self.references.append(reference_loop())
        for i, op in enumerate(schedule):
            gc.collect()
            self.attempted += 1
            if op in ("fetch_cold", "fetch_warm"):
                result = b.fetch(rd / f"{i}-{op}.json", cache, op[len("fetch_"):], span)
            elif op == "sample":
                result = b.sample(rd / f"{i}-sample.json", span)
            elif op == "analyze":
                result = b.analyze(rd / f"{i}-report.json", span)
                self.report_path = result["path"]
            else:
                result = b.summary(self.report_path, span)
            self.references.append(reference_loop())
            results.setdefault(op, []).append(result)
        if cold:
            fetched = results["fetch_cold"][0]
            fetched["cache"] = cache
            fetched["bytes"] = fetched["path"].read_bytes()
            self.checks.check_fetched(fetched["bytes"].decode("utf-8"), b.expected_fetch)
            self.cold = fetched
        self.check_round(results)
        return results

    def check_round(self, results: dict[str, list[dict]]) -> None:
        c = self.checks
        b = self.bench
        for warm in results["fetch_warm"]:
            c.check_warm(self.cold["bytes"], warm["path"].read_bytes(),
                         self.cold["statuses"], warm["statuses"])
        if not self.reference:
            report_bytes = results["analyze"][0]["path"].read_bytes()
            report = json.loads(report_bytes)
            sample = results["sample"][0]
            c.check_oracle(self.oracle, b.raw, report, b.workload, b.seed)
            c.check_summary(report)
            c.check_properties(report, b.weights)
            c.check_markdown(results["summary"][0]["text"], report)
            c.check_sample(sample["numbers"], b.raw, SAMPLE_N, ACCEPT_RATIO,
                           sample["path"].read_text(encoding="utf-8"))
            self.reference = {"report": report_bytes, "numbers": sample["numbers"],
                              "markdown": results["summary"][0]["text"],
                              "sample": sample["path"].read_bytes()}
        ref = self.reference
        for result in results["analyze"]:
            c.require(result["path"].read_bytes() == ref["report"], "JSON report bytes differ between repeats")
        for result in results["sample"]:
            c.require(result["numbers"] == ref["numbers"], "the same seed drew a different sample")
            c.require(result["path"].read_bytes() == ref["sample"], "sample file bytes differ")
        for result in results["summary"]:
            c.require(result["text"] == ref["markdown"], "markdown summary differs between repeats")

    def analyze_process(self, rd: Path) -> dict:
        self.attempted += 1
        result = self.bench.analyze_process(rd)
        self.checks.require(result["path"].read_bytes() == self.reference["report"],
                            "the prtrust analyze process wrote different report bytes")
        return result


def _rounds_for(seconds: float, min_rounds: int, one_round) -> list:
    """Call ``one_round`` until ``seconds`` are used up; a round starts only if it fits."""
    done = []
    started = perf_counter()
    while True:
        elapsed = perf_counter() - started
        if len(done) >= min_rounds and elapsed + elapsed / len(done) > seconds:
            break
        done.append(one_round())
    return done


def _prepare(args, workdir: Path) -> Runner:
    """Set-up, then the untimed warm-up round."""
    bench = Bench(args.workload, args.seed, args.scale, workdir)
    bench.setup()
    if bench.name == "fetch-cache":
        bench.fetch_analysis_input()
    runner = Runner(bench, workdir)
    # The benchmark's own long-lived objects (inputs, expectations) stay out
    # of the collections the program's commands trigger.
    gc.collect()
    gc.freeze()
    runner.round(True)   # warm-up: fills the cache; lazy set-up and first calls, not counted
    return runner


def measure(args, workdir: Path) -> tuple[dict, Runner]:
    """An untraced run: the end-to-end metrics."""
    runner = _prepare(args, workdir)
    rounds = _rounds_for(args.seconds, args.min_rounds, lambda: runner.round(False))
    children = [runner.analyze_process(workdir / f"round-{i}") for i in range(RSS_REPEATS)]
    samples = {op: [r["seconds"] for rnd in rounds for r in rnd[op]] for op in OPERATIONS}
    references = runner.bench.references + runner.references
    scale = REF_NOMINAL_S / statistics.median(references)

    def scaled(op: str) -> float:
        return statistics.median(samples[op]) * scale

    metrics = {
        "setup_s": statistics.median(runner.bench.setup_times) * scale,
        "fetch_warm_s": scaled("fetch_warm"),
        "sample_s": scaled("sample"),
        "analyze_s": scaled("analyze"),
        "summary_s": scaled("summary"),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 0,
        "python": sys.version.split()[0], "cpus": os.cpu_count(), "rounds": len(rounds),
        "reference_nominal_s": REF_NOMINAL_S,
        "setup_s": runner.bench.setup_times, "import_s": runner.bench.import_times,
        "samples_s": samples, "reference_s": references,
        "raw_median_s": {op: statistics.median(samples[op]) for op in OPERATIONS},
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        "metrics": metrics,
    }
    return record, runner


def measure_traced(args, workdir: Path) -> tuple[dict, Runner]:
    """A traced run: the per-layer metrics, medians over traced rounds."""
    runner = _prepare(args, workdir)

    def traced_round() -> tuple[Tracer, dict]:
        tracer = Tracer()
        with patched(tracer):
            results = runner.round(True, tracer.span)
        return tracer, {op: rs[0] for op, rs in results.items()}

    per_round = []
    tracers = []
    for tracer, results in _rounds_for(args.seconds, 1, traced_round):
        totals = tracer.totals()
        cache_files = [p for p in results["fetch_cold"]["cache"].iterdir() if p.is_file()]
        values = {metric: totals.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
        values.update({
            "corpus.snapshot_bytes": sum(results[op]["path"].stat().st_size
                                         for op in ("fetch_cold", "fetch_warm", "sample")),
            "ingest.requests_cold": results["fetch_cold"]["requests"],
            "ingest.requests_warm": results["fetch_warm"]["requests"],
            "ingest.cache_files": len(cache_files),
            "ingest.cache_bytes": sum(p.stat().st_size for p in cache_files),
            "ingest.fake_session_s": results["fetch_cold"]["fake_s"],
        })
        per_round.append({"values": values, "self_s": tracer.self_times(),
                          "commands_s": {op: r["seconds"] for op, r in results.items()}})
        tracers.append(tracer)
    children = [runner.analyze_process(workdir / f"round-{i}") for i in range(RSS_REPEATS)]

    metrics = {name: statistics.median(r["values"][name] for r in per_round)
               for name in per_round[0]["values"]}
    metrics["cli.import_s"] = statistics.median(runner.bench.import_times)
    metrics["cli.analyze_process_s"] = statistics.median(c["seconds"] for c in children)
    references = runner.bench.references + runner.references
    scale = REF_NOMINAL_S / statistics.median(references)
    ops = per_round[0]["commands_s"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 1,
        "python": sys.version.split()[0], "cpus": os.cpu_count(), "rounds": len(per_round),
        "per_round": per_round,
        "self_median_s": {name: statistics.median(r["self_s"].get(name, 0.0) for r in per_round)
                          for name in per_round[0]["self_s"]},
        "commands_median_s": {op: statistics.median(r["commands_s"][op] for r in per_round)
                              for op in ops},
        "commands_scaled_median_s": {op: statistics.median(r["commands_s"][op] for r in per_round) * scale
                                     for op in ops},
        "reference_s": references,
        "spans_last_round": tracers[-1].records(),
        "metrics": metrics,
    }
    return record, runner


def run_one(args) -> int:
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    correct = True
    attempted = 0
    metrics: dict = {}
    try:
        record, runner = (measure_traced if args.trace else measure)(args, workdir)
        attempted = runner.attempted
        metrics = record["metrics"]
        kind = ("smoke-" if args.scale != 1.0 else "") + ("trace" if args.trace else "run")
        (OUT / f"{kind}-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8")
    except Exception as exc:  # a failed check or command: report it, print no metrics
        correct = False
        label = "check failed" if isinstance(exc, checks.CheckFailed) else "operation failed"
        print(f"bench: {args.workload}: {label}: {exc!r}", file=sys.stderr)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_smoke() -> int:
    """Every workload, tiny, untraced and traced: a harness check, not a measurement."""
    status = 0
    for workload in ("deep-history", "long-threads", "fetch-cache"):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0.0, trace=trace,
                                      scale=SMOKE_SCALE, min_rounds=1)
            started = perf_counter()
            code = run_one(args)
            print(f"bench: smoke {workload} trace={trace}: exit {code} "
                  f"in {perf_counter() - started:.1f} s", file=sys.stderr)
            status = status or code
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("deep-history", "long-threads", "fetch-cache"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "prtrust" / "__init__.py").is_file():
        print(f"bench: no prtrust sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prtrust

    if Path(prtrust.__file__).resolve().parent != (SRC / "prtrust").resolve():
        print(f"bench: imported prtrust from {prtrust.__file__}, not {SRC}", file=sys.stderr)
        return 2
    logging.getLogger("prtrust").setLevel(logging.ERROR)   # ghost users are expected
    if args.smoke:
        return run_smoke()
    if args.workload is None:
        parser.error("--workload is required")
    args.scale = 1.0
    args.min_rounds = MIN_ROUNDS
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
