"""End-to-end CLI behavior: subcommands, exit codes, offline pipeline."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import rich_snapshot_dict
from prtrust import DIMENSIONS, RateLimitError, fetch_snapshot, load_snapshot
from prtrust.cli import run
from test_ingest import LIST_ALL, LIST_CLOSED, FakeSession, demo_routes

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def snapshot_file(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(rich_snapshot_dict()), encoding="utf-8")
    return path


def test_analyze_happy_path(snapshot_file, tmp_path):
    out = tmp_path / "report.json"
    code = run(["analyze", "--in", str(snapshot_file), "--out", str(out), "--format", "json"])
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["repo"]["owner"] == "acme"
    assert len(data["profiles"]) == 25


def test_full_offline_pipeline(snapshot_file, tmp_path, capsys):
    sampled = tmp_path / "sampled.json"
    assert run(["sample", "--in", str(snapshot_file), "--n", "10",
                "--accept-ratio", "0.75", "--seed", "42", "--out", str(sampled)]) == 0
    sub = load_snapshot(sampled)
    assert len(sub.pulls) == 10

    report = tmp_path / "report.json"
    assert run(["analyze", "--in", str(sampled), "--out", str(report), "--format", "json"]) == 0

    capsys.readouterr()
    assert run(["summary", "--in", str(report)]) == 0
    out = capsys.readouterr().out
    assert "# Trust summary: acme/widget" in out
    assert "| Pull requests | 8 | 2 | 10 |" in out


def test_sample_deterministic_across_runs(snapshot_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["sample", "--in", str(snapshot_file), "--n", "8",
                    "--accept-ratio", "0.5", "--seed", "7", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sample_insufficient_stratum_exits_3(tmp_path, snapshot_file):
    out = tmp_path / "s.json"
    code = run(["sample", "--in", str(snapshot_file), "--n", "100",
                "--accept-ratio", "0.75", "--seed", "1", "--out", str(out)])
    assert code == 3


def test_analyze_csv_and_markdown(snapshot_file, tmp_path):
    csv_out = tmp_path / "r.csv"
    md_out = tmp_path / "r.md"
    assert run(["analyze", "--in", str(snapshot_file), "--out", str(csv_out),
                "--format", "csv"]) == 0
    assert run(["analyze", "--in", str(snapshot_file), "--out", str(md_out),
                "--format", "markdown"]) == 0
    assert csv_out.read_text(encoding="utf-8").startswith("pr_number,outcome,")
    assert "| Statistic | Accepted | Rejected | Total |" in md_out.read_text(encoding="utf-8")


def test_analyze_honors_config_file(snapshot_file, tmp_path):
    config = tmp_path / "prtrust.conf"
    config.write_text(
        "# tuning\nf_cap = 2.0\nweights.action = 0.5\nexclude_bots = false\n",
        encoding="utf-8",
    )
    out = tmp_path / "r.json"
    assert run(["analyze", "--in", str(snapshot_file), "--config", str(config),
                "--out", str(out), "--format", "json"]) == 0
    echoed = json.loads(out.read_text(encoding="utf-8"))["config"]
    assert echoed["f_cap"] == 2.0
    assert echoed["weights"]["action"] == 0.5
    assert echoed["exclude_bots"] is False


def test_bad_config_exits_1(snapshot_file, tmp_path):
    config = tmp_path / "bad.conf"
    for line in ("f_cap = -1", "f_cap = nan", "f_cap = inf",
                 "weights.action = nan", "weights.action = inf"):
        config.write_text(line + "\n", encoding="utf-8")
        code = run(["analyze", "--in", str(snapshot_file), "--config", str(config),
                    "--out", str(tmp_path / "r.json"), "--format", "json"])
        assert code == 1, line


def test_weights_whose_sum_overflows_exit_1_before_the_snapshot_is_read(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("prtrust.cli.load_snapshot", lambda path: pytest.fail("read the snapshot"))
    config = tmp_path / "huge.conf"
    config.write_text("".join(f"weights.{d} = 1e308\n" for d in DIMENSIONS), encoding="utf-8")
    code = run(["analyze", "--in", str(tmp_path / "snap.json"), "--config", str(config),
                "--out", str(tmp_path / "r.json"), "--format", "json"])
    assert code == 1
    assert capsys.readouterr().err == "prtrust: weights must have a finite sum, got inf\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_sample_size_beyond_2_to_the_53_exits_1(source, snapshot_file, tmp_path, capsys):
    huge = "1" + "0" * 400  # once a float overflow that escaped run
    args = ["sample", "--in", str(snapshot_file), "--out", str(tmp_path / "sample.json")]
    if source == "flag":
        args += ["--n", huge]
    else:
        (tmp_path / "huge.conf").write_text(f"per_repo_n = {huge}\n", encoding="utf-8")
        args += ["--config", str(tmp_path / "huge.conf")]
    assert run(args) == 1
    assert capsys.readouterr().err == f"prtrust: per_repo_n must be <= 2**53, got {huge}\n"
    assert not (tmp_path / "sample.json").exists()


def test_unknown_flag_prints_usage_and_exits_1(capsys):
    code = run(["analyze", "--frobnicate"])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_subcommand_exits_1():
    assert run(["explode"]) == 1


def test_missing_snapshot_exits_1(tmp_path):
    code = run(["analyze", "--in", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "r.json"), "--format", "json"])
    assert code == 1


def test_malformed_snapshot_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"repo": {}}', encoding="utf-8")
    code = run(["analyze", "--in", str(bad), "--out", str(tmp_path / "r.json"),
                "--format", "json"])
    assert code == 1


def test_network_error_exits_2(monkeypatch, tmp_path):
    def boom(plan):
        raise RateLimitError("rate limit exhausted; re-run the same fetch to resume")

    monkeypatch.setattr("prtrust.cli.fetch_snapshot", boom)
    code = run(["fetch", "--repo", "octo/demo", "--max-pulls", "5",
                "--out", str(tmp_path / "snap.json")])
    assert code == 2


def test_fetch_rejects_bad_repo_argument(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr("prtrust.cli.fetch_snapshot", calls.append)
    for repo in ["not-a-slug", "apache/", "/airflow", "apache/air/flow", "/"]:
        code = run(["fetch", "--repo", repo, "--max-pulls", "5", "--out", str(tmp_path / "snap.json")])
        assert (code, calls) == (1, []), repo
        assert f"prtrust: error: --repo must look like owner/name, got {repo!r}" in capsys.readouterr().err


def test_fetch_writes_the_fetched_snapshot(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    routes = demo_routes()
    routes[LIST_ALL] = routes[LIST_CLOSED]  # the listing with open PRs answers as the closed one
    plans, fetched = [], []

    def fetch(plan):
        plans.append(plan)
        fetched.append(fetch_snapshot(plan, session=FakeSession(routes)))
        return fetched[-1]

    monkeypatch.setattr("prtrust.cli.fetch_snapshot", fetch)
    out, cache = tmp_path / "snap.json", tmp_path / "cache"
    code = run(["fetch", "--repo", "octo/demo", "--max-pulls", "3", "--include-open",
                "--cache", str(cache), "--out", str(out)])
    assert code == 0
    [plan], [snapshot] = plans, fetched
    assert (plan.include_open, plan.cache_dir, len(snapshot.pulls)) == (True, str(cache), 3)
    assert capsys.readouterr().err == f"wrote 3 PRs to {out}\n"
    assert any(cache.iterdir())
    assert load_snapshot(out) == snapshot


@pytest.mark.parametrize("field, value, got", [
    ("pr_count", None, "is null, the profiles give 15"),
    ("prs_with_review_response", "7", 'is "7", the profiles give 2'),
], ids=["null", "string"])
def test_summary_of_a_report_with_a_malformed_count_exits_1(snapshot_file, tmp_path, capsys, field, value, got):
    report = tmp_path / "report.json"
    assert run(["analyze", "--in", str(snapshot_file), "--out", str(report), "--format", "json"]) == 0
    data = json.loads(report.read_text(encoding="utf-8"))
    data["summary"]["accepted"][field] = value
    report.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert run(["summary", "--in", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"prtrust: malformed report bundle: summary.accepted.{field} {got}\n"
    )


@pytest.mark.parametrize("summary, err", [
    ({"accepted": {"pr_count": 25}, "rejected": {"pr_count": 25}},
     "summary.accepted.pr_count is 25, the profiles give 15"),
    ({"rejected": {"first_timer_prs": 8}},
     "summary.rejected.first_timer_prs is 8, the profiles give 1"),
], ids=["pr-count", "count-above-pr-count"])
def test_summary_of_a_report_whose_counts_disagree_with_its_profiles_exits_1(snapshot_file, tmp_path, capsys,
                                                                             summary, err):
    report = tmp_path / "report.json"
    assert run(["analyze", "--in", str(snapshot_file), "--out", str(report), "--format", "json"]) == 0
    data = json.loads(report.read_text(encoding="utf-8"))
    for stratum, counts in summary.items():
        data["summary"][stratum].update(counts)
    report.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert run(["summary", "--in", str(report)]) == 1
    assert capsys.readouterr() == ("", f"prtrust: malformed report bundle: {err}\n")


@pytest.mark.parametrize("frequency, outcomes, code, err", [
    (1e22, ("accepted",), 0, ""),
    (1e308, ("accepted", "rejected"), 1,  # each stratum's sum is finite, their sum is not
     "prtrust: malformed report bundle: the profiles' comment frequencies sum past the largest float\n"),
], ids=["large-mean", "overflowing-total"])
def test_summary_of_a_report_with_a_large_mean_renders_or_exits_1(snapshot_file, tmp_path, capsys, frequency,
                                                                  outcomes, code, err):
    """The first profile of each of ``outcomes`` has a comment frequency of ``frequency``,
    and the summary states the means that the profiles give."""
    report = tmp_path / "report.json"
    assert run(["analyze", "--in", str(snapshot_file), "--out", str(report), "--format", "json"]) == 0
    data = json.loads(report.read_text(encoding="utf-8"))
    for outcome in outcomes:
        raw = next(raw for raw in data["profiles"] if raw["outcome"] == outcome)
        raw["dimensions"]["action"]["evidence"]["frequency"] = frequency
    for outcome in ("accepted", "rejected"):
        frequencies = [raw["dimensions"]["action"]["evidence"]["frequency"]
                       for raw in data["profiles"] if raw["outcome"] == outcome]
        data["summary"][outcome]["mean_comment_frequency"] = math.fsum(frequencies) / len(frequencies)
    report.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert run(["summary", "--in", str(report)]) == code
    assert capsys.readouterr().err == err


def _pending_banana(data):
    data["profiles"][7].update(outcome="banana", pr_number="x")


def _banana(data):
    data["profiles"][7]["outcome"] = "banana"


@pytest.mark.parametrize("edit, err", [
    (_pending_banana, 'PR "x": pr_number must be an integer'),
    (_banana, 'PR 8: outcome must be accepted, rejected or pending, got "banana"'),
    (lambda data: data["profiles"].clear(), "the report holds no profiles"),
], ids=["number", "outcome", "no-profiles"])
def test_summary_of_a_report_with_a_malformed_profile_list_exits_1(snapshot_file, tmp_path, capsys, edit, err):
    report = tmp_path / "report.json"
    assert run(["analyze", "--in", str(snapshot_file), "--out", str(report), "--format", "json"]) == 0
    data = json.loads(report.read_text(encoding="utf-8"))
    edit(data)
    report.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert run(["summary", "--in", str(report)]) == 1
    assert capsys.readouterr() == ("", f"prtrust: malformed report bundle: {err}\n")


def test_summary_of_missing_report_exits_1(tmp_path):
    assert run(["summary", "--in", str(tmp_path / "none.json")]) == 1


def test_analyze_empty_snapshot_exits_1_with_a_clear_message(tmp_path, capsys):
    empty = rich_snapshot_dict()
    empty["pulls"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(empty), encoding="utf-8")
    code = run(["analyze", "--in", str(path), "--out", str(tmp_path / "r.json"),
                "--format", "json"])
    assert code == 1
    assert "holds no pull requests" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


_NOT_UTF8 = b'{"repo": "\xff\xfe"}'
_TOO_DEEP = b"[" * 200000


def _cli(tmp_path, *args):
    """Run prtrust in its own interpreter, so an escaping error would print a traceback."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + sys.path))
    return subprocess.run([sys.executable, "-m", "prtrust.cli", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("content", [_NOT_UTF8, _TOO_DEEP], ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("command", ["analyze", "sample", "summary"])
def test_unreadable_input_exits_1_naming_the_file(command, content, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    extra = {"analyze": ["--out", "r.json", "--format", "json"], "sample": ["--out", "s.json"],
             "summary": []}[command]
    result = _cli(tmp_path, command, "--in", str(bad), *extra)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert str(bad) in result.stderr


@pytest.mark.parametrize("fetched_at", ["9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00"])
def test_out_of_range_timestamp_exits_1_naming_it(fetched_at, tmp_path):
    data = rich_snapshot_dict()
    data["repo"]["fetched_at"] = fetched_at
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    result = _cli(tmp_path, "analyze", "--in", str(bad), "--out", "r.json", "--format", "json")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert f"{bad}: repo.fetched_at: timestamp '{fetched_at}' is out of range" in result.stderr
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("name", ["config", "lexicon"])
def test_non_utf8_config_or_lexicon_exits_1_naming_the_file(name, snapshot_file, tmp_path):
    bad = tmp_path / f"{name}.bad"
    bad.write_bytes(b"f_cap = 2\n\xff\n")
    config = bad
    if name == "lexicon":
        config = tmp_path / "analysis.conf"
        config.write_text(f"lexicon_path = {bad}\n", encoding="utf-8")
    result = _cli(tmp_path, "analyze", "--in", str(snapshot_file), "--config", str(config),
                  "--out", "r.json", "--format", "json")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert f"cannot read {name} file {bad}" in result.stderr


def test_a_relative_lexicon_path_is_read_from_the_working_directory(snapshot_file, tmp_path,
                                                                      monkeypatch, capsys):
    conf = tmp_path / "conf"
    conf.mkdir()
    (conf / "analysis.conf").write_text("lexicon_path = vouch.txt\n", encoding="utf-8")
    (conf / "vouch.txt").write_text("i can vouch\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    args = ["analyze", "--in", str(snapshot_file), "--config", "conf/analysis.conf",
            "--out", "r.json", "--format", "json"]

    # not beside the config file
    assert run(args) == 1
    assert "cannot read lexicon file vouch.txt" in capsys.readouterr().err
    assert not Path("r.json").exists()

    # but in the working directory
    Path("vouch.txt").write_text("on my team\n", encoding="utf-8")
    assert run(args) == 0
    assert json.loads(Path("r.json").read_text(encoding="utf-8"))["config"]["lexicon_patterns"] == ["on my team"]


_WITHOUT_REQUESTS = """
import json, sys
sys.modules["requests"] = None  # any import of requests now raises ImportError
import prtrust, prtrust.cli
snapshot = sys.argv[1]
codes = [
    prtrust.cli.run(["sample", "--in", snapshot, "--n", "10", "--accept-ratio", "0.75",
                     "--seed", "42", "--out", "sampled.json"]),
    prtrust.cli.run(["analyze", "--in", snapshot, "--out", "report.json", "--format", "json"]),
    prtrust.cli.run(["summary", "--in", "report.json"]),
]
print(json.dumps(codes))
"""


def test_offline_commands_run_without_requests(snapshot_file, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + sys.path))
    result = subprocess.run([sys.executable, "-c", _WITHOUT_REQUESTS, str(snapshot_file)],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "# Trust summary: acme/widget" in result.stdout
    assert json.loads(result.stdout.splitlines()[-1]) == [0, 0, 0]
