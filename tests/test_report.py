"""Report emission: formats, determinism, and round-trips."""

from __future__ import annotations

import dataclasses
import json
import os
import stat
from decimal import Decimal

import pytest

from conftest import (MUTANTS, comment, commit, iso, json_paths, pull, replace_at, request, snapshot, umask,
                      user)
from prtrust import (
    AnalysisConfig,
    SnapshotParseError,
    analyze_snapshot,
    build_bundle,
    config_echo,
    csv_text,
    emit,
    format_score,
    json_text,
    load_bundle,
    markdown_summary,
    snapshot_from_dict,
)
from prtrust.report import CSV_COLUMNS


def _bundle(snap, config=None):
    config = config or AnalysisConfig()
    profiles, summary = analyze_snapshot(snap, config)
    return build_bundle(snap, profiles, summary, config_echo(config, config.load_lexicon()))


def _maxed_snapshot():
    users = [
        user("ace", followers=1000, orgs=("acme",), permission="write"),
        user("boss", followers=10, orgs=("acme",), permission="admin", closure=(50, 50)),
    ]
    priors = [pull(n, "ace", state="merged", closer="boss") for n in range(1, 4)]
    target = pull(
        9, "ace", state="merged", created=iso(20), closed=iso(22), closer="boss",
        issue_comments=[
            comment(90 + k, "boss", iso(20, hours=k + 1),
                    body="Ace is a new member of our team, we already reviewed his work"
                    if k == 0 else "more feedback")
            for k in range(8)
        ],
        review_requests=[request("boss", iso(20, minutes=30))],
        commits=[commit("99" + "e" * 38, "ace", iso(20, hours=12))],
    )
    return snapshot_from_dict(snapshot(priors + [target], users))


@pytest.fixture
def rich_bundle(rich_snapshot):
    return _bundle(rich_snapshot)


def test_format_score_six_places_half_up():
    assert format_score(1.0) == "1.000000"
    assert format_score(10 / 99) == "0.101010"
    assert format_score(0.6157407407407407) == "0.615741"
    assert format_score(0.0000005) == "0.000001"
    assert format_score(0.00000049) == "0.000000"
    assert format_score(None) == ""


def test_csv_row_for_all_ones():
    snap = _maxed_snapshot()
    text = csv_text(_bundle(snap))
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = lines[-1].split(",")
    assert row[0] == "9"
    assert row[1] == "accepted"
    assert row[2:9] == ["1.000000"] * 7
    assert row[9] == "6"


def test_csv_row_literal_for_single_perfect_pr():
    from prtrust import DimensionScore, RepoSummary, StratumSummary, TrustProfile
    from prtrust.report import ReportBundle
    from prtrust.corpus import parse_timestamp

    dims = ("action", "commitment", "competence", "institutional", "personality", "transferred")
    profile = TrustProfile(
        pr_number=1,
        outcome="accepted",
        scores={d: DimensionScore(1.0, {}) for d in dims},
        overall=1.0,
    )
    stratum = StratumSummary(1, 1.0, 1, 1, 0, 1, 1, 1)
    empty = StratumSummary(0, None, 0, 0, 0, 0, 0, 0)
    bundle = ReportBundle(
        repo_owner="acme", repo_name="widget",
        fetched_at=parse_timestamp("2022-03-01T00:00:00Z", "t"),
        version="0.1.0", config={}, profiles=(profile,),
        summary=RepoSummary(accepted=stratum, rejected=empty),
    )
    assert csv_text(bundle).splitlines()[1] == (
        "1,accepted,1.000000,1.000000,1.000000,1.000000,1.000000,1.000000,1.000000,6"
    )


def test_csv_has_one_line_per_pr(rich_bundle):
    lines = csv_text(rich_bundle).splitlines()
    assert len(lines) == 1 + 25


def test_csv_unavailable_cells_are_empty(rich_bundle):
    rows = {line.split(",")[0]: line.split(",") for line in csv_text(rich_bundle).splitlines()[1:]}
    # PR 2's author has no orgs: institutional column (index 5) empty
    assert rows["2"][5] == ""


def test_json_round_trip(rich_bundle, tmp_path):
    path = tmp_path / "report.json"
    emit(rich_bundle, "json", path)
    assert load_bundle(path) == rich_bundle


def test_emission_is_deterministic(rich_bundle, tmp_path):
    for fmt, name in (("json", "a.json"), ("csv", "a.csv"), ("markdown", "a.md")):
        first = tmp_path / f"1{name}"
        second = tmp_path / f"2{name}"
        emit(rich_bundle, fmt, first)
        emit(rich_bundle, fmt, second)
        assert first.read_bytes() == second.read_bytes()
        assert b"\r" not in first.read_bytes()


def test_csv_and_json_agree(rich_bundle):
    rows = {line.split(",")[0]: line.split(",") for line in csv_text(rich_bundle).splitlines()[1:]}
    data = json.loads(json_text(rich_bundle))
    for raw in data["profiles"]:
        row = rows[str(raw["pr_number"])]
        assert row[1] == raw["outcome"]
        for i, dim in enumerate(
            ("action", "commitment", "competence", "institutional", "personality", "transferred")
        ):
            cell = row[2 + i]
            if raw["dimensions"][dim]["available"]:
                assert cell == format_score(raw["dimensions"][dim]["score"])
            else:
                assert cell == ""
        assert row[8] == format_score(raw["overall"])
        assert row[9] == str(raw["coverage"])


def test_markdown_and_json_summary_agree(rich_bundle):
    text = markdown_summary(rich_bundle)
    data = json.loads(json_text(rich_bundle))
    accepted = data["summary"]["accepted"]
    rejected = data["summary"]["rejected"]
    assert f"| Pull requests | {accepted['pr_count']} | {rejected['pr_count']} |" in text
    assert (
        f"| PRs with post-feedback commits | {accepted['prs_with_post_feedback_commits']} "
        f"| {rejected['prs_with_post_feedback_commits']} |"
    ) in text
    assert format_score(accepted["mean_comment_frequency"]) in text


def test_markdown_summary_of_only_open_prs_counts_them_pending_with_no_mean():
    snap = snapshot_from_dict(snapshot([pull(n, "dev", state="open") for n in (1, 2, 3)], [user("dev")]))
    text = markdown_summary(_bundle(snap))
    assert "3 PRs analyzed (0 accepted, 0 rejected, 3 pending)." in text
    assert "| Mean comment frequency (per day) |  |  |  |" in text.splitlines()


def test_json_key_order_is_stable(rich_bundle):
    data = json.loads(json_text(rich_bundle))
    assert list(data) == ["version", "repo", "config", "profiles", "summary"]
    assert list(data["profiles"][0]) == [
        "pr_number", "outcome", "overall", "coverage", "dimensions",
    ]


def _edited_report(bundle, tmp_path, edit):
    """Write ``bundle`` as a JSON report after ``edit`` changes its dict form;
    return the path and what ``edit`` returned."""
    data = json.loads(json_text(bundle))
    edited = edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path, edited


@pytest.mark.parametrize("edit, missing", [
    (lambda data: data["profiles"][3]["dimensions"]["commitment"].pop("available"), "available"),
    (lambda data: data["profiles"][3].pop("coverage"), "coverage"),
])
def test_load_bundle_rejects_a_profile_without_available_or_coverage(
    rich_bundle, tmp_path, edit, missing
):
    with pytest.raises(SnapshotParseError) as err:
        load_bundle(_edited_report(rich_bundle, tmp_path, edit)[0])
    assert str(err.value) == f"malformed report bundle: KeyError('{missing}')"


def _flip_first_unavailable(data):
    for raw in data["profiles"]:
        for score in raw["dimensions"].values():
            if not score["available"]:
                score["available"] = True
                return raw["pr_number"]


def _flip_action(data):
    data["profiles"][0]["dimensions"]["action"]["available"] = False
    return data["profiles"][0]["pr_number"]


def _miscount(data):
    data["profiles"][-1]["coverage"] -= 1
    return data["profiles"][-1]["pr_number"]


@pytest.mark.parametrize("edit", [_flip_first_unavailable, _flip_action, _miscount])
def test_load_bundle_rejects_available_or_coverage_that_disagree_with_the_scores(
    rich_bundle, tmp_path, edit
):
    path, number = _edited_report(rich_bundle, tmp_path, edit)
    with pytest.raises(SnapshotParseError) as err:
        load_bundle(path)
    assert str(err.value) == (
        f"malformed report bundle: PR {number}: 'available' or 'coverage' "
        "disagrees with the scores"
    )


def _valid_summary_value(summary: dict, at: tuple, value) -> bool:
    """Whether a report whose summary is ``summary`` may hold ``value`` at ``at``, of the
    MUTANTS: a count must not pass its stratum's pr_count, which must stay the same."""
    stratum, field = summary[at[1]], at[2]
    if field == "mean_comment_frequency":
        return value is None or value == 7
    return value == 7 and (value == stratum["pr_count"] if field == "pr_count" else value <= stratum["pr_count"])


def test_load_bundle_rejects_each_malformed_summary_value_by_name(rich_bundle, tmp_path):
    text = json_text(rich_bundle)
    path = tmp_path / "mutated.json"
    summary = json.loads(text)["summary"]
    for at in json_paths(summary, ("summary",)):
        for mutant in MUTANTS:
            mutated = json.loads(text)
            replace_at(mutated, at, mutant)
            path.write_text(json.dumps(mutated), encoding="utf-8")
            if len(at) == 3 and _valid_summary_value(summary, at, mutant):
                markdown_summary(load_bundle(path))
                continue
            with pytest.raises(SnapshotParseError, match="^malformed report bundle: ") as err:
                load_bundle(path)
            if len(at) == 3:
                assert str(err.value).startswith(f"malformed report bundle: {'.'.join(at)} must be "), err.value


def _report_with(bundle, tmp_path, **accepted):
    """A JSON report of ``bundle`` whose accepted stratum holds ``accepted``."""
    return _edited_report(bundle, tmp_path, lambda data: data["summary"]["accepted"].update(accepted))[0]


@pytest.mark.parametrize("accepted, message", [
    ({"pr_count": 10**400},
     f"summary.accepted.pr_count must be from 0 to the report's 25 profiles, got {10**400}"),
    ({"first_timer_prs": -1}, "summary.accepted.first_timer_prs must be from 0 to the report's 25 profiles, got -1"),
    ({"prs_with_transferred_flag": 26},
     "summary.accepted.prs_with_transferred_flag must be from 0 to the report's 25 profiles, got 26"),
    ({"pr_count": 25},
     "summary.accepted.pr_count must be the report's 15 accepted profiles, got 25"),
    ({"prs_with_transferred_flag": 16},
     "summary.accepted.prs_with_transferred_flag must be at most the stratum's pr_count 15, got 16"),
    ({"mean_comment_frequency": 10**400}, "summary.accepted.mean_comment_frequency must be a finite number or null, got int"),
    ({"mean_comment_frequency": 1e308},  # times the stratum's 15 PRs
     "the mean comment frequency of both strata together overflows a float"),
], ids=["huge-count", "negative-count", "count-above-profiles", "pr-count-not-the-outcome-count",
        "count-above-pr-count", "huge-integer-mean", "overflowing-total"])
def test_load_bundle_rejects_a_summary_that_cannot_render(rich_bundle, tmp_path, accepted, message):
    with pytest.raises(SnapshotParseError) as err:
        load_bundle(_report_with(rich_bundle, tmp_path, **accepted))
    assert str(err.value) == f"malformed report bundle: {message}"


@pytest.mark.parametrize("mean", [1e22, 1e300, 10**300, 1.7976931348623157e308, -1e22],
                         ids=["1e22", "1e300", "int-10**300", "float-max", "minus-1e22"])
def test_any_mean_that_load_bundle_accepts_renders(tmp_path, mean):
    one_accepted = snapshot_from_dict(snapshot([pull(1, "dev", closer="boss")],
                                               [user("dev"), user("boss", permission="admin")]))
    bundle = load_bundle(_report_with(_bundle(one_accepted), tmp_path, mean_comment_frequency=mean))
    row = next(line for line in markdown_summary(bundle).splitlines() if line.startswith("| Mean"))
    assert row.split(" | ")[1] == f"{Decimal(repr(mean)):f}.000000"  # the shortest repr, in full


def test_format_score_writes_every_finite_float_in_full():
    assert format_score(1e22) == "10000000000000000000000.000000"
    assert format_score(-1.7976931348623157e308) == "-17976931348623157" + "0" * 292 + ".000000"
    assert format_score(0.0000005) == "0.000001"
    assert format_score(2.5e-7) == "0.000000"


def test_config_echo_reproduces_run(rich_snapshot, tmp_path):
    config = AnalysisConfig(f_cap=2.0, exclude_bots=False)
    bundle = _bundle(rich_snapshot, config)
    path = tmp_path / "r.json"
    emit(bundle, "json", path)
    echoed = load_bundle(path).config
    rerun = AnalysisConfig(
        f_cap=echoed["f_cap"],
        competence_window=echoed["competence_window"],
        weights=dict(echoed["weights"]),
        exclude_bots=echoed["exclude_bots"],
    )
    assert _bundle(rich_snapshot, rerun).profiles == bundle.profiles


def test_emit_rejects_unknown_format(rich_bundle, tmp_path):
    with pytest.raises(ValueError):
        emit(rich_bundle, "xml", tmp_path / "r.xml")


def test_emit_names_the_formats_it_knows(rich_bundle, tmp_path):
    with pytest.raises(ValueError) as err:
        emit(rich_bundle, "xml", tmp_path / "r.xml")
    assert str(err.value) == (
        "unknown report format 'xml' (expected one of ('json', 'csv', 'markdown'))"
    )


def test_emit_unwritable_path(rich_bundle, tmp_path):
    with pytest.raises(OSError):
        emit(rich_bundle, "json", tmp_path / "no" / "such" / "dir" / "r.json")


def _unwritable_config(bundle, monkeypatch):
    """The JSON report then fails on its header, a value JSON cannot write."""
    return dataclasses.replace(bundle, config={**bundle.config, "note": {"a set"}})


def _unwritable_last_evidence(bundle, monkeypatch):
    """The JSON report then fails on its last chunk, after the others were written."""
    last = bundle.profiles[-1]
    score = last.scores["transferred"]
    spoiled = dataclasses.replace(score, evidence={**score.evidence, "note": {"a set"}})
    last = dataclasses.replace(last, scores={**last.scores, "transferred": spoiled})
    return dataclasses.replace(bundle, profiles=bundle.profiles[:-1] + (last,))


def _failing_rename(bundle, monkeypatch):
    """The whole text reaches the temp file; moving it over the report fails."""
    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    return bundle


@pytest.mark.parametrize("format, spoil, error", [
    pytest.param("json", _unwritable_config, TypeError, id="json"),
    pytest.param("markdown", _failing_rename, PermissionError, id="markdown"),
    pytest.param("json", _unwritable_last_evidence, TypeError, id="json-last-profile"),
])
def test_a_failed_emit_leaves_the_earlier_report_as_it_was(rich_bundle, tmp_path, monkeypatch, format, spoil,
                                                           error):
    path = tmp_path / "report.out"
    emit(rich_bundle, format, path)
    before = path.read_bytes()
    with pytest.raises(error):
        emit(spoil(rich_bundle, monkeypatch), format, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.out"]


def test_a_lone_surrogate_in_a_report_is_written_escaped(rich_bundle, tmp_path):
    bundle = dataclasses.replace(rich_bundle, repo_name="half \ud83d")
    emit(bundle, "json", tmp_path / "r.json")
    emit(bundle, "markdown", tmp_path / "r.md")
    assert '"name": "half \\ud83d"' in (tmp_path / "r.json").read_bytes().decode("utf-8")
    assert load_bundle(tmp_path / "r.json") == bundle
    assert (tmp_path / "r.md").read_bytes().decode("utf-8") == (
        markdown_summary(bundle).replace("\ud83d", "\\ud83d")
    )


@pytest.mark.parametrize("format", ["json", "csv", "markdown"])
def test_an_emitted_report_gets_the_default_file_mode(rich_bundle, tmp_path, format):
    path = tmp_path / "report.out"
    emit(rich_bundle, format, path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask()
