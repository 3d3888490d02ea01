"""Report emission: formats, determinism, and round-trips."""

from __future__ import annotations

import collections
import contextlib
import copy
import dataclasses
import itertools
import json
import math
import os
import stat
import sys
from decimal import Decimal

import pytest

from conftest import (MUTANTS, comment, commit, iso, json_paths, pull, replace_at, report_dict, request, snapshot,
                      umask, user)
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
from prtrust import report
from prtrust.aggregate import StratumSummary
from prtrust.report import CSV_COLUMNS, bundle_from_dict


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


def _dumps(data) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


# Evidence keys that a JSON writer must escape or keep as they are, first in each dict.
_ODD_KEYS = ("%", "%s", "%%s %(x)s %d", '"quoted" \\', "naïve ключ 鍵", "half \ud83d", "")


def _odd_keys(data):
    for n, raw in enumerate(data["profiles"]):
        for dim in raw["dimensions"].values():
            dim["evidence"] = {**{key: [n, key] for key in _ODD_KEYS}, **dim["evidence"]}


def _empty_transferred(data):
    for raw in data["profiles"]:
        raw["dimensions"]["transferred"]["evidence"] = {}


def _nested(data):
    for n, raw in enumerate(data["profiles"]):
        raw["dimensions"]["transferred"]["evidence"]["nested"] = {
            "a": [n, [2, {"b": {}}], [], {"c": [[], [{}]]}], "d": {"e": {"f": [None, True, "%s"]}},
        }


def _non_finite(data):
    for raw in data["profiles"]:
        raw["dimensions"]["action"]["evidence"].update(nan=math.nan, inf=math.inf, ninf=-math.inf)
        raw["dimensions"]["personality"]["evidence"]["reviewer_propensities"]["x"] = math.nan


def _many_shapes(data):
    for n, raw in enumerate(data["profiles"]):
        raw["dimensions"]["competence"]["evidence"][f"extra %s {n % 5}"] = n
        if n % 3:
            del raw["dimensions"]["action"]["evidence"]["comment_count"]


def _transferred_as(value):
    def edit(data):
        for raw in data["profiles"]:
            raw["dimensions"]["transferred"]["evidence"] = copy.deepcopy(value)
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(_odd_keys, id="odd-keys"),
    pytest.param(_empty_transferred, id="empty-evidence"),
    pytest.param(_nested, id="nested"),
    pytest.param(_non_finite, id="nan-inf"),
    pytest.param(_many_shapes, id="many-shapes"),
    pytest.param(_transferred_as("a vouch, %s"), id="transferred-string"),
    pytest.param(_transferred_as([1, {"%s": [2, {}]}, "b", []]), id="transferred-list"),
    pytest.param(_transferred_as(3.5), id="transferred-number"),
    pytest.param(_transferred_as(math.nan), id="transferred-nan"),
])
def test_a_loaded_report_that_analyze_never_writes_is_written_as_json_dumps(rich_bundle, edit):
    data = json.loads(json_text(rich_bundle))
    edit(data)
    assert json_text(bundle_from_dict(data)) == _dumps(data)


def _with_evidence(bundle, evidence_of):
    """``bundle`` with each profile's evidence replaced by ``evidence_of(n, dimension)``."""
    profiles = tuple(
        dataclasses.replace(p, scores={d: dataclasses.replace(s, evidence=evidence_of(n, d))
                                       for d, s in p.scores.items()})
        for n, p in enumerate(bundle.profiles)
    )
    return dataclasses.replace(bundle, profiles=profiles)


@pytest.mark.parametrize("evidence_of", [
    pytest.param(lambda n, d: {}, id="all-empty"),
    pytest.param(lambda n, d: {key: n for key in _ODD_KEYS}, id="odd-keys"),
    pytest.param(lambda n, d: {"%s": {"%s": ["%s", {"%": "%%"}]}, "n": n}, id="nested"),
    pytest.param(lambda n, d: collections.OrderedDict(a=n, b=[d]), id="dict-subclass"),
    pytest.param(lambda n, d: {"a": n} if n % 2 else [d, n], id="dict-or-list"),
    pytest.param(lambda n, d: d if d == "transferred" else {"x": (n, d)}, id="string-and-tuple"),
])
def test_a_report_built_in_code_is_written_as_json_dumps(rich_bundle, evidence_of):
    bundle = _with_evidence(rich_bundle, evidence_of)
    assert json_text(bundle) == _dumps(report_dict(bundle))


def test_a_report_with_more_key_shapes_than_templates_kept_keeps_at_most_that_many(rich_bundle):
    many = dataclasses.replace(rich_bundle, profiles=rich_bundle.profiles * 3)
    bundle = _with_evidence(many, lambda n, d: {f"key {n} %s": n})
    assert len(bundle.profiles) > report._SHAPES_KEPT
    assert json_text(bundle) == _dumps(report_dict(bundle))
    cached = report._profile_template.cache_info()
    assert cached.maxsize == cached.currsize == report._SHAPES_KEPT


def test_an_evidence_key_that_is_not_a_string_raises_the_encoders_error(rich_bundle):
    bundle = _with_evidence(rich_bundle, lambda n, d: {"a": n, 1: n} if n == 4 else {"a": n})
    with pytest.raises(TypeError, match="^first argument must be a string, not int$"):
        json_text(bundle)


def _deep_history_snapshot():
    """60 PRs by 6 authors, closed by 3 maintainers: each author's record grows PR by PR."""
    authors = [f"dev{k}" for k in range(6)]
    maintainers = ("ma", "mb", "mc")
    users = [user(login, followers=3 * k, orgs=("acme",) if k % 2 else ()) for k, login in enumerate(authors)]
    users += [user(login, orgs=("acme",), permission="admin", closure=(20, 10)) for login in maintainers]
    pulls = [
        pull(n, authors[n % 6], state="merged" if n % 4 else "closed_unmerged", created=iso(n / 2),
             closed=iso(n / 2, hours=9), closer=maintainers[n % 3],
             issue_comments=[comment(n, maintainers[(n + 1) % 3], iso(n / 2, hours=2))] if n % 5 else [],
             commits=[commit(f"{n:040x}", authors[n % 6], iso(n / 2, hours=3))])
        for n in range(1, 61)
    ]
    return snapshot_from_dict(snapshot(pulls, users))


def test_a_loaded_deep_history_report_is_written_as_its_own_bytes(tmp_path):
    bundle = _bundle(_deep_history_snapshot())
    rates = {type(p.scores["competence"].evidence["prior_acceptance_rate"]) for p in bundle.profiles}
    assert rates == {float, type(None)}
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    emit(bundle, "json", first)
    emit(load_bundle(first), "json", second)
    assert second.read_bytes() == first.read_bytes()
    assert first.read_text(encoding="utf-8") == _dumps(json.loads(first.read_text(encoding="utf-8")))


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


def _walk(root, path: tuple):
    for key in path:
        root = root[key]
    return root


def _spell(value) -> str:
    return {dict: "an object", list: "an array"}.get(type(value)) or json.dumps(value)


def _difference(name: str, stated, folded) -> str | None:
    """The error of a report that states ``stated`` at ``name`` where the fold gives
    ``folded``, or None when they are equal; ``{}`` in place of an object lacks its first key."""
    if type(stated) is type(folded) and stated == folded:
        return None
    if type(stated) is type(folded) is dict:
        key = next(iter(folded))
        return f"malformed report bundle: {name}.{key} is absent, the profiles give {_spell(folded[key])}"
    return f"malformed report bundle: {name} is {_spell(stated)}, the profiles give {_spell(folded)}"


def _summary_mutants(summary: dict):
    """(mutated summary, error or None) for each summary mutant: each of MUTANTS, 15.0 and
    true in place of any value, each key removed, and a key added to each object."""
    for at in json_paths(summary, ("summary",)):
        original, name = _walk({"summary": summary}, at), ".".join(at)
        for mutant in (*MUTANTS, 15.0, True):
            mutated = {"summary": copy.deepcopy(summary)}
            replace_at(mutated, at, mutant)
            yield mutated["summary"], _difference(name, mutant, original)
        if isinstance(original, dict):
            mutated = {"summary": copy.deepcopy(summary)}
            _walk(mutated, at)["added"] = 1
            yield mutated["summary"], f"malformed report bundle: {name}.added is 1, the profiles give absent"
        if len(at) > 1:
            mutated = {"summary": copy.deepcopy(summary)}
            del _walk(mutated, at[:-1])[at[-1]]
            yield mutated["summary"], (f"malformed report bundle: {name} is absent, "
                                       f"the profiles give {_spell(original)}")


def test_load_bundle_rejects_each_malformed_summary_value_by_name(rich_bundle, tmp_path):
    text = json_text(rich_bundle)
    path = tmp_path / "mutated.json"
    for summary, error in _summary_mutants(json.loads(text)["summary"]):
        path.write_text(json.dumps({**json.loads(text), "summary": summary}), encoding="utf-8")
        if error is None:
            assert markdown_summary(load_bundle(path)) == markdown_summary(rich_bundle)
            continue
        with pytest.raises(SnapshotParseError) as err:
            load_bundle(path)
        assert str(err.value) == error


def _state(field, value):
    """An edit that states ``value`` as the accepted stratum's ``field``."""
    def edit(data):
        folded = data["summary"]["accepted"][field]
        data["summary"]["accepted"][field] = value
        return f"summary.accepted.{field} is {json.dumps(value)}, the profiles give {json.dumps(folded)}"
    return edit


def _frequencies_of(*outcomes):
    """An edit that sets the comment frequency of the next profile of each of ``outcomes`` to
    1e308, and states each mean the profiles then give, where a float holds their sum."""
    def edit(data):
        for outcome in outcomes:
            raw = next(raw for raw in data["profiles"] if raw["outcome"] == outcome
                       and raw["dimensions"]["action"]["evidence"]["frequency"] != 1e308)
            raw["dimensions"]["action"]["evidence"]["frequency"] = 1e308
        for outcome in ("accepted", "rejected"):
            frequencies = [raw["dimensions"]["action"]["evidence"]["frequency"]
                           for raw in data["profiles"] if raw["outcome"] == outcome]
            with contextlib.suppress(OverflowError):
                data["summary"][outcome]["mean_comment_frequency"] = math.fsum(frequencies) / len(frequencies)
        return "the profiles' comment frequencies sum past the largest float"
    return edit


@pytest.mark.parametrize("edit", [
    _state("pr_count", 10**400),
    _state("first_timer_prs", -1),
    _state("prs_with_transferred_flag", 26),
    _state("pr_count", 25),
    _state("prs_with_transferred_flag", 16),
    _state("mean_comment_frequency", 10**400),
    _frequencies_of("accepted", "rejected"),  # each stratum's sum is finite, their sum is not
    _frequencies_of("accepted", "accepted"),
], ids=["huge-count", "negative-count", "count-above-profiles", "pr-count-not-the-outcome-count",
        "count-above-pr-count", "huge-integer-mean", "overflowing-total", "overflowing-stratum"])
def test_load_bundle_rejects_a_summary_that_cannot_render(rich_bundle, tmp_path, edit):
    path, message = _edited_report(rich_bundle, tmp_path, edit)
    with pytest.raises(SnapshotParseError) as err:
        load_bundle(path)
    assert str(err.value) == f"malformed report bundle: {message}"


@pytest.mark.parametrize("mean", [1e22, 1e300, 10**300, 1.7976931348623157e308, -1e22],
                         ids=["1e22", "1e300", "int-10**300", "float-max", "minus-1e22"])
def test_any_mean_that_load_bundle_accepts_renders(tmp_path, mean):
    """The one accepted profile's frequency is ``mean`` as a float, and the summary states
    ``mean``: it renders in full, but an integer is not the float the fold gives."""
    one_accepted = snapshot_from_dict(snapshot([pull(1, "dev", closer="boss")],
                                               [user("dev"), user("boss", permission="admin")]))

    def edit(data):
        data["profiles"][0]["dimensions"]["action"]["evidence"]["frequency"] = float(mean)
        data["summary"]["accepted"]["mean_comment_frequency"] = mean

    path = _edited_report(_bundle(one_accepted), tmp_path, edit)[0]
    if type(mean) is int:
        with pytest.raises(SnapshotParseError) as err:
            load_bundle(path)
        assert str(err.value) == ("malformed report bundle: summary.accepted.mean_comment_frequency "
                                  f"is {mean}, the profiles give {float(mean)!r}")
        return
    row = next(line for line in markdown_summary(load_bundle(path)).splitlines() if line.startswith("| Mean"))
    assert row.split(" | ")[1] == f"{Decimal(repr(mean)):f}.000000"  # the shortest repr, in full


# Where each value that the summary fold reads sits in a report profile, and the JSON
# types prtrust writes there; a float is finite.
_FOLD_INPUTS = {
    "outcome": (("outcome",), ()),
    "action.frequency": (("dimensions", "action", "evidence", "frequency"), (float,)),
    "action.revision_commits": (("dimensions", "action", "evidence", "revision_commits"), (int,)),
    "commitment.any_response": (("dimensions", "commitment", "evidence", "any_response"), (bool,)),
    "competence.prior_pr_count": (("dimensions", "competence", "evidence", "prior_pr_count"), (int,)),
    "institutional.shared": (("dimensions", "institutional", "evidence", "shared"), (int,)),
    "personality.closer_propensity": (("dimensions", "personality", "evidence", "closer_propensity"),
                                      (float, type(None))),
    "transferred.score": (("dimensions", "transferred", "score"), (float,)),
}
_EVIDENCE_MUTANTS = (*MUTANTS, math.nan, math.inf, -math.inf)


def _evidence_mutants(data: dict):
    """(PR, field, whether prtrust could write the value) as ``data`` holds each fold input of
    each profile set to each of _EVIDENCE_MUTANTS in turn; it ends as it began."""
    for raw in data["profiles"]:
        for field, ((*path, key), types) in _FOLD_INPUTS.items():
            holder = raw
            for step in path:
                holder = holder[step]
            original = holder[key]
            for mutant in _EVIDENCE_MUTANTS:
                holder[key] = mutant
                finite = type(mutant) is not float or math.isfinite(mutant)
                yield raw["pr_number"], field, type(mutant) in types and finite
            holder[key] = original


def test_load_bundle_rejects_each_malformed_fold_input_by_pr_and_name(rich_bundle):
    data, rejected = json.loads(json_text(rich_bundle)), 0
    for number, field, writable in _evidence_mutants(data):
        try:
            markdown_summary(bundle_from_dict(data))
        except SnapshotParseError as err:
            named = "summary." if writable else f"PR {number}: {field} must be "
            assert str(err).startswith(f"malformed report bundle: {named}"), (number, field, err)
            rejected += 1
        else:
            assert writable, (number, field)
    assert rejected > 1500


@pytest.mark.parametrize("edit, error", [
    ({"outcome": "banana"}, 'PR 8: outcome must be accepted, rejected or pending, got "banana"'),
    ({"pr_number": "x"}, 'PR "x": pr_number must be an integer'),
    ({"pr_number": True}, "PR true: pr_number must be an integer"),
    ({"pr_number": 8.0}, "PR 8.0: pr_number must be an integer"),
    ({"outcome": "banana", "pr_number": "x"}, 'PR "x": pr_number must be an integer'),
], ids=["outcome", "string-number", "bool-number", "float-number", "both"])
def test_load_bundle_rejects_a_profile_with_a_bad_outcome_or_number(rich_bundle, tmp_path, edit, error):
    path, _ = _edited_report(rich_bundle, tmp_path, lambda data: data["profiles"][7].update(edit))
    with pytest.raises(SnapshotParseError) as err:
        load_bundle(path)
    assert str(err.value) == f"malformed report bundle: {error}"


@pytest.mark.parametrize("at, value, error", [
    (("overall",), "x", 'overall must be a finite number or null, got "x"'),
    (("dimensions", "action", "score"), "high", 'action.score must be a finite number or null, got "high"'),
    (("overall",), 1, "overall must be a finite number or null, got 1"),
    (("dimensions", "competence", "score"), True,
     "competence.score must be a finite number or null, got true"),
    (("dimensions", "personality", "score"), math.inf,
     "personality.score must be a finite number or null, got Infinity"),
    (("dimensions", "commitment", "score"), [0.5],
     "commitment.score must be a finite number or null, got an array"),
    (("dimensions", "transferred", "score"), "1.0",
     'transferred.score must be a finite number or null, got "1.0"'),
], ids=["overall-string", "action-string", "overall-int", "competence-bool", "personality-inf",
        "commitment-array", "transferred-string"])
def test_load_bundle_rejects_a_score_that_is_not_a_finite_float_or_null(
    rich_bundle, tmp_path, at, value, error
):
    path, _ = _edited_report(rich_bundle, tmp_path, lambda data: replace_at(data["profiles"][2], at, value))
    with pytest.raises(SnapshotParseError) as err:
        load_bundle(path)
    assert str(err.value) == f"malformed report bundle: PR 3: {error}"


def test_every_score_that_load_bundle_accepts_renders_as_csv(rich_bundle):
    """Each score and overall of each profile set to each mutant: the report is rejected with
    a message naming its PR and field, or it loads and its CSV renders."""
    data, rendered = json.loads(json_text(rich_bundle)), 0
    for raw in data["profiles"]:
        holders = [(raw, "overall", "overall")]
        holders += [(dim, "score", f"{d}.score") for d, dim in raw["dimensions"].items()]
        for holder, key, name in holders:
            original = holder[key]
            for mutant in (*MUTANTS, math.nan, math.inf, -math.inf, 1, True, 0.25, original):
                holder[key] = mutant
                finite = type(mutant) is float and math.isfinite(mutant)
                try:
                    csv_text(bundle_from_dict(data))
                except SnapshotParseError as err:
                    assert str(err).startswith("malformed report bundle: "), err
                    if mutant is not None and not finite:
                        assert str(err).startswith(f"malformed report bundle: PR {raw['pr_number']}: {name} "
                                                   "must be a finite number or null, got "), err
                else:
                    assert mutant is None or finite, (raw["pr_number"], name, mutant)
                    rendered += 1
            holder[key] = original
    assert rendered > 7 * len(data["profiles"])  # each original value, and more


@pytest.mark.parametrize("at, error", [
    (("summary", "accepted", "pr_count"), "summary.accepted.pr_count is an array, the profiles give 15"),
    (("profiles", 2, "dimensions", "action", "evidence", "frequency"),
     "PR 3: action.frequency must be a finite number, got an array"),
], ids=["summary", "evidence"])
def test_load_bundle_names_a_value_nested_as_deep_as_a_report_loads(rich_bundle, tmp_path, at, error):
    """The deepest array that the report reader takes, in place of a value: the error that
    names the field says what kind of value it holds rather than writing it out."""
    data, path = json.loads(json_text(rich_bundle)), tmp_path / "deep.json"
    for depth in range(sys.getrecursionlimit(), 0, -1):
        replace_at(data, at, "nested here")
        text = json.dumps(data).replace('"nested here"', "[" * depth + "]" * depth)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SnapshotParseError) as err:
            load_bundle(path)
        if "nested too deeply" not in str(err.value):
            break
    assert str(err.value) == f"malformed report bundle: {error}"


def test_load_bundle_rejects_a_report_with_no_profiles(rich_bundle, tmp_path):
    path, _ = _edited_report(rich_bundle, tmp_path, lambda data: data["profiles"].clear())
    with pytest.raises(SnapshotParseError) as err:
        load_bundle(path)
    assert str(err.value) == "malformed report bundle: the report holds no profiles"


def _summary_rules_of_the_range_ladder(data: dict) -> bool:
    """Whether ``data``'s summary passes the range rules that load_bundle kept before it
    folded the profiles: each stratum holds exactly the summary fields; a count is an integer
    from 0 to the number of profiles and at most its stratum's pr_count, which is the number
    of profiles with its outcome; a mean is null or a number a float holds; and the mean over
    both strata does not overflow."""
    profiles, parts, fields = data["profiles"], [], sorted(f.name for f in dataclasses.fields(StratumSummary))
    for outcome in ("accepted", "rejected"):
        stratum = data["summary"][outcome]
        if type(stratum) is not dict or sorted(stratum) != fields:
            return False
        for key, value in stratum.items():
            integer = type(value) is int
            if key == "mean_comment_frequency":
                number = integer or type(value) is float
                if value is not None and not (number and abs(value) <= sys.float_info.max):
                    return False
            elif not integer or not 0 <= value <= len(profiles) or value > stratum["pr_count"]:
                return False
        if stratum["pr_count"] != sum(1 for raw in profiles if raw["outcome"] == outcome):
            return False
        if stratum["mean_comment_frequency"] is not None:
            parts.append((stratum["pr_count"], float(stratum["mean_comment_frequency"])))
    total_n = sum(n for n, _ in parts)
    return total_n == 0 or math.isfinite(sum(n * m for n, m in parts) / total_n)


def test_load_bundle_accepts_no_mutant_that_the_range_ladder_rejected(rich_bundle):
    """Folding the profiles only narrows what loads: of the summary and fold-input mutants,
    each report that loads passes the range rules that the fold replaced."""
    data = json.loads(json_text(rich_bundle))
    summaries = (summary for summary, _ in _summary_mutants(data["summary"]))
    reports = itertools.chain(({**data, "summary": summary} for summary in summaries),
                              (data for _ in _evidence_mutants(data)))
    outcomes = collections.Counter()
    for report in reports:
        try:
            bundle_from_dict(report)
        except SnapshotParseError:
            outcomes["rejected"] += 1
            continue
        assert _summary_rules_of_the_range_ladder(report), report["summary"]
        outcomes["loaded"] += 1
    assert outcomes["loaded"] > 0 and outcomes["rejected"] > 1500


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
