"""Snapshot loading, validation, classification, and round-trip behavior."""

from __future__ import annotations

import collections
import copy
import dataclasses
import enum
import gc
import itertools
import json
import pickle
import re
import stat
import tempfile
import time
from collections import OrderedDict
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FETCHED,
    HUGE_INTEGER,
    MUTANTS,
    comment,
    commit,
    iso,
    json_paths,
    pull,
    replace_at,
    request,
    review,
    rich_snapshot_dict,
    snapshot,
    umask,
    user,
)
from prtrust import (
    Comment,
    CommitEvent,
    Review,
    ReviewRequest,
    SnapshotError,
    SnapshotParseError,
    SnapshotValidationError,
    UserProfile,
    classify_contribution,
    load_snapshot,
    outcome,
    restrict,
    save_snapshot,
    snapshot_from_dict,
    snapshot_to_dict,
    validate,
)
from prtrust import corpus
from prtrust.corpus import format_timestamp, indented_json, parse_timestamp


def test_empty_snapshot_loads(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(snapshot([], [])), encoding="utf-8")
    snap = load_snapshot(path)
    assert snap.pulls == ()
    assert snap.users == {}
    assert snap.repo_owner == "acme"


def test_unknown_login_cites_pr_and_login():
    data = snapshot(
        [pull(7, "ghost", issue_comments=[comment(1, "ghost", iso(1))])],
        [],
    )
    with pytest.raises(SnapshotValidationError) as err:
        snapshot_from_dict(data)
    assert "PR 7" in str(err.value)
    assert "ghost" in str(err.value)


def test_twenty_pr_fixture_loads_and_mirrors_raw(rich_dict):
    """Independent schema walk: the loaded value reflects the raw document."""
    snap = snapshot_from_dict(rich_dict)
    assert len(snap.pulls) == len(rich_dict["pulls"]) == 25
    assert set(snap.users) == {u["login"] for u in rich_dict["users"]}
    for raw, pr in zip(rich_dict["pulls"], snap.pulls):
        assert pr.number == raw["number"]
        assert pr.author == raw["author"]
        assert pr.state == raw["state"]
        assert len(pr.issue_comments) == len(raw["issue_comments"])
        assert len(pr.review_comments) == len(raw["review_comments"])
        assert len(pr.reviews) == len(raw["reviews"])
        assert len(pr.review_requests) == len(raw["review_requests"])
        assert len(pr.commits) == len(raw["commits"])
        assert pr.labels == frozenset(raw["labels"])
        assert ("closed_at" in raw) == (pr.closed_at is not None)


@pytest.mark.parametrize(
    "files,expected",
    [
        (["README.md"], "documentation"),
        (["src/lib.rs"], "code"),
        (["docs/guide.md", "src/main.c"], "mixed"),
        ([], "code"),
        (["docs/setup.py"], "documentation"),
        (["guide.ADOC"], "documentation"),
        (["a.txt", "b.rst"], "documentation"),
    ],
)
def test_classify_contribution(files, expected):
    assert classify_contribution(files) == expected


def test_classify_is_order_independent():
    files = ["docs/a.md", "src/b.c", "c.txt", "Makefile"]
    assert classify_contribution(files) == classify_contribution(list(reversed(files)))


@pytest.mark.parametrize(
    "state,expected",
    [("merged", "accepted"), ("closed_unmerged", "rejected"), ("open", "pending")],
)
def test_outcome(state, expected):
    snap = snapshot_from_dict(snapshot([pull(1, "dev", state=state)], [user("dev"), user("maintainer")]))
    assert outcome(snap.pulls[0]) == expected


def test_round_trip(rich_dict, tmp_path):
    snap = snapshot_from_dict(rich_dict)
    path = tmp_path / "snap.json"
    save_snapshot(snap, path)
    assert load_snapshot(path) == snap
    # serializing the reloaded value is byte-stable
    again = tmp_path / "again.json"
    save_snapshot(load_snapshot(path), again)
    assert path.read_bytes() == again.read_bytes()


def test_restrict_keeps_users_and_subsets_pulls(rich_dict):
    snap = snapshot_from_dict(rich_dict)
    sub = restrict(snap, [3, 7, 9])
    assert [pr.number for pr in sub.pulls] == [3, 7, 9]
    assert sub.users == snap.users
    assert sub.fetched_at == snap.fetched_at


def test_not_a_file(tmp_path):
    with pytest.raises(SnapshotParseError):
        load_snapshot(tmp_path / "missing.json")


def test_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SnapshotParseError):
        load_snapshot(path)


@pytest.mark.parametrize("content, prefix", [
    (b'{"repo": "\xff"}', "cannot read snapshot file {path}: 'utf-8' codec can't decode byte 0xff"),
    (b'{"pulls": [{"number": ' + HUGE_INTEGER.encode() + b"}]}", "{path}: not valid JSON: "),
], ids=["not-utf8", "huge-integer"])
def test_a_file_json_cannot_read_is_a_parse_error_naming_it(tmp_path, content, prefix):
    """A byte that is not UTF-8 is a UnicodeDecodeError, and so a ValueError, as is an integer
    json.loads will not convert: each is named as what it is, with the file."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(SnapshotParseError) as err:
        load_snapshot(path)
    assert str(err.value).startswith(prefix.format(path=path))


@pytest.mark.parametrize("error", [SnapshotParseError, SnapshotValidationError])
def test_load_errors_name_the_file(error, tmp_path):
    data = _base()
    if error is SnapshotParseError:
        data["pulls"][0]["surprise"] = 1
    else:
        data["pulls"][0]["author"] = "nobody"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SnapshotError) as err:
        load_snapshot(path)
    with pytest.raises(SnapshotError) as direct:
        snapshot_from_dict(data)
    assert type(err.value) is type(direct.value) is error
    assert str(err.value) == f"{path}: {direct.value}"
    assert type(err.value.__cause__) is error and str(err.value.__cause__) == str(direct.value)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("content, error", [
    ("valid", None),
    ("{not json", SnapshotParseError),
    ("unknown-author", SnapshotValidationError),
])
def test_load_pauses_the_collector_and_leaves_it_as_it_found_it(
    content, error, enabled, collector, rich_dict, tmp_path, monkeypatch
):
    if content == "unknown-author":
        rich_dict["pulls"][0]["author"] = "nobody"
    path = tmp_path / "snapshot.json"
    path.write_text(content if error is SnapshotParseError else json.dumps(rich_dict), encoding="utf-8")
    during = []
    monkeypatch.setattr(corpus, "validate", lambda snap: during.append(gc.isenabled()) or validate(snap))
    collector(enabled)
    if error is None:
        load_snapshot(path)
    else:
        with pytest.raises(error):
            load_snapshot(path)
    assert gc.isenabled() is enabled
    assert during == ([] if error is SnapshotParseError else [False])


# ---------------------------------------------------------------------------
# Negative-fixture suite: every malformation is rejected with a located error
# ---------------------------------------------------------------------------

def _base() -> dict:
    pr = pull(
        4,
        "dev",
        state="merged",
        created=iso(0),
        closed=iso(2),
        closer="boss",
        issue_comments=[comment(41, "boss", iso(1))],
        review_comments=[comment(42, "boss", iso(1, hours=1))],
        reviews=[review(43, "boss", iso(1, hours=2), verdict="approved", body="ok")],
        review_requests=[request("boss", iso(0, hours=1))],
        commits=[commit("ab12", "dev", iso(0, hours=2))],
    )
    return snapshot([pr], [user("dev"), user("boss", permission="admin", closure=(5, 3))])


def negative_snapshot_dicts() -> list[tuple[str, dict, str]]:
    """(name, malformed dict, expected message fragment) triples."""
    cases = []

    def variant(name: str, fragment: str, mutate) -> None:
        data = copy.deepcopy(_base())
        mutate(data)
        cases.append((name, data, fragment))

    variant("unknown-comment-author", "nobody",
            lambda d: d["pulls"][0]["issue_comments"][0].update(author="nobody"))
    variant("unknown-closer", "mystery",
            lambda d: d["pulls"][0].update(closer="mystery"))
    variant("duplicate-pr-number", "strictly increasing",
            lambda d: d["pulls"].append(copy.deepcopy(d["pulls"][0])))
    variant("decreasing-pr-number", "strictly increasing",
            lambda d: d["pulls"].insert(0, dict(copy.deepcopy(d["pulls"][0]), number=9)))
    variant("open-with-closed-at", "closed_at",
            lambda d: d["pulls"][0].update(state="open"))
    variant("closed-without-closer", "closer",
            lambda d: d["pulls"][0].pop("closer"))
    variant("closed-before-created", "precedes",
            lambda d: d["pulls"][0].update(closed_at="2021-12-01T00:00:00Z"))
    variant("event-after-fetch", "fetched_at",
            lambda d: d["pulls"][0]["issue_comments"][0].update(created_at="2022-12-01T00:00:00Z"))
    variant("event-before-created", "precedes",
            lambda d: d["pulls"][0]["commits"][0].update(committed_at="2021-06-01T00:00:00Z"))
    variant("self-review-request", "author",
            lambda d: d["pulls"][0]["review_requests"][0].update(requestee="dev"))
    variant("duplicate-comment-id", "duplicate comment id",
            lambda d: d["pulls"][0]["review_comments"][0].update(id=41))
    variant("bad-verdict", "verdict",
            lambda d: d["pulls"][0]["reviews"][0].update(verdict="LGTM"))
    variant("duplicate-sha", "duplicate commit sha",
            lambda d: d["pulls"][0]["commits"].append(dict(d["pulls"][0]["commits"][0])))
    variant("non-hex-sha", "hex",
            lambda d: d["pulls"][0]["commits"][0].update(sha="zzzz"))
    variant("bad-permission", "permission",
            lambda d: d["users"][0].update(permission="owner"))
    variant("negative-followers", "non-negative",
            lambda d: d["users"][0].update(followers=-1))
    variant("closure-accepted-exceeds-closed", "exceeds",
            lambda d: d["users"][1].update(closure_history={"closed_count": 2, "accepted_count": 3}))
    variant("duplicate-user", "duplicate login",
            lambda d: d["users"].append(dict(d["users"][0])))
    variant("bad-timestamp", "timestamp",
            lambda d: d["pulls"][0].update(created_at="yesterday"))
    variant("naive-timestamp", "offset",
            lambda d: d["pulls"][0].update(created_at="2022-01-01T00:00:00"))
    variant("timestamp-after-year-9999-in-utc", "out of range",
            lambda d: d["pulls"][0].update(created_at="9999-12-31T23:59:59-01:00"))
    variant("timestamp-before-year-1-in-utc", "out of range",
            lambda d: d["pulls"][0].update(created_at="0001-01-01T00:00:00+01:00"))
    variant("missing-field", "missing field",
            lambda d: d["pulls"][0].pop("author"))
    variant("unknown-field", "unknown field",
            lambda d: d["pulls"][0].update(surprise=1))
    variant("pulls-not-a-list", "array",
            lambda d: d.update(pulls={}))
    variant("bad-state", "state",
            lambda d: d["pulls"][0].update(state="abandoned"))
    variant("bad-contribution-kind", "contribution_kind",
            lambda d: d["pulls"][0].update(contribution_kind="art"))
    variant("duplicate-label", "label",
            lambda d: d["pulls"][0].update(labels=["bug", "bug"]))
    variant("number-not-positive", "positive",
            lambda d: d["pulls"][0].update(number=0))
    variant("bool-followers", "integer",
            lambda d: d["users"][0].update(followers=True))
    return cases


@pytest.mark.parametrize(
    "name,data,fragment",
    [pytest.param(*case, id=case[0]) for case in negative_snapshot_dicts()],
)
def test_malformed_snapshots_are_rejected_with_location(name, data, fragment):
    with pytest.raises(SnapshotError) as err:
        snapshot_from_dict(data)
    assert fragment.lower() in str(err.value).lower()


def test_fetched_at_bounds_all_timestamps():
    data = _base()
    data["repo"]["fetched_at"] = "2022-01-01T12:00:00Z"  # before the close
    with pytest.raises(SnapshotValidationError) as err:
        snapshot_from_dict(data)
    assert "PR 4" in str(err.value)


def test_fetched_matches_external_interface_timestamp_format():
    snap = snapshot_from_dict(_base())
    encoded = snapshot_to_dict(snap)
    assert encoded["repo"]["fetched_at"] == FETCHED
    assert encoded["pulls"][0]["created_at"] == "2022-01-01T00:00:00Z"


_RICH_PATHS = [path for path in json_paths(rich_snapshot_dict()) if path]


@given(st.sampled_from(_RICH_PATHS), st.sampled_from(MUTANTS))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_single_field_mutation_raises_only_snapshot_error(path, value):
    data = rich_snapshot_dict()
    replace_at(data, path, value)
    try:
        snapshot_from_dict(data)
    except SnapshotError:
        pass


# ---------------------------------------------------------------------------
# Event decode errors: the full message for every event list
# ---------------------------------------------------------------------------

def _set_event(key: str, value):
    def mutate(d):
        d["pulls"][0][key][0] = value
    return mutate


def _update_event(key: str, **fields):
    return lambda d: d["pulls"][0][key][0].update(fields)


def _drop_from_event(key: str, name: str):
    return lambda d: d["pulls"][0][key][0].pop(name)


def _rename_in_event(key: str, old: str, new: str):
    """A missing and an unknown key at once: the unknown one is reported."""
    def mutate(d):
        event = d["pulls"][0][key][0]
        event[new] = event.pop(old)
    return mutate


# (event list, mutation of its first event, the whole error message)
_EVENT_ERRORS = [
    ("commits", _set_event("commits", 7),
     "PR 4.commits[0]: expected an object, got int"),
    ("commits", _drop_from_event("commits", "author"),
     "PR 4.commits[0]: missing field 'author'"),
    ("commits", _update_event("commits", surprise=1),
     "PR 4.commits[0]: unknown field 'surprise'"),
    ("commits", _update_event("commits", sha=12),
     "PR 4.commits[0]: field 'sha' must be a string, got int"),
    ("commits", _update_event("commits", committed_at="yesterday"),
     "PR 4.commits[0].committed_at: invalid timestamp 'yesterday'"),
    ("commits", _update_event("commits", committed_at="2022-01-01T02:00:00"),
     "PR 4.commits[0].committed_at: timestamp '2022-01-01T02:00:00' lacks a UTC offset"),
    ("issue_comments", _set_event("issue_comments", "hello"),
     "PR 4.issue_comments[0]: expected an object, got str"),
    ("issue_comments", _drop_from_event("issue_comments", "body"),
     "PR 4.issue_comments[0]: missing field 'body'"),
    ("issue_comments", _update_event("issue_comments", surprise=1),
     "PR 4.issue_comments[0]: unknown field 'surprise'"),
    ("issue_comments", _update_event("issue_comments", id="41"),
     "PR 4.issue_comments[0]: field 'id' must be an integer, got str"),
    ("issue_comments", _update_event("issue_comments", created_at=7),
     "PR 4.issue_comments[0].created_at: timestamp must be a string, got int"),
    ("issue_comments", _update_event("issue_comments", created_at="2022-01-02"),
     "PR 4.issue_comments[0].created_at: invalid timestamp '2022-01-02'"),
    ("review_comments", _set_event("review_comments", None),
     "PR 4.review_comments[0]: expected an object, got NoneType"),
    ("review_comments", _drop_from_event("review_comments", "id"),
     "PR 4.review_comments[0]: missing field 'id'"),
    ("review_comments", _update_event("review_comments", aaa=None, zzz=None),
     "PR 4.review_comments[0]: unknown field 'aaa'"),
    ("review_comments", _update_event("review_comments", body=None),
     "PR 4.review_comments[0]: field 'body' must be a string, got NoneType"),
    ("review_comments", _update_event("review_comments", created_at="2022-13-01T00:00:00Z"),
     "PR 4.review_comments[0].created_at: invalid timestamp '2022-13-01T00:00:00Z'"),
    ("review_comments", _update_event("review_comments", created_at="2022-01-02T01:00:00.5"),
     "PR 4.review_comments[0].created_at: timestamp '2022-01-02T01:00:00.5' lacks a UTC offset"),
    ("reviews", _set_event("reviews", []),
     "PR 4.reviews[0]: expected an object, got list"),
    ("reviews", _drop_from_event("reviews", "verdict"),
     "PR 4.reviews[0]: missing field 'verdict'"),
    ("reviews", _update_event("reviews", surprise=1),
     "PR 4.reviews[0]: unknown field 'surprise'"),
    ("reviews", _update_event("reviews", id=True),
     "PR 4.reviews[0]: field 'id' must be an integer, got bool"),
    ("reviews", _update_event("reviews", body=["ok"]),
     "PR 4.reviews[0]: field 'body' must be a string, got list"),
    ("reviews", _update_event("reviews", submitted_at=""),
     "PR 4.reviews[0].submitted_at: invalid timestamp ''"),
    ("reviews", _update_event("reviews", submitted_at="2022-01-02T02:00:00"),
     "PR 4.reviews[0].submitted_at: timestamp '2022-01-02T02:00:00' lacks a UTC offset"),
    ("review_requests", _set_event("review_requests", 1.5),
     "PR 4.review_requests[0]: expected an object, got float"),
    ("review_requests", _drop_from_event("review_requests", "requested_at"),
     "PR 4.review_requests[0]: missing field 'requested_at'"),
    ("review_requests", _rename_in_event("review_requests", "requestee", "surprise"),
     "PR 4.review_requests[0]: unknown field 'surprise'"),
    ("review_requests", _update_event("review_requests", requestee=7),
     "PR 4.review_requests[0]: field 'requestee' must be a string, got int"),
    ("review_requests", _update_event("review_requests", requested_at="soon"),
     "PR 4.review_requests[0].requested_at: invalid timestamp 'soon'"),
    ("review_requests", _update_event("review_requests", requested_at="2022-01-01T01:00:00"),
     "PR 4.review_requests[0].requested_at: timestamp '2022-01-01T01:00:00' lacks a UTC offset"),
    ("commits", _update_event("commits", committed_at="9999-12-31T23:59:59-01:00"),
     "PR 4.commits[0].committed_at: timestamp '9999-12-31T23:59:59-01:00' is out of range"),
    ("reviews", _update_event("reviews", submitted_at="0001-01-01T00:00:00+01:00"),
     "PR 4.reviews[0].submitted_at: timestamp '0001-01-01T00:00:00+01:00' is out of range"),
    ("issue_comments", _update_event("issue_comments", created_at="2022-01-02Z"),
     "PR 4.issue_comments[0].created_at: invalid timestamp '2022-01-02Z'"),
]


@pytest.mark.parametrize(
    "mutate,message",
    [pytest.param(mutate, message, id=f"{key}-{i}") for i, (key, mutate, message) in enumerate(_EVENT_ERRORS)],
)
def test_event_decode_errors_carry_the_full_message(mutate, message):
    data = _base()
    mutate(data)
    with pytest.raises(SnapshotParseError) as err:
        snapshot_from_dict(data)
    assert str(err.value) == message


def test_second_event_is_located_by_its_index():
    data = _base()
    data["pulls"][0]["issue_comments"].append(comment(44, "boss", "2022-01-02T00:00:00+01:00"))
    data["pulls"][0]["issue_comments"].append(comment(45, "boss", "2022-01-02T00:00:00"))
    with pytest.raises(SnapshotParseError) as err:
        snapshot_from_dict(data)
    assert str(err.value) == (
        "PR 4.issue_comments[2].created_at: timestamp '2022-01-02T00:00:00' lacks a UTC offset"
    )


@pytest.mark.parametrize("closer, message", [
    (7, "PR 4: field 'closer' must be a string, got int"),
    (["boss"], "PR 4: field 'closer' must be a string, got list"),
])
def test_non_string_closer_carries_the_full_message(closer, message):
    data = _base()
    data["pulls"][0]["closer"] = closer
    with pytest.raises(SnapshotParseError) as err:
        snapshot_from_dict(data)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Validation errors: the whole message, and which violation is reported first
# ---------------------------------------------------------------------------

def _update_pull(**fields):
    return lambda d: d["pulls"][0].update(fields)


def _drop_from_pull(name: str):
    return lambda d: d["pulls"][0].pop(name)


def _append_event(key: str, event: dict):
    return lambda d: d["pulls"][0][key].append(event)


def _all(*mutations):
    def mutate(d):
        for m in mutations:
            m(d)
    return mutate


_LATE = "2022-12-01T00:00:00Z"  # after the snapshot's fetched_at
_EARLY = "2021-06-01T00:00:00Z"  # before PR 4's created_at
_SHA40 = "0123456789abcdef" * 2 + "01234567"

# (name, mutation of _base(), the whole error message): one case per raise in
# validate, _validate_user and _validate_pull, then the invariants checked at decode.
_VALIDATION_ERRORS = [
    ("decreasing-pr-number",
     lambda d: d["pulls"].insert(0, dict(copy.deepcopy(d["pulls"][0]), number=9)),
     "PR 4: pull numbers must be unique and strictly increasing (follows 9)"),
    ("duplicate-pr-number", lambda d: d["pulls"].append(copy.deepcopy(d["pulls"][0])),
     "PR 4: pull numbers must be unique and strictly increasing (follows 4)"),
    ("negative-followers", lambda d: d["users"][0].update(followers=-1),
     "user 'dev': followers must be non-negative"),
    ("bad-permission", lambda d: d["users"][0].update(permission="owner"),
     "user 'dev': permission must be one of ('admin', 'write', 'read', 'none'), got 'owner'"),
    ("negative-closed-count",
     lambda d: d["users"][1].update(closure_history={"closed_count": -1, "accepted_count": 0}),
     "user 'boss': closure_history counts must be non-negative"),
    ("negative-accepted-count",
     lambda d: d["users"][1].update(closure_history={"closed_count": 1, "accepted_count": -1}),
     "user 'boss': closure_history counts must be non-negative"),
    ("accepted-exceeds-closed",
     lambda d: d["users"][1].update(closure_history={"closed_count": 2, "accepted_count": 3}),
     "user 'boss': closure_history accepted_count 3 exceeds closed_count 2"),
    ("number-zero", _update_pull(number=0), "PR 0: number must be positive"),
    ("number-negative", _update_pull(number=-3), "PR -3: number must be positive"),
    ("bad-state", _update_pull(state="abandoned"),
     "PR 4: state must be one of ('merged', 'closed_unmerged', 'open'), got 'abandoned'"),
    ("bad-contribution-kind", _update_pull(contribution_kind="art"),
     "PR 4: contribution_kind must be one of ('code', 'documentation', 'mixed'), got 'art'"),
    ("open-with-closed-at", _update_pull(state="open"),
     "PR 4: open PR must not carry closed_at"),
    ("open-with-closer", _all(_update_pull(state="open"), _drop_from_pull("closed_at")),
     "PR 4: open PR must not carry a closer"),
    ("merged-without-closed-at", _drop_from_pull("closed_at"),
     "PR 4: state 'merged' requires closed_at"),
    ("closed-without-closer", _all(_update_pull(state="closed_unmerged"), _drop_from_pull("closer")),
     "PR 4: state 'closed_unmerged' requires a closer"),
    ("closed-before-created", _update_pull(closed_at="2021-12-01T00:00:00Z"),
     "PR 4: closed_at precedes created_at"),
    ("created-after-fetch", _update_pull(created_at=_LATE, closed_at=_LATE),
     "PR 4: created_at is after snapshot fetched_at"),
    ("closed-after-fetch", _update_pull(closed_at=_LATE),
     "PR 4: closed_at is after snapshot fetched_at"),
    ("unknown-author", _update_pull(author="nobody"),
     "PR 4: unknown login 'nobody' (author)"),
    ("unknown-closer", _update_pull(closer="mystery"),
     "PR 4: unknown login 'mystery' (closer)"),
    ("duplicate-comment-id-across-lists", _update_event("review_comments", id=41),
     "PR 4: duplicate comment id 41"),
    ("duplicate-comment-id-in-one-list", _append_event("issue_comments", comment(41, "boss", iso(1))),
     "PR 4: duplicate comment id 41"),
    ("unknown-issue-comment-author", _update_event("issue_comments", author="nobody"),
     "PR 4: unknown login 'nobody' (issue comment author)"),
    ("issue-comment-before-created", _update_event("issue_comments", created_at=_EARLY),
     "PR 4: issue comment 41 timestamp precedes PR created_at"),
    ("issue-comment-after-fetch", _update_event("issue_comments", created_at=_LATE),
     "PR 4: issue comment 41 timestamp is after snapshot fetched_at"),
    ("unknown-review-comment-author", _update_event("review_comments", author="nobody"),
     "PR 4: unknown login 'nobody' (review comment author)"),
    ("review-comment-before-created", _update_event("review_comments", created_at=_EARLY),
     "PR 4: review comment 42 timestamp precedes PR created_at"),
    ("review-comment-after-fetch", _update_event("review_comments", created_at=_LATE),
     "PR 4: review comment 42 timestamp is after snapshot fetched_at"),
    ("duplicate-review-id", _append_event("reviews", review(43, "boss", iso(1, hours=3))),
     "PR 4: duplicate review id 43"),
    ("bad-verdict", _update_event("reviews", verdict="LGTM"),
     "PR 4: review 43 verdict must be one of "
     "('approved', 'commented', 'changes_requested', 'dismissed'), got 'LGTM'"),
    ("unknown-review-author", _update_event("reviews", author="nobody"),
     "PR 4: unknown login 'nobody' (review author)"),
    ("review-before-created", _update_event("reviews", submitted_at=_EARLY),
     "PR 4: review 43 timestamp precedes PR created_at"),
    ("review-after-fetch", _update_event("reviews", submitted_at=_LATE),
     "PR 4: review 43 timestamp is after snapshot fetched_at"),
    ("self-review-request", _update_event("review_requests", requestee="dev"),
     "PR 4: review request targets the PR author 'dev'"),
    ("unknown-requested-reviewer", _update_event("review_requests", requestee="nobody"),
     "PR 4: unknown login 'nobody' (requested reviewer)"),
    ("review-request-before-created", _update_event("review_requests", requested_at=_EARLY),
     "PR 4: review request for 'boss' precedes PR created_at"),
    ("review-request-after-fetch", _update_event("review_requests", requested_at=_LATE),
     "PR 4: review request for 'boss' is after snapshot fetched_at"),
    ("non-hex-sha", _update_event("commits", sha="zzzz"),
     "PR 4: commit sha 'zzzz' is not a hex string"),
    ("empty-sha", _update_event("commits", sha=""),
     "PR 4: commit sha '' is not a hex string"),
    ("sha-with-trailing-newline", _update_event("commits", sha="ab12\n"),
     "PR 4: commit sha 'ab12\n' is not a hex string"),
    ("sha-with-non-ascii-digits", _update_event("commits", sha="ab١٢"),
     "PR 4: commit sha 'ab١٢' is not a hex string"),
    ("duplicate-sha", _append_event("commits", commit("ab12", "dev", iso(0, hours=3))),
     "PR 4: duplicate commit sha 'ab12'"),
    ("unknown-commit-author", _update_event("commits", author="nobody"),
     "PR 4: unknown login 'nobody' (commit author)"),
    ("commit-before-created", _update_event("commits", committed_at=_EARLY),
     "PR 4: commit ab12 timestamp precedes PR created_at"),
    ("long-sha-commit-after-fetch", _update_event("commits", sha=_SHA40, committed_at=_LATE),
     "PR 4: commit 0123456789ab timestamp is after snapshot fetched_at"),
    ("duplicate-user", lambda d: d["users"].append(dict(d["users"][0])),
     "users[2]: duplicate login 'dev'"),
    ("duplicate-label", _update_pull(labels=["bug", "bug"]),
     "PR 4: duplicate value in 'labels'"),
    ("duplicate-org", lambda d: d["users"][0].update(orgs=["asf", "asf"]),
     "users[0]: duplicate value in 'orgs'"),
]

# (name, two or more violations at once, the whole message of the one reported first)
_FIRST_VIOLATIONS = [
    ("comment-author-before-its-window",
     _update_event("issue_comments", author="nobody", created_at=_LATE),
     "PR 4: unknown login 'nobody' (issue comment author)"),
    ("issue-comment-before-commit",
     _all(_update_event("issue_comments", author="nobody"), _update_event("commits", sha="zzzz")),
     "PR 4: unknown login 'nobody' (issue comment author)"),
    ("comment-id-before-comment-author", _update_event("review_comments", id=41, author="nobody"),
     "PR 4: duplicate comment id 41"),
    ("earlier-comment-before-later-duplicate-id",
     _all(_append_event("issue_comments", comment(44, "nobody", iso(1))),
          _append_event("issue_comments", comment(41, "boss", iso(1)))),
     "PR 4: unknown login 'nobody' (issue comment author)"),
    ("review-comment-before-review",
     _all(_update_event("review_comments", created_at=_EARLY), _update_event("reviews", verdict="LGTM")),
     "PR 4: review comment 42 timestamp precedes PR created_at"),
    ("verdict-before-review-author", _update_event("reviews", verdict="LGTM", author="nobody"),
     "PR 4: review 43 verdict must be one of "
     "('approved', 'commented', 'changes_requested', 'dismissed'), got 'LGTM'"),
    ("review-before-review-request",
     _all(_update_event("reviews", submitted_at=_LATE), _update_event("review_requests", requestee="dev")),
     "PR 4: review 43 timestamp is after snapshot fetched_at"),
    ("self-request-before-its-window", _update_event("review_requests", requestee="dev", requested_at=_LATE),
     "PR 4: review request targets the PR author 'dev'"),
    ("hex-before-commit-author", _update_event("commits", sha="zzzz", author="nobody"),
     "PR 4: commit sha 'zzzz' is not a hex string"),
    ("duplicate-sha-before-commit-author", _append_event("commits", commit("ab12", "nobody", _LATE)),
     "PR 4: duplicate commit sha 'ab12'"),
    ("author-before-closer", _update_pull(author="nobody", closer="mystery"),
     "PR 4: unknown login 'nobody' (author)"),
    ("closer-before-events",
     _all(_update_pull(closer="mystery"), _update_event("issue_comments", author="nobody")),
     "PR 4: unknown login 'mystery' (closer)"),
    ("fetch-window-before-logins", _update_pull(created_at=_LATE, closed_at=_LATE, author="nobody"),
     "PR 4: created_at is after snapshot fetched_at"),
    ("user-before-pull",
     _all(lambda d: d["users"][0].update(followers=-1), _update_event("reviews", verdict="LGTM")),
     "user 'dev': followers must be non-negative"),
    ("earlier-pull-before-number-order",
     _all(_update_event("reviews", verdict="LGTM"),
          lambda d: d["pulls"].append(dict(copy.deepcopy(d["pulls"][0]), number=3))),
     "PR 4: review 43 verdict must be one of "
     "('approved', 'commented', 'changes_requested', 'dismissed'), got 'LGTM'"),
    ("decode-before-validate",
     _all(_update_pull(author="nobody"),
          lambda d: d["pulls"].append(dict(copy.deepcopy(d["pulls"][0]), number=5, surprise=1))),
     "pulls[1]: unknown field 'surprise'"),
]


@pytest.mark.parametrize(
    "mutate,message",
    [pytest.param(mutate, message, id=name) for name, mutate, message in _VALIDATION_ERRORS + _FIRST_VIOLATIONS],
)
def test_validation_errors_carry_the_full_message(mutate, message):
    data = _base()
    mutate(data)
    with pytest.raises(SnapshotError) as err:
        snapshot_from_dict(data)
    assert str(err.value) == message


def test_login_key_mismatch_is_named():
    snap = snapshot_from_dict(_base())
    mismatched = dataclasses.replace(snap, users={**snap.users, "dev": snap.users["boss"]})
    with pytest.raises(SnapshotValidationError) as err:
        validate(mismatched)
    assert str(err.value) == "user 'dev': login key mismatch 'boss'"


def test_events_at_the_window_bounds_are_accepted():
    data = _base()
    pr = data["pulls"][0]
    pr["issue_comments"].append(comment(44, "boss", pr["created_at"]))
    pr["review_comments"].append(comment(45, "boss", FETCHED))
    pr["commits"].append(commit("cd34", "dev", FETCHED))
    snap = snapshot_from_dict(data)
    assert snap.pulls[0].issue_comments[-1].created_at == snap.pulls[0].created_at
    assert snap.pulls[0].commits[-1].committed_at == snap.fetched_at


# ---------------------------------------------------------------------------
# Record decode errors: the full message for every field of a PR, a user and the repo
# ---------------------------------------------------------------------------

def _update_user(index: int, **fields):
    return lambda d: d["users"][index].update(fields)


def _drop_from_user(index: int, name: str):
    return lambda d: d["users"][index].pop(name)


def _update_closure(**fields):
    return lambda d: d["users"][1]["closure_history"].update(fields)


def _drop_from_closure(name: str):
    return lambda d: d["users"][1]["closure_history"].pop(name)


def _update_repo(**fields):
    return lambda d: d["repo"].update(fields)


def _drop_from_repo(name: str):
    return lambda d: d["repo"].pop(name)


def _update_snapshot(**fields):
    return lambda d: d.update(fields)


def _drop_from_snapshot(name: str):
    return lambda d: d.pop(name)


_P, _V = SnapshotParseError, SnapshotValidationError
_EVENT_LIST_KEYS = ("commits", "issue_comments", "review_comments", "reviews", "review_requests")

# (name, mutation of _base(), exception type, the whole message): per field, a missing
# key, a value of the wrong JSON type and a null, then an unknown key at every level.
# Where a field may be absent or null, the snapshot fails validation instead, or loads.
_RECORD_ERRORS = [
    ("pr-number-missing", _drop_from_pull("number"), _P, "pulls[0]: missing field 'number'"),
    ("pr-number-str", _update_pull(number="4"), _P, "pulls[0]: field 'number' must be an integer, got str"),
    ("pr-number-bool", _update_pull(number=True), _P, "pulls[0]: field 'number' must be an integer, got bool"),
    ("pr-number-null", _update_pull(number=None), _P,
     "pulls[0]: field 'number' must be an integer, got NoneType"),
    ("pr-author-missing", _drop_from_pull("author"), _P, "PR 4: missing field 'author'"),
    ("pr-author-int", _update_pull(author=7), _P, "PR 4: field 'author' must be a string, got int"),
    ("pr-author-null", _update_pull(author=None), _P, "PR 4: field 'author' must be a string, got NoneType"),
    ("pr-state-missing", _drop_from_pull("state"), _P, "PR 4: missing field 'state'"),
    ("pr-state-list", _update_pull(state=["merged"]), _P, "PR 4: field 'state' must be a string, got list"),
    ("pr-state-null", _update_pull(state=None), _P, "PR 4: field 'state' must be a string, got NoneType"),
    ("pr-created_at-missing", _drop_from_pull("created_at"), _P, "PR 4: missing field 'created_at'"),
    ("pr-created_at-int", _update_pull(created_at=7), _P, "PR 4.created_at: timestamp must be a string, got int"),
    ("pr-created_at-null", _update_pull(created_at=None), _P,
     "PR 4.created_at: timestamp must be a string, got NoneType"),
    ("pr-closed_at-missing", _drop_from_pull("closed_at"), _V, "PR 4: state 'merged' requires closed_at"),
    ("pr-closed_at-dict", _update_pull(closed_at={}), _P, "PR 4.closed_at: timestamp must be a string, got dict"),
    ("pr-closed_at-null", _update_pull(closed_at=None), _V, "PR 4: state 'merged' requires closed_at"),
    ("pr-closer-missing", _drop_from_pull("closer"), _V, "PR 4: state 'merged' requires a closer"),
    ("pr-closer-bool", _update_pull(closer=True), _P, "PR 4: field 'closer' must be a string, got bool"),
    ("pr-closer-null", _update_pull(closer=None), _V, "PR 4: state 'merged' requires a closer"),
    ("pr-labels-missing", _drop_from_pull("labels"), _P, "PR 4: missing field 'labels'"),
    ("pr-labels-str", _update_pull(labels="bug"), _P, "PR 4.labels: expected an array, got str"),
    ("pr-labels-item-int", _update_pull(labels=["bug", 7]), _P, "PR 4.labels[1]: expected a string, got int"),
    ("pr-labels-null", _update_pull(labels=None), _P, "PR 4.labels: expected an array, got NoneType"),
    ("pr-contribution_kind-missing", _drop_from_pull("contribution_kind"), _P,
     "PR 4: missing field 'contribution_kind'"),
    ("pr-contribution_kind-int", _update_pull(contribution_kind=7), _P,
     "PR 4: field 'contribution_kind' must be a string, got int"),
    ("pr-contribution_kind-null", _update_pull(contribution_kind=None), _P,
     "PR 4: field 'contribution_kind' must be a string, got NoneType"),
    ("pr-files-missing", _drop_from_pull("files"), _P, "PR 4: missing field 'files'"),
    ("pr-files-dict", _update_pull(files={}), _P, "PR 4.files: expected an array, got dict"),
    ("pr-files-item-null", _update_pull(files=[None]), _P, "PR 4.files[0]: expected a string, got NoneType"),
    ("pr-files-null", _update_pull(files=None), _P, "PR 4.files: expected an array, got NoneType"),
    *[row for key in _EVENT_LIST_KEYS for row in [
        (f"pr-{key}-missing", _drop_from_pull(key), _P, f"PR 4: missing field '{key}'"),
        (f"pr-{key}-dict", _update_pull(**{key: {}}), _P, f"PR 4.{key}: expected an array, got dict"),
        (f"pr-{key}-null", _update_pull(**{key: None}), _P, f"PR 4.{key}: expected an array, got NoneType"),
    ]],
    ("user-login-missing", _drop_from_user(0, "login"), _P, "users[0]: missing field 'login'"),
    ("user-login-int", _update_user(0, login=7), _P, "users[0]: field 'login' must be a string, got int"),
    ("user-login-null", _update_user(0, login=None), _P, "users[0]: field 'login' must be a string, got NoneType"),
    ("user-followers-missing", _drop_from_user(0, "followers"), _P, "users[0]: missing field 'followers'"),
    ("user-followers-float", _update_user(0, followers=1.5), _P,
     "users[0]: field 'followers' must be an integer, got float"),
    ("user-followers-null", _update_user(0, followers=None), _P,
     "users[0]: field 'followers' must be an integer, got NoneType"),
    ("user-orgs-missing", _drop_from_user(0, "orgs"), _P, "users[0]: missing field 'orgs'"),
    ("user-orgs-str", _update_user(0, orgs="asf"), _P, "users[0].orgs: expected an array, got str"),
    ("user-orgs-item-int", _update_user(0, orgs=[7]), _P, "users[0].orgs[0]: expected a string, got int"),
    ("user-orgs-null", _update_user(0, orgs=None), _P, "users[0].orgs: expected an array, got NoneType"),
    ("user-permission-missing", _drop_from_user(0, "permission"), _P, "users[0]: missing field 'permission'"),
    ("user-permission-bool", _update_user(0, permission=True), _P,
     "users[0]: field 'permission' must be a string, got bool"),
    ("user-permission-null", _update_user(0, permission=None), _P,
     "users[0]: field 'permission' must be a string, got NoneType"),
    ("user-closure_history-list", _update_user(1, closure_history=[5, 3]), _P,
     "users[1].closure_history: expected an object, got list"),
    ("user-closure_history-empty", _update_user(1, closure_history={}), _P,
     "users[1].closure_history: missing field 'closed_count'"),
    ("user-closed_count-missing", _drop_from_closure("closed_count"), _P,
     "users[1].closure_history: missing field 'closed_count'"),
    ("user-closed_count-str", _update_closure(closed_count="5"), _P,
     "users[1].closure_history: field 'closed_count' must be an integer, got str"),
    ("user-closed_count-null", _update_closure(closed_count=None), _P,
     "users[1].closure_history: field 'closed_count' must be an integer, got NoneType"),
    ("user-accepted_count-missing", _drop_from_closure("accepted_count"), _P,
     "users[1].closure_history: missing field 'accepted_count'"),
    ("user-accepted_count-bool", _update_closure(accepted_count=True), _P,
     "users[1].closure_history: field 'accepted_count' must be an integer, got bool"),
    ("user-accepted_count-null", _update_closure(accepted_count=None), _P,
     "users[1].closure_history: field 'accepted_count' must be an integer, got NoneType"),
    ("user-permission_unknown-str", _update_user(0, permission_unknown="yes"), _P,
     "users[0]: field 'permission_unknown' must be a boolean"),
    ("user-permission_unknown-int", _update_user(0, permission_unknown=1), _P,
     "users[0]: field 'permission_unknown' must be a boolean"),
    ("user-permission_unknown-null", _update_user(0, permission_unknown=None), _P,
     "users[0]: field 'permission_unknown' must be a boolean"),
    ("repo-owner-missing", _drop_from_repo("owner"), _P, "repo: missing field 'owner'"),
    ("repo-owner-int", _update_repo(owner=7), _P, "repo: field 'owner' must be a string, got int"),
    ("repo-owner-null", _update_repo(owner=None), _P, "repo: field 'owner' must be a string, got NoneType"),
    ("repo-name-missing", _drop_from_repo("name"), _P, "repo: missing field 'name'"),
    ("repo-name-list", _update_repo(name=["widget"]), _P, "repo: field 'name' must be a string, got list"),
    ("repo-name-null", _update_repo(name=None), _P, "repo: field 'name' must be a string, got NoneType"),
    ("repo-fetched_at-missing", _drop_from_repo("fetched_at"), _P, "repo: missing field 'fetched_at'"),
    ("repo-fetched_at-int", _update_repo(fetched_at=7), _P, "repo.fetched_at: timestamp must be a string, got int"),
    ("repo-fetched_at-null", _update_repo(fetched_at=None), _P,
     "repo.fetched_at: timestamp must be a string, got NoneType"),
    ("snapshot-repo-missing", _drop_from_snapshot("repo"), _P, "snapshot: missing field 'repo'"),
    ("snapshot-repo-list", _update_snapshot(repo=[]), _P, "repo: expected an object, got list"),
    ("snapshot-repo-null", _update_snapshot(repo=None), _P, "repo: expected an object, got NoneType"),
    ("snapshot-repo-empty", _update_snapshot(repo={}), _P, "repo: missing field 'owner'"),
    ("snapshot-users-missing", _drop_from_snapshot("users"), _P, "snapshot: missing field 'users'"),
    ("snapshot-users-dict", _update_snapshot(users={}), _P, "users: expected an array, got dict"),
    ("snapshot-users-null", _update_snapshot(users=None), _P, "users: expected an array, got NoneType"),
    ("snapshot-user-int", lambda d: d["users"].__setitem__(0, 7), _P, "users[0]: expected an object, got int"),
    ("snapshot-pulls-missing", _drop_from_snapshot("pulls"), _P, "snapshot: missing field 'pulls'"),
    ("snapshot-pulls-int", _update_snapshot(pulls=7), _P, "pulls: expected an array, got int"),
    ("snapshot-pulls-null", _update_snapshot(pulls=None), _P, "pulls: expected an array, got NoneType"),
    ("snapshot-pull-str", lambda d: d["pulls"].__setitem__(0, "4"), _P, "pulls[0]: expected an object, got str"),
    ("unknown-key-in-snapshot", _update_snapshot(surprise=1), _P, "snapshot: unknown field 'surprise'"),
    ("unknown-key-in-repo", _update_repo(surprise=1), _P, "repo: unknown field 'surprise'"),
    ("unknown-key-in-user", _update_user(0, surprise=1), _P, "users[0]: unknown field 'surprise'"),
    ("unknown-key-in-closure_history", _update_closure(surprise=1), _P,
     "users[1].closure_history: unknown field 'surprise'"),
    ("unknown-key-in-pr", _update_pull(surprise=1), _P, "pulls[0]: unknown field 'surprise'"),
    *[(f"unknown-key-in-{key}", _update_event(key, surprise=1), _P, f"PR 4.{key}[0]: unknown field 'surprise'")
      for key in _EVENT_LIST_KEYS],
]


@pytest.mark.parametrize("mutate, error, message",
                         [pytest.param(*case[1:], id=case[0]) for case in _RECORD_ERRORS])
def test_record_decode_errors_carry_the_full_message(mutate, error, message):
    data = _base()
    mutate(data)
    with pytest.raises(SnapshotError) as err:
        snapshot_from_dict(data)
    assert (type(err.value), str(err.value)) == (error, message)


# ---------------------------------------------------------------------------
# Decode paths: every accepted spelling decodes to the same snapshot
# ---------------------------------------------------------------------------

def _with_event_keys_reversed(data):
    """A copy of ``data`` with the keys of every event object in reverse order."""
    data = copy.deepcopy(data)
    pulls = data.get("pulls") if isinstance(data, dict) else None
    for pr in pulls if isinstance(pulls, list) else ():
        for key in _EVENT_LIST_KEYS if isinstance(pr, dict) else ():
            events = pr.get(key)
            for i, event in enumerate(events if isinstance(events, list) else ()):
                if isinstance(event, dict):
                    events[i] = dict(reversed(event.items()))
    return data


def _decoded(data):
    """The snapshot ``data`` decodes to, or the type and message of the error it raises."""
    try:
        return snapshot_from_dict(data)
    except Exception as exc:  # the exact exception is part of the contract
        return type(exc), str(exc)


@given(st.sampled_from([()] + _RICH_PATHS), st.sampled_from(MUTANTS))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_event_key_order_does_not_change_the_result(path, value):
    data = rich_snapshot_dict()
    if path:
        replace_at(data, path, value)
    assert _decoded(_with_event_keys_reversed(data)) == _decoded(data)


def _utc_offset_spelled_out(node):
    """A copy of ``node`` with every "…Z" timestamp written as "…+00:00"."""
    if isinstance(node, dict):
        return {key: value[:-1] + "+00:00" if key.endswith("_at") else _utc_offset_spelled_out(value)
                for key, value in node.items()}
    if isinstance(node, list):
        return [_utc_offset_spelled_out(value) for value in node]
    return node


def test_other_spellings_decode_to_an_equal_snapshot(rich_dict):
    snap = snapshot_from_dict(rich_dict)
    spelled_out = _utc_offset_spelled_out(rich_dict)
    assert '+00:00"' in json.dumps(spelled_out) and 'Z"' not in json.dumps(spelled_out)
    assert snapshot_from_dict(spelled_out) == snap
    assert snapshot_from_dict(_with_event_keys_reversed(rich_dict)) == snap


def test_well_formed_events_skip_the_checked_readers(rich_dict, monkeypatch):
    """Structural, not timed: a well-formed PR is never located and key-checked, and an
    event in another spelling sends only its own PR through the checked readers."""
    checked = []
    check_keys = corpus._check_keys

    def spy(data, allowed, where):
        checked.append(where)
        return check_keys(data, allowed, where)

    def pull_locations():
        return [where for where in checked if re.match(r"pulls\[|PR ", where)]

    monkeypatch.setattr(corpus, "_check_keys", spy)
    snap = snapshot_from_dict(rich_dict)
    assert "users[0]" in checked
    assert pull_locations() == []

    # the same instant spelled "+00:00": PR 3 alone takes the checked readers, to the same value
    rich_dict["pulls"][2]["issue_comments"][1]["created_at"] = "2022-01-03T02:00:00+00:00"
    assert snapshot_from_dict(rich_dict) == snap
    located = pull_locations()
    assert located[0] == "pulls[2]" and "PR 3.issue_comments[1]" in located
    assert {where.split(".")[0] for where in located} == {"pulls[2]", "PR 3"}


def _reference_decoded(data):
    """``_decoded(data)`` with every PR read by the checked ``corpus._decode_pull``: the
    steps of snapshot_from_dict in its order, then validate."""
    where = "snapshot"
    try:
        data = corpus._require_dict(data, where)
        corpus._check_keys(data, ("repo", "users", "pulls"), where)
        repo = corpus._require_dict(corpus._take(data, "repo", where), "repo")
        corpus._check_keys(repo, ("owner", "name", "fetched_at"), "repo")
        users = {}
        for i, raw in enumerate(corpus._require_list(corpus._take(data, "users", where), "users")):
            profile = corpus._decode_user(raw, f"users[{i}]")
            if profile.login in users:
                raise SnapshotValidationError(f"users[{i}]: duplicate login '{profile.login}'")
            users[profile.login] = profile
        raw_pulls = corpus._require_list(corpus._take(data, "pulls", where), "pulls")
        pulls = tuple(corpus._decode_pull(raw, i) for i, raw in enumerate(raw_pulls))
        snap = corpus.RepoSnapshot(
            repo_owner=corpus._str_field(repo, "owner", "repo"),
            repo_name=corpus._str_field(repo, "name", "repo"),
            fetched_at=corpus._time_field(repo, "fetched_at", "repo"),
            pulls=pulls,
            users=users,
        )
        validate(snap)
        return snap
    except Exception as exc:  # the exact exception is part of the contract
        return type(exc), str(exc)


def _assert_decodes_as_the_reference(data):
    decoded, expected = _decoded(data), _reference_decoded(copy.deepcopy(data))
    assert decoded == expected
    assert repr(decoded) == repr(expected)  # also the same tzinfo on every timestamp


@given(st.sampled_from(_RICH_PATHS), st.sampled_from(MUTANTS))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_single_field_mutations_decode_as_the_checked_path(path, value):
    data = rich_snapshot_dict()
    replace_at(data, path, value)
    _assert_decodes_as_the_reference(data)


@given(st.sampled_from(_RICH_PATHS), st.sampled_from(MUTANTS))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_single_field_mutations_decode_as_the_checked_path_in_short_runs(path, value):
    """Read in runs of two pulls, a fault in any run is named as when every PR is read alone."""
    data = rich_snapshot_dict()
    replace_at(data, path, value)
    with mock.patch.object(corpus, "_RUN", 2):
        _assert_decodes_as_the_reference(data)


def test_a_run_of_well_formed_pulls_is_read_in_columns(rich_dict, monkeypatch):
    """Structural, not timed: a well-formed snapshot sends no PR to the checked _decode_pull
    and parses the timestamps of each event class in one call per run; a PR in another
    spelling, and it alone, goes to _decode_pull."""
    decoded, parsed = [], []
    decode_pull, canonical_instants = corpus._decode_pull, corpus._canonical_instants
    monkeypatch.setattr(corpus, "_decode_pull", lambda raw, i: decoded.append(i) or decode_pull(raw, i))
    monkeypatch.setattr(corpus, "_canonical_instants",
                        lambda texts: parsed.append(len(texts)) or canonical_instants(texts))
    monkeypatch.setattr(corpus, "_RUN", 10)
    snap = snapshot_from_dict(rich_dict)
    runs = -(-len(rich_dict["pulls"]) // 10)
    assert runs > 2 and len(rich_dict["pulls"]) % 10 and decoded == []  # the last run is a short one
    assert len(parsed) == runs * len(corpus._EVENT_CODECS)
    assert sum(parsed) == sum(len(pr[key]) for pr in rich_dict["pulls"] for key in _EVENT_KEYS)

    event = rich_dict["pulls"][12]["issue_comments"][0]
    event["created_at"] = event["created_at"].replace("Z", "+00:00")
    assert snapshot_from_dict(rich_dict) == snap
    assert decoded == [12]


_RECORD_CLASSES = (Comment, Review, ReviewRequest, CommitEvent, UserProfile, corpus.PullRequest)


def _records_of(pr) -> list:
    """``pr`` and each of its events."""
    return [pr] + [event for key in _EVENT_LIST_KEYS for event in getattr(pr, key)]


def test_records_of_every_decode_path_are_indistinguishable(rich_dict):
    """The column path fills slotted records without their __init__; the pull-by-pull retry
    and the checked _decode_pull build them through it. The records behave alike."""
    columns = snapshot_from_dict(copy.deepcopy(rich_dict)).pulls
    checked = [corpus._decode_pull(raw, i) for i, raw in enumerate(copy.deepcopy(rich_dict)["pulls"])]
    # PR 3's run is refused, so each other PR of it is read alone, and PR 3 by _decode_pull
    event = rich_dict["pulls"][2]["issue_comments"][1]
    event["created_at"] = event["created_at"].replace("Z", "+00:00")
    retried = snapshot_from_dict(rich_dict).pulls
    for trio in zip(columns, retried, checked):
        for records in zip(*map(_records_of, trio)):
            expected = records[-1]
            assert type(expected) in _RECORD_CLASSES
            for record in records:
                copies = (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record),
                          dataclasses.replace(record))
                for same in (record,) + copies:
                    assert type(same) is type(expected) and same == expected
                    assert hash(same) == hash(expected) and repr(same) == repr(expected)
                assert dataclasses.asdict(record) == dataclasses.asdict(expected)
                assert not hasattr(record, "__dict__")
                name = dataclasses.fields(record)[0].name
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, getattr(record, name))


def test_a_well_formed_load_builds_no_event_or_pull_through_its_init(rich_dict, monkeypatch):
    """Structural, not timed: the column path makes its events and PullRequests without
    calling their __init__, which the checked path and the users' decode still call."""
    calls = collections.Counter()

    def counted(cls):
        init = cls.__init__
        return lambda self, *args, **kwargs: calls.update([cls]) or init(self, *args, **kwargs)

    for cls in _RECORD_CLASSES:
        monkeypatch.setattr(cls, "__init__", counted(cls))
    snap = snapshot_from_dict(copy.deepcopy(rich_dict))
    assert sum(len(_records_of(pr)) for pr in snap.pulls) > len(snap.pulls) > 1
    assert calls == {UserProfile: len(rich_dict["users"])}
    calls.clear()
    assert corpus._decode_pull(rich_dict["pulls"][0], 0) == snap.pulls[0]
    assert calls[corpus.PullRequest] == 1 and calls[CommitEvent] == len(snap.pulls[0].commits) > 0


class _Dict(dict):
    pass


class _List(list):
    pass


_CLOSED, _OPEN = 0, 7  # the indexes of PR 1 (merged) and PR 8 (open) in the rich fixture


def _pop(*names):
    def apply(pr):
        for name in names:
            del pr[name]
        return pr
    return apply


def _set(**values):
    return lambda pr: {**pr, **values}


def _set_in_event(key: str, name: str, value):
    def apply(pr):
        pr[key][0][name] = value
        return pr
    return apply


def _retype(key: str, kind: type, at: int | None = None):
    """Put ``pr[key]``, or its item ``at``, into a ``kind`` of the same contents."""
    def apply(pr):
        if at is None:
            pr[key] = kind(pr[key])
        else:
            pr[key][at] = kind(pr[key][at])
        return pr
    return apply


# Each case maps the rich fixture's PR at an index to the PR put in its place.
_PR_SHAPES = [
    ("well-formed", _CLOSED, lambda pr: pr),
    ("13-keys-without-closer", _CLOSED, _pop("closer")),
    ("13-keys-without-closed_at", _CLOSED, _pop("closed_at")),
    ("12-keys-of-a-closed-pr", _CLOSED, _pop("closed_at", "closer")),
    ("null-closer", _CLOSED, _set(closer=None)),
    ("null-closed_at", _CLOSED, _set(closed_at=None)),
    ("int-closed_at", _CLOSED, _set(closed_at=7)),
    ("int-closer", _CLOSED, _set(closer=7)),
    ("open-null-closed_at-and-closer", _OPEN, _set(closed_at=None, closer=None)),
    ("open-null-closed_at", _OPEN, _set(closed_at=None)),
    ("open-null-closer", _OPEN, _set(closer=None)),
    ("open-with-closed_at", _OPEN, _set(closed_at="2022-01-05T00:00:00Z", closer=None)),
    ("13-keys-with-an-unknown-field", _OPEN, _set(extra=1)),
    ("bool-number", _CLOSED, _set(number=True)),
    ("duplicate-label", _CLOSED, _set(labels=["bug", "bug"])),
    ("non-string-label", _CLOSED, _set(labels=[7])),
    ("unhashable-label", _CLOSED, _set(labels=[[]])),
    ("non-string-file", _CLOSED, _set(files=["a.py", None])),
    ("no-such-date-created_at", _CLOSED, _set(created_at="2021-02-29T00:00:00Z")),
    ("no-such-date-closed_at", _CLOSED, _set(closed_at="2022-02-30T00:00:00Z")),
    ("offset-created_at", _CLOSED, _set(created_at="2022-01-01T00:00:00+00:00")),
    ("dict-subclass-pr", _CLOSED, _Dict),
    ("list-subclass-labels", _CLOSED, _retype("labels", _List)),
    ("list-subclass-files", _CLOSED, _retype("files", _List)),
    ("list-subclass-events", _CLOSED, _retype("commits", _List)),
    ("tuple-events", _CLOSED, _retype("commits", tuple)),
    ("dict-subclass-event", _CLOSED, _retype("commits", _Dict, 0)),
    ("bool-event-id", _CLOSED, _set_in_event("issue_comments", "id", True)),
    ("int-event-stamp", _CLOSED, _set_in_event("review_comments", "created_at", 7)),
    ("no-such-date-event", _CLOSED, _set_in_event("commits", "committed_at", "2023-02-29T00:00:00Z")),
    ("offset-event-stamp", _CLOSED, _set_in_event("commits", "committed_at", "2022-01-01T12:00:00-00:00")),
    ("event-without-a-field", _CLOSED, _retype("issue_comments", lambda e: {"id": e["id"]}, 0)),
    ("event-with-an-unknown-field", _CLOSED, _set_in_event("issue_comments", "extra", 1)),
]


@pytest.mark.parametrize("index, shape", [(i, shape) for _, i, shape in _PR_SHAPES],
                         ids=[name for name, _, _ in _PR_SHAPES])
def test_pr_shapes_decode_as_the_checked_path(index, shape):
    data = rich_snapshot_dict()
    data["pulls"][index] = shape(data["pulls"][index])
    _assert_decodes_as_the_reference(data)


# ---------------------------------------------------------------------------
# Timestamps
# ---------------------------------------------------------------------------

def _reference_parse_timestamp(value, where):
    """The timestamp grammar read character by character, with no regex and no
    ``fromisoformat``: "YYYY-MM-DDTHH:MM:SS", an optional "." and digits, then "Z",
    "z" or "+HH:MM"/"-HH:MM" with minutes 00-59, surrounding whitespace ignored."""
    if not isinstance(value, str):
        raise SnapshotParseError(f"{where}: timestamp must be a string, got {type(value).__name__}")
    invalid = SnapshotParseError(f"{where}: invalid timestamp {value!r}")
    text = value.strip()

    def number(start, end):
        field = text[start:end]
        if len(field) != end - start or any(c not in "0123456789" for c in field):
            raise invalid
        return int(field)

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second = number(11, 13), number(14, 16), number(17, 19)
    if [text[i] for i in (4, 7, 10, 13, 16)] != ["-", "-", "T", ":", ":"]:
        raise invalid
    end = 19
    if text[end:end + 1] == ".":
        end += 1
        while end < len(text) and text[end] in "0123456789":
            end += 1
        if end == 20:
            raise invalid
    offset = text[end:]
    if offset in ("Z", "z"):
        zone = timezone.utc
    elif offset == "":
        zone = None
    elif len(offset) == 6 and offset[0] in "+-" and offset[3] == ":" and offset[4] in "012345":
        shift = timedelta(hours=number(end + 1, end + 3), minutes=number(end + 4, end + 6))
        try:
            zone = timezone(-shift if offset[0] == "-" else shift)
        except ValueError:  # a day or more
            raise invalid from None
    else:
        raise invalid
    try:
        moment = datetime(year, month, day, hour, minute, second, tzinfo=zone)
    except ValueError:
        raise invalid from None
    if zone is None:
        raise SnapshotParseError(f"{where}: timestamp {value!r} lacks a UTC offset")
    try:
        return moment.astimezone(timezone.utc)
    except OverflowError as exc:
        raise SnapshotParseError(f"{where}: timestamp {value!r} is out of range") from exc


def _outcome(parse, value):
    try:
        parsed = parse(value, "t")
    except Exception as exc:  # the exact exception is part of the contract
        return type(exc), str(exc)
    return parsed.isoformat(), parsed.utcoffset(), parsed.tzinfo


@st.composite
def timestamp_texts(draw) -> str:
    moment = draw(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)))
    text = moment.isoformat(timespec="seconds")
    if draw(st.booleans()):
        text += "." + draw(st.sampled_from(("5", "25", "000", "123456", "999999")))
    text += draw(st.sampled_from(("Z", "z", "+00:00", "-00:00", "+01:00", "-08:00", "+05:30", "")))
    space = st.sampled_from(("", " ", "\t", "\n "))
    return draw(space) + text + draw(space)


@given(st.one_of(timestamp_texts(), st.text(max_size=30), st.integers(), st.none()))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_parse_timestamp_matches_the_general_path(value):
    assert _outcome(parse_timestamp, value) == _outcome(_reference_parse_timestamp, value)


@pytest.mark.parametrize("value", [
    "2022-01-01T00:00:00Z", "2022-01-01Z", "2022-01-01T00Z", "2022-01-01T00:00Z",
    "2022-01-01 00:00:00Z", "20220101T000000Z", "2022-W01-1T00:00:00Z",
    "2022-01-01T00:00:00.000000Z", "2022-01-01T00:00:00.5Z", "2022-01-01T00:00:00+01:00Z",
    " 2022-01-01T00:00:00Z", "\t2022-01-01T00:00:00Z", "0001-01-01T00:00:00Z",
    "9999-12-31T23:59:59Z", "2022-02-30T00:00:00Z", "Z", "", "z",
])
def test_parse_timestamp_matches_the_general_path_on_utc_spellings(value):
    """"Z" forms that are not the canonical "YYYY-MM-DDTHH:MM:SSZ": some are in the
    grammar, most are not. The event decoder, which parses the canonical spelling
    inline, gives the same outcome."""
    assert _outcome(parse_timestamp, value) == _outcome(_reference_parse_timestamp, value)
    assert _outcome(_decode_event_stamp, value) == _outcome(_parse_event_stamp, value)


def _decode_event_stamp(text, where):
    """``text`` as the timestamp of an issue comment, read by snapshot_from_dict from a
    one-PR snapshot whose window holds every valid timestamp; ``where`` is unused."""
    data = snapshot([pull(1, "a", "open", "0001-01-01T00:00:00Z", issue_comments=[comment(1, "a", text)])],
                    [user("a")], fetched="9999-12-31T23:59:59Z")
    return snapshot_from_dict(data).pulls[0].issue_comments[0].created_at


def _parse_event_stamp(text, where):
    """``text`` read by parse_timestamp, located as _decode_event_stamp locates it."""
    return parse_timestamp(text, "PR 1.issue_comments[0].created_at")


@pytest.mark.parametrize("value, expected", [
    ("2022-01-01T00:00:00.5Z", "2022-01-01T00:00:00+00:00"),
    ("2022-01-01T00:00:00.25+01:00", "2021-12-31T23:00:00+00:00"),
    ("2022-01-01T00:00:00.1234+00:00", "2022-01-01T00:00:00+00:00"),
    ("2022-01-01T23:59:59.9999999Z", "2022-01-01T23:59:59+00:00"),  # cut, not rounded
])
def test_fractions_of_any_length_parse_alike_on_every_python(value, expected):
    assert parse_timestamp(value, "t").isoformat() == expected


@pytest.mark.parametrize("value", ["2022-01-01T00:00:00.5.5Z", "2022-01-01T00:00:00.5.5"])
def test_malformed_fractions_stay_invalid(value):
    with pytest.raises(SnapshotParseError) as err:
        parse_timestamp(value, "t")
    assert str(err.value) == f"t: invalid timestamp {value!r}"


# Spellings that leave the grammar. Each parses on some Python's fromisoformat: the
# week dates, basic formats, short offsets, comma fractions and the bare "." on 3.11+
# only, "+01:60" as "+02:00" on 3.10-3.13.
_OFF_GRAMMAR = [
    ("week-date", "2022-W01-1T00:00:00Z"),
    ("week-date-offset", "2022-W01-1T00:00:00+01:00"),
    ("basic-format", "20220101T000000Z"),
    ("basic-time", "2022-01-01T000000Z"),
    ("offset-without-colon", "2022-01-01T00:00:00+0100"),
    ("offset-hours-only", "2022-01-01T00:00:00+01"),
    ("comma-fraction", "2022-01-01T00:00:00,5Z"),
    ("comma-fraction-offset", "2022-01-01T00:00:00,123456+01:00"),
    ("bare-dot", "2022-01-01T00:00:00."),
    ("bare-dot-utc", "2022-01-01T00:00:00.Z"),
    ("offset-seconds", "2022-01-01T01:00:00+01:00:00"),
    ("offset-seconds-fraction", "2022-01-01T01:00:00+01:00:00.5"),
    ("space-separator", "2022-01-01 00:00:00Z"),
    ("space-separator-offset", "2022-01-01 00:00:00+01:00"),
    ("bare-date", "2022-01-02"),
    ("bare-date-utc", "2022-01-02Z"),
    ("hours-and-minutes", "2022-01-01T00:00Z"),
    ("offset-minute-60", "2022-01-01T00:00:00+01:60"),
]


@pytest.mark.parametrize("value", [pytest.param(value, id=name) for name, value in _OFF_GRAMMAR])
def test_spellings_outside_the_grammar_are_invalid(value):
    with pytest.raises(SnapshotParseError) as err:
        parse_timestamp(value, "t")
    assert str(err.value) == f"t: invalid timestamp {value!r}"
    assert _outcome(_reference_parse_timestamp, value) == _outcome(parse_timestamp, value)
    assert _outcome(_decode_event_stamp, value) == _outcome(_parse_event_stamp, value)


# Fragments whose product (11 x 8 x 12 x 18 x 19 = 361,152 texts, every seventh wrapped
# in whitespace) is the differential run of the timestamp grammar across Pythons.
_DATE_FRAGMENTS = ("2022-01-01", "2024-02-29", "2023-02-29", "0000-01-01", "0001-01-01",
                   "9999-12-31", "2022-13-01", "20220101", "2022-W01-1", "2022-001", "2022-1-01")
_SEPARATOR_FRAGMENTS = ("T", "t", " ", "", "_", "TT", ".", "x")
_TIME_FRAGMENTS = ("00:00:00", "23:59:59", "24:00:00", "12:30:60", "12:30", "12", "123000",
                   "1:00:00", "12:3:00", "00:00:00:00", "", "\u0661\u0662:30:00")
_FRACTION_FRAGMENTS = ("", ".", ".5", ".25", ".123", ".1234", ".12345", ".123456", ".1234567",
                       ".999999999", ",5", ",123456", ".5.5", "..5", ".a", ". 5", ".\u0665", ".000")
_OFFSET_FRAGMENTS = ("", "Z", "z", "+00:00", "-00:00", "+01:00", "-08:00", "+05:30", "+23:59",
                     "+24:00", "+01:60", "+0100", "+01", "+01:00:00", "+01:00:00.5", "ZZ", "+1:00",
                     "\u221201:00", "-01:30")


def timestamp_fragment_product(step: int = 1):
    """Every ``step``-th text of the fragment product, in a fixed order."""
    texts = itertools.product(_DATE_FRAGMENTS, _SEPARATOR_FRAGMENTS, _TIME_FRAGMENTS,
                              _FRACTION_FRAGMENTS, _OFFSET_FRAGMENTS)
    for i, parts in enumerate(itertools.islice(texts, 0, None, step)):
        text = "".join(parts)
        yield f" {text}\n" if (i * step) % 7 == 0 else text


def test_fragment_product_parses_as_the_reference_reads_it():
    """A fixed subset of the differential run; the tier-1 matrix runs it on every Python."""
    for text in timestamp_fragment_product(step=13):
        assert _outcome(parse_timestamp, text) == _outcome(_reference_parse_timestamp, text), text


_GENERAL_GRAMMAR = re.compile(r"([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2})(?:\.[0-9]+)?"
                              r"([Zz]|[+-][0-9]{2}:[0-5][0-9])?", re.ASCII)


def _general_parse_timestamp(value, where):
    """The general path of the timestamp grammar alone: the regex, ``fromisoformat``
    and ``astimezone``, with no shortcut for the canonical spelling. A fraction is
    dropped: the values have second precision."""
    if not isinstance(value, str):
        raise SnapshotParseError(f"{where}: timestamp must be a string, got {type(value).__name__}")
    match = _GENERAL_GRAMMAR.fullmatch(value.strip())
    if match is None:
        raise SnapshotParseError(f"{where}: invalid timestamp {value!r}")
    moment, offset = match.groups()
    try:
        parsed = datetime.fromisoformat(moment + ("+00:00" if offset in ("Z", "z") else offset or ""))
    except ValueError as exc:
        raise SnapshotParseError(f"{where}: invalid timestamp {value!r}") from exc
    if parsed.tzinfo is None:
        raise SnapshotParseError(f"{where}: timestamp {value!r} lacks a UTC offset")
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError as exc:
        raise SnapshotParseError(f"{where}: timestamp {value!r} is out of range") from exc


class _Str(str):
    pass


_CANONICAL_STAMPS = ["0001-01-01T00:00:00Z", "1970-01-01T00:00:00Z", "2022-01-01T12:34:56Z",
                     "2024-02-29T23:59:59Z", "2000-02-29T00:00:00Z", "9999-12-31T23:59:59Z"]
_IMPOSSIBLE_STAMPS = ["2023-02-29T00:00:00Z", "1900-02-29T00:00:00Z", "2022-02-30T00:00:00Z",
                      "2022-04-31T00:00:00Z", "0000-01-01T00:00:00Z", "2022-00-10T00:00:00Z",
                      "2022-13-01T00:00:00Z", "2022-01-00T00:00:00Z", "2022-01-32T00:00:00Z",
                      "2022-01-01T24:00:00Z", "2022-01-01T23:60:00Z", "2022-01-01T23:59:60Z",
                      "2016-12-31T23:59:60Z", "9999-99-99T99:99:99Z"]
_NEAR_CANONICAL_STAMPS = ["2022-01-01T00:00:00z", "2022-01-01T00:00:00.5Z", "2022-01-01T00:00:00.999999z",
                          "2022-01-01T00:00:00+00:00", "2022-01-01T00:00:00-00:00",
                          "2022-01-01T00:30:00+01:00", "2022-01-01T23:30:00-08:45",
                          "0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00",
                          "2023-02-29T00:00:00+00:00", "2022-01-01T00:00:00.5+05:30",
                          " 2022-01-01T00:00:00Z", "2022-01-01T00:00:00Z ", "\t2022-01-01T00:00:00Z\n",
                          "2022-01-01T00:00:00Z\n", "2022-01-01T00:00:00", "2022-01-01T00:00:00ZZ",
                          "2022-01-01t00:00:00Z", "2022-01-01T00:00:00+01:60"]
_NON_ASCII_STAMPS = ["\uff12\uff10\uff12\uff12-01-01T00:00:00Z", "\u0662\u0660\u0662\u0662-01-01T00:00:00Z",
                     "2022-01-01T00:00:0\u0665Z", "2022-01-01T00:00:00.\u0665Z",
                     "2022-01-01T00:00:00+0\u0661:00", "2022\u201101-01T00:00:00Z",
                     "2022-01-01T00:00:00\u212a"]
_NON_STR_STAMPS = [None, 5, 1.5, True, b"2022-01-01T00:00:00Z", bytearray(b"2022-01-01T00:00:00Z"),
                   ["2022-01-01T00:00:00Z"], datetime(2022, 1, 1, tzinfo=timezone.utc)]


@pytest.mark.parametrize("value", _CANONICAL_STAMPS + _IMPOSSIBLE_STAMPS + _NEAR_CANONICAL_STAMPS
                         + _NON_ASCII_STAMPS + _NON_STR_STAMPS
                         + [_Str(stamp) for stamp in _CANONICAL_STAMPS[:2] + _IMPOSSIBLE_STAMPS[:2]])
def test_parse_timestamp_gives_what_the_general_path_gives(value):
    """The same value (with ``timezone.utc`` itself as its zone, which format_timestamp
    relies on), or the same exception type and message."""
    outcome = _outcome(parse_timestamp, value)
    assert outcome == _outcome(_general_parse_timestamp, value)
    assert outcome == _outcome(_reference_parse_timestamp, value)
    if not isinstance(outcome[0], type):
        assert parse_timestamp(value, "t").tzinfo is timezone.utc


@given(st.from_regex(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z", fullmatch=True))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_canonical_shapes_parse_as_the_general_path_reads_them(value):
    """Mostly dates that do not exist, which the canonical shortcut must hand on."""
    assert _outcome(parse_timestamp, value) == _outcome(_general_parse_timestamp, value)


def _instants_or_error(parse, texts):
    try:
        instants = parse(texts)
    except ValueError:
        return ValueError
    assert all(instant.tzinfo is timezone.utc for instant in instants)
    return instants


_COLUMN_STAMPS = (_CANONICAL_STAMPS + _IMPOSSIBLE_STAMPS + _NEAR_CANONICAL_STAMPS + _NON_ASCII_STAMPS
                  + ["2022-01-01T00:00:00Z\n2022-01-01T00:00:00Z", "2022-01-01T00:00\n:00Z",
                     "2022-01-01Z00:00:00Z", "2022-01-01T00:00Z00Z", ""])


@given(st.lists(st.sampled_from(_COLUMN_STAMPS)
                | st.from_regex(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z", fullmatch=True),
                max_size=5))
@example([])
@example(["2022-01-01T00:00:00Z", "2023-02-29T00:00:00Z"])
@example(["2022-01-01T00:00:00Z", "2022-01-01T00:00:00Z\n"])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_timestamp_column_parses_as_each_timestamp_alone(texts):
    """The same instants, each with ``timezone.utc`` itself as its zone, or a ValueError
    exactly when one timestamp alone would raise it."""
    alone = _instants_or_error(lambda column: [corpus._canonical_instant(text) for text in column], texts)
    assert _instants_or_error(corpus._canonical_instants, texts) == alone


@pytest.mark.parametrize("year", [1, 999])
def test_early_years_round_trip(year, tmp_path):
    data = _base()
    data["repo"]["fetched_at"] = f"{year:04d}-06-01T00:00:00Z"
    for pr in data["pulls"]:
        pr["created_at"] = f"{year:04d}-03-04T05:06:07Z"
        pr["closed_at"] = f"{year:04d}-03-05T05:06:07Z"
        for key in ("issue_comments", "review_comments", "reviews", "review_requests", "commits"):
            for event in pr[key]:
                for name in ("created_at", "submitted_at", "requested_at", "committed_at"):
                    if name in event:
                        event[name] = f"{year:04d}-03-04T06:00:00Z"
    snap = snapshot_from_dict(data)
    path = tmp_path / "early.json"
    save_snapshot(snap, path)
    assert f'"fetched_at": "{year:04d}-06-01T00:00:00Z"' in path.read_text(encoding="utf-8")
    assert load_snapshot(path) == snap


def test_a_failed_save_leaves_the_earlier_file_as_it_was(rich_snapshot, tmp_path, monkeypatch):
    path = tmp_path / "snap.json"
    save_snapshot(rich_snapshot, path)
    before = path.read_bytes()
    # writing the last PR fails the save after the earlier PRs reached the temp file
    last, pull_text = rich_snapshot.pulls[-1], corpus._pull_text

    def fail_on_the_last(pr):
        if pr is last:
            raise OSError("no space left on device")
        return pull_text(pr)

    monkeypatch.setattr(corpus, "_pull_text", fail_on_the_last)
    with pytest.raises(OSError, match="no space left"):
        save_snapshot(rich_snapshot, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.json"]


def test_a_lone_surrogate_is_saved_escaped_and_reloads_equal(rich_dict, tmp_path):
    rich_dict["pulls"][0]["issue_comments"][0]["body"] = "half an emoji \ud83d"
    rich_dict["pulls"][-1]["labels"] = ["\udfff"]
    rich_dict["users"][0]["orgs"] = ["\\\ud83d"]  # a backslash before the surrogate
    path = tmp_path / "snap.json"
    save_snapshot(snapshot_from_dict(rich_dict), path)
    text = path.read_bytes().decode("utf-8")
    assert '"half an emoji \\ud83d"' in text and '"\\udfff"' in text and '"\\\\\\ud83d"' in text
    reloaded = load_snapshot(path)
    assert reloaded == snapshot_from_dict(rich_dict)
    again = tmp_path / "again.json"
    save_snapshot(reloaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.fixture
def host_zone(monkeypatch):
    """Sets the process's local time zone (a POSIX TZ string) and restores it after the test."""
    def set_zone(zone: str) -> None:
        monkeypatch.setenv("TZ", zone)
        time.tzset()

    yield set_zone
    monkeypatch.undo()
    time.tzset()


@pytest.mark.parametrize("zone", ["UTC0", "JST-9"])
@pytest.mark.parametrize("naive", ["fetched_at", "comment"])
def test_a_naive_datetime_is_not_saved_in_any_host_zone(rich_snapshot, host_zone, zone, naive, tmp_path):
    """A naive value has no instant of its own: saving it through the host's zone would
    write 12:00:00Z under UTC and 03:00:00Z under JST from one snapshot."""
    host_zone(zone)
    noon = datetime(2022, 1, 1, 12)
    if naive == "fetched_at":
        snap = dataclasses.replace(rich_snapshot, fetched_at=noon)
    else:
        pr = rich_snapshot.pulls[0]
        pr = dataclasses.replace(pr, issue_comments=(Comment(1, pr.author, noon, "hi"),))
        snap = dataclasses.replace(rich_snapshot, pulls=(pr,) + rich_snapshot.pulls[1:])
    path = tmp_path / "snap.json"
    with pytest.raises(SnapshotValidationError, match=r"timestamp '2022-01-01T12:00:00' lacks a UTC offset"):
        save_snapshot(snap, path)
    assert list(tmp_path.iterdir()) == []
    assert format_timestamp(noon.replace(tzinfo=timezone(timedelta(hours=9)))) == "2022-01-01T03:00:00Z"


def test_a_saved_snapshot_gets_the_default_file_mode(rich_dict, tmp_path):
    path = tmp_path / "snap.json"
    save_snapshot(snapshot_from_dict(rich_dict), path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask()


# ---------------------------------------------------------------------------
# The indent-2 writer
# ---------------------------------------------------------------------------

class _Level(enum.IntEnum):
    HIGH = 3


class _Text(str):
    def __str__(self):
        return "not the text"


class _Real(float):
    def __repr__(self):
        return "not the number"


class _Items(list):
    pass


class _Pair(tuple):
    pass


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200),
    st.floats(), _TEXT, st.sampled_from(("\x00\x1f\x7f", "é✓ 漢字 😀", '"\\/\n\t')),
    # subclasses of JSON types, which indented_json hands to json.dumps
    st.sampled_from((_Level.HIGH, _Text("é✓"))), st.floats().map(_Real),
)
_JSON_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=3).map(OrderedDict),
        st.lists(inner, max_size=3).map(_Items),
        st.lists(inner, max_size=3).map(_Pair),
    ),
    max_leaves=30,
)


@given(_JSON_VALUES)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_indented_json_matches_json_dumps(value):
    assert indented_json(value) == json.dumps(value, indent=2, ensure_ascii=False)


# ---------------------------------------------------------------------------
# The event templates of save_snapshot
# ---------------------------------------------------------------------------

_UTC_NOON = datetime(2022, 1, 5, 12, tzinfo=timezone.utc)
_EVENT_KEYS = ("commits", "issue_comments", "review_comments", "reviews", "review_requests")


def _events(key: str, count: int, when: datetime = _UTC_NOON, text: str = "x") -> tuple:
    """``count`` events built in code for the event list ``key``, each holding ``text`` in
    every string but a sha and a verdict, which a save checks."""
    make = {
        "commits": lambda i: CommitEvent(f"ab{i:x}", text, when),
        "issue_comments": lambda i: Comment(i, text, when, f"{text} {i}"),
        "review_comments": lambda i: Comment(1000 + i, text, when, text * 2),
        "reviews": lambda i: Review(2000 + i, text, when, "approved", f"{i}{text}"),
        "review_requests": lambda i: ReviewRequest(f"{text}{i}", when),
    }[key]
    return tuple(make(i) for i in range(count))


def _with_pull(snap, at: int = 0, **changes):
    """``snap`` with its PR at index ``at`` changed by ``changes``, and a user for each login the
    PR names that ``snap`` lacks, so that a save validates it."""
    pr = dataclasses.replace(snap.pulls[at], **changes)
    named = [pr.author] + [getattr(event, "author", getattr(event, "requestee", None))
                           for key in _EVENT_KEYS for event in getattr(pr, key)]
    users = {login: UserProfile(login, 0, frozenset(), "read") for login in named if isinstance(login, str)}
    pulls = snap.pulls[:at] + (pr,) + snap.pulls[at + 1:]
    return dataclasses.replace(snap, pulls=pulls, users={**users, **snap.users})


def _assert_saved_as_json_dumps(snap, path) -> None:
    save_snapshot(snap, path)
    expected = json.dumps(snapshot_to_dict(snap), indent=2, ensure_ascii=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8", "backslashreplace")  # as write_whole writes it
    assert load_snapshot(path) == snap


@pytest.mark.parametrize("text", ["%", "%s", "%(x)s %d %%", "{", "}", "{}", '"', '\\"', "\ud83d",
                                  "a \udfff b"])
def test_template_syntax_in_values_is_saved_as_written(rich_snapshot, text, tmp_path):
    """Values are filled in by %, which reads no format in them: every string of every
    event class but a sha and a verdict, the PR's own strings and logins hold ``text``."""
    events = {key: _events(key, 2, text=text) for key in _EVENT_KEYS}
    _assert_saved_as_json_dumps(_with_pull(rich_snapshot, author=text, labels=frozenset({text}), **events),
                                tmp_path / "snap.json")


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("key", _EVENT_KEYS)
def test_event_lists_of_every_length_are_saved_as_json_dumps(rich_snapshot, key, count, tmp_path):
    changes = {other: _events(other, 2) for other in _EVENT_KEYS}
    changes[key] = _events(key, count)
    _assert_saved_as_json_dumps(_with_pull(rich_snapshot, **changes), tmp_path / "snap.json")
    no_events = {other: () for other in _EVENT_KEYS}
    _assert_saved_as_json_dumps(_with_pull(rich_snapshot, **{**no_events, key: _events(key, count)}),
                                tmp_path / "snap.json")


_JST = timezone(timedelta(hours=9))


@pytest.mark.parametrize("events", [
    {"reviews": (Review(_Level.HIGH, "bob", _UTC_NOON, "approved", "an int subclass id"),)},
    {"review_comments": (Comment(3, _Text("é✓"), _UTC_NOON, _Text("a str subclass")),)},
    {"commits": (CommitEvent(_Text("ab12"), "alice", _UTC_NOON.astimezone(_JST)),)},
    {"review_requests": (ReviewRequest("carol", datetime(2022, 1, 5, 21, tzinfo=_JST)),
                         ReviewRequest(_Text("dan"), _UTC_NOON))},
], ids=["int-subclass-id", "str-subclass", "jst-commit", "jst-request"])
def test_events_built_in_code_are_saved_as_json_dumps(rich_snapshot, events, tmp_path):
    _assert_saved_as_json_dumps(_with_pull(rich_snapshot, **events), tmp_path / "snap.json")


# (name, changes to the rich fixture's first PR, the whole message): each snapshot, built in
# code, would be saved as a file that does not load, or loads to an unequal snapshot.
_UNSAVABLE = [
    ("bool-id", {"issue_comments": (Comment(True, "alice", _UTC_NOON, "a bool id"),)},
     "PR 1.issue_comments[0]: field 'id' must be int, got bool"),
    ("mixed-classes",
     {"issue_comments": (Comment(4, "alice", _UTC_NOON, "one"), Review(5, "bob", _UTC_NOON, "approved", ""),
                         Comment(6, "alice", _UTC_NOON, "two"))},
     "PR 1.issue_comments[1]: expected a Comment, got Review"),
    ("non-event", {"issue_comments": (Comment(1, "alice", _UTC_NOON, "hi"), "not an event")},
     "PR 1.issue_comments[1]: expected a Comment, got str"),
    ("review-in-issue_comments", {"issue_comments": (Review(5, "bob", _UTC_NOON, "approved", ""),)},
     "PR 1.issue_comments[0]: expected a Comment, got Review"),
    ("list-of-events", {"reviews": [Review(5, "bob", _UTC_NOON, "approved", "")]},
     "PR 1: field 'reviews' must be tuple[Review, ...], got list"),
    ("sha-not-hex", {"commits": (CommitEvent("0%", "alice", _UTC_NOON),)},
     "PR 1: commit sha '0%' is not a hex string"),
    ("str-timestamp", {"review_requests": (ReviewRequest("bob", "2022-01-05T12:00:00Z"),)},
     "PR 1.review_requests[0]: field 'requested_at' must be datetime, got str"),
    ("float-number", {"number": 1.0}, "PR 1.0: field 'number' must be int, got float"),
    ("str-closed_at", {"closed_at": "2022-01-03T00:00:00Z"},
     "PR 1: field 'closed_at' must be datetime | None, got str"),
    ("list-labels", {"labels": ["bug"]}, "PR 1: field 'labels' must be frozenset[str], got list"),
    ("bytes-file", {"files": (b"setup.py",)}, "PR 1: field 'files' must be tuple[str, ...], got tuple"),
    # a save writes whole seconds: these would load back a fraction of a second earlier
    ("sub-second-created_at", {"created_at": datetime(2021, 12, 31, 23, 59, 59, 999500, tzinfo=timezone.utc)},
     "PR 1: field 'created_at' must be a whole second in UTC, got 2021-12-31T23:59:59.999500+00:00"),
    ("sub-second-offset",
     {"commits": (CommitEvent("ab12", "alice", _UTC_NOON.replace(tzinfo=timezone(timedelta(microseconds=500)))),)},
     "PR 1.commits[0]: field 'committed_at' must be a whole second in UTC, got 2022-01-05T12:00:00+00:00:00.000500"),
    # a UTC instant outside years 1-9999, which a save cannot write
    ("before-year-1-in-utc", {"created_at": datetime.fromisoformat("0001-01-01T00:30:00+01:00")},
     "PR 1: field 'created_at': timestamp '0001-01-01T00:30:00+01:00' is out of range"),
    ("after-year-9999-in-utc",
     {"commits": (CommitEvent("ab12", "alice", datetime.fromisoformat("9999-12-31T23:59:59-01:00")),)},
     "PR 1.commits[0]: field 'committed_at': timestamp '9999-12-31T23:59:59-01:00' is out of range"),
]


@pytest.mark.parametrize("changes, message", [pytest.param(*case[1:], id=case[0]) for case in _UNSAVABLE])
def test_a_save_rejects_a_snapshot_a_load_would_not_read_back(rich_snapshot, changes, message, tmp_path):
    snap = _with_pull(rich_snapshot, **changes)
    with pytest.raises(SnapshotValidationError) as err:
        save_snapshot(snap, tmp_path / "snap.json")
    assert str(err.value) == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("changes, message", [pytest.param(*case[1:], id=case[0]) for case in _UNSAVABLE])
def test_a_save_names_a_fault_in_a_later_pr_as_in_the_first(rich_snapshot, changes, message, tmp_path):
    """Every event field is checked as one column across all PRs first; the PR-by-PR check
    that names a fault runs when a column fails, so a later PR's fault is named alike."""
    at = len(rich_snapshot.pulls) - 2
    number = rich_snapshot.pulls[at].number
    assert at > 1 and number != 1
    with pytest.raises(SnapshotValidationError) as err:
        save_snapshot(_with_pull(rich_snapshot, at, **changes), tmp_path / "snap.json")
    # a number changed to 1.0 names the PR by that value
    assert str(err.value) == (message if "number" in changes else message.replace("PR 1", f"PR {number}", 1))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where, message", [
    ("repo", "repo: field 'owner' must be str, got NoneType"),
    ("user", "user 'alice': field 'followers' must be int, got bool"),
    ("user-closure", "user 'alice': field 'closure_history' must be tuple[int, int] | None, got list"),
    ("user-class", "user 'alice': expected a UserProfile, got dict"),
    ("pull-class", "pulls[0]: expected a PullRequest, got dict"),
])
def test_a_save_checks_the_repo_header_and_every_user(rich_snapshot, where, message, tmp_path):
    alice = rich_snapshot.users["alice"]
    snap = {
        "repo": dataclasses.replace(rich_snapshot, repo_owner=None),
        "user": _with_user(rich_snapshot, dataclasses.replace(alice, followers=True)),
        "user-closure": _with_user(rich_snapshot, dataclasses.replace(alice, closure_history=[2, 1])),
        "user-class": _with_user(rich_snapshot, {"login": "alice"}),
        "pull-class": dataclasses.replace(rich_snapshot, pulls=({"number": 1},) + rich_snapshot.pulls[1:]),
    }[where]
    with pytest.raises(SnapshotValidationError) as err:
        save_snapshot(snap, tmp_path / "snap.json")
    assert str(err.value) == message
    assert list(tmp_path.iterdir()) == []


def _with_user(snap, profile):
    return dataclasses.replace(snap, users={**snap.users, "alice": profile})


# Values built in code for any field: of every field type and of none, valid or not.
_CODE_VALUES = (None, True, 0, 7, _Level.HIGH, 1.5, "", "ab12", "0%", "bob", _Text("alice"), b"x", (), [],
                ("a",), ("a", "a"), ["a"], frozenset(), frozenset({"bug"}), frozenset({7}), (2, 1), (1, 2),
                _UTC_NOON, datetime(2022, 1, 5), _UTC_NOON.astimezone(_JST), "2022-01-05T12:00:00Z",
                Comment(9, "bob", _UTC_NOON, "hi"), (Comment(9, "bob", _UTC_NOON, "hi"),),
                (Review(9, "bob", _UTC_NOON, "approved", ""),), {"login": "bob"})


def _replaced(snap, record: str, name: str, value):
    """``snap`` with the field ``name`` of its repo header, user 'alice' or first PR set to
    ``value``, or with that PR's list ``record`` holding one event whose field it is."""
    if record == "repo":
        return dataclasses.replace(snap, **{name: value})
    if record == "user":
        return _with_user(snap, dataclasses.replace(snap.users["alice"], **{name: value}))
    pr = snap.pulls[0]
    if record == "pr":
        return dataclasses.replace(snap, pulls=(dataclasses.replace(pr, **{name: value}),) + snap.pulls[1:])
    return _with_pull(snap, **{record: (dataclasses.replace(_events(record, 1)[0], **{name: value}),)})


_FIELDS_BUILT_IN_CODE = [("repo", "repo_owner"), ("repo", "repo_name"), ("repo", "fetched_at")] + [
    (record, f.name) for record, cls in [("user", UserProfile), ("pr", corpus.PullRequest), ("commits", CommitEvent),
                                         ("issue_comments", Comment), ("reviews", Review),
                                         ("review_requests", ReviewRequest)]
    for f in dataclasses.fields(cls)]


@given(st.sampled_from(_FIELDS_BUILT_IN_CODE), st.sampled_from(_CODE_VALUES))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_saved_snapshot_loads_equal_or_is_not_written(field, value):
    snap = _replaced(snapshot_from_dict(rich_snapshot_dict()), *field, value)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "snap.json"
        try:
            save_snapshot(snap, path)
        except SnapshotValidationError:
            assert list(path.parent.iterdir()) == []
        else:
            assert load_snapshot(path) == snap


def test_snapshot_to_dict_writes_each_event_of_a_mixed_list_by_its_own_class(rich_snapshot):
    """The dict form is not checked: each event of a list is encoded by its own class."""
    review = Review(5, "bob", _UTC_NOON, "approved", "")
    encoded = snapshot_to_dict(_with_pull(rich_snapshot, issue_comments=(review,)))
    assert encoded["pulls"][0]["issue_comments"] == [
        {"id": 5, "author": "bob", "submitted_at": "2022-01-05T12:00:00Z", "verdict": "approved", "body": ""}]


@pytest.mark.parametrize("key", _EVENT_KEYS)
def test_a_naive_datetime_in_any_event_class_is_not_saved(rich_snapshot, key, tmp_path):
    # the naive event follows two aware ones of its class
    events = _events(key, 2) + _events(key, 1, when=datetime(2022, 1, 1, 12), text="y")
    snap = _with_pull(rich_snapshot, **{key: events})
    with pytest.raises(SnapshotValidationError) as expected:
        snapshot_to_dict(snap)
    with pytest.raises(SnapshotValidationError) as raised:
        save_snapshot(snap, tmp_path / "snap.json")
    assert str(expected.value) == "timestamp '2022-01-01T12:00:00' lacks a UTC offset"
    stamp = [f.name for f in dataclasses.fields(events[0]) if f.type == "datetime"][0]
    assert str(raised.value) == f"PR 1.{key}[2]: field '{stamp}': {expected.value}"
    assert list(tmp_path.iterdir()) == []


def _indented_items_calls(monkeypatch, tmp_path, comments: int) -> int:
    users = [user("alice"), user("bob")]
    thread = [comment(k, "bob", iso(0, minutes=k)) for k in range(comments)]
    pulls = [pull(1, "alice", closer="bob", issue_comments=thread)]
    snap = snapshot_from_dict(snapshot(pulls, users))
    calls, encode = [], corpus.indented_items
    monkeypatch.setattr(corpus, "indented_items",
                        lambda values, newline: calls.append(1) or encode(values, newline))
    save_snapshot(snap, tmp_path / f"{comments}.json")
    monkeypatch.undo()
    return len(calls)


def test_a_save_encodes_each_event_list_in_a_fixed_number_of_calls(monkeypatch, tmp_path):
    # one encoding call per event would make the count grow with the comments
    few, many = (_indented_items_calls(monkeypatch, tmp_path, n) for n in (5, 200))
    assert few == many

