"""Snapshot loading, validation, classification, and round-trip behavior."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FETCHED,
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
    user,
)
from prtrust import (
    SnapshotError,
    SnapshotParseError,
    SnapshotValidationError,
    classify_contribution,
    load_snapshot,
    outcome,
    restrict,
    save_snapshot,
    snapshot_from_dict,
    snapshot_to_dict,
)


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
