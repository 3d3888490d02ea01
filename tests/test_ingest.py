"""GitHub fetch behavior against a scripted fake HTTP session."""

from __future__ import annotations

import hashlib
import json
import logging
import re
import stat
import sys
import tempfile
import threading
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MUTANTS, json_paths, replace_at
from prtrust import cli, ingest
from prtrust import (
    AuthError,
    FetchError,
    FetchPlan,
    GitHubClient,
    NotFoundError,
    PartialFetchError,
    RateLimitError,
    ReviewRequest,
    SnapshotError,
    SnapshotParseError,
    fetch_snapshot,
    load_snapshot,
    reconstruct_review_requests,
    save_snapshot,
)
from prtrust.corpus import parse_timestamp

API = "https://api.github.com"
REPO = f"{API}/repos/octo/demo"

RATE_HEADERS = {"X-RateLimit-Remaining": "4999", "X-RateLimit-Reset": "1641600000"}


class FakeResponse:
    def __init__(self, status_code=200, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = dict(RATE_HEADERS)
        if headers:
            self.headers.update(headers)

    def json(self):
        import copy

        return copy.deepcopy(self._payload)


class FakeSession:
    """Routes map URL -> {payload, etag?, link_next?} or a list of scripted
    {status, payload, headers} responses (last one repeats). Unknown URLs
    return 404, as GitHub would."""

    def __init__(self, routes):
        self.routes = routes
        self.calls = []
        self.status_log = []
        self._scripted_cursor = {}
        self._lock = threading.Lock()

    def get(self, url, headers=None, timeout=None):
        headers = headers or {}
        with self._lock:
            self.calls.append((url, headers))
            spec = self.routes.get(url)
            if spec is None:
                response = FakeResponse(404, {"message": "Not Found"})
            elif isinstance(spec, list):
                index = self._scripted_cursor.get(url, 0)
                self._scripted_cursor[url] = index + 1
                step = spec[min(index, len(spec) - 1)]
                response = FakeResponse(
                    step.get("status", 200), step.get("payload"), step.get("headers")
                )
            else:
                etag = spec.get("etag")
                if etag and headers.get("If-None-Match") == etag:
                    response = FakeResponse(304)
                else:
                    extra = {}
                    if etag:
                        extra["ETag"] = etag
                    if spec.get("link_next"):
                        extra["Link"] = (
                            f'<{spec["link_next"]}>; rel="next", <{spec["link_next"]}>; rel="last"'
                        )
                    response = FakeResponse(200, spec["payload"], extra)
            self.status_log.append(response.status_code)
            return response


def _pr_item(number, created, closed=None, merged=None, state="closed", labels=()):
    return {
        "number": number,
        "user": {"login": "hana"},
        "state": state,
        "created_at": created,
        "closed_at": closed,
        "merged_at": merged,
        "labels": [{"name": name} for name in labels],
    }


def _user_routes(login, followers, orgs, permission, etag_seed):
    return {
        f"{API}/users/{login}": {
            "payload": {"login": login, "followers": followers},
            "etag": f'W/"u{etag_seed}"',
        },
        f"{API}/users/{login}/orgs?per_page=100": {
            "payload": [{"login": org} for org in orgs],
            "etag": f'W/"o{etag_seed}"',
        },
        f"{REPO}/collaborators/{login}/permission": {
            "payload": {"permission": permission},
            "etag": f'W/"p{etag_seed}"',
        },
    }


def _sub_routes(number, *, reviews=(), review_comments=(), issue_comments=(),
                commits=(), files=(), timeline=()):
    return {
        f"{REPO}/pulls/{number}/reviews?per_page=100": {"payload": list(reviews),
                                                        "etag": f'W/"r{number}"'},
        f"{REPO}/pulls/{number}/comments?per_page=100": {"payload": list(review_comments),
                                                         "etag": f'W/"rc{number}"'},
        f"{REPO}/issues/{number}/comments?per_page=100": {"payload": list(issue_comments),
                                                          "etag": f'W/"ic{number}"'},
        f"{REPO}/pulls/{number}/commits?per_page=100": {"payload": list(commits),
                                                        "etag": f'W/"cm{number}"'},
        f"{REPO}/pulls/{number}/files?per_page=100": {"payload": list(files),
                                                      "etag": f'W/"f{number}"'},
        f"{REPO}/issues/{number}/timeline?per_page=100": {"payload": list(timeline),
                                                          "etag": f'W/"t{number}"'},
    }


LIST_CLOSED = f"{REPO}/pulls?state=closed&sort=created&direction=desc&per_page=100"
REVIEWS_3 = f"{REPO}/pulls/3/reviews?per_page=100"
LIST_CLOSED_2 = f"{LIST_CLOSED}&page=2"
LIST_ALL = f"{REPO}/pulls?state=all&sort=created&direction=desc&per_page=100"


def demo_routes():
    routes = {
        LIST_CLOSED: {
            "payload": [
                _pr_item(3, "2022-01-10T00:00:00Z", closed="2022-01-12T00:00:00Z",
                         merged="2022-01-12T00:00:00Z", labels=("bug",)),
                _pr_item(2, "2022-01-05T00:00:00Z", closed="2022-01-06T00:00:00Z"),
            ],
            "etag": 'W/"list1"',
            "link_next": LIST_CLOSED_2,
        },
        LIST_CLOSED_2: {
            "payload": [
                _pr_item(1, "2022-01-01T00:00:00Z", closed="2022-01-02T00:00:00Z",
                         merged="2022-01-02T00:00:00Z"),
            ],
            "etag": 'W/"list2"',
        },
    }
    routes.update(_sub_routes(
        3,
        reviews=[
            {"id": 71, "user": {"login": "gabe"}, "state": "APPROVED",
             "submitted_at": "2022-01-11T00:00:00Z", "body": "ship it"},
            {"id": 72, "user": {"login": "gabe"}, "state": "PENDING",
             "submitted_at": None, "body": ""},
        ],
        review_comments=[
            {"id": 81, "user": {"login": "gabe"}, "created_at": "2022-01-10T12:00:00Z",
             "body": "tighten this loop"},
        ],
        issue_comments=[
            {"id": 91, "user": {"login": "mona"}, "created_at": "2022-01-11T06:00:00Z",
             "body": "almost there"},
        ],
        commits=[
            {"sha": "c1" + "0" * 38, "author": {"login": "hana"},
             "commit": {"committer": {"date": "2022-01-09T00:00:00Z"}}},
            {"sha": "c2" + "0" * 38, "author": None,
             "commit": {"committer": {"date": "2022-01-11T06:30:00Z"}}},
        ],
        files=[{"filename": "src/x.py"}, {"filename": "README.md"}],
        timeline=[
            {"event": "review_requested", "created_at": "2022-01-10T01:00:00Z",
             "requested_reviewer": {"login": "gabe"}},
            {"event": "review_request_removed", "created_at": "2022-01-10T02:00:00Z",
             "requested_reviewer": {"login": "gabe"}},
            {"event": "review_requested", "created_at": "2022-01-10T03:00:00Z",
             "requested_reviewer": {"login": "gabe"}},
            {"event": "review_requested", "created_at": "2022-01-10T04:00:00Z",
             "requested_reviewer": {"login": "ida"}},
            {"event": "review_requested", "created_at": "2022-01-10T05:00:00Z",
             "requested_team": {"name": "core"}},
            {"event": "labeled", "created_at": "2022-01-10T06:00:00Z"},
            {"event": "merged", "actor": {"login": "mona"},
             "created_at": "2022-01-12T00:00:00Z"},
            {"event": "closed", "actor": {"login": "mona"},
             "created_at": "2022-01-12T00:00:00Z"},
        ],
    ))
    routes.update(_sub_routes(
        2,
        timeline=[{"event": "closed", "actor": {"login": "mona"},
                   "created_at": "2022-01-06T00:00:00Z"}],
        files=[{"filename": "src/y.py"}],
    ))
    routes.update(_sub_routes(
        1,
        reviews=[{"id": 51, "user": {"login": "gabe"}, "state": "CHANGES_REQUESTED",
                  "submitted_at": "2022-01-01T12:00:00Z", "body": "needs tests"}],
        commits=[{"sha": "a1" + "0" * 38, "author": {"login": "hana"},
                  "commit": {"committer": {"date": "2022-01-01T01:00:00Z"}}}],
        files=[{"filename": "README.md"}],
        timeline=[{"event": "merged", "actor": {"login": "mona"},
                   "created_at": "2022-01-02T00:00:00Z"},
                  {"event": "closed", "actor": {"login": "mona"},
                   "created_at": "2022-01-02T00:00:00Z"}],
    ))
    routes.update(_user_routes("hana", 10, ("acme",), "write", 1))
    routes.update(_user_routes("gabe", 5, (), "read", 2))
    routes.update(_user_routes("mona", 50, ("acme",), "admin", 3))
    routes.update(_user_routes("ida", 0, (), "read", 4))
    # ida's permission probe is rejected: the token cannot read it
    routes[f"{REPO}/collaborators/ida/permission"] = [
        {"status": 403, "payload": {"message": "Must have push access"}}
    ]
    return routes


def _plan(**kwargs):
    defaults = dict(repo_owner="octo", repo_name="demo", max_pulls=3, concurrency=1)
    defaults.update(kwargs)
    return FetchPlan(**defaults)


@pytest.fixture(autouse=True)
def _no_ambient_token(monkeypatch):
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)


def test_fetch_builds_validated_snapshot():
    session = FakeSession(demo_routes())
    snap = fetch_snapshot(_plan(), session=session)

    assert [pr.number for pr in snap.pulls] == [1, 2, 3]
    pr3 = snap.pulls[2]
    assert pr3.author == "hana"
    assert pr3.state == "merged"
    assert pr3.closer == "mona"
    assert pr3.labels == frozenset({"bug"})
    assert pr3.contribution_kind == "mixed"
    assert pr3.files == ("README.md", "src/x.py")
    # pending review dropped, verdict lowered
    assert [r.verdict for r in pr3.reviews] == ["approved"]
    # earliest request survives the removal; team request ignored
    assert pr3.review_requests == (
        ReviewRequest("gabe", parse_timestamp("2022-01-10T01:00:00Z", "t")),
        ReviewRequest("ida", parse_timestamp("2022-01-10T04:00:00Z", "t")),
    )
    # pre-PR commit clamped to created_at; unlinked author attributed to PR author
    assert pr3.commits[0].committed_at == pr3.created_at
    assert pr3.commits[1].author == "hana"

    assert snap.pulls[1].state == "closed_unmerged"
    assert snap.pulls[1].closer == "mona"
    assert snap.users["ida"].permission_unknown is True
    assert snap.users["hana"].permission == "write"
    assert snap.users["mona"].orgs == frozenset({"acme"})
    assert snap.fetched_at >= pr3.closed_at


def test_warm_cache_serves_everything_and_is_byte_identical(tmp_path):
    cache = tmp_path / "cache"
    session = FakeSession(demo_routes())
    cold = fetch_snapshot(_plan(cache_dir=cache), session=session)
    cold_statuses = list(session.status_log)
    assert 200 in cold_statuses and 304 not in cold_statuses

    session.status_log.clear()
    warm = fetch_snapshot(_plan(cache_dir=cache), session=session)
    # every cacheable response is revalidated from cache; only ida's
    # uncacheable 403 permission probe is asked again
    assert 200 not in session.status_log
    assert session.status_log.count(304) == len(session.status_log) - 1

    a, b = tmp_path / "cold.json", tmp_path / "warm.json"
    save_snapshot(cold, a)
    save_snapshot(warm, b)
    assert a.read_bytes() == b.read_bytes()


class _FrozenClock(datetime):
    """Stands in for ``datetime`` in the fetcher, so retrieval times repeat."""

    @classmethod
    def now(cls, tz=None):
        return datetime(2022, 2, 1, tzinfo=timezone.utc)


@pytest.fixture
def frozen_clock(monkeypatch):
    monkeypatch.setattr("prtrust.ingest.datetime", _FrozenClock)


def test_cold_fetch_writes_one_cache_file_per_response(tmp_path):
    cache = tmp_path / "cache"
    session = FakeSession(demo_routes())
    fetch_snapshot(_plan(cache_dir=cache), session=session)
    # every 200 of the demo routes carries an ETag; the 403 is not cached
    assert len(list(cache.iterdir())) == session.status_log.count(200)
    assert sorted({path.suffix for path in cache.iterdir()}) == [".json"]


def test_cache_entries_are_readable_by_their_owner_alone(tmp_path):
    cache = tmp_path / "cache"
    fetch_snapshot(_plan(cache_dir=cache), session=FakeSession(demo_routes()))
    assert {stat.S_IMODE(path.stat().st_mode) for path in cache.iterdir()} == {0o600}


def test_concurrent_fetches_share_one_cache(tmp_path, frozen_clock):
    plan = _plan(cache_dir=tmp_path / "cache", concurrency=4)
    snapshots, errors = [], []

    def fetch():
        try:
            snapshots.append(fetch_snapshot(plan, session=FakeSession(demo_routes())))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    saved = []
    for i, snap in enumerate(snapshots):
        path = tmp_path / f"snap{i}.json"
        save_snapshot(snap, path)
        saved.append(path.read_bytes())
    assert len(saved) == 2 and saved[0] == saved[1]
    assert list((tmp_path / "cache").glob("*.tmp")) == []


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _not_an_object(path):
    path.write_text("[1, 2]", encoding="utf-8")


def _old_layout(path):
    envelope = json.loads(path.read_text(encoding="utf-8"))
    etag = envelope.pop("etag")
    path.write_text(json.dumps(envelope), encoding="utf-8")
    path.with_suffix(".etag").write_text(etag, encoding="utf-8")


def _unparsable_time(path):
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["retrieved_at"] = "yesterday"
    path.write_text(json.dumps(envelope), encoding="utf-8")


def _no_such_date(path):
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["retrieved_at"] = "2022-02-30T00:00:00Z"  # canonical in shape
    path.write_text(json.dumps(envelope), encoding="utf-8")


def _too_deep(path):
    path.write_bytes(b"[" * 200000)


def _not_utf8(path):
    path.write_bytes(b'{"url": "\xff"}')


def _retyped(key, value):
    def corrupt(path):
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope[key] = value
        path.write_text(json.dumps(envelope), encoding="utf-8")

    corrupt.__name__ = f"_{key}_of_5"
    return corrupt


def _empty(path):
    path.write_bytes(b"")


def _a_directory(path):
    path.unlink()
    path.mkdir()


_UNUSABLE = [_truncate, _not_an_object, _old_layout, _unparsable_time, _too_deep, _not_utf8,
             _retyped("etag", 5), _retyped("link_next", 5), _empty, _no_such_date]


def _entry(cache, url):
    return cache / f"{hashlib.sha256(url.encode('utf-8')).hexdigest()}.json"


def _list_calls(session):
    """The (headers, status) of each request for the first page of the PR listing."""
    return [(headers, status) for (url, headers), status
            in zip(session.calls, session.status_log) if url == LIST_CLOSED]


@pytest.mark.parametrize("corrupt", _UNUSABLE)
def test_unusable_cache_entry_is_fetched_again(tmp_path, frozen_clock, corrupt):
    cache = tmp_path / "cache"
    cold = fetch_snapshot(_plan(cache_dir=cache), session=FakeSession(demo_routes()))
    entry = _entry(cache, LIST_CLOSED)
    corrupt(entry)

    session = FakeSession(demo_routes())
    warm = fetch_snapshot(_plan(cache_dir=cache), session=session)
    calls = _list_calls(session)
    assert [status for _, status in calls] == [200]
    assert "If-None-Match" not in calls[0][0]
    assert json.loads(entry.read_text(encoding="utf-8"))["etag"] == 'W/"list1"'
    assert warm == cold


def test_a_directory_in_an_entrys_place_is_a_miss(tmp_path, frozen_clock):
    """The directory is asked for again; an answer without an ETag is not cached, so
    the fetch completes, and one with an ETag cannot replace the directory: a FetchError
    that names the entry."""
    cache = tmp_path / "cache"
    cold = fetch_snapshot(_plan(cache_dir=cache), session=FakeSession(demo_routes()))
    entry = _entry(cache, LIST_CLOSED)
    _a_directory(entry)

    routes = demo_routes()
    del routes[LIST_CLOSED]["etag"]
    session = FakeSession(routes)
    assert fetch_snapshot(_plan(cache_dir=cache), session=session) == cold
    calls = _list_calls(session)
    assert [status for _, status in calls] == [200]
    assert "If-None-Match" not in calls[0][0]
    assert entry.is_dir()

    session = FakeSession(demo_routes())
    with pytest.raises(FetchError) as err:
        fetch_snapshot(_plan(cache_dir=cache), session=session)
    assert type(err.value) is FetchError and isinstance(err.value.__cause__, IsADirectoryError)
    assert str(err.value) == f"cannot write cache entry {entry}: {err.value.__cause__}"
    assert [status for _, status in _list_calls(session)] == [200]
    assert entry.is_dir() and list(cache.glob("*.tmp")) == []


@pytest.mark.parametrize("url, error", [
    pytest.param(LIST_CLOSED, FetchError, id="listing"),
    pytest.param(REVIEWS_3, PartialFetchError, id="sub-resource"),
])
def test_a_cache_entry_that_cannot_be_written_exits_2_naming_it(monkeypatch, tmp_path, frozen_clock, capsys,
                                                                url, error):
    cache = tmp_path / "cache"
    fetch_snapshot(_plan(cache_dir=cache), session=FakeSession(demo_routes()))
    entry = _entry(cache, url)
    _a_directory(entry)
    with pytest.raises(error, match=re.escape(f"cannot write cache entry {entry}: ")):
        fetch_snapshot(_plan(cache_dir=cache), session=FakeSession(demo_routes()))

    monkeypatch.setattr("prtrust.cli.fetch_snapshot",
                        lambda plan: fetch_snapshot(plan, session=FakeSession(demo_routes())))
    assert cli.run(["fetch", "--repo", "octo/demo", "--max-pulls", "3", "--cache", str(cache),
                    "--out", str(tmp_path / "snap.json")]) == 2
    assert f"cannot write cache entry {entry}: " in capsys.readouterr().err
    assert entry.is_dir() and not (tmp_path / "snap.json").exists()


def test_an_entry_over_64_kib_is_served_whole_on_a_304(tmp_path, frozen_clock):
    routes = demo_routes()
    body = "".join(f"line {i} of a long review thread\n" for i in range(3000))
    routes[f"{REPO}/issues/3/comments?per_page=100"]["payload"][0]["body"] = body
    cache = tmp_path / "cache"
    cold = fetch_snapshot(_plan(cache_dir=cache), session=FakeSession(routes))
    assert _entry(cache, f"{REPO}/issues/3/comments?per_page=100").stat().st_size > 64 * 1024

    session = FakeSession(routes)
    warm = fetch_snapshot(_plan(cache_dir=cache), session=session)
    assert 200 not in session.status_log
    assert warm == cold
    assert warm.pulls[2].issue_comments[0].body == body


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-be", "utf-32", "utf-32-le"])
def test_an_entry_in_any_utf_encoding_json_allows_is_served(tmp_path, frozen_clock, encoding):
    cache = tmp_path / "cache"
    cold = fetch_snapshot(_plan(cache_dir=cache), session=FakeSession(demo_routes()))
    entry = _entry(cache, f"{REPO}/issues/3/comments?per_page=100")
    entry.write_bytes(entry.read_text(encoding="utf-8").encode(encoding))

    session = FakeSession(demo_routes())
    assert fetch_snapshot(_plan(cache_dir=cache), session=session) == cold
    assert 200 not in session.status_log


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_a_warm_fetch_over_every_unusable_entry_leaves_no_descriptor_open(tmp_path, frozen_clock):
    cache = tmp_path / "cache"
    cold = fetch_snapshot(_plan(cache_dir=cache), session=FakeSession(demo_routes()))
    routes = demo_routes()
    *urls, directory = [url for url, spec in routes.items() if isinstance(spec, dict)][:len(_UNUSABLE) + 1]
    for url, corrupt in zip(urls, _UNUSABLE):
        corrupt(_entry(cache, url))
    _a_directory(_entry(cache, directory))
    del routes[directory]["etag"]  # its answer is not cached, so the directory stays in place

    session = FakeSession(routes)
    before = sorted(Path("/proc/self/fd").iterdir())
    warm = fetch_snapshot(_plan(cache_dir=cache), session=session)
    assert sorted(Path("/proc/self/fd").iterdir()) == before
    assert warm == cold
    assert session.status_log.count(200) == len(_UNUSABLE) + 1


class _CappedSession(FakeSession):
    """Refuses to answer more than ``limit`` requests, so a fetch that loops ends."""

    def __init__(self, routes, limit=200):
        super().__init__(routes)
        self.limit = limit

    def get(self, url, headers=None, timeout=None):
        if len(self.calls) >= self.limit:
            raise RuntimeError(f"more than {self.limit} requests")
        return super().get(url, headers, timeout)


def test_a_cached_page_that_links_to_itself_aborts_the_fetch(tmp_path, frozen_clock):
    cache = tmp_path / "cache"
    fetch_snapshot(_plan(cache_dir=cache), session=FakeSession(demo_routes()))
    entry = _entry(cache, REVIEWS_3)
    envelope = json.loads(entry.read_text(encoding="utf-8"))
    envelope["link_next"] = REVIEWS_3
    entry.write_text(json.dumps(envelope), encoding="utf-8")

    session = _CappedSession(demo_routes())
    with pytest.raises(PartialFetchError) as err:
        fetch_snapshot(_plan(cache_dir=cache), session=session)
    assert str(err.value) == (f"fetch aborted after 0 of 3 PRs: pagination of {REVIEWS_3} "
                              f"loops back to {REVIEWS_3}, a page already fetched")
    assert type(err.value.__cause__) is FetchError
    assert [url for url, _ in session.calls].count(REVIEWS_3) == 1


def test_a_live_link_header_that_loops_aborts_the_fetch(monkeypatch, tmp_path, capsys):
    routes = demo_routes()
    page_2 = f"{REVIEWS_3}&page=2"
    routes[REVIEWS_3]["link_next"] = page_2
    routes[page_2] = {"payload": [], "etag": 'W/"r3p2"', "link_next": REVIEWS_3}
    session = _CappedSession(routes)
    with pytest.raises(PartialFetchError) as err:
        fetch_snapshot(_plan(), session=session)
    assert str(err.value) == (f"fetch aborted after 0 of 3 PRs: pagination of {REVIEWS_3} "
                              f"loops back to {REVIEWS_3}, a page already fetched")
    assert [url for url, _ in session.calls].count(REVIEWS_3) == 1

    monkeypatch.setattr("prtrust.cli.fetch_snapshot",
                        lambda plan: fetch_snapshot(plan, session=_CappedSession(routes)))
    assert cli.run(["fetch", "--repo", "octo/demo", "--max-pulls", "3",
                    "--out", str(tmp_path / "snap.json")]) == 2
    assert "loops back to" in capsys.readouterr().err
    assert not (tmp_path / "snap.json").exists()


def test_a_lone_surrogate_in_a_body_is_cached_and_saved_escaped(tmp_path, frozen_clock):
    routes = demo_routes()
    routes[f"{REPO}/issues/3/comments?per_page=100"]["payload"][0]["body"] = "half an emoji \ud83d"
    cache = tmp_path / "cache"
    cold = fetch_snapshot(_plan(cache_dir=cache), session=FakeSession(routes))
    session = FakeSession(routes)
    warm = fetch_snapshot(_plan(cache_dir=cache), session=session)
    assert 200 not in session.status_log
    assert warm == cold
    assert cold.pulls[2].issue_comments[0].body == "half an emoji \ud83d"
    saved = tmp_path / "snap.json"
    save_snapshot(warm, saved)
    assert load_snapshot(saved) == warm


def test_a_login_holding_a_lone_surrogate_aborts_naming_the_field():
    routes = demo_routes()
    routes[f"{REPO}/issues/3/comments?per_page=100"]["payload"][0]["user"] = {"login": "mona\ud83d"}
    with pytest.raises(PartialFetchError) as err:
        fetch_snapshot(_plan(), session=FakeSession(routes))
    assert str(err.value) == (
        "fetch aborted after 0 of 3 PRs: PR 3 issue comment: "
        "field 'login' must encode as UTF-8, got 'mona\\ud83d'"
    )
    assert isinstance(err.value.__cause__, SnapshotParseError)


def test_a_loop_in_the_pr_listing_is_a_fetch_error():
    routes = demo_routes()
    routes[LIST_CLOSED_2]["link_next"] = LIST_CLOSED
    with pytest.raises(FetchError) as err:
        fetch_snapshot(_plan(max_pulls=5), session=_CappedSession(routes))
    assert type(err.value) is FetchError
    assert str(err.value) == (f"pagination of {LIST_CLOSED} loops back to {LIST_CLOSED}, "
                              "a page already fetched")


def test_missing_repo_aborts_with_not_found():
    session = FakeSession({})
    with pytest.raises(NotFoundError):
        fetch_snapshot(_plan(), session=session)


def test_vanished_pr_is_skipped_with_warning(caplog):
    routes = demo_routes()
    del routes[f"{REPO}/pulls/2/reviews?per_page=100"]
    session = FakeSession(routes)
    with caplog.at_level(logging.WARNING, logger="prtrust.ingest"):
        snap = fetch_snapshot(_plan(), session=session)
    assert [pr.number for pr in snap.pulls] == [1, 3]
    assert any("skipping" in record.message for record in caplog.records)


def test_rate_limit_without_token_is_resumable():
    routes = demo_routes()
    routes[f"{REPO}/pulls/2/reviews?per_page=100"] = [
        {"status": 403, "payload": {"message": "API rate limit exceeded"},
         "headers": {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "1641600000"}},
    ]
    session = FakeSession(routes)
    with pytest.raises(PartialFetchError) as err:
        fetch_snapshot(_plan(), session=session)
    assert err.value.completed == frozenset({3})
    assert isinstance(err.value.__cause__, RateLimitError)
    assert "resume" in str(err.value.__cause__)
    # the limited response's own X-RateLimit-Reset
    assert err.value.__cause__.reset_at == datetime(2022, 1, 8, tzinfo=timezone.utc)


def test_malformed_payload_aborts_with_completed_prs():
    routes = demo_routes()
    routes[f"{REPO}/pulls/2/reviews?per_page=100"]["payload"] = [
        {"id": "r1", "user": {"login": "gabe"}, "state": "APPROVED",
         "submitted_at": "2022-01-05T12:00:00Z", "body": ""},
    ]
    with pytest.raises(PartialFetchError) as err:
        fetch_snapshot(_plan(), session=FakeSession(routes))
    assert err.value.completed == frozenset({3})
    assert str(err.value).startswith("fetch aborted after 1 of 3 PRs: ")
    assert isinstance(err.value.__cause__, SnapshotParseError)


_ROUTE_PATHS = [
    (url, "payload", *path)
    for url, spec in demo_routes().items() if isinstance(spec, dict)
    for path in json_paths(spec["payload"])
]


def test_non_string_login_aborts_naming_the_field():
    routes = demo_routes()
    routes[LIST_CLOSED]["payload"][1]["user"] = {"login": 7}
    with pytest.raises(PartialFetchError) as err:
        fetch_snapshot(_plan(), session=FakeSession(routes))
    assert str(err.value) == (
        "fetch aborted after 1 of 3 PRs: PR 2 user: field 'login' must be a string, got int"
    )
    assert isinstance(err.value.__cause__, SnapshotParseError)


@pytest.mark.parametrize("number, index, key, message", [
    (3, 3, "requested_reviewer",
     "fetch aborted after 0 of 3 PRs: PR 3 timeline[3] requested_reviewer: "
     "field 'login' must be a string, got int"),
    (2, 0, "actor",
     "fetch aborted after 1 of 3 PRs: PR 2 timeline[0] actor: field 'login' must be a string, got int"),
])
def test_malformed_timeline_event_names_the_pr_and_the_field(number, index, key, message):
    routes = demo_routes()
    routes[f"{REPO}/issues/{number}/timeline?per_page=100"]["payload"][index][key] = {"login": 7}
    with pytest.raises(PartialFetchError) as err:
        fetch_snapshot(_plan(), session=FakeSession(routes))
    assert str(err.value) == message
    assert isinstance(err.value.__cause__, SnapshotParseError)


@given(st.sampled_from(_ROUTE_PATHS), st.sampled_from(MUTANTS))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_single_field_mutation_raises_only_typed_errors(path, value):
    routes = demo_routes()
    replace_at(routes, path, value)
    try:
        snap = fetch_snapshot(_plan(), session=FakeSession(routes))
    except PartialFetchError as exc:
        # the wrapped failure is typed too, never a bare KeyError or AttributeError
        assert isinstance(exc.__cause__, (SnapshotError, FetchError)), repr(exc.__cause__)
        return
    except (FetchError, SnapshotError):
        return
    # what fetch returns, its own loader must accept
    with tempfile.TemporaryDirectory() as tmp:
        saved = Path(tmp) / "snapshot.json"
        save_snapshot(snap, saved)
        assert load_snapshot(saved) == snap


def test_rate_limit_with_token_waits_until_reset():
    url = f"{API}/probe"
    routes = {
        url: [
            {"status": 403, "payload": {"message": "rate limited"},
             "headers": {"X-RateLimit-Remaining": "0", "Retry-After": "30"}},
            {"status": 200, "payload": {"ok": True},
             "headers": {"ETag": 'W/"probe"'}},
        ]
    }
    sleeps = []
    client = GitHubClient(token="t0ken", session=FakeSession(routes), sleep=sleeps.append)
    payload, _ = client.get(url)
    assert payload == {"ok": True}
    assert sleeps == [30.0]


def test_server_errors_retry_then_succeed():
    url = f"{API}/flaky"
    routes = {url: [
        {"status": 500, "payload": {}},
        {"status": 502, "payload": {}},
        {"status": 200, "payload": {"ok": 1}},
    ]}
    sleeps = []
    session = FakeSession(routes)
    client = GitHubClient(session=session, sleep=sleeps.append)
    payload, _ = client.get(url)
    assert payload == {"ok": 1}
    assert sleeps == [0.5, 1.0]


def test_server_errors_exhaust_retries():
    url = f"{API}/broken"
    session = FakeSession({url: [{"status": 500, "payload": {}}]})
    client = GitHubClient(session=session, sleep=lambda s: None)
    with pytest.raises(FetchError):
        client.get(url)
    assert len(session.calls) == 4  # one attempt plus three retries


class _DroppingSession(FakeSession):
    """Raises a network error on the attempts numbered in ``drops``, counted from 0."""

    def __init__(self, routes, drops):
        super().__init__(routes)
        self.drops = set(drops)
        self.attempts = 0

    def get(self, url, headers=None, timeout=None):
        import requests

        attempt, self.attempts = self.attempts, self.attempts + 1
        if attempt in self.drops:
            raise requests.ConnectionError(f"connection reset on attempt {attempt}")
        return super().get(url, headers, timeout)


def test_a_network_error_is_retried_and_the_request_then_answered():
    url = f"{API}/flaky"
    session = _DroppingSession({url: [{"status": 200, "payload": {"ok": 1}}]}, drops=[0])
    sleeps = []
    payload, _ = GitHubClient(session=session, sleep=sleeps.append).get(url)
    assert payload == {"ok": 1}
    assert sleeps == [0.5]
    assert session.attempts == 2


@pytest.mark.parametrize("drops, message", [
    ([0, 2], "{url} kept failing with HTTP 503"),
    ([1, 3], "network error fetching {url}: connection reset on attempt 3"),
], ids=["last-503", "last-network-error"])
def test_network_errors_and_server_errors_share_one_retry_budget(drops, message):
    import requests

    url = f"{API}/broken"
    session = _DroppingSession({url: [{"status": 503, "payload": {}}]}, drops=drops)
    sleeps = []
    with pytest.raises(FetchError) as err:
        GitHubClient(session=session, sleep=sleeps.append).get(url)
    assert session.attempts == 4  # one attempt plus three retries, whatever failed
    assert sleeps == [0.5, 1.0, 2.0]
    assert str(err.value) == message.format(url=url)
    assert isinstance(err.value.__cause__, requests.ConnectionError) == (3 in drops)


class _NotJSON(FakeResponse):
    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


class _Answering:
    """A session that gives every request one response."""

    def __init__(self, response):
        self.response = response
        self.calls = 0

    def get(self, url, headers=None, timeout=None):
        self.calls += 1
        return self.response


def test_a_200_whose_body_is_not_json_is_a_fetch_error():
    url = f"{API}/garbled"
    session = _Answering(_NotJSON(200))
    with pytest.raises(FetchError) as err:
        GitHubClient(session=session).get(url)
    assert str(err.value) == f"non-JSON response from {url}"
    assert isinstance(err.value.__cause__, ValueError)
    assert session.calls == 1


@pytest.mark.parametrize("status", [418, 304])  # a 304 without a cache entry to revalidate
def test_an_unexpected_status_is_a_fetch_error_without_retries(status):
    url = f"{API}/teapot"
    session = _Answering(FakeResponse(status))
    with pytest.raises(FetchError) as err:
        GitHubClient(session=session, sleep=lambda s: pytest.fail("slept")).get(url)
    assert str(err.value) == f"unexpected HTTP {status} from {url}"
    assert session.calls == 1


@pytest.mark.parametrize("reset, delay", [
    (str(int(datetime(2022, 2, 1, tzinfo=timezone.utc).timestamp()) + 120), 121.0),
    ("never", 60.0),
], ids=["reset-time", "no-reset-time"])
def test_a_retry_after_that_is_not_a_number_waits_for_the_reset(frozen_clock, reset, delay):
    url = f"{API}/probe"
    for retry_after in ("soon", "inf", "-inf", "nan", "1e400"):  # not a finite number
        routes = {url: [
            {"status": 429, "payload": {}, "headers": {"Retry-After": retry_after, "X-RateLimit-Reset": reset}},
            {"status": 200, "payload": {"ok": True}},
        ]}
        sleeps = []
        client = GitHubClient(token="t0ken", session=FakeSession(routes), sleep=sleeps.append)
        assert client.get(url) == ({"ok": True}, None)
        assert sleeps == [delay], retry_after


def test_unauthorized_raises_auth_error():
    url = f"{API}/secret"
    session = FakeSession({url: [{"status": 401, "payload": {}}]})
    client = GitHubClient(session=session)
    with pytest.raises(AuthError):
        client.get(url)


def test_env_token_is_sent(monkeypatch):
    monkeypatch.setenv("GITHUB_TOKEN", "abc123")
    session = FakeSession(demo_routes())
    fetch_snapshot(_plan(), session=session)
    assert all(h.get("Authorization") == "Bearer abc123" for _, h in session.calls)


def test_fetched_at_is_raised_to_the_newest_act(frozen_clock):
    routes = demo_routes()
    routes[f"{REPO}/issues/3/comments?per_page=100"]["payload"].append(
        {"id": 92, "user": {"login": "mona"}, "created_at": "2022-03-05T00:00:00Z", "body": "late"}
    )
    snap = fetch_snapshot(_plan(), session=FakeSession(routes))
    # every response was retrieved at the frozen 2022-02-01, before that comment
    assert snap.fetched_at == datetime(2022, 3, 5, tzinfo=timezone.utc)


def test_a_missing_org_list_or_permission_reads_as_none():
    routes = demo_routes()
    del routes[f"{API}/users/mona/orgs?per_page=100"]
    del routes[f"{REPO}/collaborators/mona/permission"]
    mona = fetch_snapshot(_plan(), session=FakeSession(routes)).users["mona"]
    assert (mona.followers, mona.orgs, mona.permission, mona.permission_unknown) == (
        50, frozenset(), "none", False
    )


@pytest.mark.parametrize("field", ["max_pulls", "concurrency"])
def test_fetch_plan_rejects_zero(field):
    with pytest.raises(ValueError) as err:
        _plan(**{field: 0})
    assert str(err.value) == f"{field} must be >= 1, got 0"


def test_max_pulls_stops_pagination():
    session = FakeSession(demo_routes())
    snap = fetch_snapshot(_plan(max_pulls=2), session=session)
    assert [pr.number for pr in snap.pulls] == [2, 3]
    assert all(url != LIST_CLOSED_2 for url, _ in session.calls)


def test_the_last_page_header_names_no_next_page():
    base = "https://api.github.com/repositories/1/pulls?state=closed&per_page=100"
    header = f'<{base}&page=2>; rel="prev", <{base}&page=1>; rel="first"'
    assert ingest._parse_next_link(header) is None
    assert ingest._parse_next_link(f'<{base}&page=4>; rel="next", {header}') == f"{base}&page=4"


def test_include_open_fetches_open_prs():
    routes = demo_routes()
    open_item = _pr_item(4, "2022-01-15T00:00:00Z", state="open")
    routes[LIST_ALL] = {"payload": [open_item], "etag": 'W/"all"'}
    routes.update(_sub_routes(
        4,
        commits=[{"sha": "d1" + "0" * 38, "author": {"login": "hana"},
                  "commit": {"committer": {"date": "2022-01-15T02:00:00Z"}}}],
        files=[{"filename": "src/z.py"}],
        timeline=[{"event": "review_requested", "created_at": "2022-01-15T01:00:00Z",
                   "requested_reviewer": {"login": "gabe"}}],
    ))
    session = FakeSession(routes)
    snap = fetch_snapshot(_plan(max_pulls=1, include_open=True), session=session)
    assert [pr.number for pr in snap.pulls] == [4]
    assert snap.pulls[0].state == "open"
    assert snap.pulls[0].closed_at is None
    assert snap.pulls[0].closer is None


def test_concurrency_does_not_change_the_snapshot():
    serial = fetch_snapshot(_plan(concurrency=1), session=FakeSession(demo_routes()))
    parallel = fetch_snapshot(_plan(concurrency=4), session=FakeSession(demo_routes()))
    assert serial.pulls == parallel.pulls
    assert serial.users == parallel.users


# ---------------------------------------------------------------------------
# the bounded runner
# ---------------------------------------------------------------------------

@pytest.fixture
def thread_starts(monkeypatch):
    """Counts the threads started while the test runs."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    return started


@pytest.fixture
def fetch_calls(monkeypatch):
    """Records each PR and user fetch: (kind, key, thread, outcome)."""
    calls = []
    lock = threading.Lock()

    def recording(kind, fetch):
        def wrapper(client, owner, name, key):
            label = key if isinstance(key, str) else key["number"]
            try:
                result = fetch(client, owner, name, key)
            except Exception as exc:
                with lock:
                    calls.append((kind, label, threading.get_ident(), exc))
                raise
            with lock:
                calls.append((kind, label, threading.get_ident(), result))
            return result
        return wrapper

    monkeypatch.setattr(ingest, "_fetch_pull", recording("pull", ingest._fetch_pull))
    monkeypatch.setattr(ingest, "_fetch_user", recording("user", ingest._fetch_user))
    return calls


def many_routes(count):
    """``count`` closed PRs by hana, each closed by mona, listed on one page."""
    routes = {LIST_CLOSED: {
        "payload": [_pr_item(n, "2022-01-01T00:00:00Z", closed="2022-01-02T00:00:00Z")
                    for n in range(count, 0, -1)],
        "etag": 'W/"many"',
    }}
    for n in range(1, count + 1):
        routes.update(_sub_routes(
            n, files=[{"filename": f"src/{n}.py"}],
            timeline=[{"event": "closed", "actor": {"login": "mona"},
                       "created_at": "2022-01-02T00:00:00Z"}],
        ))
    routes.update(_user_routes("hana", 10, (), "write", 1))
    routes.update(_user_routes("mona", 50, (), "admin", 2))
    return routes


def test_one_worker_fetches_everything_on_the_calling_thread(fetch_calls, thread_starts):
    snap = fetch_snapshot(_plan(), session=FakeSession(demo_routes()))
    assert len(snap.pulls) == 3 and len(snap.users) == 4
    assert [(kind, key) for kind, key, _, _ in fetch_calls] == [
        ("pull", 3), ("pull", 2), ("pull", 1),
        ("user", "gabe"), ("user", "hana"), ("user", "ida"), ("user", "mona"),
    ]
    assert {thread for _, _, thread, _ in fetch_calls} == {threading.get_ident()}
    assert thread_starts == []


def test_one_worker_starts_no_task_after_a_failure(fetch_calls, thread_starts):
    routes = demo_routes()
    routes[f"{REPO}/pulls/2/files?per_page=100"]["payload"] = [{"filename": 7}]
    with pytest.raises(PartialFetchError) as err:
        fetch_snapshot(_plan(), session=FakeSession(routes))
    assert [key for _, key, _, _ in fetch_calls] == [3, 2]  # PR 1 never started
    assert err.value.completed == frozenset({3})
    assert str(err.value) == (
        "fetch aborted after 1 of 3 PRs: PR 2 file: field 'filename' must be a string, got int"
    )
    assert thread_starts == []


def test_a_failure_keeps_every_finished_pr_and_chains_itself(fetch_calls):
    routes = many_routes(12)
    routes[f"{REPO}/pulls/5/files?per_page=100"]["payload"] = [{"filename": 7}]
    with pytest.raises(PartialFetchError) as err:
        fetch_snapshot(_plan(max_pulls=12, concurrency=4), session=FakeSession(routes))
    finished = {key for _, key, _, outcome in fetch_calls if not isinstance(outcome, Exception)}
    failures = [outcome for _, _, _, outcome in fetch_calls if isinstance(outcome, Exception)]
    assert err.value.completed == frozenset(finished)
    assert len(failures) == 1 and err.value.__cause__ is failures[0]
    assert "PR 5 file: field 'filename'" in str(err.value)


class _InterruptingSession(FakeSession):
    def get(self, url, headers=None, timeout=None):
        if url == f"{REPO}/pulls/2/reviews?per_page=100":
            raise KeyboardInterrupt
        return super().get(url, headers, timeout)


@pytest.mark.parametrize("concurrency", [1, 4])
def test_an_interrupt_is_not_wrapped_and_leaves_no_thread(concurrency):
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        fetch_snapshot(_plan(max_pulls=12, concurrency=concurrency),
                       session=_InterruptingSession(many_routes(12)))
    assert threading.active_count() == before


def test_more_workers_than_tasks_start_one_helper_fewer_than_tasks(thread_starts):
    results = []
    ingest._run_bounded([lambda i=i: i for i in range(3)], 10, results.append)
    assert sorted(results) == [0, 1, 2]
    assert len(thread_starts) <= 2
    ingest._run_bounded([], 10, results.append)
    assert len(thread_starts) <= 2


def test_many_workers_run_each_task_once_and_consume_under_one_lock():
    consumed = []
    count = {"n": 0}

    def consume(result):
        count["n"] += 1  # read-modify-write: a lost update shows without the runner's lock
        consumed.append(result)

    def run():
        ingest._run_bounded([lambda i=i: i for i in range(500)], 8, consume)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(consumed) == list(range(500))
    assert count["n"] == 500


# ---------------------------------------------------------------------------
# reconstruct_review_requests
# ---------------------------------------------------------------------------

def _event(kind, login, at):
    out = {"event": kind, "created_at": at}
    if login is not None:
        out["requested_reviewer"] = {"login": login}
    return out


def test_reconstruct_single_request():
    events = [_event("review_requested", "alice", "2022-01-01T00:00:00Z")]
    assert reconstruct_review_requests(events) == [
        ReviewRequest("alice", parse_timestamp("2022-01-01T00:00:00Z", "t"))
    ]


def test_reconstruct_removal_does_not_erase():
    events = [
        _event("review_requested", "alice", "2022-01-01T00:00:00Z"),
        _event("review_request_removed", "alice", "2022-01-02T00:00:00Z"),
    ]
    assert reconstruct_review_requests(events) == [
        ReviewRequest("alice", parse_timestamp("2022-01-01T00:00:00Z", "t"))
    ]


def test_reconstruct_duplicate_keeps_earliest():
    events = [
        _event("review_requested", "alice", "2022-01-01T00:00:00Z"),
        _event("review_requested", "alice", "2022-01-03T00:00:00Z"),
    ]
    assert reconstruct_review_requests(events) == [
        ReviewRequest("alice", parse_timestamp("2022-01-01T00:00:00Z", "t"))
    ]


def test_reconstruct_ignores_unknown_kinds():
    events = [{"event": "locked", "created_at": "2022-01-01T00:00:00Z"}, {"odd": 1}]
    assert reconstruct_review_requests(events) == []
