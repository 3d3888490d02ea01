"""Snapshot construction from the GitHub REST API.

Fetches PR metadata, comments, reviews, commits, changed files, and
timeline events per pull request, plus followers, org memberships, and
repo permission per distinct user, with bounded parallelism and a
URL+ETag response cache. Review requests are reconstructed from timeline
events so reviewers who already responded are still counted. The calling
thread is the first fetch worker; with concurrency 1 it fetches everything
itself and starts no thread.

Cache layout: one file per response, {cache_dir}/{sha256(url)}.json,
holding {"url", "retrieved_at", "link_next", "etag", "body"}. Entries are
written through a unique temporary file and renamed into place, so
processes may share a cache directory. An entry is read as bytes, in any
UTF encoding JSON allows. One that is missing or unreadable (a directory,
an empty or truncated file, bytes that are not JSON or nest too deep), not
in this layout, whose etag is not a string, whose link_next is neither a
string nor null, or whose retrieval time does not parse (a date that does
not exist included) is a miss: it is asked for without If-None-Match and
the answer replaces it (over a directory the rename fails, and the fetch
with it). Only answers with an ETag are cached, so a 404 or 403 is asked
for again on every run. A warm cache answers every other request with a
304 revalidation, and the recorded retrieval times are reused, so re-runs
produce byte-identical snapshots.

A payload that does not have the shape GitHub documents (a missing id, a
field of the wrong type) aborts the fetch with PartialFetchError, which
names the PRs completed before it. So does a page whose next link, live or
cached, leads back to a page of the same listing: a FetchError names that
page, and a loop in the PR listing itself raises it unwrapped.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterator
from urllib.parse import quote

from . import __version__
from .corpus import (
    PERMISSIONS,
    REVIEW_VERDICTS,
    Comment,
    CommitEvent,
    PullRequest,
    RepoSnapshot,
    Review,
    ReviewRequest,
    UserProfile,
    _int_field,
    _optional_str,
    _require_dict,
    _require_list,
    _str_field,
    _take,
    _typename,
    classify_contribution,
    discussion,
    format_timestamp,
    parse_timestamp,
    validate,
    write_whole,
)
from .errors import (
    AuthError,
    FetchError,
    NotFoundError,
    PartialFetchError,
    RateLimitError,
    SnapshotParseError,
)

logger = logging.getLogger(__name__)

API_ROOT = "https://api.github.com"
_PAGE_SIZE = 100
_MAX_RETRIES = 3          # per request, network errors and 5xx answers together
_MAX_RATE_WAITS = 3       # bounded even with a token
_TIMEOUT = 30.0

# GitHub's review states are the upper-cased verdicts.
_VERDICTS = {verdict.upper(): verdict for verdict in REVIEW_VERDICTS}

_GHOST = "ghost"          # GitHub's placeholder for deleted accounts

_ENVELOPE_KEYS = frozenset(("url", "retrieved_at", "link_next", "etag", "body"))
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # no newline translation on Windows


@dataclass(frozen=True)
class FetchPlan:
    """What to fetch: repository, depth, and fetch environment."""

    repo_owner: str
    repo_name: str
    max_pulls: int
    include_open: bool = False
    auth_token: str | None = None
    cache_dir: str | Path | None = None
    concurrency: int = 4

    def __post_init__(self) -> None:
        if self.max_pulls < 1:
            raise ValueError(f"max_pulls must be >= 1, got {self.max_pulls}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")


class GitHubClient:
    """Minimal GitHub REST client: caching, retries, rate-limit handling.

    Thread-safe for concurrent GETs of distinct URLs; the retrieval-time
    bookkeeping is lock-protected.
    """

    def __init__(
        self,
        token: str | None = None,
        cache_dir: str | Path | None = None,
        session: Any = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._token = token
        self._cache_prefix = None
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            self._cache_prefix = os.path.join(os.fspath(cache_dir), "")
        if session is None:
            import requests  # only a fetch over the network needs it

            session = requests.Session()
        self._session = session
        self._sleep = sleep
        self._lock = threading.Lock()
        self.max_retrieved_at: datetime | None = None

    # -- cache ------------------------------------------------------------

    def _cache_path(self, url: str) -> str | None:
        if self._cache_prefix is None:
            return None
        return self._cache_prefix + hashlib.sha256(url.encode("utf-8")).hexdigest() + ".json"

    def _read_cached(self, url: str) -> dict | None:
        """The cached envelope with ``retrieved_at`` parsed, or None on a miss."""
        path = self._cache_path(url)
        if path is None:
            return None
        try:
            envelope = json.loads(_read_file(path))  # bytes: UTF-8, -16 or -32, as JSON allows
        except (OSError, ValueError, RecursionError):
            return None
        if (not isinstance(envelope, dict) or not envelope.keys() >= _ENVELOPE_KEYS
                or not isinstance(envelope["etag"], str)
                or not isinstance(envelope["link_next"], (str, type(None)))):
            return None
        try:
            envelope["retrieved_at"] = parse_timestamp(envelope["retrieved_at"], "cache entry")
        except SnapshotParseError:
            return None
        return envelope

    def _write_cached(self, url: str, envelope: dict) -> None:
        """Cache an answer that has an ETag; a write that cannot land, such as over a
        directory in the entry's place, is a FetchError that names the entry."""
        path = self._cache_path(url)
        if path is None or envelope["etag"] is None:
            return
        try:
            write_whole(path, [json.dumps(envelope, ensure_ascii=False)], mode=0o600)
        except OSError as exc:
            raise FetchError(f"cannot write cache entry {path}: {exc}") from exc

    # -- bookkeeping --------------------------------------------------------

    def _note_retrieved(self, retrieved_at: datetime) -> None:
        """Track the newest retrieval time."""
        with self._lock:
            if self.max_retrieved_at is None or retrieved_at > self.max_retrieved_at:
                self.max_retrieved_at = retrieved_at

    # -- requests -----------------------------------------------------------

    def _headers(self, etag: str | None) -> dict[str, str]:
        headers = {
            "Accept": "application/vnd.github+json",
            "User-Agent": f"prtrust/{__version__}",
        }
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        if etag:
            headers["If-None-Match"] = etag
        return headers

    def get(self, url: str) -> tuple[Any, str | None]:
        """GET one URL, serving from cache via ETag revalidation when possible.

        Returns (payload, next_page_url). ``max_retrieved_at`` tracks the time
        each body was originally fetched, so cached responses replay their
        recorded time. Each attempt returns, raises, waits for a rate-limit
        reset, or is retried: a network error and a 5xx answer share one
        budget of ``_MAX_RETRIES`` retries with exponential backoff.
        """
        cached = self._read_cached(url)
        etag = cached["etag"] if cached else None

        retries = 0
        rate_waits = 0
        while True:
            try:
                response = self._session.get(url, headers=self._headers(etag), timeout=_TIMEOUT)
            except _network_error() as exc:
                failure, cause = f"network error fetching {url}: {exc}", exc
            else:
                status = response.status_code
                if status == 304 and cached is not None:
                    self._note_retrieved(cached["retrieved_at"])
                    return cached["body"], cached["link_next"]
                if status == 200:
                    retrieved_at = datetime.now(timezone.utc).replace(microsecond=0)
                    try:
                        payload = response.json()
                    except ValueError as exc:
                        raise FetchError(f"non-JSON response from {url}") from exc
                    link_next = _parse_next_link(response.headers.get("Link"))
                    envelope = {
                        "url": url,
                        "retrieved_at": format_timestamp(retrieved_at),
                        "link_next": link_next,
                        "etag": response.headers.get("ETag"),
                        "body": payload,
                    }
                    self._write_cached(url, envelope)
                    self._note_retrieved(retrieved_at)
                    return payload, link_next
                if status == 404:
                    raise NotFoundError(f"not found: {url}")
                if status in (403, 429) and _is_rate_limited(response):
                    reset_at = _reset_time(response.headers)
                    if self._token and rate_waits < _MAX_RATE_WAITS:
                        delay = _seconds_until(reset_at, response.headers)
                        logger.warning("rate limit exhausted; waiting %.0f s until reset", delay)
                        self._sleep(delay)
                        rate_waits += 1
                        continue
                    raise RateLimitError(
                        f"rate limit exhausted fetching {url}"
                        + (f" (resets at {format_timestamp(reset_at)})" if reset_at else "")
                        + "; completed responses are cached, re-run the same fetch to resume",
                        reset_at=reset_at,
                    )
                if status in (401, 403):
                    raise AuthError(f"request to {url} was rejected with HTTP {status}")
                if status < 500:
                    raise FetchError(f"unexpected HTTP {status} from {url}")
                failure, cause = f"{url} kept failing with HTTP {status}", None

            if retries >= _MAX_RETRIES:
                raise FetchError(failure) from cause
            self._sleep(0.5 * 2**retries)
            retries += 1

    def get_paginated(self, url: str, stop_after: int | None = None) -> list:
        """Collect list items across pages, following rel="next" links; a link back to a
        page already fetched, live or cached, is a FetchError naming that page."""
        items: list = []
        fetched: set[str] = set()
        next_url: str | None = url
        while next_url:
            if next_url in fetched:
                raise FetchError(f"pagination of {url} loops back to {next_url}, a page already fetched")
            fetched.add(next_url)
            payload, next_url = self.get(next_url)
            if not isinstance(payload, list):
                raise FetchError(f"expected a JSON array from {url}")
            items.extend(payload)
            if stop_after is not None and len(items) >= stop_after:
                break
        return items


def _read_file(path: str) -> bytes:
    """A file's bytes, in one read of the size fstat gives: entries change only by rename."""
    fd = os.open(path, _READ_FLAGS)
    try:
        return os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _network_error() -> type[Exception]:
    """The base class of ``requests``' network errors, imported when one is caught."""
    import requests

    return requests.RequestException


def _parse_next_link(header: str | None) -> str | None:
    if not header:
        return None
    for part in header.split(","):
        segment = part.strip()
        if 'rel="next"' in segment:
            start = segment.find("<")
            end = segment.find(">")
            if 0 <= start < end:
                return segment[start + 1:end]
    return None


def _is_rate_limited(response: Any) -> bool:
    if response.headers.get("X-RateLimit-Remaining") == "0":
        return True
    return response.headers.get("Retry-After") is not None


def _reset_time(headers: Any) -> datetime | None:
    """When the rate limit resets, from the limited response's own header."""
    try:
        return datetime.fromtimestamp(int(headers.get("X-RateLimit-Reset")), tz=timezone.utc)
    except (TypeError, ValueError, OverflowError, OSError):
        return None


def _seconds_until(reset_at: datetime | None, headers: Any) -> float:
    try:
        seconds = float(headers.get("Retry-After", "nan"))
    except ValueError:
        seconds = math.nan
    if math.isfinite(seconds):  # absent, "soon", "inf" or "nan": wait for the reset
        return max(1.0, seconds)
    if reset_at is None:
        return 60.0
    return max(1.0, (reset_at - datetime.now(timezone.utc)).total_seconds() + 1.0)


# ---------------------------------------------------------------------------
# Timeline reconstruction
# ---------------------------------------------------------------------------

def reconstruct_review_requests(timeline_events: list, where: str = "timeline") -> list[ReviewRequest]:
    """Rebuild review-request events from a PR timeline.

    Emits one request per requestee at their earliest request time. A
    later request-removed event does not erase the request (the ask still
    happened); duplicate requests keep the earliest timestamp. Events of
    unknown kind, and team requests without a reviewer login, are ignored.
    Errors are located as ``where[i]``, the index of the event in the timeline.
    """
    earliest: dict[str, datetime] = {}
    for i, event in enumerate(timeline_events):
        if not isinstance(event, dict) or event.get("event") != "review_requested":
            continue
        login = _login(event.get("requested_reviewer"), None, f"{where}[{i}] requested_reviewer")
        raw_time = event.get("created_at")
        if not login or not raw_time:
            continue
        at = parse_timestamp(raw_time, f"{where}[{i}] created_at")
        if login not in earliest or at < earliest[login]:
            earliest[login] = at
    return [
        ReviewRequest(requestee=login, requested_at=at)
        for login, at in sorted(earliest.items(), key=lambda kv: (kv[1], kv[0]))
    ]


def _login(account: Any, default: str | None, where: str) -> str | None:
    """The login of a GitHub account object, or ``default`` when it has none. A login
    becomes part of a URL, so one holding a lone UTF-16 surrogate is rejected."""
    if account is None:
        return default
    login = _optional_str(account, "login", where)
    if not login:
        return default
    try:
        login.encode("utf-8")
    except UnicodeEncodeError:
        raise SnapshotParseError(f"{where}: field 'login' must encode as UTF-8, got {login!r}") from None
    return login


def _object_field(data: dict, key: str, where: str) -> dict:
    """``data[key]`` when it is an object, an empty one when it is null or absent."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SnapshotParseError(f"{where}: field '{key}' must be an object, got {_typename(value)}")
    return value


def _closer_from_timeline(timeline_events: list, merged: bool, where: str) -> str | None:
    closed_actor = None
    for i, event in enumerate(timeline_events):
        if not isinstance(event, dict):
            continue
        kind = event.get("event")
        actor = _login(event.get("actor"), _GHOST, f"{where}[{i}] actor")
        if kind == "merged" and merged:
            return actor
        if kind == "closed":
            closed_actor = actor
    return closed_actor


# ---------------------------------------------------------------------------
# Snapshot assembly
# ---------------------------------------------------------------------------

def fetch_snapshot(
    plan: FetchPlan,
    session: Any = None,
    sleep: Callable[[float], None] = time.sleep,
) -> RepoSnapshot:
    """Fetch and validate a snapshot of the plan's repository.

    Covers the max_pulls most recent PRs (reordered ascending). A missing
    repository aborts with NotFoundError; a PR whose sub-resources have
    vanished is skipped with a warning. Any other failure after the PR
    listing, a malformed payload included, is wrapped in PartialFetchError
    carrying the completed PR numbers; the cache makes a re-run resume
    cheaply.
    """
    token = plan.auth_token or os.environ.get("GITHUB_TOKEN")
    client = GitHubClient(token=token, cache_dir=plan.cache_dir, session=session, sleep=sleep)
    owner = quote(plan.repo_owner, safe="")
    name = quote(plan.repo_name, safe="")

    state = "all" if plan.include_open else "closed"
    list_url = (
        f"{API_ROOT}/repos/{owner}/{name}/pulls"
        f"?state={state}&sort=created&direction=desc&per_page={_PAGE_SIZE}"
    )
    listed = client.get_paginated(list_url, stop_after=plan.max_pulls)[: plan.max_pulls]

    pulls: dict[int, PullRequest] = {}
    users: dict[str, UserProfile] = {}

    def fetch_one(item: dict) -> PullRequest | None:
        try:
            return _fetch_pull(client, owner, name, item)
        except NotFoundError:
            logger.warning(
                "PR #%s disappeared while fetching; skipping", item.get("number")
            )
            return None

    def collect(pr: PullRequest | None) -> None:
        if pr is not None:
            pulls[pr.number] = pr

    loading_users = False
    try:
        _run_bounded(
            [lambda item=item: fetch_one(item) for item in listed],
            plan.concurrency,
            collect,
        )
        loading_users = True
        logins = sorted({login for pr in pulls.values() for login, _ in _acts(pr)})
        _run_bounded(
            [lambda login=login: _fetch_user(client, owner, name, login) for login in logins],
            plan.concurrency,
            lambda profile: users.__setitem__(profile.login, profile),
        )
    except Exception as exc:
        stage = (
            "while loading user profiles" if loading_users
            else f"after {len(pulls)} of {len(listed)} PRs"
        )
        raise PartialFetchError(
            f"fetch aborted {stage}: {exc}", completed=frozenset(pulls)
        ) from exc

    event_max = max((at for pr in pulls.values() for _, at in _acts(pr)), default=None)
    fetched_at = client.max_retrieved_at or datetime.now(timezone.utc).replace(microsecond=0)
    if event_max is not None and event_max > fetched_at:
        fetched_at = event_max

    snapshot = RepoSnapshot(
        repo_owner=plan.repo_owner,
        repo_name=plan.repo_name,
        fetched_at=fetched_at,
        pulls=tuple(pulls[number] for number in sorted(pulls)),
        users=users,
    )
    validate(snapshot)
    return snapshot


def _run_bounded(tasks: list, concurrency: int, consume: Callable[[Any], None]) -> None:
    """Run callables, at most ``concurrency`` at a time; the first failure stops the rest.

    The calling thread is the first worker and starts
    ``min(concurrency, len(tasks)) - 1`` helper threads, so with one worker
    no thread is started. Each worker takes the next task from one shared
    iterator and consumes its result under one lock, so a later failure
    still leaves the finished work recorded; once a failure is recorded no
    worker starts another task. The first failure is re-raised after every
    helper has joined. The final assembly sorts, keeping results
    independent of completion order.
    """
    pending = iter(tasks)
    lock = threading.Lock()
    failures: list[BaseException] = []

    def work() -> None:
        try:
            while True:
                with lock:
                    task = None if failures else next(pending, None)
                if task is None:
                    return
                result = task()
                with lock:
                    consume(result)
        except BaseException as exc:
            with lock:
                failures.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(min(concurrency, len(tasks)) - 1)]
    for helper in helpers:
        helper.start()
    work()
    try:
        for helper in helpers:
            helper.join()
    except BaseException as exc:  # interrupted while waiting: the helpers start no new task
        with lock:
            failures.append(exc)
        raise
    if failures:
        raise failures[0]


def _fetch_pull(client: GitHubClient, owner: str, name: str, item: Any) -> PullRequest:
    number = _int_field(_require_dict(item, "PR listing item"), "number", "PR listing item")
    base = f"{API_ROOT}/repos/{owner}/{name}"
    where = f"PR {number}"
    author = _login(item.get("user"), _GHOST, f"{where} user")
    created_at = parse_timestamp(_take(item, "created_at", where), f"{where} created_at")
    merged = item.get("merged_at") is not None
    if item.get("state") == "open":
        state = "open"
        closed_at = None
    else:
        state = "merged" if merged else "closed_unmerged"
        closed_at = parse_timestamp(_take(item, "closed_at", where), f"{where} closed_at")

    reviews_raw = client.get_paginated(f"{base}/pulls/{number}/reviews?per_page={_PAGE_SIZE}")
    review_comments_raw = client.get_paginated(f"{base}/pulls/{number}/comments?per_page={_PAGE_SIZE}")
    issue_comments_raw = client.get_paginated(f"{base}/issues/{number}/comments?per_page={_PAGE_SIZE}")
    commits_raw = client.get_paginated(f"{base}/pulls/{number}/commits?per_page={_PAGE_SIZE}")
    files_raw = client.get_paginated(f"{base}/pulls/{number}/files?per_page={_PAGE_SIZE}")
    timeline = client.get_paginated(f"{base}/issues/{number}/timeline?per_page={_PAGE_SIZE}")

    reviews = []
    where = f"PR {number} review"
    for raw in reviews_raw:
        verdict = _VERDICTS.get(_optional_str(raw, "state", where) or "")
        submitted_at = raw.get("submitted_at")
        if verdict is None or submitted_at is None:
            continue  # pending or exotic review states carry no signal
        reviews.append(
            Review(
                id=_int_field(raw, "id", where),
                author=_login(raw.get("user"), _GHOST, where),
                submitted_at=parse_timestamp(submitted_at, where),
                verdict=verdict,
                body=_optional_str(raw, "body", where) or "",
            )
        )
    reviews.sort(key=lambda r: (r.submitted_at, r.id))

    def decode_comments(raw_list: list, what: str) -> list[Comment]:
        where = f"PR {number} {what}"
        out = [
            Comment(
                id=_int_field(raw, "id", where),
                author=_login(raw.get("user"), _GHOST, where),
                created_at=parse_timestamp(_take(raw, "created_at", where), where),
                body=_optional_str(raw, "body", where) or "",
            )
            for raw in (_require_dict(item, where) for item in raw_list)
        ]
        out.sort(key=lambda c: (c.created_at, c.id))
        return out

    commits = []
    where = f"PR {number} commit"
    for raw in commits_raw:
        commit_info = _object_field(_require_dict(raw, where), "commit", where)
        when = (_object_field(commit_info, "committer", where).get("date")
                or _object_field(commit_info, "author", where).get("date"))
        if when is None:
            continue
        committed_at = parse_timestamp(when, where)
        # Branch commits regularly predate the PR; clamp into its window.
        if committed_at < created_at:
            committed_at = created_at
        commits.append(
            CommitEvent(
                sha=_str_field(raw, "sha", where),
                author=_login(raw.get("author"), author, where),
                committed_at=committed_at,
            )
        )
    commits.sort(key=lambda c: (c.committed_at, c.sha))

    where = f"PR {number} timeline"
    requests_list = [r for r in reconstruct_review_requests(timeline, where) if r.requestee != author]
    closer = None
    if state != "open":
        closer = _closer_from_timeline(timeline, merged, where) or _GHOST

    where = f"PR {number} file"
    files = sorted(_str_field(_require_dict(raw, where), "filename", where) for raw in files_raw)
    label_where = f"PR {number} label"
    labels_raw = [
        _require_dict(label, label_where)
        for label in _require_list(item.get("labels") or [], f"PR {number} labels")
    ]
    return PullRequest(
        number=number,
        author=author,
        state=state,
        created_at=created_at,
        closed_at=closed_at,
        closer=closer,
        labels=frozenset(_str_field(label, "name", label_where) for label in labels_raw),
        contribution_kind=classify_contribution(files),
        files=tuple(files),
        commits=tuple(commits),
        issue_comments=tuple(decode_comments(issue_comments_raw, "issue comment")),
        review_comments=tuple(decode_comments(review_comments_raw, "review comment")),
        reviews=tuple(reviews),
        review_requests=tuple(requests_list),
    )


def _fetch_user(client: GitHubClient, owner: str, name: str, login: str) -> UserProfile:
    encoded = quote(login, safe="")
    where = f"user '{login}'"
    try:
        profile_raw, _ = client.get(f"{API_ROOT}/users/{encoded}")
        followers = _int_field(_require_dict(profile_raw, where), "followers", where)
    except NotFoundError:
        logger.warning("user '%s' no longer exists; recording an empty profile", login)
        return UserProfile(
            login=login, followers=0, orgs=frozenset(), permission="none",
            permission_unknown=True,
        )

    try:
        orgs_raw = client.get_paginated(f"{API_ROOT}/users/{encoded}/orgs?per_page={_PAGE_SIZE}")
        orgs = frozenset(
            org_login for org in orgs_raw
            if (org_login := _login(org, None, f"user '{login}' org"))
        )
    except NotFoundError:
        orgs = frozenset()

    permission = "none"
    permission_unknown = False
    try:
        perm_raw, _ = client.get(
            f"{API_ROOT}/repos/{owner}/{name}/collaborators/{encoded}/permission"
        )
        value = _require_dict(perm_raw, f"{where} permission").get("permission")
        permission = value if value in PERMISSIONS else "none"
    except NotFoundError:
        permission = "none"  # not a collaborator
    except AuthError:
        permission_unknown = True  # token cannot read collaborator permissions

    return UserProfile(
        login=login,
        followers=max(0, followers),
        orgs=orgs,
        permission=permission,
        permission_unknown=permission_unknown,
    )


def _acts(pr: PullRequest) -> Iterator[tuple[str, datetime]]:
    """Yield (login, time) for every act the PR records, its opening included."""
    yield pr.author, pr.created_at
    if pr.closer is not None:
        yield pr.closer, pr.closed_at
    for event in discussion(pr):
        yield event.author, event.created_at
    for request in pr.review_requests:
        yield request.requestee, request.requested_at
    for commit in pr.commits:
        yield commit.author, commit.committed_at
