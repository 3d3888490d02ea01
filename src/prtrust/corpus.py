"""Domain model and on-disk format for pull-request interaction snapshots.

A snapshot is an immutable capture of one repository's pull requests, the
users they reference, and the users' org memberships at a fetch instant.
Everything downstream (metrics, sampling, reports) operates on validated
snapshots; loading is pure and never touches the network.

Snapshot file format: a single UTF-8 JSON document

    {"repo": {"owner", "name", "fetched_at"},
     "users": [UserProfile...],
     "pulls": [PullRequest...]}

with snake_case field names and timestamps as UTC strings
("2022-01-01T00:00:00Z"). All timestamps are stored at second precision;
event ordering ties are broken by event id. On every Python, a timestamp is
read in one grammar, the RFC 3339 profile GitHub writes: YYYY-MM-DDTHH:MM:SS,
an optional "." and digits (truncated), then "Z", "z" or +HH:MM/-HH:MM with
minutes 00-59, surrounding whitespace ignored; other spellings are invalid.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import cached_property
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NoReturn

from .errors import SnapshotError, SnapshotParseError, SnapshotValidationError

_encode_str = json.encoder.encode_basestring  # the C encoder, as ensure_ascii=False uses

PR_STATES = ("merged", "closed_unmerged", "open")
CONTRIBUTION_KINDS = ("code", "documentation", "mixed")
REVIEW_VERDICTS = ("approved", "commented", "changes_requested", "dismissed")
PERMISSIONS = ("admin", "write", "read", "none")

# A path is documentation when its extension or any path segment matches.
DOC_EXTENSIONS = (".md", ".rst", ".txt", ".adoc")
DOC_SEGMENTS = ("docs", "doc")

# The timestamp grammar of the module docstring, and the spelling save_snapshot writes.
_DATE_TIME = r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}"
_TIMESTAMP = re.compile(rf"({_DATE_TIME})(?:\.[0-9]+)?([Zz]|[+-][0-9]{{2}}:[0-5][0-9])?", re.ASCII)
_CANONICAL = re.compile(_DATE_TIME + "Z", re.ASCII).fullmatch


# ---------------------------------------------------------------------------
# Timestamps
# ---------------------------------------------------------------------------

def parse_timestamp(value: Any, where: str) -> datetime:
    """Parse a timestamp of the module's grammar into an aware UTC datetime (second
    precision); one with no offset, or whose UTC instant leaves years 1-9999, is rejected."""
    # The canonical spelling first, read as _fast_pull reads it inline: the two must agree,
    # and both must give what the general path below gives. A date that does not exist
    # falls through, so the general path names it.
    if isinstance(value, str) and _CANONICAL(value):
        try:
            return datetime.fromisoformat(value[:-1] + "+00:00")
        except ValueError:
            pass
    if not isinstance(value, str):
        raise SnapshotParseError(f"{where}: timestamp must be a string, got {_typename(value)}")
    match = _TIMESTAMP.fullmatch(value.strip())
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
        return parsed.astimezone(timezone.utc)  # returns a "Z" or "+00:00" value as it is
    except OverflowError as exc:
        raise SnapshotParseError(f"{where}: timestamp {value!r} is out of range") from exc


def format_timestamp(value: datetime) -> str:
    """Render an aware datetime as "YYYY-MM-DDTHH:MM:SSZ" (four-digit year); a naive one,
    which only the host's time zone could place, is a SnapshotValidationError."""
    if value.tzinfo is not timezone.utc:  # every value parse_timestamp returns skips this
        if value.utcoffset() is None:
            raise SnapshotValidationError(f"timestamp {value.isoformat()!r} lacks a UTC offset")
        value = value.astimezone(timezone.utc)
    return value.isoformat()[:19] + "Z"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Comment:
    """One issue or review comment on a pull request."""

    id: int
    author: str
    created_at: datetime
    body: str


@dataclass(frozen=True)
class Review:
    """One submitted review; the body may be empty (e.g. a bare approval)."""

    id: int
    author: str
    submitted_at: datetime
    verdict: str
    body: str

    @property
    def created_at(self) -> datetime:
        """Alias of ``submitted_at``, so a review orders like a comment."""
        return self.submitted_at


@dataclass(frozen=True)
class ReviewRequest:
    """The act of asking a specific user to review the PR.

    Requests are explicit timestamped events reconstructed from the PR
    timeline, so reviewers who already responded are still represented
    (the live "pending reviewers" field drops them).
    """

    requestee: str
    requested_at: datetime


@dataclass(frozen=True)
class CommitEvent:
    """One commit attached to the PR branch."""

    sha: str
    author: str
    committed_at: datetime


@dataclass(frozen=True)
class UserProfile:
    """Per-login social and permission data.

    ``closure_history`` is an optional (closed_count, accepted_count) pair
    describing PRs this user closed outside the snapshot window.
    ``permission_unknown`` is set when the fetch could not read the
    collaborator permission; metrics then treat permission as absent
    evidence rather than "none".
    """

    login: str
    followers: int
    orgs: frozenset[str]
    permission: str
    closure_history: tuple[int, int] | None = None
    permission_unknown: bool = False


@dataclass(frozen=True)
class PullRequest:
    """One pull request with its full interaction record."""

    number: int
    author: str
    state: str
    created_at: datetime
    closed_at: datetime | None
    closer: str | None
    labels: frozenset[str]
    contribution_kind: str
    files: tuple[str, ...]
    commits: tuple[CommitEvent, ...]
    issue_comments: tuple[Comment, ...]
    review_comments: tuple[Comment, ...]
    reviews: tuple[Review, ...]
    review_requests: tuple[ReviewRequest, ...]


@dataclass(frozen=True)
class PullHistory:
    """Who authored and who closed the decided (merged or closed-unmerged) PRs.

    Built in one pass over a snapshot's pulls and read-only afterwards.
    It relies on the order ``validate`` enforces and ``restrict`` keeps:
    pull numbers strictly increase, so ``numbers`` is sorted and a PR's
    position in it ranks it among the repository's PRs.

    ``authored[login]`` holds the positions of the login's decided PRs in
    ascending order, and the merged count among the first k of them for
    every k from 0 to their number. ``closed[login]`` holds the number of
    decided PRs the login closed and how many of those were merged.
    """

    numbers: list[int]
    authored: dict[str, tuple[list[int], list[int]]]
    closed: dict[str, tuple[int, int]]

    @classmethod
    def of(cls, pulls: Iterable[PullRequest]) -> "PullHistory":
        numbers: list[int] = []
        authored: dict[str, tuple[list[int], list[int]]] = {}
        closed: dict[str, tuple[int, int]] = {}
        for position, pr in enumerate(pulls):
            numbers.append(pr.number)
            if pr.state == "open":
                continue
            merged = pr.state == "merged"
            positions, merged_counts = authored.setdefault(pr.author, ([], [0]))
            positions.append(position)
            merged_counts.append(merged_counts[-1] + merged)
            count, accepted = closed.get(pr.closer, (0, 0))
            closed[pr.closer] = (count + 1, accepted + merged)
        return cls(numbers, authored, closed)


@dataclass(frozen=True)
class RepoSnapshot:
    """Immutable capture of one repository's PR interaction data.

    Safe to share across concurrent readers; nothing mutates it after load
    but the memoised ``history``, which concurrent first readers may each
    build, with equal results.
    """

    repo_owner: str
    repo_name: str
    fetched_at: datetime
    pulls: tuple[PullRequest, ...]
    users: dict[str, UserProfile] = field(default_factory=dict)

    @cached_property
    def history(self) -> PullHistory:
        """The PullHistory of ``pulls``, built on first use and kept."""
        return PullHistory.of(self.pulls)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def classify_contribution(files: Iterable[str]) -> str:
    """Classify a changed-file list as code, documentation, or mixed.

    A path counts as documentation when its extension is one of
    .md/.rst/.txt/.adoc (case-insensitive) or any path segment equals
    "docs" or "doc". All-doc lists are "documentation", no-doc lists are
    "code", anything else is "mixed"; an empty list is "code".
    """
    paths = list(files)
    doc_count = sum(1 for path in paths if _is_doc_path(path))
    if doc_count == 0:
        return "code"
    if doc_count == len(paths):
        return "documentation"
    return "mixed"


def _is_doc_path(path: str) -> bool:
    lowered = path.lower()
    if lowered.endswith(DOC_EXTENSIONS):
        return True
    return any(segment in DOC_SEGMENTS for segment in lowered.replace("\\", "/").split("/"))


def outcome(pr: PullRequest) -> str:
    """Map PR state to the binary study outcome: merged PRs are accepted,
    closed-without-merge PRs are rejected, open PRs are pending."""
    if pr.state == "merged":
        return "accepted"
    if pr.state == "closed_unmerged":
        return "rejected"
    return "pending"


def discussion(pr: PullRequest) -> tuple[Comment | Review, ...]:
    """The PR's written discussion: issue comments, review comments, then reviews.

    Every item carries ``id``, ``author``, ``created_at`` and ``body``.
    """
    return pr.issue_comments + pr.review_comments + pr.reviews


def restrict(snapshot: RepoSnapshot, numbers: Iterable[int]) -> RepoSnapshot:
    """Return a snapshot whose pulls are limited to the given PR numbers.

    The full users map and repo metadata are preserved.
    """
    keep = set(numbers)
    return replace(snapshot, pulls=tuple(pr for pr in snapshot.pulls if pr.number in keep))


# ---------------------------------------------------------------------------
# Decode (JSON dict -> domain objects)
# ---------------------------------------------------------------------------

def _typename(value: Any) -> str:
    return type(value).__name__


def _require_dict(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise SnapshotParseError(f"{where}: expected an object, got {_typename(value)}")
    return value


def _require_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise SnapshotParseError(f"{where}: expected an array, got {_typename(value)}")
    return value


def _take(data: dict, key: str, where: str) -> Any:
    if key not in data:
        raise SnapshotParseError(f"{where}: missing field '{key}'")
    return data[key]


def _check_keys(data: dict, allowed: Iterable[str], where: str) -> None:
    extra = data.keys() - allowed
    if extra:
        raise SnapshotParseError(f"{where}: unknown field '{sorted(extra)[0]}'")


def _str_field(data: dict, key: str, where: str) -> str:
    value = _take(data, key, where)
    if not isinstance(value, str):
        raise SnapshotParseError(f"{where}: field '{key}' must be a string, got {_typename(value)}")
    return value


def _optional_str(data: Any, key: str, where: str) -> str | None:
    """``data[key]`` when it is a string, None when it is null or absent."""
    value = _require_dict(data, where).get(key)
    if value is not None and not isinstance(value, str):
        raise SnapshotParseError(f"{where}: field '{key}' must be a string, got {_typename(value)}")
    return value


def _int_field(data: dict, key: str, where: str) -> int:
    value = _take(data, key, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SnapshotParseError(f"{where}: field '{key}' must be an integer, got {_typename(value)}")
    return value


def _string_list(data: dict, key: str, where: str) -> list[str]:
    values = _require_list(_take(data, key, where), f"{where}.{key}")
    for i, item in enumerate(values):
        if not isinstance(item, str):
            raise SnapshotParseError(f"{where}.{key}[{i}]: expected a string, got {_typename(item)}")
    return values


def _time_field(data: dict, key: str, where: str) -> datetime:
    return parse_timestamp(_take(data, key, where), f"{where}.{key}")


# Per field annotation: the checked reader and the JSON type of a well-formed value.
_FIELD_KINDS = {"int": (_int_field, int), "str": (_str_field, str), "datetime": (_time_field, str)}


def _event_codec(cls: type) -> tuple[dict, list, int, attrgetter, itemgetter]:
    """Key -> checked reader, the JSON types of a well-formed event's values, the
    position of its timestamp, and the getters of its values from an event and from
    its JSON object. The keys, in the order they are encoded and checked, are the
    dataclass fields; every event has exactly one timestamp."""
    kinds = {f.name: _FIELD_KINDS[f.type] for f in fields(cls)}
    (stamp,) = [i for i, f in enumerate(fields(cls)) if f.type == "datetime"]
    readers = {name: read for name, (read, _) in kinds.items()}
    return readers, [t for _, t in kinds.values()], stamp, attrgetter(*readers), itemgetter(*readers)


_EVENT_FIELDS = {cls: _event_codec(cls) for cls in (Comment, Review, ReviewRequest, CommitEvent)}
_USER_KEYS = frozenset(f.name for f in fields(UserProfile))

# The event lists of a pull request, in JSON key order.
_EVENT_LISTS = (
    ("commits", CommitEvent),
    ("issue_comments", Comment),
    ("review_comments", Comment),
    ("reviews", Review),
    ("review_requests", ReviewRequest),
)

# What _fast_pull reads a pull request by: the keys of a closed and of an open one, the
# JSON type of each value every one holds and their getter, and, per event list, its key,
# class, the keys of its events, their getter, their JSON types and the position of their
# timestamp.
_PR_KEYS = frozenset(f.name for f in fields(PullRequest))
_OPEN_PR_KEYS = _PR_KEYS - {"closed_at", "closer"}
_PR_VALUE_TYPES = {"number": int, "author": str, "state": str, "created_at": str, "labels": list,
                   "contribution_kind": str, "files": list}
_PR_TYPES = tuple(_PR_VALUE_TYPES.values())
_PR_TAKE = itemgetter(*_PR_VALUE_TYPES)
_EVENT_DECODERS = tuple(
    (key, cls, readers.keys(), take, types, stamp)
    for key, cls in _EVENT_LISTS
    for readers, types, stamp, _, take in [_EVENT_FIELDS[cls]]
)
_ONLY_STR = frozenset((str,))


def _fast_pull(data: Any) -> PullRequest | None:
    """The PullRequest of a well-formed pull, decoded with no helper call per field or
    event, or None, and _decode_pull then reads it or names its fault. Well-formed is an
    exact dict of every field, or of all but closed_at and closer; values of their exact
    JSON types, closed_at and closer possibly null, and unique labels; events that are
    exact dicts of their exact keys (in any order) and types; and every timestamp in the
    canonical "YYYY-MM-DDTHH:MM:SSZ" spelling, which parse_timestamp reads to the same
    value. A date that does not exist, such as "2023-02-29", falls through."""
    if type(data) is not dict or data.keys() not in (_PR_KEYS, _OPEN_PR_KEYS):
        return None
    values = _PR_TAKE(data)
    closed_at, closer = data.get("closed_at"), data.get("closer")
    if tuple(map(type, values)) != _PR_TYPES or not (
        (closer is None or type(closer) is str)
        and (closed_at is None or type(closed_at) is str and _CANONICAL(closed_at))
    ):
        return None
    number, author, state, created_at, labels, kind, files = values
    if not (_CANONICAL(created_at) and _ONLY_STR.issuperset(map(type, labels))
            and _ONLY_STR.issuperset(map(type, files))):
        return None
    label_set = frozenset(labels)
    if len(label_set) != len(labels):
        return None
    fromisoformat = datetime.fromisoformat
    events = []
    try:
        created_at = fromisoformat(created_at[:-1] + "+00:00")
        if closed_at is not None:
            closed_at = fromisoformat(closed_at[:-1] + "+00:00")
        for key, cls, keys, take, types, stamp in _EVENT_DECODERS:
            raw_events = data[key]
            if type(raw_events) is not list:
                return None
            decoded = []
            for raw in raw_events:
                if type(raw) is not dict or raw.keys() != keys:
                    return None
                event = list(take(raw))
                if list(map(type, event)) != types or not _CANONICAL(event[stamp]):
                    return None
                event[stamp] = fromisoformat(event[stamp][:-1] + "+00:00")
                decoded.append(cls(*event))
            events.append(tuple(decoded))
    except ValueError:  # a date that does not exist
        return None
    return PullRequest(number, author, state, created_at, closed_at, closer, label_set, kind,
                       tuple(files), *events)


def _decode_events(data: dict, key: str, cls: type, where: str) -> tuple:
    """The event list ``data[key]`` read by the checked readers, which name any fault."""
    readers = _EVENT_FIELDS[cls][0]
    events = []
    for i, raw in enumerate(_require_list(_take(data, key, where), f"{where}.{key}")):
        at = f"{where}.{key}[{i}]"
        raw = _require_dict(raw, at)
        _check_keys(raw, readers, at)
        events.append(cls(*[read(raw, name, at) for name, read in readers.items()]))
    return tuple(events)


def _decode_user(data: Any, where: str) -> UserProfile:
    data = _require_dict(data, where)
    _check_keys(data, _USER_KEYS, where)
    login = _str_field(data, "login", where)
    closure: tuple[int, int] | None = None
    if data.get("closure_history") is not None:
        at = f"{where}.closure_history"
        counts = _require_dict(data["closure_history"], at)
        _check_keys(counts, ("closed_count", "accepted_count"), at)
        closure = (_int_field(counts, "closed_count", at), _int_field(counts, "accepted_count", at))
    unknown = data.get("permission_unknown", False)
    if not isinstance(unknown, bool):
        raise SnapshotParseError(f"{where}: field 'permission_unknown' must be a boolean")
    return UserProfile(
        login=login,
        followers=_int_field(data, "followers", where),
        orgs=frozenset(_string_list(data, "orgs", where)),
        permission=_str_field(data, "permission", where),
        closure_history=closure,
        permission_unknown=unknown,
    )


def _decode_pull(data: Any, index: int) -> PullRequest:
    where = f"pulls[{index}]"
    data = _require_dict(data, where)
    _check_keys(data, _PR_KEYS, where)
    number = _int_field(data, "number", where)
    where = f"PR {number}"

    closed_at = None if data.get("closed_at") is None else _time_field(data, "closed_at", where)
    closer = _optional_str(data, "closer", where)

    labels = _string_list(data, "labels", where)
    if len(set(labels)) != len(labels):
        raise SnapshotValidationError(f"{where}: duplicate label in 'labels'")

    return PullRequest(
        number=number,
        author=_str_field(data, "author", where),
        state=_str_field(data, "state", where),
        created_at=_time_field(data, "created_at", where),
        closed_at=closed_at,
        closer=closer,
        labels=frozenset(labels),
        contribution_kind=_str_field(data, "contribution_kind", where),
        files=tuple(_string_list(data, "files", where)),
        **{key: _decode_events(data, key, cls, where) for key, cls in _EVENT_LISTS},
    )


def snapshot_from_dict(data: Any) -> RepoSnapshot:
    """Decode and validate a snapshot from its JSON-dict form."""
    data = _require_dict(data, "snapshot")
    _check_keys(data, ("repo", "users", "pulls"), "snapshot")
    repo = _require_dict(_take(data, "repo", "snapshot"), "repo")
    _check_keys(repo, ("owner", "name", "fetched_at"), "repo")

    users: dict[str, UserProfile] = {}
    for i, raw in enumerate(_require_list(_take(data, "users", "snapshot"), "users")):
        profile = _decode_user(raw, f"users[{i}]")
        if profile.login in users:
            raise SnapshotValidationError(f"users[{i}]: duplicate login '{profile.login}'")
        users[profile.login] = profile

    pulls = tuple(
        _fast_pull(raw) or _decode_pull(raw, i)
        for i, raw in enumerate(_require_list(_take(data, "pulls", "snapshot"), "pulls"))
    )

    snapshot = RepoSnapshot(
        repo_owner=_str_field(repo, "owner", "repo"),
        repo_name=_str_field(repo, "name", "repo"),
        fetched_at=_time_field(repo, "fetched_at", "repo"),
        pulls=pulls,
        users=users,
    )
    validate(snapshot)
    return snapshot


def load_snapshot(path: str | Path) -> RepoSnapshot:
    """Load and validate a snapshot file.

    Raises SnapshotParseError for unreadable or malformed files and
    SnapshotValidationError when a domain invariant is violated; the
    message names the file and locates the offending PR number or login.

    The cyclic garbage collector is paused while the file is read, decoded and
    validated, and then enabled again if it was: a snapshot holds no reference
    cycles, so its passes over the growing snapshot would free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        data = read_json(Path(path), "snapshot")
        try:
            return snapshot_from_dict(data)
        except SnapshotError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def read_json(path: Path, what: str) -> Any:
    """Parse a UTF-8 JSON file; any way it cannot be read is a SnapshotParseError naming it."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise SnapshotParseError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotParseError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SnapshotParseError(f"{path}: JSON nested too deeply to read") from exc


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(snapshot: RepoSnapshot) -> None:
    """Check every domain invariant, raising on the first violation."""
    for login, profile in snapshot.users.items():
        _validate_user(profile, login)

    previous_number: int | None = None
    for pr in snapshot.pulls:
        if previous_number is not None and pr.number <= previous_number:
            raise SnapshotValidationError(
                f"PR {pr.number}: pull numbers must be unique and strictly "
                f"increasing (follows {previous_number})"
            )
        previous_number = pr.number
        _validate_pull(pr, snapshot)


def _validate_user(profile: UserProfile, login: str) -> None:
    where = f"user '{login}'"
    if profile.login != login:
        raise SnapshotValidationError(f"{where}: login key mismatch '{profile.login}'")
    if profile.followers < 0:
        raise SnapshotValidationError(f"{where}: followers must be non-negative")
    if profile.permission not in PERMISSIONS:
        raise SnapshotValidationError(
            f"{where}: permission must be one of {PERMISSIONS}, got '{profile.permission}'"
        )
    if profile.closure_history is not None:
        closed, accepted = profile.closure_history
        if closed < 0 or accepted < 0:
            raise SnapshotValidationError(f"{where}: closure_history counts must be non-negative")
        if accepted > closed:
            raise SnapshotValidationError(
                f"{where}: closure_history accepted_count {accepted} exceeds closed_count {closed}"
            )


def _validate_pull(pr: PullRequest, snapshot: RepoSnapshot) -> None:
    where = f"PR {pr.number}"
    if pr.number <= 0:
        raise SnapshotValidationError(f"{where}: number must be positive")
    if pr.state not in PR_STATES:
        raise SnapshotValidationError(f"{where}: state must be one of {PR_STATES}, got '{pr.state}'")
    if pr.contribution_kind not in CONTRIBUTION_KINDS:
        raise SnapshotValidationError(
            f"{where}: contribution_kind must be one of {CONTRIBUTION_KINDS}, "
            f"got '{pr.contribution_kind}'"
        )

    if pr.state == "open":
        if pr.closed_at is not None:
            raise SnapshotValidationError(f"{where}: open PR must not carry closed_at")
        if pr.closer is not None:
            raise SnapshotValidationError(f"{where}: open PR must not carry a closer")
    else:
        if pr.closed_at is None:
            raise SnapshotValidationError(f"{where}: state '{pr.state}' requires closed_at")
        if pr.closer is None:
            raise SnapshotValidationError(f"{where}: state '{pr.state}' requires a closer")
        if pr.closed_at < pr.created_at:
            raise SnapshotValidationError(f"{where}: closed_at precedes created_at")

    users, created, fetched = snapshot.users, pr.created_at, snapshot.fetched_at

    def outside_window(ts: datetime, what: str) -> NoReturn:
        if ts < created:
            raise SnapshotValidationError(f"{where}: {what} precedes PR created_at")
        raise SnapshotValidationError(f"{where}: {what} is after snapshot fetched_at")

    if created > fetched:
        raise SnapshotValidationError(f"{where}: created_at is after snapshot fetched_at")
    if pr.closed_at is not None and pr.closed_at > fetched:
        raise SnapshotValidationError(f"{where}: closed_at is after snapshot fetched_at")

    if pr.author not in users:
        raise SnapshotValidationError(f"{where}: unknown login '{pr.author}' (author)")
    if pr.closer is not None and pr.closer not in users:
        raise SnapshotValidationError(f"{where}: unknown login '{pr.closer}' (closer)")

    seen_comment_ids: set[int] = set()
    for kind, comments in (("issue comment", pr.issue_comments), ("review comment", pr.review_comments)):
        for comment in comments:
            if comment.id in seen_comment_ids:
                raise SnapshotValidationError(f"{where}: duplicate comment id {comment.id}")
            seen_comment_ids.add(comment.id)
            if comment.author not in users:
                raise SnapshotValidationError(f"{where}: unknown login '{comment.author}' ({kind} author)")
            if not created <= comment.created_at <= fetched:
                outside_window(comment.created_at, f"{kind} {comment.id} timestamp")

    seen_review_ids: set[int] = set()
    for review in pr.reviews:
        if review.id in seen_review_ids:
            raise SnapshotValidationError(f"{where}: duplicate review id {review.id}")
        seen_review_ids.add(review.id)
        if review.verdict not in REVIEW_VERDICTS:
            raise SnapshotValidationError(
                f"{where}: review {review.id} verdict must be one of {REVIEW_VERDICTS}, "
                f"got '{review.verdict}'"
            )
        if review.author not in users:
            raise SnapshotValidationError(f"{where}: unknown login '{review.author}' (review author)")
        if not created <= review.submitted_at <= fetched:
            outside_window(review.submitted_at, f"review {review.id} timestamp")

    for request in pr.review_requests:
        if request.requestee == pr.author:
            raise SnapshotValidationError(
                f"{where}: review request targets the PR author '{request.requestee}'"
            )
        if request.requestee not in users:
            raise SnapshotValidationError(
                f"{where}: unknown login '{request.requestee}' (requested reviewer)"
            )
        if not created <= request.requested_at <= fetched:
            outside_window(request.requested_at, f"review request for '{request.requestee}'")

    seen_shas: set[str] = set()
    for commit in pr.commits:
        if not commit.sha or commit.sha.strip("0123456789abcdefABCDEF"):
            raise SnapshotValidationError(f"{where}: commit sha '{commit.sha}' is not a hex string")
        if commit.sha in seen_shas:
            raise SnapshotValidationError(f"{where}: duplicate commit sha '{commit.sha}'")
        seen_shas.add(commit.sha)
        if commit.author not in users:
            raise SnapshotValidationError(f"{where}: unknown login '{commit.author}' (commit author)")
        if not created <= commit.committed_at <= fetched:
            outside_window(commit.committed_at, f"commit {commit.sha[:12]} timestamp")


# ---------------------------------------------------------------------------
# Encode (domain objects -> JSON dict)
# ---------------------------------------------------------------------------

def _encode_user(profile: UserProfile) -> dict:
    out: dict[str, Any] = {
        "login": profile.login,
        "followers": profile.followers,
        "orgs": sorted(profile.orgs),
        "permission": profile.permission,
    }
    if profile.closure_history is not None:
        closed, accepted = profile.closure_history
        out["closure_history"] = {"closed_count": closed, "accepted_count": accepted}
    if profile.permission_unknown:
        out["permission_unknown"] = True
    return out


def _pull_head(pr: PullRequest) -> dict:
    """The JSON-dict form of a PR's fields that precede its event lists."""
    out: dict[str, Any] = {
        "number": pr.number,
        "author": pr.author,
        "state": pr.state,
        "created_at": format_timestamp(pr.created_at),
    }
    if pr.closed_at is not None:
        out["closed_at"] = format_timestamp(pr.closed_at)
    if pr.closer is not None:
        out["closer"] = pr.closer
    out["labels"] = sorted(pr.labels)
    out["contribution_kind"] = pr.contribution_kind
    out["files"] = list(pr.files)
    return out


def _encode_pull(pr: PullRequest) -> dict:
    out = _pull_head(pr)
    for key, _ in _EVENT_LISTS:
        out[key] = [_encode_event(event) for event in getattr(pr, key)]
    return out


def _encode_event(event: Any) -> dict:
    readers, _, stamp, get, _ = _EVENT_FIELDS[type(event)]
    values = list(get(event))
    values[stamp] = format_timestamp(values[stamp])
    return dict(zip(readers, values))


# An event as indented_json writes it in a saved PR's event list: per class, its keys at
# their indentation with a %s per value, its getter, its timestamp's position and its width.
_EVENT_SEPARATOR = ",\n        "
_EVENT_TEMPLATES = {
    cls: ("{\n          " + ",\n          ".join(_encode_str(name) + ": %s" for name in readers)
          + "\n        }", get, stamp, len(readers))
    for cls, (readers, _, stamp, get, _) in _EVENT_FIELDS.items()
}


def _event_items(events: tuple) -> str:
    """The items of a non-empty event list as indented_json writes them in a saved PR:
    all values encoded in one call and filled into the class's template in one."""
    kind, *mixed = set(map(type, events))
    if mixed:  # a list built in code that mixes classes: each event from its own template
        return _EVENT_SEPARATOR.join(map(_event_items, zip(events)))
    template, get, stamp, width = _EVENT_TEMPLATES[kind]
    values = [value for event in events for value in get(event)]
    values[stamp::width] = map(format_timestamp, values[stamp::width])
    return _EVENT_SEPARATOR.join([template] * len(events)) % tuple(indented_items(values, "\n          "))


def _pull_text(pr: PullRequest) -> str:
    """``indented_json(_encode_pull(pr), "\\n    ")``, each event list written by _event_items."""
    head = _pull_head(pr)
    texts = indented_items(head.values(), "\n      ")
    parts = [_encode_str(key) + ": " + text for key, text in zip(head, texts)]
    for key, _ in _EVENT_LISTS:
        events = getattr(pr, key)
        parts.append(f'"{key}": ' + ("[\n        " + _event_items(events) + "\n      ]" if events else "[]"))
    return "{\n      " + ",\n      ".join(parts) + "\n    }"


def _snapshot_document(snapshot: RepoSnapshot) -> dict:
    """The snapshot's JSON-dict form, with its PullRequests themselves under "pulls"."""
    return {
        "repo": {
            "owner": snapshot.repo_owner,
            "name": snapshot.repo_name,
            "fetched_at": format_timestamp(snapshot.fetched_at),
        },
        "users": [_encode_user(snapshot.users[login]) for login in sorted(snapshot.users)],
        "pulls": snapshot.pulls,
    }


def snapshot_to_dict(snapshot: RepoSnapshot) -> dict:
    """Encode a snapshot into its JSON-dict form (users sorted by login)."""
    document = _snapshot_document(snapshot)
    document["pulls"] = [_encode_pull(pr) for pr in snapshot.pulls]
    return document


def indented_json(value: Any, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` for str keys, faster: the C
    encoder cannot indent, so that call runs in pure Python; this walk encodes strings
    in C and hands values of other types to json.dumps. ``newline`` carries the
    indentation of the level being written."""
    return indented_items((value,), newline)[0]


def indented_items(values: Iterable[Any], newline: str) -> list[str]:
    """``indented_json(value, newline)`` of each value. A str, int, finite float, None,
    bool, dict, list or tuple of exactly that type is written here, with no call of its
    own but one per container; any other value goes to json.dumps, whose newlines are
    then indented to ``newline``."""
    texts: list[str] = []
    append = texts.append
    inner = newline + "  "
    for value in values:
        kind = type(value)
        if kind is str:
            append(_encode_str(value))
        elif kind is int:
            append(int.__repr__(value))
        elif kind is float and math.isfinite(value):
            append(float.__repr__(value))
        elif value is None:
            append("null")
        elif kind is bool:
            append("true" if value else "false")
        elif kind is dict:
            items = indented_items(value.values(), inner)
            append("{" + inner + ("," + inner).join(
                [_encode_str(key) + ": " + text for key, text in zip(value, items)]
            ) + newline + "}" if value else "{}")
        elif kind is list or kind is tuple:
            append("[" + inner + ("," + inner).join(indented_items(value, inner)) + newline + "]"
                   if value else "[]")
        else:
            append(json.dumps(value, indent=2, ensure_ascii=False).replace("\n", newline))
    return texts


def json_chunks(document: dict, key: str, render: Callable[[Any], str]) -> Iterator[str]:
    """``indented_json(document)``, newline-terminated, in chunks: one per record of
    ``document[key]``, which ``render`` writes as indented_json would at its place
    in that list; as there, values of other types than it writes itself go to
    json.dumps."""
    yield "{"
    separator = "\n  "
    for name, value in document.items():
        yield separator + _encode_str(name) + ": "
        separator = ",\n  "
        if name != key:
            yield indented_json(value, "\n  ")
        elif not value:
            yield "[]"
        else:
            item = "[\n    "
            for record in value:
                yield item + render(record)
                item = ",\n    "
            yield "\n  ]"
    yield "\n}\n"


def write_whole(path: str | Path, chunks: Iterable[str], mode: int = 0o666) -> None:
    """Write the text ``chunks`` as UTF-8 to ``path`` through a new file beside it (``mode``
    less the umask), renamed over it; on any failure, also one raised while the chunks are
    made, an earlier file stays as it was, and no new one. A lone UTF-16 surrogate, the one
    character UTF-8 cannot hold, is written as its escape ``\\udXXX``, which JSON reads
    back as the same string."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    try:
        with open(fd, "w", encoding="utf-8", errors="backslashreplace", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_snapshot(snapshot: RepoSnapshot, path: str | Path) -> None:
    """Write a snapshot file, one chunk per PR; the output reloads to a structurally equal value."""
    write_whole(path, json_chunks(_snapshot_document(snapshot), "pulls", _pull_text))
