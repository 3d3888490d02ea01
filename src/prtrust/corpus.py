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
from functools import cached_property, partial
from itertools import chain, islice, product
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, NoReturn

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

def _utc_offset(canonical: str) -> str:
    """A canonical timestamp with its "Z" spelled "+00:00", which fromisoformat reads on every Python."""
    return canonical[:-1] + "+00:00"


def _canonical_instant(text: str) -> datetime:
    """The instant of a timestamp in the canonical spelling "YYYY-MM-DDTHH:MM:SSZ" that save_snapshot
    writes, as parse_timestamp's general path reads it; any other text is a ValueError."""
    if not _CANONICAL(text):
        raise ValueError(text)
    return datetime.fromisoformat(_utc_offset(text))


def _canonical_instants(texts: list[str]) -> list[datetime]:
    """``[_canonical_instant(text) for text in texts]``, each step mapped over the list in one
    call; a ValueError when any text is not canonical or names a date that does not exist."""
    if not all(map(_CANONICAL, texts)):
        raise ValueError(texts)
    return list(map(datetime.fromisoformat, map(_utc_offset, texts)))


def parse_timestamp(value: Any, where: str) -> datetime:
    """Parse a timestamp of the module's grammar into an aware UTC datetime (second
    precision); one with no offset, or whose UTC instant leaves years 1-9999, is rejected."""
    if not isinstance(value, str):
        raise SnapshotParseError(f"{where}: timestamp must be a string, got {_typename(value)}")
    try:
        return _canonical_instant(value)
    except ValueError:  # another spelling, or a date that does not exist, which is named below
        pass
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


def _in_utc(value: datetime) -> datetime:
    """An aware datetime at its instant in UTC. A naive one, which only the host's time zone
    could place, or one whose UTC instant leaves years 1-9999, is a SnapshotValidationError."""
    if value.utcoffset() is None:
        raise SnapshotValidationError(f"timestamp {value.isoformat()!r} lacks a UTC offset")
    try:
        return value.astimezone(timezone.utc)
    except OverflowError as exc:
        raise SnapshotValidationError(f"timestamp {value.isoformat()!r} is out of range") from exc


def format_timestamp(value: datetime) -> str:
    """Render an aware datetime as "YYYY-MM-DDTHH:MM:SSZ" (four-digit year); a naive one, or
    one whose UTC instant leaves years 1-9999, is a SnapshotValidationError."""
    if value.tzinfo is not timezone.utc:  # every value parse_timestamp returns skips this
        value = _in_utc(value)
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


def _bool_field(data: dict, key: str, where: str) -> bool:
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise SnapshotParseError(f"{where}: field '{key}' must be a boolean")
    return value


def _string_set(data: dict, key: str, where: str) -> frozenset[str]:
    values = _string_list(data, key, where)
    if len(unique := frozenset(values)) != len(values):
        raise SnapshotValidationError(f"{where}: duplicate value in '{key}'")
    return unique


def _fast_strings(values: list, into: type = tuple) -> Any:
    """``into(values)`` of a list of strings, when it holds as many; else a ValueError."""
    if _ONLY_STR.issuperset(map(type, values)) and len(result := into(values)) == len(values):
        return result
    raise ValueError(values)


def _is_strings(values: Any, container: type) -> bool:
    return isinstance(values, container) and all(isinstance(value, str) for value in values)


def _is_time(value: Any) -> bool:
    """Whether ``value`` is an aware datetime at a whole second of years 1-9999 in UTC, which
    format_timestamp writes as the instant a load reads back (it drops a fraction)."""
    if isinstance(value, datetime) and value.tzinfo is timezone.utc:  # every loaded value
        return not value.microsecond
    try:
        return isinstance(value, datetime) and not _in_utc(value).microsecond
    except SnapshotValidationError:  # naive, or outside years 1-9999 in UTC; _check names which
        return False


_ONLY_STR = frozenset((str,))
_REQUIRED = object()  # the absent value of a field whose key must be present


class _Kind(NamedTuple):
    """How the snapshot format holds a field of one annotation."""

    read: Callable[[dict, str, str], Any]  # the checked reader of data[key], which names any fault
    encode: Callable[[Any], Any] | None  # a value's JSON value; None writes the value itself
    valid: Callable[[Any], bool]  # whether save_snapshot writes a value that loads back equal
    json: tuple[type, ...] = ()  # the exact JSON types of a value that _fast_pulls takes,
    fast: Callable[[Any], Any] | None = None  # and its value of a non-null one (None: itself), or ValueError
    absent: Any = _REQUIRED  # the value an absent key reads as, which is left out when written


def _or_none(kind: _Kind) -> _Kind:
    """The kind of ``X | None`` from X's: an absent key or a null reads as None, which is not written."""
    read = kind.read
    return kind._replace(read=lambda data, key, at: None if data.get(key) is None else read(data, key, at),
                         json=kind.json + (type(None),), absent=None)


_INT = _Kind(_int_field, None, lambda value: isinstance(value, int) and type(value) is not bool, (int,))
_STR = _Kind(_str_field, None, lambda value: isinstance(value, str), (str,))
_TIME = _Kind(_time_field, format_timestamp, _is_time, (str,), _canonical_instant)
_CLOSURE = dict.fromkeys(("closed_count", "accepted_count"), (None, _INT))  # the rows of a pair's object
# Per field annotation, its kind; the event lists' are added below.
_FIELD_KINDS = {
    "int": _INT,
    "str": _STR,
    "str | None": _or_none(_STR),
    "datetime": _TIME,
    "datetime | None": _or_none(_TIME),
    "bool": _Kind(_bool_field, None, lambda value: isinstance(value, bool), absent=False),
    "frozenset[str]": _Kind(_string_set, sorted,
                            lambda value: _is_strings(value, frozenset), (list,),
                            partial(_fast_strings, into=frozenset)),
    "tuple[str, ...]": _Kind(lambda *args: tuple(_string_list(*args)), list,
                             lambda value: _is_strings(value, tuple), (list,), _fast_strings),
    "tuple[int, int] | None": _or_none(_Kind(
        lambda data, key, at: _decode_record(lambda *counts: counts, _CLOSURE, data[key], f"{at}.{key}"),
        lambda counts: dict(zip(_CLOSURE, counts)),
        lambda pair: isinstance(pair, tuple) and len(pair) == 2 and all(map(_INT.valid, pair)))),
}


def _table(cls: type) -> dict[str, tuple[Any, _Kind]]:
    """Field name, which is its JSON key -> (dataclass field, its annotation's kind), for each
    field of ``cls`` in field order."""
    return {f.name: (f, _FIELD_KINDS[f.type]) for f in fields(cls)}


def _decode_record(cls: type, table: dict, data: Any, where: str) -> Any:
    """The ``cls`` of the JSON object ``data``, read by the checked readers, which name any fault."""
    data = _require_dict(data, where)
    _check_keys(data, table, where)
    return cls(*[kind.read(data, key, where) for key, (_, kind) in table.items()])


# Per event class: its table, the position of its one timestamp, the getter of its values
# from an event, and per key in table order, the getter of its value from a JSON object
# and that value's JSON types.
_EVENT_CODECS = {
    cls: (table, [f.type for f, _ in table.values()].index("datetime"), attrgetter(*table),
          [(itemgetter(key), frozenset(kind.json)) for key, (_, kind) in table.items()])
    for cls in (Comment, Review, ReviewRequest, CommitEvent) for table in [_table(cls)]
}
# The event list annotations of PullRequest, and the class of their events.
_EVENT_LISTS = {f"tuple[{cls.__name__}, ...]": cls for cls in _EVENT_CODECS}


def _event_list(cls: type) -> _Kind:
    """The kind of ``tuple[cls, ...]``, a list of events of class ``cls``; _fast_pulls decodes it itself."""
    table = _EVENT_CODECS[cls][0]
    checks = [(attrgetter(name), kind.valid) for name, (_, kind) in table.items()]

    def read(data: dict, key: str, where: str) -> tuple:
        at = f"{where}.{key}"
        return tuple(_decode_record(cls, table, raw, f"{at}[{i}]")
                     for i, raw in enumerate(_require_list(_take(data, key, where), at)))

    def valid(events: Any) -> bool:  # each field's values checked in one pass
        return isinstance(events, tuple) and (not events or {cls}.issuperset(map(type, events)) and all(
            all(map(is_valid, map(get, events))) for get, is_valid in checks))

    return _Kind(read, lambda events: [_encode(event, _EVENT_CODECS[type(event)][0]) for event in events],
                 valid, (list,))


_FIELD_KINDS.update({annotation: _event_list(cls) for annotation, cls in _EVENT_LISTS.items()})
_USER = _table(UserProfile)
_decode_user = partial(_decode_record, UserProfile, _USER)  # (data, where) -> UserProfile
_PR = _table(PullRequest)
_REPO = {k: (f, _FIELD_KINDS[f.type]) for k, f in zip(("owner", "name", "fetched_at"), fields(RepoSnapshot))}

# What _fast_pulls reads a pull request by, from its table: its keys with and without those
# that may be absent, and what those read as; the getter of its values and their JSON types;
# by position, the decoder of each value but an event list; and per event class, the
# positions of its lists, its width, each key's getter and JSON types, and which key is its
# timestamp.
_PR_KEYS = frozenset(_PR)
_PR_ABSENT = {key: kind.absent for key, (_, kind) in _PR.items() if kind.absent is not _REQUIRED}
_OPEN_PR_KEYS = _PR_KEYS - _PR_ABSENT.keys()
_PR_TAKE = itemgetter(*_PR)
_PR_TYPES = frozenset(product(*[kind.json for _, kind in _PR.values()]))
_PR_FAST = tuple((i, kind.fast) for i, (_, kind) in enumerate(_PR.values()) if kind.fast)
_PR_EVENTS = tuple((cls, [i for i, (f, _) in enumerate(_PR.values()) if _EVENT_LISTS.get(f.type) is cls],
                    len(table), readers, stamp)
                   for cls, (table, stamp, _, readers) in _EVENT_CODECS.items())
# The pulls _fast_pulls reads at once: a longer run holds more columns alive at the peak of a
# load for no more speed.
_RUN = 256


def _fast_pulls(raws: list) -> list[PullRequest] | None:
    """The PullRequests of a run of well-formed pulls, read with no checked reader, or None
    when any pull is not; each of them is then read alone, and _decode_pull reads one that
    is still refused or names its fault. Well-formed is as save_snapshot writes: dicts of
    exactly their table's keys (in any order; a PR's nullable ones may be absent), values of
    their exact JSON types, unique labels, and every timestamp in the canonical spelling. A
    date that does not exist, such as "2023-02-29", is refused. A PR's own fields are read
    per PR; each event field is read as one column across the run's events of its class,
    so a run is refused exactly when one of its pulls alone would be."""
    rows = []
    for data in raws:
        if type(data) is not dict or data.keys() not in (_PR_KEYS, _OPEN_PR_KEYS):
            return None
        values = list(_PR_TAKE(data if len(data) == len(_PR) else {**_PR_ABSENT, **data}))
        if tuple(map(type, values)) not in _PR_TYPES:
            return None
        rows.append(values)
    try:
        for values in rows:
            for i, fast in _PR_FAST:
                if values[i] is not None:  # a null, where the field may be null
                    values[i] = fast(values[i])
        for cls, positions, width, readers, stamp in _PR_EVENTS:
            events = list(chain.from_iterable([values[i] for values in rows for i in positions]))
            # exact dicts of the table's width, so that a getter's KeyError is the only way a key can differ
            if not ({dict}.issuperset(map(type, events)) and {width}.issuperset(map(len, events))):
                return None
            columns = [list(map(get, events)) for get, _ in readers]
            if not all(types.issuperset(map(type, column)) for column, (_, types) in zip(columns, readers)):
                return None
            columns[stamp] = _canonical_instants(columns[stamp])
            decoded = map(cls, *columns)
            for values in rows:
                for i in positions:
                    values[i] = tuple(islice(decoded, len(values[i])))
    except (KeyError, ValueError):
        return None
    return [PullRequest(*values) for values in rows]


def _decode_pull(data: Any, index: int) -> PullRequest:
    where = f"pulls[{index}]"
    data = _require_dict(data, where)
    _check_keys(data, _PR, where)
    values = []
    for key, (_, kind) in _PR.items():
        values.append(kind.read(data, key, where))
        where = f"PR {values[0]}"  # the number, read first, names the PR in every later message
    return PullRequest(*values)


def snapshot_from_dict(data: Any) -> RepoSnapshot:
    """Decode and validate a snapshot from its JSON-dict form."""
    data = _require_dict(data, "snapshot")
    _check_keys(data, ("repo", "users", "pulls"), "snapshot")
    repo = _require_dict(_take(data, "repo", "snapshot"), "repo")
    _check_keys(repo, _REPO, "repo")

    users: dict[str, UserProfile] = {}
    for i, raw in enumerate(_require_list(_take(data, "users", "snapshot"), "users")):
        profile = _decode_user(raw, f"users[{i}]")
        if profile.login in users:
            raise SnapshotValidationError(f"users[{i}]: duplicate login '{profile.login}'")
        users[profile.login] = profile

    raws = _require_list(_take(data, "pulls", "snapshot"), "pulls")
    pulls: list[PullRequest] = []
    for start in range(0, len(raws), _RUN):
        run = raws[start:start + _RUN]
        # a refused run is read pull by pull, so that only a refused pull takes the checked path
        pulls += _fast_pulls(run) or [(_fast_pulls([raw]) or [_decode_pull(raw, i)])[0]
                                      for i, raw in enumerate(run, start)]

    snapshot = RepoSnapshot(*[kind.read(repo, key, "repo") for key, (_, kind) in _REPO.items()],
                            pulls=tuple(pulls), users=users)
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
    except ValueError as exc:  # also an integer past the interpreter's digit limit
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

def _encode(record: Any, table: dict) -> dict:
    """The JSON-dict form of ``record``'s fields in ``table``; one at its absent value is left out."""
    values = ((key, kind, getattr(record, f.name)) for key, (f, kind) in table.items())
    return {key: value if kind.encode is None else kind.encode(value)
            for key, kind, value in values if value is not kind.absent}


def record_template(keys: Iterable[str], newline: str) -> str:
    """An object of ``keys`` as indented_json writes it at ``newline``, with each key's % escaped
    and a %s for its value; a key that is not a str raises the encoder's TypeError."""
    inner = newline + "  "
    items = [_encode_str(key).replace("%", "%%") + ": %s" for key in keys]
    return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"


# An event as indented_json writes it in a saved PR's event list: per class, its template,
# its getter, its timestamp's position and its width.
_EVENT_SEPARATOR = ",\n        "
_EVENT_TEMPLATES = {cls: (record_template(table, "\n        "), get, stamp, len(table))
                    for cls, (table, stamp, get, _) in _EVENT_CODECS.items()}
_PR_HEAD = {key: row for key, row in _PR.items() if row[0].type not in _EVENT_LISTS}  # before the events


def _event_items(events: tuple) -> str:
    """The items of a non-empty event list of one class as indented_json writes them in a
    saved PR: all values encoded in one call and filled into the class's template in one."""
    template, get, stamp, width = _EVENT_TEMPLATES[type(events[0])]
    values = [value for event in events for value in get(event)]
    values[stamp::width] = map(format_timestamp, values[stamp::width])
    return _EVENT_SEPARATOR.join([template] * len(events)) % tuple(indented_items(values, "\n          "))


def _pull_text(pr: PullRequest) -> str:
    """``indented_json(_encode(pr, _PR), "\\n    ")``, each event list written by _event_items."""
    head = _encode(pr, _PR_HEAD)
    texts = indented_items(head.values(), "\n      ")
    parts = [_encode_str(key) + ": " + text for key, text in zip(head, texts)]
    for key in [key for key in _PR if key not in _PR_HEAD]:
        events = getattr(pr, key)
        parts.append(f'"{key}": ' + ("[\n        " + _event_items(events) + "\n      ]" if events else "[]"))
    return "{\n      " + ",\n      ".join(parts) + "\n    }"


def _snapshot_document(snapshot: RepoSnapshot) -> dict:
    """The snapshot's JSON-dict form, with its PullRequests themselves under "pulls"."""
    users = [_encode(snapshot.users[login], _USER) for login in sorted(snapshot.users)]
    return {"repo": _encode(snapshot, _REPO), "users": users, "pulls": snapshot.pulls}


def snapshot_to_dict(snapshot: RepoSnapshot) -> dict:
    """Encode a snapshot into its JSON-dict form (users sorted by login)."""
    document = _snapshot_document(snapshot)
    document["pulls"] = [_encode(pr, _PR) for pr in snapshot.pulls]
    return document


def _check(record: Any, cls: type, table: dict, where: str) -> None:
    """Raise a SnapshotValidationError naming the first value of ``record``, a ``cls``, that
    save_snapshot would not write as a load reads it back, such as an event of another class."""
    if type(record) is not cls:
        raise SnapshotValidationError(f"{where}: expected a {cls.__name__}, got {_typename(record)}")
    for key, (f, kind) in table.items():
        value = getattr(record, f.name)
        if value is not kind.absent and not kind.valid(value):
            if f.type in _EVENT_LISTS and isinstance(value, tuple):  # name the event at fault
                event_cls = _EVENT_LISTS[f.type]
                for i, event in enumerate(value):
                    _check(event, event_cls, _EVENT_CODECS[event_cls][0], f"{where}.{key}[{i}]")
            if kind.valid is _is_time and isinstance(value, datetime):
                try:
                    _in_utc(value)
                except SnapshotValidationError as exc:
                    raise SnapshotValidationError(f"{where}: field '{key}': {exc}") from exc
                raise SnapshotValidationError(f"{where}: field '{key}' must be a whole second in UTC, "
                                              f"got {value.isoformat()}")
            raise SnapshotValidationError(f"{where}: field '{key}' must be {f.type}, got {_typename(value)}")


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
            items = indented_items(value.values(), inner) if value else ()
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
    """Write a snapshot file, one chunk per PR, which loads to an equal snapshot. One that
    holds a value not of its field's type or fails ``validate`` is a SnapshotValidationError,
    and no file is written."""
    _check(snapshot, RepoSnapshot, _REPO, "repo")
    for login, profile in snapshot.users.items():
        _check(profile, UserProfile, _USER, f"user '{login}'")
    for i, pr in enumerate(snapshot.pulls):
        _check(pr, PullRequest, _PR, f"PR {pr.number}" if type(pr) is PullRequest else f"pulls[{i}]")
    validate(snapshot)
    write_whole(path, json_chunks(_snapshot_document(snapshot), "pulls", _pull_text))
