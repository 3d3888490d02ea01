"""Per-PR scores for the six interpersonal-trust dimensions.

Each metric is a pure function of an immutable snapshot and returns a
DimensionScore: raw evidence plus a normalized value in [0, 1], or None
("not available") when the PR carries no usable signal for that
dimension. Per-PR scoring is reentrant and may run concurrently.

Bot accounts (logins ending in "[bot]") are excluded from comment and
counterparty counts by default; pass exclude_bots=False to keep them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime
from importlib import resources
from functools import cached_property, reduce
from itertools import accumulate
from math import inf, log10
from operator import add
from pathlib import Path
from typing import Any, Iterable, Sequence

from .corpus import PullRequest, RepoSnapshot, Review, discussion
from .errors import ConfigError, UnknownLoginError

DIMENSIONS = (
    "action",
    "commitment",
    "competence",
    "institutional",
    "personality",
    "transferred",
)

DEFAULT_F_CAP = 4.0
DEFAULT_COMPETENCE_WINDOW = 1000

_BOT_SUFFIX = "[bot]"
_POSSESSIVES = ("his", "her", "their")
_NO_RECORD = ((), (0,))   # PullHistory.authored entry of a login with no decided PRs


@dataclass(frozen=True)
class DimensionScore:
    """One trust dimension's normalized score and evidence for one PR.

    ``score`` is in [0, 1], or None when the dimension is not available;
    ``evidence`` is a JSON-safe record whose keys are dimension-specific.
    """

    score: float | None
    evidence: dict[str, Any]

    @property
    def available(self) -> bool:
        """Whether the PR carries a usable signal for this dimension."""
        return self.score is not None


def left_sum(values: Iterable[float]) -> float:
    """Plain left-to-right addition: from Python 3.12 ``sum`` compensates float
    rounding, which would move the last digits of reported scores."""
    return reduce(add, values, 0)


def _ignored(login: str, exclude_bots: bool) -> bool:
    """Whether ``login`` is a bot account that the metric leaves out."""
    return exclude_bots and login.endswith(_BOT_SUFFIX)


def _profile(snapshot: RepoSnapshot, login: str):
    try:
        return snapshot.users[login]
    except KeyError:
        raise UnknownLoginError(f"login '{login}' does not resolve in the snapshot") from None


# ---------------------------------------------------------------------------
# Action-based trust: fast, frequent feedback and responsive revision
# ---------------------------------------------------------------------------

def action_score(
    pr: PullRequest,
    snapshot: RepoSnapshot,
    *,
    f_cap: float = DEFAULT_F_CAP,
    exclude_bots: bool = True,
) -> DimensionScore:
    """Score comment frequency and post-feedback revision activity.

    comment_count counts issue comments, review comments, and reviews with
    a non-empty body (empty-body approvals are reviews, not comments).
    frequency = comment_count / active_days where active_days spans
    creation to close (or to the fetch instant for open PRs), rounded up
    to whole days with a one-day floor. revision_commits counts commits
    strictly after the earliest non-author comment or review (a review
    with an empty body counts here).

    score = 0.5 * min(frequency / f_cap, 1) + 0.5 * [revision_commits > 0].
    Always available.
    """
    if not 0 < f_cap < inf:
        raise ConfigError(f"f_cap must be positive and finite, got {f_cap}")

    events = [e for e in discussion(pr) if not _ignored(e.author, exclude_bots)]
    comments = [e for e in events if e.body or not isinstance(e, Review)]
    comment_count = len(comments)
    non_author_count = sum(1 for c in comments if c.author != pr.author)

    end = pr.closed_at if pr.closed_at is not None else snapshot.fetched_at
    elapsed = int((end - pr.created_at).total_seconds())
    active_days = max(1, -(-elapsed // 86400))
    frequency = comment_count / active_days

    feedback_at = min((e.created_at for e in events if e.author != pr.author), default=None)
    revision_commits = 0
    if feedback_at is not None:
        revision_commits = sum(1 for c in pr.commits if c.committed_at > feedback_at)

    score = 0.5 * min(frequency / f_cap, 1.0) + 0.5 * (1.0 if revision_commits > 0 else 0.0)
    return DimensionScore(
        score=score,
        evidence={
            "comment_count": comment_count,
            "non_author_comment_count": non_author_count,
            "active_days": active_days,
            "frequency": frequency,
            "revision_commits": revision_commits,
        },
    )


# ---------------------------------------------------------------------------
# Commitment trust: responding to review requests, addressing feedback
# ---------------------------------------------------------------------------

def commitment_score(pr: PullRequest) -> DimensionScore:
    """Score how review requests were answered and change requests addressed.

    A requestee responded when they authored any review or comment at or
    after their (earliest) request time. author_addressed holds when every
    changes_requested review is followed by at least one author commit.

    score blends the response ratio (weight 0.7, present when anyone was
    requested) with author_addressed (weight 0.3, present when any
    changes_requested review exists), renormalized over present parts.
    Unavailable when neither signal applies.
    """
    requested_at: dict[str, datetime] = {}
    for request in pr.review_requests:
        seen = requested_at.get(request.requestee)
        if seen is None or request.requested_at < seen:
            requested_at[request.requestee] = request.requested_at

    responded = {
        e.author for e in discussion(pr)
        if e.author in requested_at and e.created_at >= requested_at[e.author]
    }
    change_requests = [r for r in pr.reviews if r.verdict == "changes_requested"]
    author_addressed = all(
        any(c.author == pr.author and c.committed_at > review.submitted_at for c in pr.commits)
        for review in change_requests
    )

    evidence = {
        "requested": len(requested_at),
        "responded": len(responded),
        "any_response": len(responded) >= 1,
        "author_addressed": author_addressed,
    }
    if not requested_at and not change_requests:
        return DimensionScore(None, evidence)

    weighted: list[tuple[float, float]] = []
    if requested_at:
        weighted.append((0.7, len(responded) / len(requested_at)))
    if change_requests:
        weighted.append((0.3, 1.0 if author_addressed else 0.0))
    score = left_sum(w * v for w, v in weighted) / left_sum(w for w, _ in weighted)
    return DimensionScore(score, evidence)


# ---------------------------------------------------------------------------
# Competence trust: track record, following, repository role
# ---------------------------------------------------------------------------

def competence_score(
    pr: PullRequest,
    snapshot: RepoSnapshot,
    window: int = DEFAULT_COMPETENCE_WINDOW,
) -> DimensionScore:
    """Score the author's prior record, follower count, and write access.

    Prior PRs are the author's decided (merged or closed-unmerged) PRs
    among the ``window`` most recent repo PRs numbered below this one.
    Components, each in [0, 1] and skipped when absent:

        c_hist   = prior_accepted / prior_pr_count   (absent with no priors)
        c_follow = min(log10(1 + followers) / 3, 1)
        c_perm   = 1 if permission is write/admin    (absent when unknown)

    score = mean of present components.
    """
    if window < 1:
        raise ConfigError(f"competence window must be >= 1, got {window}")

    prior_count, prior_accepted = _track_record(snapshot, pr.author, pr.number, window)

    profile = _profile(snapshot, pr.author)
    c_hist = prior_accepted / prior_count if prior_count else None
    c_follow = min(log10(1 + profile.followers) / 3.0, 1.0)
    has_write = _has_write(profile)
    c_perm = None if has_write is None else float(has_write)

    components = [c for c in (c_hist, c_follow, c_perm) if c is not None]
    return DimensionScore(
        score=left_sum(components) / len(components) if components else None,
        evidence={
            "prior_pr_count": prior_count,
            "prior_accepted": prior_accepted,
            "prior_acceptance_rate": c_hist,
            "followers": profile.followers,
            "has_write": has_write,
        },
    )


def _track_record(
    snapshot: RepoSnapshot, login: str, before: int, window: int | None = None
) -> tuple[int, int]:
    """(decided, merged) counts of the user's PRs numbered below ``before``.

    A ``window`` limits them to the ``window`` most recent repo PRs below it.
    """
    history = snapshot.history
    end = bisect_left(history.numbers, before)
    start = 0 if window is None else max(0, end - window)
    positions, merged = history.authored.get(login, _NO_RECORD)
    first, last = bisect_left(positions, start), bisect_left(positions, end)
    return last - first, merged[last] - merged[first]


def _has_write(profile) -> bool | None:
    """Whether the user holds write or admin permission; None when unknown."""
    if profile.permission_unknown:
        return None
    return profile.permission in ("write", "admin")


# ---------------------------------------------------------------------------
# Institutional trust: shared organization membership
# ---------------------------------------------------------------------------

def institutional_score(
    pr: PullRequest,
    snapshot: RepoSnapshot,
    *,
    exclude_bots: bool = True,
) -> DimensionScore:
    """Score the org overlap between the author and their counterparties.

    Counterparties are the distinct non-author users who commented,
    reviewed, or closed the PR. Unavailable when there are none or when
    the author lists no organizations; otherwise the fraction whose org
    set intersects the author's.
    """
    participants = {e.author for e in discussion(pr)}
    if pr.closer is not None:
        participants.add(pr.closer)
    counterparties = sorted(
        login
        for login in participants
        if login != pr.author and not _ignored(login, exclude_bots)
    )

    author_orgs = _profile(snapshot, pr.author).orgs
    shared_logins = [
        login for login in counterparties if _profile(snapshot, login).orgs & author_orgs
    ]
    evidence = {
        "counterparties": len(counterparties),
        "shared": len(shared_logins),
        "shared_logins": shared_logins,
    }
    if not counterparties or not author_orgs:
        return DimensionScore(None, evidence)
    return DimensionScore(len(shared_logins) / len(counterparties), evidence)


# ---------------------------------------------------------------------------
# Personality-based trust: the closer's propensity to accept
# ---------------------------------------------------------------------------

def personality_propensity(login: str, snapshot: RepoSnapshot) -> tuple[float | None, str]:
    """Fraction of PRs this user closed that were accepted, or None, and its source.

    Uses the profile's closure_history when present (source
    "closure_history"); otherwise counts the PRs in this snapshot closed
    by the user, whatever their number (source "snapshot"): a PR's own
    outcome, and those of PRs closed after it, count towards the
    propensity it is scored with. Absent when they closed nothing.
    """
    profile = _profile(snapshot, login)
    if profile.closure_history is not None:
        (closed, accepted), source = profile.closure_history, "closure_history"
    else:
        (closed, accepted), source = snapshot.history.closed.get(login, (0, 0)), "snapshot"
    return (accepted / closed if closed else None), source


def personality_score(pr: PullRequest, snapshot: RepoSnapshot) -> DimensionScore:
    """Score the closer's acceptance propensity, falling back to reviewers.

    The score is the closer's propensity when defined, else the maximum
    defined propensity among the PR's reviewers; unavailable when neither
    exists. Evidence records which source (closure_history or snapshot
    closure counts) produced each propensity.
    """
    sources: dict[str, str] = {}
    closer_propensity: float | None = None
    if pr.closer is not None:
        closer_propensity, source = personality_propensity(pr.closer, snapshot)
        sources[pr.closer] = source

    reviewer_propensities: dict[str, float | None] = {}
    for login in sorted({r.author for r in pr.reviews}):
        propensity, source = personality_propensity(login, snapshot)
        reviewer_propensities[login] = propensity
        sources[login] = source

    evidence = {
        "closer": pr.closer,
        "closer_propensity": closer_propensity,
        "reviewer_propensities": reviewer_propensities,
        "propensity_sources": sources,
    }
    if closer_propensity is not None:
        return DimensionScore(closer_propensity, evidence)
    defined = [p for p in reviewer_propensities.values() if p is not None]
    return DimensionScore(max(defined) if defined else None, evidence)


# ---------------------------------------------------------------------------
# Transferred trust: established members vouching for the author
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VouchLexicon:
    """Ordered, case-insensitive phrase patterns that suggest a vouch.

    Pattern syntax: plain substring match on lower-cased text, with at
    most one ``*`` wildcard matching any (possibly empty) run of
    characters. Matching is leftmost and minimal: the head of the pattern
    is located first, then the tail at the earliest position after it.
    No regular-expression engine is involved.
    """

    patterns: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ConfigError("vouch lexicon must contain at least one pattern")
        for pattern in self.patterns:
            if not pattern:
                raise ConfigError("vouch lexicon patterns must be non-empty")
            if pattern.count("*") > 1:
                raise ConfigError(
                    f"vouch pattern {pattern!r} uses more than one '*' wildcard"
                )

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "VouchLexicon":
        """Build a lexicon from file lines; blank lines and # comments skipped."""
        patterns = []
        for line in lines:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                patterns.append(stripped)
        return cls(tuple(patterns))

    @classmethod
    def from_file(cls, path: str | Path) -> "VouchLexicon":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read lexicon file {path}: {exc}") from exc
        return cls.from_lines(text.splitlines())

    @cached_property
    def _lowered(self) -> tuple[str, ...]:
        return tuple(pattern.lower() for pattern in self.patterns)

    @cached_property
    def _heads(self) -> frozenset[str]:
        """The distinct lowered pattern heads: the text before any ``*``."""
        return frozenset(pattern.partition("*")[0] for pattern in self._lowered)

    def find(self, text: str) -> tuple[str, int, int] | None:
        """Return (pattern, start, end) for the first matching pattern.

        Offsets index the lower-cased text; patterns are tried in order.
        """
        lowered = text.lower()
        for pattern, lowered_pattern in zip(self.patterns, self._lowered):
            span = _match_pattern(lowered_pattern, lowered)
            if span is not None:
                return pattern, span[0], span[1]
        return None

    def find_each(self, texts: Sequence[str]) -> list[tuple[str, int, int] | None]:
        """``[self.find(text) for text in texts]``, with one scan per pattern head.

        A text cannot match unless it holds the head (the part before any
        ``*``) of some pattern, so each distinct head is searched once in
        the lowered texts joined by NUL, and only the texts it occurs in go
        through ``find``. An occurrence that runs across a separator only
        adds a candidate. An empty head occurs at the start of every text. The
        distinct heads are computed once per lexicon.
        """
        if not texts:
            return []
        # lowered one by one: lowering can change a text's length and depends on its context
        lowered = [text.lower() for text in texts]
        starts = list(accumulate((len(text) + 1 for text in lowered), initial=0))
        joined = "\0".join(lowered)
        candidates = set()
        for head in self._heads:
            at = joined.find(head)
            while at >= 0:
                index = bisect_right(starts, at) - 1
                candidates.add(index)
                at = joined.find(head, starts[index + 1])  # resume at the next text
        return [self.find(text) if i in candidates else None for i, text in enumerate(texts)]


def _match_pattern(pattern: str, text: str) -> tuple[int, int] | None:
    head, _, tail = pattern.partition("*")
    start = text.find(head)
    if start < 0:
        return None
    if not tail:
        return (start, start + len(head))
    rest = text.find(tail, start + len(head))
    if rest < 0:
        return None
    return (start, rest + len(tail))


def default_lexicon() -> VouchLexicon:
    """The lexicon shipped with the package (see data/default_lexicon.txt)."""
    text = resources.files("prtrust").joinpath("data/default_lexicon.txt").read_text("utf-8")
    return VouchLexicon.from_lines(text.splitlines())


def transferred_detect(
    pr: PullRequest,
    snapshot: RepoSnapshot,
    lexicon: VouchLexicon,
) -> DimensionScore:
    """Detect comments where an established member vouches for the author.

    A vouch is a comment or review body that (a) is not by the PR author,
    (b) matches a lexicon pattern, (c) references the author by @mention,
    login substring, or a third-person possessive inside the matched span,
    and (d) comes from an established member: write/admin permission, or
    at least 5 prior decided PRs with an acceptance rate of at least 0.5.

    Always available; score is 1 when any vouch exists, else 0. The
    evidence is flagged low-confidence: this is a phrase heuristic, not
    language understanding.

    The lexicon reads only the bodies whose author could vouch: (d) is
    decided once per distinct commenter, before any matching. A login
    missing from ``snapshot.users`` stays in and raises UnknownLoginError
    once one of its bodies matches and references the author, and only then.
    """
    events = [e for e in discussion(pr) if e.author != pr.author and e.body]
    vouchers = {
        login for login in {e.author for e in events}
        if login not in snapshot.users or _is_established(login, pr, snapshot)
    }
    events = [e for e in events if e.author in vouchers]
    vouches: list[dict[str, Any]] = []
    for event, hit in zip(events, lexicon.find_each([e.body for e in events])):
        if hit is None:
            continue
        pattern, start, end = hit
        if not _references_author(event.body, (start, end), pr.author):
            continue
        _profile(snapshot, event.author)  # a voucher missing from the snapshot raises here
        vouches.append({"comment_id": event.id, "pattern": pattern, "voucher": event.author})

    return DimensionScore(
        score=1.0 if vouches else 0.0,
        evidence={"vouches": vouches, "low_confidence": True},
    )


def _references_author(body: str, span: tuple[int, int], author: str) -> bool:
    lowered = body.lower()
    login = author.lower()
    if login in lowered:  # an @mention holds the login too
        return True
    matched = lowered[span[0]:span[1]]
    words = "".join(c if c.isalpha() else " " for c in matched).split()
    return any(word in _POSSESSIVES for word in words)


def _is_established(login: str, pr: PullRequest, snapshot: RepoSnapshot) -> bool:
    if _has_write(_profile(snapshot, login)):
        return True
    decided, merged = _track_record(snapshot, login, pr.number)
    return decided >= 5 and merged / decided >= 0.5
