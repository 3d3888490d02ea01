"""Shared fixture builders.

All builders produce raw snapshot dicts in the on-disk JSON shape so the
same data can feed both the package loader and the independent oracle
recomputation in tests/oracle.py.
"""

from __future__ import annotations

import copy
import gc
import os
from datetime import datetime, timedelta, timezone

import pytest

BASE = datetime(2022, 1, 1, tzinfo=timezone.utc)
FETCHED = "2022-03-01T00:00:00Z"


def iso(days: float = 0, hours: float = 0, minutes: float = 0) -> str:
    at = BASE + timedelta(days=days, hours=hours, minutes=minutes)
    return at.strftime("%Y-%m-%dT%H:%M:%SZ")


def comment(cid: int, author: str, at: str, body: str = "thanks for the details") -> dict:
    return {"id": cid, "author": author, "created_at": at, "body": body}


def review(rid: int, author: str, at: str, verdict: str = "approved", body: str = "") -> dict:
    return {"id": rid, "author": author, "submitted_at": at, "verdict": verdict, "body": body}


def commit(sha: str, author: str, at: str) -> dict:
    return {"sha": sha, "author": author, "committed_at": at}


def request(login: str, at: str) -> dict:
    return {"requestee": login, "requested_at": at}


def user(
    login: str,
    followers: int = 0,
    orgs: tuple[str, ...] = (),
    permission: str = "read",
    closure: tuple[int, int] | None = None,
    unknown: bool = False,
) -> dict:
    out = {
        "login": login,
        "followers": followers,
        "orgs": list(orgs),
        "permission": permission,
    }
    if closure is not None:
        out["closure_history"] = {"closed_count": closure[0], "accepted_count": closure[1]}
    if unknown:
        out["permission_unknown"] = True
    return out


def pull(
    number: int,
    author: str,
    state: str = "merged",
    created: str = iso(0),
    closed: str | None = None,
    closer: str | None = None,
    labels: list | None = None,
    files: list | None = None,
    kind: str | None = None,
    commits: list | None = None,
    issue_comments: list | None = None,
    review_comments: list | None = None,
    reviews: list | None = None,
    review_requests: list | None = None,
) -> dict:
    files = files if files is not None else ["src/core.py"]
    out = {
        "number": number,
        "author": author,
        "state": state,
        "created_at": created,
        "labels": labels or [],
        "contribution_kind": kind if kind is not None else _classify(files),
        "files": files,
        "commits": commits or [],
        "issue_comments": issue_comments or [],
        "review_comments": review_comments or [],
        "reviews": reviews or [],
        "review_requests": review_requests or [],
    }
    if state != "open":
        out["closed_at"] = closed if closed is not None else iso(days=2)
        out["closer"] = closer if closer is not None else "maintainer"
    return out


def _classify(files: list) -> str:
    def is_doc(path: str) -> bool:
        lowered = path.lower()
        if lowered.endswith((".md", ".rst", ".txt", ".adoc")):
            return True
        return any(seg in ("docs", "doc") for seg in lowered.split("/"))

    flags = [is_doc(f) for f in files]
    if not flags or not any(flags):
        return "code"
    return "documentation" if all(flags) else "mixed"


def snapshot(pulls: list, users: list, owner: str = "acme", name: str = "widget",
             fetched: str = FETCHED) -> dict:
    return {
        "repo": {"owner": owner, "name": name, "fetched_at": fetched},
        "users": users,
        "pulls": pulls,
    }


# ---------------------------------------------------------------------------
# Rich 25-PR corpus: exercises every metric path
# ---------------------------------------------------------------------------

RICH_AUTHORS = ("alice", "bob", "erin", "frank", "dan")

VOUCH_PR = 17
VOUCH_BODY = "Bob is a new member of our team, we already reviewed his work :)"


def rich_snapshot_dict() -> dict:
    users = [
        user("alice", followers=99, orgs=("acme", "oss-guild")),
        user("bob", followers=3),
        user("erin", followers=25, orgs=("acme",), unknown=True),
        user("frank", followers=7, permission="none"),
        user("dan", followers=0, orgs=("oss-guild",), closure=(99, 10)),
        user("maintainer", followers=150, orgs=("acme",), permission="admin"),
        user("grace", followers=40, orgs=("oss-guild",), permission="write"),
        user("carol", followers=1200, orgs=("acme",), permission="write", closure=(272, 272)),
        user("ci-robot[bot]", permission="none"),
    ]

    pulls = []
    for i in range(1, 26):
        author = RICH_AUTHORS[(i - 1) % 5]
        day = i - 1
        if i in (8, 16, 24):
            state = "open"
        elif i % 3 == 0:
            state = "closed_unmerged"
        else:
            state = "merged"
        duration = 1 + (i % 3)
        closer = None
        if state != "open":
            closer = "dan" if i == 5 else ("carol" if i % 2 == 0 else "maintainer")

        issue_comments = [
            comment(i * 1000 + k, "maintainer" if k % 2 == 0 else author,
                    iso(days=day, hours=k + 1))
            for k in range(i % 4)
        ]
        if i % 9 == 0:
            issue_comments.append(
                comment(i * 1000 + 90, "ci-robot[bot]", iso(days=day, minutes=15),
                        body="build passed")
            )
        if i == VOUCH_PR:
            issue_comments.append(
                comment(i * 1000 + 99, "maintainer", iso(days=day, hours=2, minutes=30),
                        body=VOUCH_BODY)
            )

        review_comments = [
            comment(i * 1000 + 500 + k, "grace", iso(days=day, hours=k + 2, minutes=30),
                    body="nit: rename this")
            for k in range((i + 1) % 3)
        ]

        reviews = []
        if i % 2 == 0:
            reviews.append(review(i * 1000 + 900, "maintainer", iso(days=day, hours=5),
                                  verdict="approved", body="looks good to me"))
        if i % 5 == 0:
            reviews.append(review(i * 1000 + 901, "grace", iso(days=day, hours=3),
                                  verdict="changes_requested", body="please fix the tests"))
        if i % 7 == 0:
            reviews.append(review(i * 1000 + 902, "carol", iso(days=day, hours=6),
                                  verdict="approved", body=""))

        commits = [commit(f"{i:02x}" + "a" * 38, author, iso(days=day))]
        if i % 4 != 1:
            commits.append(commit(f"{i:02x}" + "b" * 38, author, iso(days=day, hours=10)))

        review_requests = []
        if i % 3 == 0 or i % 4 == 0:
            review_requests.append(request("grace", iso(days=day, minutes=30)))
        if i % 6 == 0:
            review_requests.append(request("maintainer", iso(days=day, minutes=45)))

        pulls.append(
            pull(
                number=i,
                author=author,
                state=state,
                created=iso(days=day),
                closed=iso(days=day + duration) if state != "open" else None,
                closer=closer,
                labels=["bug"] if i % 2 else ["enhancement"],
                files=["docs/guide.md"] if i % 10 == 0 else ["src/core.py", "README.md"],
                commits=commits,
                issue_comments=issue_comments,
                review_comments=review_comments,
                reviews=reviews,
                review_requests=review_requests,
            )
        )

    return snapshot(pulls, users)


# ---------------------------------------------------------------------------
# 100-PR corpus shaped like the target summary statistics
# ---------------------------------------------------------------------------

def summary_target_dict() -> dict:
    """75 accepted PRs averaging 4 comments/day and 25 rejected averaging
    1.25; 66+9 with post-feedback commits; 32+3 with review responses."""
    users = [user(f"author{i}") for i in range(1, 101)]
    users += [user("rev1"), user("boss", permission="admin")]

    pulls = []
    for i in range(1, 101):
        accepted = i <= 75
        author = f"author{i}"
        n_comments = 8 if accepted else 5
        duration = 2 if accepted else 4
        with_commit_after_feedback = (i <= 66) if accepted else (76 <= i <= 84)
        with_response = (i <= 32) if accepted else (76 <= i <= 78)

        comments = [
            comment(i * 1000 + k, "rev1" if k % 2 == 0 else author, iso(hours=k + 1))
            for k in range(n_comments)
        ]
        commits = [
            commit(f"{i:03x}" + "c" * 37, author,
                   iso(hours=12) if with_commit_after_feedback else iso(0))
        ]
        review_requests = [request("rev1", iso(minutes=30))] if with_response else []

        pulls.append(
            pull(
                number=i,
                author=author,
                state="merged" if accepted else "closed_unmerged",
                created=iso(0),
                closed=iso(days=duration),
                closer="boss",
                commits=commits,
                issue_comments=comments,
                review_requests=review_requests,
            )
        )
    return snapshot(pulls, users)


# ---------------------------------------------------------------------------
# Minimal 40-PR corpus for sampling tests
# ---------------------------------------------------------------------------

def sampling_dict(accepted: int = 28, rejected: int = 12) -> dict:
    users = [user("dev"), user("boss", permission="admin")]
    pulls = []
    for i in range(1, accepted + rejected + 1):
        state = "merged" if i <= accepted else "closed_unmerged"
        pulls.append(
            pull(number=i, author="dev", state=state, created=iso(0),
                 closed=iso(days=1), closer="boss")
        )
    return snapshot(pulls, users)


# Values that replace one JSON field in the mutation fuzzers.
MUTANTS = (None, "x", 7, [], {}, "\ud83d")  # the last, a lone surrogate, loads but is not UTF-8
# A JSON integer past Python's default limit on integer string conversion (4,300 digits),
# which json.loads rejects with a plain ValueError.
HUGE_INTEGER = "1" * 5000


def umask() -> int:
    """The process's file mode creation mask."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def json_paths(node, prefix: tuple = ()):
    """Yield the path of every value in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


def replace_at(root, path: tuple, value) -> None:
    """Set the value at a non-empty ``path`` inside ``root`` to a copy of ``value``."""
    for key in path[:-1]:
        root = root[key]
    root[path[-1]] = copy.deepcopy(value)



def report_dict(bundle) -> dict:
    """The JSON report's dict form, as it was built before the report was streamed."""
    from dataclasses import asdict

    from prtrust import DIMENSIONS
    from prtrust.corpus import format_timestamp

    return {
        "version": bundle.version,
        "repo": {
            "owner": bundle.repo_owner,
            "name": bundle.repo_name,
            "fetched_at": format_timestamp(bundle.fetched_at),
        },
        "config": bundle.config,
        "profiles": [
            {
                "pr_number": profile.pr_number,
                "outcome": profile.outcome,
                "overall": profile.overall,
                "coverage": profile.coverage,
                "dimensions": {
                    d: {
                        "available": profile.scores[d].available,
                        "score": profile.scores[d].score,
                        "evidence": profile.scores[d].evidence,
                    }
                    for d in DIMENSIONS
                },
            }
            for profile in bundle.profiles
        ],
        "summary": asdict(bundle.summary),
    }

@pytest.fixture
def rich_dict() -> dict:
    return rich_snapshot_dict()


@pytest.fixture
def rich_snapshot():
    from prtrust import snapshot_from_dict

    return snapshot_from_dict(rich_snapshot_dict())


@pytest.fixture
def collector():
    """Set the cyclic collector on or off for a test; it is put back as it was after."""
    was_enabled = gc.isenabled()

    def set_enabled(enabled: bool) -> None:
        (gc.enable if enabled else gc.disable)()

    yield set_enabled
    set_enabled(was_enabled)
