"""Seeded synthetic inputs for the benchmark workloads.

Each builder returns a ``Workload``: the snapshot the program reads (in its
JSON-dict form, written out by the benchmark itself), the optional config
and lexicon files, and the fetch scope served by the offline fake GitHub.
Nothing here imports ``prtrust``: the program only ever sees the files and
the fake's responses.

``scale`` shrinks every size for the smoke mode; 1.0 is the benchmark size.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

BASE_EPOCH = 1546300800          # 2019-01-01T00:00:00Z
DAY = 86400
GHOST = "ghost"                  # a deleted account: the fake answers 404 for it

WORDS = (
    "patch build test module fix refactor config release merge branch rebase "
    "commit review docs api cache thread lock schema parser token error retry "
    "client server index query plan runtime memory buffer stream queue worker "
    "scheduler executor handler logger metric trace span layer codec format "
    "please could you update this before we merge looks good to me nice work "
    "thanks for the change I think we should also consider another approach "
    "maybe split into two smaller changes the tests fail on my machine again"
).split()

DEFAULT_VOUCH = (
    "i can vouch for @{login}",
    "@{login} is a new member of our team",
    "I already reviewed @{login}'s work on the parser",
    "i recommend @{login} and this change",
    "@{login} works with me",
)

# A custom lexicon of 39 patterns for long-threads; its vouch comments use
# only the last five, so every body is tried against the other 34 first.
CUSTOM_PATTERNS = tuple(
    f"{verb} {noun}"
    for verb in ("happy to sponsor", "glad to back", "proud to endorse", "willing to mentor",
                 "trusted by", "known to", "vetted by", "cleared by")
    for noun in ("the contributor", "this newcomer", "the author")
    ) + (
    "longtime collaborator", "core contributor", "signed off on *", "stands behind *",
    "i sponsor", "i mentored * on", "committer sponsor", "our shepherd",
    "has my trust", "we trust",
    "i can personally vouch", "i mentored * before", "i endorse", "worked closely with me",
    "i trust * work",
)
CUSTOM_VOUCH = (
    "i can personally vouch for @{login}",
    "i mentored @{login} before on the scheduler",
    "i endorse @{login} here",
    "@{login} worked closely with me last year",
    "i trust their work on this module",
)
CUSTOM_WEIGHTS = {
    "action": 0.10, "commitment": 0.15, "competence": 0.30,
    "institutional": 0.05, "personality": 0.25, "transferred": 0.15,
}


@dataclass
class Workload:
    """Generated inputs of one workload run."""

    name: str
    snapshot: dict
    fetch_max_pulls: int
    config_text: str | None = None        # with ``{lexicon}`` for the lexicon file's path
    patterns: tuple[str, ...] = ()          # the custom lexicon, when config_text names one
    weights: dict[str, float] = field(default_factory=dict)
    unreadable: frozenset[str] = frozenset()   # permission endpoint answers 403


def iso(t: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def _body(rng: random.Random, words: int) -> str:
    return " ".join(rng.choices(WORDS, k=words))


def _user(login, followers, orgs, permission, closure=None, unknown=False) -> dict:
    out = {"login": login, "followers": followers, "orgs": sorted(orgs), "permission": permission}
    if closure is not None:
        out["closure_history"] = {"closed_count": closure[0], "accepted_count": closure[1]}
    if unknown:
        out["permission_unknown"] = True
    return out


def _files(rng: random.Random) -> tuple[list[str], str]:
    """Changed files and the contribution kind they imply (docs/*.md vs src/*.py)."""
    kind = rng.choices(("code", "documentation", "mixed"), weights=(7, 1, 2))[0]
    code = [f"src/mod{rng.randrange(60)}/file{rng.randrange(40)}.py" for _ in range(rng.randint(1, 4))]
    docs = [f"docs/page{rng.randrange(30)}.md" for _ in range(rng.randint(1, 2))]
    files = {"code": code, "documentation": docs, "mixed": code + docs}[kind]
    return sorted(set(files)), kind


class _Ids:
    def __init__(self, start: int):
        self.value = start

    def next(self) -> int:
        self.value += 1
        return self.value


def _pull(
    rng: random.Random,
    ids: _Ids,
    number: int,
    created: int,
    author: str,
    state: str,
    closer: str | None,
    lifetime: int,
    comments: list[tuple[str, str]],
    review_comment_share: float,
    reviews: list[tuple[str, str, str]],
    requestees: list[str],
    commit_authors: list[str],
    labels: list[str],
) -> dict:
    """Assemble one PR dict with every event inside [created, created + lifetime].

    Events are stored in the order the snapshot format and the fetcher use:
    comments and reviews by (time, id), commits by (time, sha), review
    requests by (time, login).
    """
    def when() -> int:
        return created + rng.randint(0, lifetime)

    issue_comments, review_comments = [], []
    for login, body in comments:
        record = {"id": ids.next(), "author": login, "created_at": when(), "body": body}
        (review_comments if rng.random() < review_comment_share else issue_comments).append(record)
    review_records = [
        {"id": ids.next(), "author": login, "submitted_at": when(), "verdict": verdict, "body": body}
        for login, verdict, body in reviews
    ]
    request_records = sorted(
        ({"requestee": login, "requested_at": when()} for login in requestees),
        key=lambda r: (r["requested_at"], r["requestee"]),
    )
    commit_records = sorted(
        ({"sha": f"{rng.getrandbits(160):040x}", "author": login, "committed_at": when()}
         for login in commit_authors),
        key=lambda c: (c["committed_at"], c["sha"]),
    )
    issue_comments.sort(key=lambda c: (c["created_at"], c["id"]))
    review_comments.sort(key=lambda c: (c["created_at"], c["id"]))
    review_records.sort(key=lambda r: (r["submitted_at"], r["id"]))

    files, kind = _files(rng)
    pr = {"number": number, "author": author, "state": state, "created_at": iso(created)}
    if state != "open":
        pr["closed_at"] = iso(created + lifetime)
        pr["closer"] = closer
    pr["labels"] = sorted(set(labels))
    pr["contribution_kind"] = kind
    pr["files"] = files
    pr["commits"] = [{**c, "committed_at": iso(c["committed_at"])} for c in commit_records]
    pr["issue_comments"] = [{**c, "created_at": iso(c["created_at"])} for c in issue_comments]
    pr["review_comments"] = [{**c, "created_at": iso(c["created_at"])} for c in review_comments]
    pr["reviews"] = [{**r, "submitted_at": iso(r["submitted_at"])} for r in review_records]
    pr["review_requests"] = [{**r, "requested_at": iso(r["requested_at"])} for r in request_records]
    return pr


def _snapshot(name: str, users: dict[str, dict], pulls: list[dict], last_created: int) -> dict:
    # Every event lies within 30 days of its PR's creation.
    return {
        "repo": {"owner": "benchorg", "name": name, "fetched_at": iso(last_created + 31 * DAY)},
        "users": [users[login] for login in sorted(users)],
        "pulls": pulls,
    }


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def _counts(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    """``n`` counts spread evenly over [low, high], in seeded order.

    The seed decides which PR gets which count, not the total, so every
    seed gives the program the same amount of work.
    """
    counts = [low + (i * (high - low + 1)) // n for i in range(n)]
    rng.shuffle(counts)
    return counts


# ---------------------------------------------------------------------------
# deep-history: long author histories, a few maintainers close everything
# ---------------------------------------------------------------------------

def deep_history(seed: int, scale: float = 1.0) -> Workload:
    """Thousands of PRs by ~200 authors; ~10 maintainers review and close.

    Threads are short, so the history scans of competence, personality and
    the transferred "established" check dominate analysis.
    """
    rng = random.Random(f"deep-history/{seed}")
    n_prs = _scaled(1200, scale, 160)
    maintainers = [f"maint{i:02d}" for i in range(10)]
    authors = [f"dev{i:03d}" for i in range(_scaled(200, scale, 30))]
    bots = ["ci-runner[bot]"]

    users = {}
    for i, login in enumerate(maintainers):
        closed = rng.randint(50, 400)
        closure = (closed, rng.randint(0, closed)) if i < 3 else None
        users[login] = _user(login, rng.randint(50, 3000), {"asf", f"team{i % 3}"},
                             "write" if i else "admin", closure)
    for login in authors:
        orgs = {f"team{rng.randrange(3)}"} if rng.random() < 0.4 else set()
        users[login] = _user(login, int(rng.paretovariate(1.2)) - 1, orgs,
                             rng.choice(("read", "none", "none")))
    for login in bots:
        users[login] = _user(login, 0, set(), "none")

    skill = {login: rng.uniform(0.3, 0.95) for login in authors}
    ids = _Ids(10_000)
    pulls = []
    created = BASE_EPOCH
    n_open = max(2, n_prs // 500)
    n_comments = _counts(rng, n_prs, 0, 4)
    n_reviewers = _counts(rng, n_prs, 1, 2)
    n_commits = _counts(rng, n_prs, 1, 3)
    for number in range(1, n_prs + 1):
        created += rng.randint(600, 4 * 3600)
        author = rng.choice(authors)
        state = "open" if number > n_prs - n_open else (
            "merged" if rng.random() < skill[author] else "closed_unmerged")
        reviewers = rng.sample(maintainers, n_reviewers[number - 1])
        comments = []
        for _ in range(n_comments[number - 1]):
            login = rng.choice(reviewers + [author, rng.choice(authors)] + bots)
            if login != author and rng.random() < 0.10:
                body = rng.choice(DEFAULT_VOUCH).format(login=author) + " " + _body(rng, 6)
            else:
                body = _body(rng, rng.randint(4, 14))
            comments.append((login, body))
        verdicts = ("approved", "approved", "commented", "changes_requested")
        reviews = [(login, rng.choice(verdicts), _body(rng, 5) if rng.random() < 0.5 else "")
                   for login in reviewers]
        requestees = [login for login in rng.sample(maintainers, 1) if login != author]
        commits = [author] * n_commits[number - 1]
        pulls.append(_pull(
            rng, ids, number, created, author, state,
            closer=rng.choice(reviewers) if rng.random() < 0.97 else rng.choice(maintainers),
            lifetime=rng.randint(3600, 10 * DAY), comments=comments, review_comment_share=0.3,
            reviews=reviews, requestees=requestees, commit_authors=commits,
            labels=rng.sample(("bug", "feature", "docs", "infra"), rng.randint(0, 2)),
        ))
    return Workload("deep-history", _snapshot("deep-history", users, pulls, created),
                    fetch_max_pulls=_scaled(200, scale, 40))


# ---------------------------------------------------------------------------
# long-threads: long discussions, a custom lexicon, many orgs
# ---------------------------------------------------------------------------

def long_threads(seed: int, scale: float = 1.0) -> Workload:
    """About a thousand PRs with 20-120 forty-word comments each.

    Decoding, validation, the per-PR event walks and lexicon matching
    dominate; the history scans stay a small share.
    """
    rng = random.Random(f"long-threads/{seed}")
    n_prs = _scaled(250, scale, 120)
    n_users = _scaled(400, scale, 60)
    orgs = [f"org{i:02d}" for i in range(20)]
    logins = [f"user{i:03d}" for i in range(n_users)]
    bots = ["dependabot[bot]", "codecov[bot]", "ci-runner[bot]"]

    users = {}
    for i, login in enumerate(logins):
        member = set(rng.sample(orgs, rng.randint(0, 2)))
        permission = "write" if i < 25 else rng.choice(("read", "none", "none"))
        users[login] = _user(login, int(rng.paretovariate(1.1)) - 1, member, permission)
    for login in bots:
        users[login] = _user(login, 0, set(), "none")
    committers = logins[:25]

    ids = _Ids(500_000)
    pulls = []
    created = BASE_EPOCH
    n_comments = _counts(rng, n_prs, 20, 120)
    n_reviews = _counts(rng, n_prs, 2, 8)
    n_requests = _counts(rng, n_prs, 1, 4)
    n_commits = _counts(rng, n_prs, 3, 12)
    for number in range(1, n_prs + 1):
        created += rng.randint(1800, 12 * 3600)
        author = rng.choice(logins)
        state = "merged" if rng.random() < 0.7 else "closed_unmerged"
        crowd = [login for login in rng.sample(logins, 12) if login != author]
        comments = []
        for _ in range(n_comments[number - 1]):
            roll = rng.random()
            login = rng.choice(bots) if roll < 0.08 else (author if roll < 0.25 else rng.choice(crowd))
            if login != author and login in committers and rng.random() < 0.05:
                body = rng.choice(CUSTOM_VOUCH).format(login=author) + " " + _body(rng, 34)
            else:
                body = _body(rng, rng.randint(30, 50))
            comments.append((login, body))
        verdicts = ("approved", "commented", "changes_requested", "dismissed")
        reviews = [(rng.choice(crowd), rng.choice(verdicts), _body(rng, rng.randint(0, 30)))
                   for _ in range(n_reviews[number - 1])]
        requestees = rng.sample(crowd, n_requests[number - 1])
        commits = [author if rng.random() < 0.85 else rng.choice(crowd)
                   for _ in range(n_commits[number - 1])]
        pulls.append(_pull(
            rng, ids, number, created, author, state,
            closer=rng.choice(committers + crowd[:2]),
            lifetime=rng.randint(DAY, 30 * DAY), comments=comments, review_comment_share=0.15,
            reviews=reviews, requestees=requestees, commit_authors=commits,
            labels=rng.sample(("bug", "feature", "docs", "infra", "perf", "security"),
                              rng.randint(0, 3)),
        ))
    weights = dict(CUSTOM_WEIGHTS)
    config = "\n".join(
        ["# long-threads: custom lexicon and non-uniform weights", "lexicon_path = {lexicon}"]
        + [f"weights.{dim} = {w}" for dim, w in weights.items()]
    ) + "\n"
    return Workload(
        "long-threads", _snapshot("long-threads", users, pulls, created),
        fetch_max_pulls=_scaled(40, scale, 12),
        config_text=config, patterns=CUSTOM_PATTERNS,
        weights=weights,
    )


# ---------------------------------------------------------------------------
# fetch-cache: the whole repository through the fake GitHub
# ---------------------------------------------------------------------------

def fetch_cache(seed: int, scale: float = 1.0) -> Workload:
    """A few hundred closed PRs by ~100 users, all of them fetched.

    About 2,000 requests: list pages, six sub-resources per PR and three
    endpoints per user. Includes a deleted account (404) and users whose
    permission the token cannot read (403).
    """
    rng = random.Random(f"fetch-cache/{seed}")
    n_prs = _scaled(300, scale, 130)
    logins = [f"contrib{i:03d}" for i in range(_scaled(97, scale, 30))]
    maintainers = logins[:6]
    unreadable = frozenset(rng.sample(logins[6:], 4))

    users = {}
    for login in logins:
        if login in unreadable:
            users[login] = _user(login, rng.randint(0, 500), {"asf"}, "none", unknown=True)
            continue
        permission = "write" if login in maintainers else rng.choice(("read", "none"))
        orgs = {"asf"} if rng.random() < 0.5 else set(rng.sample(("orgA", "orgB", "orgC"), 1))
        users[login] = _user(login, rng.randint(0, 2000), orgs, permission)
    users[GHOST] = _user(GHOST, 0, set(), "none", unknown=True)
    users["ci-runner[bot]"] = _user("ci-runner[bot]", 0, set(), "none")

    ids = _Ids(900_000)
    pulls = []
    created = BASE_EPOCH
    n_comments = _counts(rng, n_prs, 0, 10)
    for number in range(1, n_prs + 1):
        created += rng.randint(3600, 2 * DAY)
        author = rng.choice(logins)
        state = "merged" if rng.random() < 0.7 else "closed_unmerged"
        others = [login for login in rng.sample(logins, 6) if login != author]
        comments = []
        for _ in range(n_comments[number - 1]):
            roll = rng.random()
            login = GHOST if roll < 0.03 else ("ci-runner[bot]" if roll < 0.1 else rng.choice(others + [author]))
            comments.append((login, _body(rng, rng.randint(5, 30))))
        reviews = [(login, rng.choice(("approved", "commented", "changes_requested")), _body(rng, 8))
                   for login in rng.sample(maintainers, rng.randint(0, 2)) if login != author]
        requestees = [login for login in rng.sample(maintainers, rng.randint(0, 2)) if login != author]
        pulls.append(_pull(
            rng, ids, number, created, author, state,
            closer=rng.choice(maintainers), lifetime=rng.randint(3600, 5 * DAY),
            comments=comments, review_comment_share=0.3, reviews=reviews,
            requestees=requestees, commit_authors=[author] * rng.randint(1, 4),
            labels=rng.sample(("bug", "feature", "docs"), rng.randint(0, 2)),
        ))
    return Workload("fetch-cache", _snapshot("fetch-cache", users, pulls, created),
                    fetch_max_pulls=n_prs, unreadable=unreadable)


BUILDERS = {
    "deep-history": deep_history,
    "long-threads": long_threads,
    "fetch-cache": fetch_cache,
}


def expected_fetch(workload: Workload) -> dict:
    """The snapshot a fetch of the fake must produce, minus ``fetched_at``.

    The newest ``fetch_max_pulls`` closed PRs, the users they reference and
    nothing else, and no ``closure_history`` (the API has no such field).
    """
    closed = [p for p in workload.snapshot["pulls"] if p["state"] != "open"]
    pulls = closed[-workload.fetch_max_pulls:]
    by_login = {u["login"]: u for u in workload.snapshot["users"]}
    users = []
    for login in sorted(referenced_logins(pulls)):
        profile = dict(by_login[login])
        profile.pop("closure_history", None)
        users.append(profile)
    repo = {k: v for k, v in workload.snapshot["repo"].items() if k != "fetched_at"}
    return {"repo": repo, "users": users, "pulls": pulls}


def referenced_logins(pulls: list[dict]) -> set[str]:
    seen: set[str] = set()
    for pr in pulls:
        seen.add(pr["author"])
        if "closer" in pr:
            seen.add(pr["closer"])
        seen.update(c["author"] for c in pr["issue_comments"] + pr["review_comments"])
        seen.update(r["author"] for r in pr["reviews"])
        seen.update(r["requestee"] for r in pr["review_requests"])
        seen.update(c["author"] for c in pr["commits"])
    return seen
