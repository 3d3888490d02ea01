"""An offline fake of the GitHub REST API, generated from a snapshot dict.

Every route's payload is encoded once, when the fake is built; a request
only looks the route up and hands back the bytes, which the response
decodes on ``.json()`` as ``requests`` does. Nothing is deep-copied, so the
time of a fetch is the client's. The fake serves:

- ``Link: rel="next"`` pagination in pages of 100;
- an ``ETag`` on every 200, and a bodiless 304 for a matching
  ``If-None-Match``;
- 404 for the deleted ``ghost`` account and for the permission of a user
  who is not a collaborator;
- 403 without rate-limit headers for a permission the token cannot read.

It counts requests and statuses and sums the time spent inside ``get``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import Counter
from urllib.parse import quote

from workloads import GHOST, Workload, expected_fetch

API = "https://api.github.com"
PAGE = 100

_VERDICTS = {
    "approved": "APPROVED",
    "commented": "COMMENTED",
    "changes_requested": "CHANGES_REQUESTED",
    "dismissed": "DISMISSED",
}


class FakeResponse:
    __slots__ = ("status_code", "headers", "_body")

    def __init__(self, status_code: int, body: bytes = b"", headers: dict | None = None):
        self.status_code = status_code
        self.headers = headers if headers is not None else {}
        self._body = body

    def json(self):
        return json.loads(self._body)


class _Route:
    __slots__ = ("body", "etag", "headers")

    def __init__(self, payload, next_url: str | None):
        self.body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self.etag = 'W/"' + hashlib.sha1(self.body).hexdigest()[:16] + '"'
        self.headers = {"ETag": self.etag}
        if next_url is not None:
            self.headers["Link"] = f'<{next_url}>; rel="next"'


_NOT_FOUND = json.dumps({"message": "Not Found"}).encode()
_FORBIDDEN = json.dumps({"message": "Must have push access to view repository collaborators."}).encode()


class FakeGitHub:
    """A ``requests.Session`` stand-in answering from pre-encoded routes."""

    def __init__(self, workload: Workload):
        self.routes: dict[str, _Route] = {}
        self.forbidden: set[str] = set()
        self._lock = threading.Lock()
        self.reset()
        self._build(workload)

    def reset(self) -> None:
        """Zero the counters (the routes stay)."""
        with self._lock:
            self.requests = 0
            self.statuses: Counter = Counter()
            self.session_s = 0.0

    def get(self, url, headers=None, timeout=None):
        started = time.perf_counter()
        route = self.routes.get(url)
        if route is None:
            response = FakeResponse(403 if url in self.forbidden else 404,
                                     _FORBIDDEN if url in self.forbidden else _NOT_FOUND)
        elif headers and headers.get("If-None-Match") == route.etag:
            response = FakeResponse(304, b"", {"ETag": route.etag})
        else:
            response = FakeResponse(200, route.body, route.headers)
        elapsed = time.perf_counter() - started
        with self._lock:
            self.requests += 1
            self.statuses[response.status_code] += 1
            self.session_s += elapsed
        return response

    # -- route construction -------------------------------------------------

    def _paged(self, url: str, items: list) -> None:
        """Serve ``items`` at ``url`` in pages of 100 linked by rel="next"."""
        pages = [items[i:i + PAGE] for i in range(0, len(items), PAGE)] or [[]]
        urls = [url] + [f"{url}&page={n}" for n in range(2, len(pages) + 1)]
        for i, page in enumerate(pages):
            self.routes[urls[i]] = _Route(page, urls[i + 1] if i + 1 < len(pages) else None)

    def _build(self, workload: Workload) -> None:
        snap = workload.snapshot
        owner, name = snap["repo"]["owner"], snap["repo"]["name"]
        repo = f"{API}/repos/{owner}/{name}"
        closed = [p for p in snap["pulls"] if p["state"] != "open"]
        self._paged(
            f"{repo}/pulls?state=closed&sort=created&direction=desc&per_page={PAGE}",
            [_list_item(p) for p in reversed(closed)],
        )
        fetched = expected_fetch(workload)
        for pr in fetched["pulls"]:
            n = pr["number"]
            self._paged(f"{repo}/pulls/{n}/reviews?per_page={PAGE}", [
                {"id": r["id"], "user": _user_ref(r["author"]), "state": _VERDICTS[r["verdict"]],
                 "submitted_at": r["submitted_at"], "body": r["body"]}
                for r in pr["reviews"]
            ])
            self._paged(f"{repo}/pulls/{n}/comments?per_page={PAGE}",
                        [_comment(c) for c in pr["review_comments"]])
            self._paged(f"{repo}/issues/{n}/comments?per_page={PAGE}",
                        [_comment(c) for c in pr["issue_comments"]])
            self._paged(f"{repo}/pulls/{n}/commits?per_page={PAGE}", [
                {"sha": c["sha"], "author": _user_ref(c["author"]),
                 "commit": {"author": {"date": c["committed_at"]},
                            "committer": {"date": c["committed_at"]}}}
                for c in pr["commits"]
            ])
            self._paged(f"{repo}/pulls/{n}/files?per_page={PAGE}",
                        [{"filename": f, "status": "modified"} for f in pr["files"]])
            self._paged(f"{repo}/issues/{n}/timeline?per_page={PAGE}", _timeline(pr))
        for user in fetched["users"]:
            login = user["login"]
            if login == GHOST:
                continue
            encoded = quote(login, safe="")
            self.routes[f"{API}/users/{encoded}"] = _Route(
                {"login": login, "followers": user["followers"]}, None)
            self._paged(f"{API}/users/{encoded}/orgs?per_page={PAGE}",
                        [{"login": org} for org in user["orgs"]])
            permission_url = f"{repo}/collaborators/{encoded}/permission"
            if login in workload.unreadable:
                self.forbidden.add(permission_url)
            elif user["permission"] != "none":
                self.routes[permission_url] = _Route({"permission": user["permission"]}, None)


def _user_ref(login: str) -> dict | None:
    return None if login == GHOST else {"login": login}


def _comment(c: dict) -> dict:
    return {"id": c["id"], "user": _user_ref(c["author"]), "created_at": c["created_at"],
            "body": c["body"]}


def _list_item(pr: dict) -> dict:
    return {
        "number": pr["number"],
        "user": _user_ref(pr["author"]),
        "state": "closed",
        "created_at": pr["created_at"],
        "closed_at": pr["closed_at"],
        "merged_at": pr["closed_at"] if pr["state"] == "merged" else None,
        "labels": [{"name": label} for label in pr["labels"]],
    }


def _timeline(pr: dict) -> list:
    events = [
        {"event": "review_requested", "requested_reviewer": {"login": r["requestee"]},
         "created_at": r["requested_at"]}
        for r in pr["review_requests"]
    ]
    events.append({"event": "labeled", "actor": _user_ref(pr["author"]),
                   "created_at": pr["created_at"]})
    kind = "merged" if pr["state"] == "merged" else "closed"
    events.append({"event": kind, "actor": _user_ref(pr["closer"]), "created_at": pr["closed_at"]})
    return events
