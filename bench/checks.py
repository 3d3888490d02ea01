"""Correctness checks on the program's outputs, made apart from the program.

Expectations come from the benchmark's own generator records, from the
independent oracle in ``tests/oracle.py`` and from folds written here;
none of them calls ``prtrust`` or compares with a stored copy of output.
Each check raises ``CheckFailed`` naming what differed.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
from pathlib import Path

from workloads import Workload

TOL = 1e-9
DIMENSIONS = ("action", "commitment", "competence", "institutional", "personality", "transferred")
ORACLE_SAMPLE = 40


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(left, right) -> bool:
    if left is None or right is None:
        return left is None and right is None
    return abs(left - right) <= TOL


def load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location("oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# fetch
# ---------------------------------------------------------------------------

def check_fetched(text: str, want: dict) -> None:
    """The fetched snapshot equals ``want`` (``workloads.expected_fetch``), ``fetched_at`` aside."""
    got = json.loads(text)
    require("fetched_at" in got.get("repo", {}), "fetched snapshot lacks repo.fetched_at")
    del got["repo"]["fetched_at"]
    for key in ("repo", "users", "pulls"):
        if got.get(key) != want[key]:
            detail = key
            if isinstance(want[key], list):
                got_list = got.get(key) or []
                detail += f" (got {len(got_list)} entries, want {len(want[key])})"
                for g, w in zip(got_list, want[key]):
                    if g != w:
                        detail += f"; first difference at {w.get('number', w.get('login'))}"
                        break
            raise CheckFailed(f"fetched snapshot differs from the fake's records in {detail}")


def check_warm(cold_bytes: bytes, warm_bytes: bytes, cold_statuses: dict, warm_statuses: dict) -> None:
    """A warm fetch writes the cold bytes; every cached response revalidates with 304.

    404 and 403 answers carry no ETag, so they are asked again and answered
    the same way.
    """
    require(warm_bytes == cold_bytes, "warm fetch wrote different bytes from the cold fetch")
    want = {304: cold_statuses.get(200, 0)}
    want.update({s: n for s, n in cold_statuses.items() if s not in (200, 304)})
    got = {s: n for s, n in warm_statuses.items() if n}
    require(got == want, f"warm fetch statuses {got}, want {want}")
    require(cold_statuses.get(304, 0) == 0, f"cold fetch into an empty cache got 304s: {cold_statuses}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def check_oracle(oracle, raw: dict, report: dict, workload: Workload, seed: int) -> None:
    """Compare a seeded sample of report profiles with the oracle."""
    profiles = {p["pr_number"]: p for p in report["profiles"]}
    require(sorted(profiles) == [p["number"] for p in raw["pulls"]],
            "report profiles do not cover the snapshot's PRs one to one")
    rng = random.Random(f"oracle/{workload.name}/{seed}")
    pulls = rng.sample(raw["pulls"], min(ORACLE_SAMPLE, len(raw["pulls"])))
    patterns = list(workload.patterns) if workload.patterns else None
    weights = workload.weights or None
    for pr in pulls:
        got = profiles[pr["number"]]
        want = oracle.oracle_profile(pr, raw, patterns=patterns, weights=weights)
        where = f"PR {pr['number']}"
        require(got["outcome"] == want["outcome"], f"{where}: outcome")
        require(got["coverage"] == want["coverage"], f"{where}: coverage")
        require(_close(got["overall"], want["overall"]), f"{where}: overall")
        dims = got["dimensions"]
        for dim in DIMENSIONS:
            ref = want["scores"][dim]
            require(dims[dim]["available"] == ref["available"], f"{where}: {dim} availability")
            require(_close(dims[dim]["score"], ref["score"]), f"{where}: {dim} score")
        act, ref = dims["action"]["evidence"], want["scores"]["action"]
        for key in ("comment_count", "active_days", "revision_commits"):
            require(act[key] == ref[key], f"{where}: action {key}")
        require(_close(act["frequency"], ref["frequency"]), f"{where}: action frequency")
        com, ref = dims["commitment"]["evidence"], want["scores"]["commitment"]
        for key in ("requested", "responded", "any_response", "author_addressed"):
            require(com[key] == ref[key], f"{where}: commitment {key}")
        cmp_, ref = dims["competence"]["evidence"], want["scores"]["competence"]
        for key in ("prior_pr_count", "prior_accepted"):
            require(cmp_[key] == ref[key], f"{where}: competence {key}")
        require(_close(cmp_["prior_acceptance_rate"], ref["prior_acceptance_rate"]),
                f"{where}: competence prior_acceptance_rate")
        inst, ref = dims["institutional"]["evidence"], want["scores"]["institutional"]
        for key in ("counterparties", "shared"):
            require(inst[key] == ref[key], f"{where}: institutional {key}")
        require(_close(dims["personality"]["evidence"]["closer_propensity"],
                       want["scores"]["personality"]["closer_propensity"]),
                f"{where}: personality closer_propensity")
        require(dims["transferred"]["evidence"]["vouches"] == want["scores"]["transferred"]["vouches"],
                f"{where}: transferred vouches")


def fold_summary(profiles: list[dict]) -> dict:
    """Per-stratum summary recomputed from report profiles."""
    out = {}
    for stratum in ("accepted", "rejected"):
        group = [p for p in profiles if p["outcome"] == stratum]
        ev = [{d: p["dimensions"][d]["evidence"] for d in DIMENSIONS} for p in group]
        freqs = [e["action"]["frequency"] for e in ev]
        out[stratum] = {
            "pr_count": len(group),
            "mean_comment_frequency": math.fsum(freqs) / len(freqs) if freqs else None,
            "prs_with_post_feedback_commits": sum(e["action"]["revision_commits"] > 0 for e in ev),
            "prs_with_review_response": sum(bool(e["commitment"]["any_response"]) for e in ev),
            "first_timer_prs": sum(e["competence"]["prior_pr_count"] == 0 for e in ev),
            "prs_with_shared_org_counterparty": sum(e["institutional"]["shared"] >= 1 for e in ev),
            "prs_with_full_acceptance_closer": sum(
                e["personality"]["closer_propensity"] == 1.0 for e in ev),
            "prs_with_transferred_flag": sum(
                p["dimensions"]["transferred"]["available"]
                and p["dimensions"]["transferred"]["score"] == 1.0 for p in group),
        }
    return out


def check_summary(report: dict) -> None:
    folded = fold_summary(report["profiles"])
    for stratum, want in folded.items():
        got = report["summary"][stratum]
        require(set(got) == set(want), f"summary.{stratum} fields {sorted(got)}")
        for key, value in want.items():
            ok = _close(got[key], value) if key == "mean_comment_frequency" else got[key] == value
            require(ok, f"summary.{stratum}.{key} is {got[key]}, the fold gives {value}")


def check_properties(report: dict, weights: dict[str, float]) -> None:
    """Scores in [0, 1], coverage counts available dimensions, overall is the
    renormalized weighted mean."""
    for p in report["profiles"]:
        where = f"PR {p['pr_number']}"
        available = []
        for dim in DIMENSIONS:
            d = p["dimensions"][dim]
            if d["available"]:
                require(d["score"] is not None and 0.0 <= d["score"] <= 1.0,
                        f"{where}: {dim} score {d['score']} outside [0, 1]")
                available.append(dim)
            else:
                require(d["score"] is None, f"{where}: unavailable {dim} carries a score")
        require(p["coverage"] == len(available), f"{where}: coverage {p['coverage']}")
        if available:
            total = sum(weights[d] for d in available)
            want = sum(weights[d] * p["dimensions"][d]["score"] for d in available) / total
            require(_close(p["overall"], want), f"{where}: overall {p['overall']}, want {want}")
        else:
            require(p["overall"] is None, f"{where}: overall without available dimensions")


_MARKDOWN_ROWS = {
    "Pull requests": "pr_count",
    "PRs with post-feedback commits": "prs_with_post_feedback_commits",
    "PRs with a review response": "prs_with_review_response",
    "PRs by first-time authors": "first_timer_prs",
    "PRs with a shared-org counterparty": "prs_with_shared_org_counterparty",
    "PRs whose closer accepted all they closed": "prs_with_full_acceptance_closer",
    "PRs with a transferred-trust vouch": "prs_with_transferred_flag",
}


def check_markdown(text: str, report: dict) -> None:
    """The markdown table's counts equal the report's summary."""
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] in _MARKDOWN_ROWS:
            rows[cells[0]] = cells[1:]
    require(set(rows) == set(_MARKDOWN_ROWS), f"markdown rows {sorted(rows)}")
    summary = report["summary"]
    for label, key in _MARKDOWN_ROWS.items():
        a, r = summary["accepted"][key], summary["rejected"][key]
        require(rows[label] == [str(a), str(r), str(a + r)],
                f"markdown row '{label}' reads {rows[label]}, the report gives {a}, {r}")
    pending = len(report["profiles"]) - summary["accepted"]["pr_count"] - summary["rejected"]["pr_count"]
    require(f"{len(report['profiles'])} PRs analyzed" in text and f"{pending} pending" in text,
            "markdown header counts differ from the report")


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def check_sample(numbers: list[int], raw: dict, n: int, accept_ratio: float,
                 saved_text: str) -> None:
    """round-half-up(ratio * n) accepted plus the rest rejected, distinct, none open."""
    states = {p["number"]: p["state"] for p in raw["pulls"]}
    want_accepted = math.floor(accept_ratio * n + 0.5)
    require(len(numbers) == n, f"sample holds {len(numbers)} PRs, want {n}")
    require(len(set(numbers)) == n and numbers == sorted(numbers), "sample numbers not distinct and sorted")
    picked = [states.get(number) for number in numbers]
    require(picked.count("merged") == want_accepted, f"sample holds {picked.count('merged')} accepted")
    require(picked.count("closed_unmerged") == n - want_accepted, "sample rejected count")
    saved = json.loads(saved_text)
    require([p["number"] for p in saved["pulls"]] == numbers, "saved sample differs from the draw")
    require(len(saved["users"]) == len(raw["users"]), "saved sample dropped users")
