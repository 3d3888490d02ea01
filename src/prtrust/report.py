"""Report assembly and deterministic emission (JSON, CSV, markdown).

All numeric cells are printed with 6 decimal places, rounded half-up, so
independent implementations diff cleanly. Output is UTF-8 without BOM,
LF newlines; emission is deterministic (same bundle, identical bytes).
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields
from datetime import datetime
from decimal import ROUND_HALF_UP, Context, Decimal
from pathlib import Path
from typing import Any, Iterator

from . import __version__
from .aggregate import RepoSummary, StratumSummary, TrustProfile
from .corpus import (RepoSnapshot, format_timestamp, indented_items, json_chunks, parse_timestamp,
                     read_json, write_whole)
from .errors import SnapshotParseError
from .metrics import DIMENSIONS, DimensionScore, left_sum

CSV_COLUMNS = ("pr_number", "outcome", *DIMENSIONS, "overall", "coverage")

# The markdown summary's rows: (label, StratumSummary field).
_SUMMARY_ROWS = (
    ("Pull requests", "pr_count"),
    ("Mean comment frequency (per day)", "mean_comment_frequency"),
    ("PRs with post-feedback commits", "prs_with_post_feedback_commits"),
    ("PRs with a review response", "prs_with_review_response"),
    ("PRs by first-time authors", "first_timer_prs"),
    ("PRs with a shared-org counterparty", "prs_with_shared_org_counterparty"),
    ("PRs whose closer accepted all they closed", "prs_with_full_acceptance_closer"),
    ("PRs with a transferred-trust vouch", "prs_with_transferred_flag"),
)


@dataclass(frozen=True)
class ReportBundle:
    """Everything one analysis run produced, plus what produced it.

    The config echo (including resolved lexicon patterns) is sufficient
    to reproduce the same profiles from the same snapshot.
    """

    repo_owner: str
    repo_name: str
    fetched_at: datetime
    version: str
    config: dict[str, Any]
    profiles: tuple[TrustProfile, ...]
    summary: RepoSummary


def build_bundle(
    snapshot: RepoSnapshot,
    profiles: list[TrustProfile],
    summary: RepoSummary,
    config_echo: dict[str, Any],
) -> ReportBundle:
    return ReportBundle(
        repo_owner=snapshot.repo_owner,
        repo_name=snapshot.repo_name,
        fetched_at=snapshot.fetched_at,
        version=__version__,
        config=config_echo,
        profiles=tuple(profiles),
        summary=summary,
    )


# Room for the 309 integer digits of the largest finite float and six decimals.
_WIDE = Context(prec=315)


def format_score(value: float | None) -> str:
    """Six decimal places, half-up; empty string for absent values."""
    if value is None:
        return ""
    return str(Decimal(repr(value)).quantize(Decimal("0.000001"), rounding=ROUND_HALF_UP, context=_WIDE))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

# One profile as it stands in the report's "profiles" list: its fixed keys, with a %s
# for pr_number, outcome, overall and coverage, then per dimension for available,
# score and evidence.
_PROFILE = (
    '{\n      "pr_number": %s,\n      "outcome": %s,\n      "overall": %s,\n      "coverage": %s,'
    '\n      "dimensions": {'
    + ",".join(f'\n        {json.dumps(d)}: {{\n          "available": %s,\n          "score": %s,'
               '\n          "evidence": %s\n        }' for d in DIMENSIONS)
    + "\n      }\n    }"
)


def _profile_text(profile: TrustProfile) -> str:
    scores = [profile.scores[d] for d in DIMENSIONS]
    return _PROFILE % (
        *indented_items((profile.pr_number, profile.outcome, profile.overall, profile.coverage),
                        "\n      "),
        *indented_items([v for s in scores for v in (s.available, s.score, s.evidence)],
                        "\n          "),
    )


def _json_chunks(bundle: ReportBundle) -> Iterator[str]:
    """The JSON report, one chunk per profile."""
    document = {
        "version": bundle.version,
        "repo": {
            "owner": bundle.repo_owner,
            "name": bundle.repo_name,
            "fetched_at": format_timestamp(bundle.fetched_at),
        },
        "config": bundle.config,
        "profiles": bundle.profiles,
        "summary": {
            "accepted": asdict(bundle.summary.accepted),
            "rejected": asdict(bundle.summary.rejected),
        },
    }
    return json_chunks(document, "profiles", _profile_text)


def _profile_from_dict(raw: dict) -> TrustProfile:
    """A report profile; its ``available`` and ``coverage`` values must restate its scores."""
    pr_number, outcome, dims = raw["pr_number"], raw["outcome"], raw["dimensions"]
    stated, scores = [], {}
    for d in DIMENSIONS:  # keys read in the order they are written
        stated.append(dims[d]["available"])
        scores[d] = DimensionScore(dims[d]["score"], dims[d]["evidence"])
    profile = TrustProfile(pr_number, outcome, scores, raw["overall"])
    if stated + [raw["coverage"]] != [s.available for s in scores.values()] + [profile.coverage]:
        raise SnapshotParseError(
            f"malformed report bundle: PR {pr_number}: 'available' or 'coverage' "
            "disagrees with the scores"
        )
    return profile


def _stratum_from_dict(raw: dict, outcome: str, profile_count: int, outcome_count: int) -> StratumSummary:
    """A summary stratum whose counts are integers from 0 to ``profile_count``, whose
    ``pr_count`` is ``outcome_count``, the number of profiles with its outcome, and whose
    other counts are at most its ``pr_count``; its mean is a number that a float holds,
    or null."""
    stratum = StratumSummary(**raw)
    for f in fields(StratumSummary):
        value = getattr(stratum, f.name)
        integer = isinstance(value, int) and not isinstance(value, bool)
        if f.type == "int":  # the counts, pr_count first
            if not integer:
                problem = f"must be an integer, got {type(value).__name__}"
            elif not 0 <= value <= profile_count:
                problem = f"must be from 0 to the report's {profile_count} profiles, got {value}"
            elif f.name == "pr_count" and value != outcome_count:
                problem = f"must be the report's {outcome_count} {outcome} profiles, got {value}"
            elif value > stratum.pr_count:
                problem = f"must be at most the stratum's pr_count {stratum.pr_count}, got {value}"
            else:
                continue
        elif value is None or (integer or isinstance(value, float)) and abs(value) <= sys.float_info.max:
            continue
        else:  # the mean comment frequency
            problem = f"must be a finite number or null, got {type(value).__name__}"
        raise SnapshotParseError(f"malformed report bundle: summary.{outcome}.{f.name} {problem}")
    return stratum


def _total_mean(summary: RepoSummary) -> float | None:
    """The mean comment frequency over both strata, or None; inf or nan when it overflows."""
    parts = [
        (s.pr_count, float(s.mean_comment_frequency))
        for s in (summary.accepted, summary.rejected)
        if s.mean_comment_frequency is not None
    ]
    total_n = sum(n for n, _ in parts)
    if total_n == 0:
        return None
    return left_sum(n * m for n, m in parts) / total_n


def bundle_from_dict(data: dict) -> ReportBundle:
    try:
        profiles = tuple(_profile_from_dict(raw) for raw in data["profiles"])
        outcomes = Counter(profile.outcome for profile in profiles)
        summary = RepoSummary(**{
            outcome: _stratum_from_dict(data["summary"][outcome], outcome, len(profiles), outcomes[outcome])
            for outcome in ("accepted", "rejected")
        })
        total = _total_mean(summary)
        if total is not None and not math.isfinite(total):
            raise SnapshotParseError(
                "malformed report bundle: the mean comment frequency of both strata together "
                "overflows a float"
            )
        return ReportBundle(
            repo_owner=data["repo"]["owner"],
            repo_name=data["repo"]["name"],
            fetched_at=parse_timestamp(data["repo"]["fetched_at"], "report.repo.fetched_at"),
            version=data["version"],
            config=data["config"],
            profiles=profiles,
            summary=summary,
        )
    except (KeyError, TypeError) as exc:
        raise SnapshotParseError(f"malformed report bundle: {exc!r}") from exc


def load_bundle(path: str | Path) -> ReportBundle:
    return bundle_from_dict(read_json(Path(path), "report"))


# ---------------------------------------------------------------------------
# CSV and markdown renderings
# ---------------------------------------------------------------------------

def csv_text(bundle: ReportBundle) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for profile in bundle.profiles:
        cells = [str(profile.pr_number), profile.outcome]
        cells += [format_score(profile.scores[d].score) for d in DIMENSIONS]
        cells += [format_score(profile.overall), str(profile.coverage)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def markdown_summary(bundle: ReportBundle) -> str:
    """Render the per-stratum summary table as GitHub-flavored markdown."""
    accepted = bundle.summary.accepted
    rejected = bundle.summary.rejected
    pending = len(bundle.profiles) - accepted.pr_count - rejected.pr_count
    lines = [
        f"# Trust summary: {bundle.repo_owner}/{bundle.repo_name}",
        "",
        f"Snapshot fetched at {format_timestamp(bundle.fetched_at)}; "
        f"{len(bundle.profiles)} PRs analyzed "
        f"({accepted.pr_count} accepted, {rejected.pr_count} rejected, {pending} pending).",
        "",
        "| Statistic | Accepted | Rejected | Total |",
        "| --- | ---: | ---: | ---: |",
    ]
    for label, key in _SUMMARY_ROWS:
        a, r = getattr(accepted, key), getattr(rejected, key)
        if key == "mean_comment_frequency":
            cells = (format_score(a), format_score(r), format_score(_total_mean(bundle.summary)))
        else:
            cells = (str(a), str(r), str(a + r))
        lines.append(f"| {label} | {' | '.join(cells)} |")
    return "\n".join(lines) + "\n"


def json_text(bundle: ReportBundle) -> str:
    return "".join(_json_chunks(bundle))


_RENDERERS = {"json": json_text, "csv": csv_text, "markdown": markdown_summary}
FORMATS = tuple(_RENDERERS)


def emit(bundle: ReportBundle, format: str, path: str | Path) -> None:
    """Write the bundle to ``path`` in the requested format."""
    if format not in FORMATS:
        raise ValueError(f"unknown report format '{format}' (expected one of {FORMATS})")
    write_whole(path, _json_chunks(bundle) if format == "json" else [_RENDERERS[format](bundle)])
