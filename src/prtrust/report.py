"""Report assembly and deterministic emission (JSON, CSV, markdown).

All numeric cells are printed with 6 decimal places, rounded half-up, so
independent implementations diff cleanly. Output is UTF-8 without BOM,
LF newlines; emission is deterministic (same bundle, identical bytes).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime
from decimal import ROUND_HALF_UP, Context, Decimal
from functools import lru_cache
from itertools import count
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterator

from . import __version__
from .aggregate import FOLDED, RepoSummary, TrustProfile, summarize
from .corpus import (RepoSnapshot, format_timestamp, indented_items, json_chunks, parse_timestamp,
                     read_json, record_template, write_whole)
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
_PROFILE = record_template(("pr_number", "outcome", "overall", "coverage", "dimensions"), "\n    ") % (
    "%s", "%s", "%s", "%s", record_template(DIMENSIONS, "\n      ")
    % ((record_template(("available", "score", "evidence"), "\n        "),) * len(DIMENSIONS)))
_SCORES_OF = itemgetter(*DIMENSIONS)
# Evidence key shapes whose profile template is kept; a report has one or a few.
_SHAPES_KEPT = 32


@lru_cache(maxsize=_SHAPES_KEPT)
def _profile_template(shape: tuple[tuple[str, ...] | None, ...]) -> tuple[str, itemgetter]:
    """_PROFILE with each dimension's evidence written out as its entry in ``shape`` gives it:
    an object of that key tuple, a %s per value, or for None one %s for the whole value. Also
    the getter that takes the values in the template's order from the texts of the head, then
    of the available/score pairs, then of the whole evidence values, then of the keyed ones."""
    slots, order = ["%s"] * 4, [0, 1, 2, 3]
    pairs, wholes = count(4), count(4 + 2 * len(DIMENSIONS))
    values = count(4 + 2 * len(DIMENSIONS) + shape.count(None))
    for keys in shape:
        slots += ["%s", "%s", "%s" if keys is None else record_template(keys, "\n          ")]
        order += [next(pairs), next(pairs)]
        order += [next(wholes)] if keys is None else [next(values) for _ in keys]
    return _PROFILE % tuple(slots), itemgetter(*order)


def _profile_text(profile: TrustProfile) -> str:
    """A profile filled into the template of its evidence's shape, its values encoded one
    indentation level per call: evidence of another type than dict is one whole value."""
    scores = _SCORES_OF(profile.scores)
    shape = tuple(tuple(s.evidence) if type(s.evidence) is dict else None for s in scores)
    template, order = _profile_template(shape)
    head = indented_items((profile.pr_number, profile.outcome, profile.overall, profile.coverage),
                          "\n      ")
    level = [v for s in scores for v in (s.available, s.score)]
    level += [s.evidence for s, keys in zip(scores, shape) if keys is None]
    values = [v for s, keys in zip(scores, shape) if keys is not None for v in s.evidence.values()]
    return template % order(head + indented_items(level, "\n          ")
                            + indented_items(values, "\n            "))


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
        "summary": asdict(bundle.summary),
    }
    return json_chunks(document, "profiles", _profile_text)


# A profile's scores, named as errors name them, in the order they are written.
_SCORES = ("overall", *(f"{d}.score" for d in DIMENSIONS))
_ABSENT = object()
_KINDS = {dict: "an object", list: "an array"}
_TYPE_NAMES = {float: "a finite number", int: "an integer", bool: "a boolean", type(None): "null"}


def _profile_from_dict(raw: dict) -> TrustProfile:
    """A report profile; its ``available`` and ``coverage`` values must restate its scores,
    and its number, its scores and what the summary fold reads must be of the types prtrust
    writes."""
    pr_number, outcome, dims = raw["pr_number"], raw["outcome"], raw["dimensions"]
    if type(pr_number) is not int:
        raise SnapshotParseError(f"malformed report bundle: PR {_spell(pr_number)}: "
                                 "pr_number must be an integer")
    if outcome not in ("accepted", "rejected", "pending"):
        raise SnapshotParseError(f"malformed report bundle: PR {pr_number}: outcome must be accepted, "
                                 f"rejected or pending, got {_spell(outcome)}")
    stated, scores = [], {}
    for d in DIMENSIONS:  # keys read in the order they are written
        stated.append(dims[d]["available"])
        scores[d] = DimensionScore(dims[d]["score"], dims[d]["evidence"])
    for name, value in zip(_SCORES, (raw["overall"], *[s.score for s in scores.values()])):
        if value is not None and (type(value) is not float or not math.isfinite(value)):
            raise SnapshotParseError(f"malformed report bundle: PR {pr_number}: {name} must be a finite "
                                     f"number or null, got {_spell(value)}")
    for d, key, types, _ in FOLDED.values():
        value = scores[d].score if key is None else scores[d].evidence[key]
        if type(value) not in types or type(value) is float and not math.isfinite(value):
            raise SnapshotParseError(f"malformed report bundle: PR {pr_number}: {d}.{key or 'score'} must "
                                     f"be {' or '.join(map(_TYPE_NAMES.get, types))}, got {_spell(value)}")
    available = [s.available for s in scores.values()]
    if stated != available or raw["coverage"] != available.count(True):  # the profile's coverage
        raise SnapshotParseError(f"malformed report bundle: PR {pr_number}: 'available' or 'coverage' "
                                 "disagrees with the scores")
    return TrustProfile(pr_number, outcome, scores, raw["overall"])


def _spell(value) -> str:  # a scalar as JSON writes it; for anything else, its kind
    return "absent" if value is _ABSENT else _KINDS.get(type(value)) or json.dumps(value)


def _require_equal(stated, folded, name: str) -> None:
    """Raise unless ``stated`` has ``folded``'s keys, and each value its JSON type and value;
    the error names the first field that differs, in ``folded``'s key order, then ``stated``'s."""
    if type(stated) is type(folded) is dict:
        for key in [*folded, *(key for key in stated if key not in folded)]:
            _require_equal(stated.get(key, _ABSENT), folded.get(key, _ABSENT), f"{name}.{key}")
    elif type(stated) is not type(folded) or stated != folded:
        raise SnapshotParseError(f"malformed report bundle: {name} is {_spell(stated)}, "
                                 f"the profiles give {_spell(folded)}")


def _total_mean(summary: RepoSummary) -> float | None:
    """The mean comment frequency over both strata, or None; inf or nan when it overflows."""
    parts = [(s.pr_count, s.mean_comment_frequency) for s in (summary.accepted, summary.rejected)
             if s.mean_comment_frequency is not None]
    total_n = sum(n for n, _ in parts)
    if total_n == 0:
        return None
    return left_sum(n * m for n, m in parts) / total_n


def bundle_from_dict(data: dict) -> ReportBundle:
    """A loaded report, whose summary must be the fold of its profiles exactly."""
    try:
        profiles = tuple(_profile_from_dict(raw) for raw in data["profiles"])
        if not profiles:
            raise SnapshotParseError("malformed report bundle: the report holds no profiles")
        try:  # a stratum's sum of frequencies, or the sum over both strata
            summary = summarize(profiles)
            if not math.isfinite(_total_mean(summary) or 0.0):
                raise OverflowError
        except OverflowError:
            raise SnapshotParseError("malformed report bundle: the profiles' comment frequencies sum "
                                     "past the largest float") from None
        _require_equal(data["summary"], asdict(summary), "summary")
        repo = data["repo"]
        fetched_at = parse_timestamp(repo["fetched_at"], "report.repo.fetched_at")
        return ReportBundle(repo["owner"], repo["name"], fetched_at, data["version"], data["config"],
                            profiles, summary)
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
