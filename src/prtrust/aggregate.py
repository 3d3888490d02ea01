"""Profile assembly, stratified sampling, and repo-level summaries.

Combines the six dimension scores into per-PR trust profiles, draws
outcome-stratified samples with a fully deterministic seeded shuffle, and
folds profiles into the summary statistics reported per repository.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from .config import AnalysisConfig
from .corpus import PullRequest, RepoSnapshot, outcome
from .errors import InsufficientStratumError, SnapshotError
from .metrics import (
    DIMENSIONS,
    DimensionScore,
    VouchLexicon,
    action_score,
    commitment_score,
    competence_score,
    institutional_score,
    left_sum,
    personality_score,
    transferred_detect,
)


@dataclass(frozen=True)
class TrustProfile:
    """All six dimension scores for one PR plus their weighted combination.

    ``overall`` is the weighted mean of the available scores with the
    weight vector renormalized over available dimensions; absent when no
    dimension is available. The PR's outcome is carried along so reports
    and summaries do not need the snapshot.
    """

    pr_number: int
    outcome: str
    scores: dict[str, DimensionScore]
    overall: float | None

    @property
    def coverage(self) -> int:
        """How many dimensions are available."""
        return sum(1 for score in self.scores.values() if score.available)


def build_profile(
    pr: PullRequest,
    snapshot: RepoSnapshot,
    config: AnalysisConfig,
    lexicon: VouchLexicon,
) -> TrustProfile:
    """Run all six metrics on one PR and combine them."""
    scores = {
        "action": action_score(
            pr, snapshot, f_cap=config.f_cap, exclude_bots=config.exclude_bots
        ),
        "commitment": commitment_score(pr),
        "competence": competence_score(pr, snapshot, window=config.competence_window),
        "institutional": institutional_score(
            pr, snapshot, exclude_bots=config.exclude_bots
        ),
        "personality": personality_score(pr, snapshot),
        "transferred": transferred_detect(pr, snapshot, lexicon),
    }
    return TrustProfile(
        pr_number=pr.number,
        outcome=outcome(pr),
        scores=scores,
        overall=combine_scores(scores, config.weights),
    )


def combine_scores(
    scores: dict[str, DimensionScore], weights: dict[str, float]
) -> float | None:
    """Weighted mean over available dimensions, weights renormalized."""
    available = [(weights[d], scores[d].score) for d in DIMENSIONS if scores[d].available]
    if not available:
        return None
    return left_sum(w * s for w, s in available) / left_sum(w for w, _ in available)


def analyze_snapshot(
    snapshot: RepoSnapshot,
    config: AnalysisConfig,
    lexicon: VouchLexicon | None = None,
) -> tuple[list[TrustProfile], "RepoSummary"]:
    """Profile every PR in the snapshot and summarize the result.

    Raises ConfigError for a config that ``validate`` rejects, and
    SnapshotError when the snapshot holds no pull requests, since there is
    nothing to score or summarize.
    """
    config.validate()
    if not snapshot.pulls:
        raise SnapshotError("the snapshot holds no pull requests; there is nothing to analyze")
    if lexicon is None:
        lexicon = config.load_lexicon()
    profiles = [build_profile(pr, snapshot, config, lexicon) for pr in snapshot.pulls]
    return profiles, summarize(profiles)


# ---------------------------------------------------------------------------
# Stratified sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePlan:
    """How many PRs to draw and how to split them between outcomes.

    accepted_count = round-half-up(accept_ratio * per_repo_n),
    rejected_count = per_repo_n - accepted_count.
    """

    per_repo_n: int
    accept_ratio: float
    seed: int

    def __post_init__(self) -> None:
        AnalysisConfig(per_repo_n=self.per_repo_n, accept_ratio=self.accept_ratio, seed=self.seed).validate()

    @property
    def accepted_count(self) -> int:
        return math.floor(self.accept_ratio * self.per_repo_n + 0.5)

    @property
    def rejected_count(self) -> int:
        return self.per_repo_n - self.accepted_count


def stratified_sample(snapshot: RepoSnapshot, plan: SamplePlan) -> list[int]:
    """Draw PR numbers uniformly without replacement from each outcome stratum.

    Open PRs are never sampled. The draw is deterministic: a single
    Mersenne Twister generator (random.Random seeded with plan.seed)
    drives a Fisher-Yates shuffle (Random.shuffle) of each stratum,
    accepted first, each stratum pre-sorted ascending by number; the first
    accepted_count and rejected_count elements are taken and the union is
    returned sorted. The shuffle draws its indices by unbiased rejection
    sampling on getrandbits, so the sequence is identical across platforms.
    """
    accepted = [pr.number for pr in snapshot.pulls if outcome(pr) == "accepted"]
    rejected = [pr.number for pr in snapshot.pulls if outcome(pr) == "rejected"]

    if len(accepted) < plan.accepted_count:
        raise InsufficientStratumError("accepted", plan.accepted_count, len(accepted))
    if len(rejected) < plan.rejected_count:
        raise InsufficientStratumError("rejected", plan.rejected_count, len(rejected))

    rng = random.Random(plan.seed)
    rng.shuffle(accepted)
    rng.shuffle(rejected)
    return sorted(accepted[: plan.accepted_count] + rejected[: plan.rejected_count])


# ---------------------------------------------------------------------------
# Repo-level summary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StratumSummary:
    """Counts and means over the PRs of one outcome stratum."""

    pr_count: int
    mean_comment_frequency: float | None
    prs_with_post_feedback_commits: int
    prs_with_review_response: int
    first_timer_prs: int
    prs_with_shared_org_counterparty: int
    prs_with_full_acceptance_closer: int
    prs_with_transferred_flag: int


# Per StratumSummary field after pr_count, what the summary folds into it: the dimension,
# the evidence key (None: the score), the only JSON types prtrust writes there (a float is
# finite), and the bool test a PR is counted by (None: the field is the values' mean).
FOLDED = {
    "mean_comment_frequency": ("action", "frequency", (float,), None),
    "prs_with_post_feedback_commits": ("action", "revision_commits", (int,), lambda n: n > 0),
    "prs_with_review_response": ("commitment", "any_response", (bool,), bool),
    "first_timer_prs": ("competence", "prior_pr_count", (int,), lambda n: n == 0),
    "prs_with_shared_org_counterparty": ("institutional", "shared", (int,), lambda n: n >= 1),
    "prs_with_full_acceptance_closer": ("personality", "closer_propensity", (float, type(None)),
                                        lambda p: p == 1.0),
    "prs_with_transferred_flag": ("transferred", None, (float,), lambda score: score == 1.0),
}


@dataclass(frozen=True)
class RepoSummary:
    """Per-outcome summary statistics for one analyzed repository.

    Open (pending) PRs are excluded from both strata. The
    rejected-by-first-timers count is the rejected stratum's
    first_timer_prs.
    """

    accepted: StratumSummary
    rejected: StratumSummary


def summarize(profiles: Iterable[TrustProfile]) -> RepoSummary:
    """Fold per-PR profiles into the per-stratum summary.

    Permutation-invariant over the profile list; raises ValueError on
    empty input. Means are taken over non-absent values only.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValueError("summarize requires at least one profile")
    strata = {"accepted": [], "rejected": []}
    for profile in profiles:
        if profile.outcome in strata:
            strata[profile.outcome].append(profile)
    return RepoSummary(
        accepted=_summarize_stratum(strata["accepted"]),
        rejected=_summarize_stratum(strata["rejected"]),
    )


def _summarize_stratum(profiles: list[TrustProfile]) -> StratumSummary:
    folded = {}
    for name, (dimension, key, _, counts) in FOLDED.items():
        values = [p.scores[dimension].score if key is None else p.scores[dimension].evidence[key]
                  for p in profiles]
        if counts is not None:
            folded[name] = sum(map(counts, values))
        else:  # fsum is exactly rounded, keeping the mean permutation-invariant
            folded[name] = math.fsum(values) / len(values) if values else None
    return StratumSummary(len(profiles), **folded)
