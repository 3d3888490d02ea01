"""Profile assembly, stratified sampling, and summary statistics."""

from __future__ import annotations

import dataclasses
import gc
import random
from pathlib import Path
from types import MappingProxyType

import pytest

from conftest import VOUCH_PR, comment, commit, iso, pull, request, review, sampling_dict, snapshot, user
from prtrust import aggregate
from prtrust import (
    AnalysisConfig,
    ConfigError,
    DimensionScore,
    InsufficientStratumError,
    SamplePlan,
    SnapshotError,
    analyze_snapshot,
    build_profile,
    combine_scores,
    default_lexicon,
    snapshot_from_dict,
    stratified_sample,
    summarize,
)
from prtrust.metrics import left_sum

UNIFORM = {d: 1 / 6 for d in
           ("action", "commitment", "competence", "institutional", "personality", "transferred")}


def _score(dimension, value):
    return DimensionScore(value, {})


def _absent(dimension):
    return DimensionScore(None, {})


def test_combine_all_available_and_equal():
    scores = {d: _score(d, 1.0) for d in UNIFORM}
    assert combine_scores(scores, UNIFORM) == pytest.approx(1.0)


def test_combine_renormalizes_over_single_dimension():
    scores = {d: _absent(d) for d in UNIFORM}
    scores["action"] = _score("action", 0.5)
    assert combine_scores(scores, UNIFORM) == pytest.approx(0.5)


def test_combine_mixed_availability_matches_hand_sum():
    values = {
        "action": 1.0, "commitment": 0.25, "competence": 4.0 / 9.0,
        "institutional": 1.0, "personality": 1.0, "transferred": 0.0,
    }
    scores = {d: _score(d, v) for d, v in values.items()}
    expected = sum(values.values()) / 6.0
    assert combine_scores(scores, UNIFORM) == pytest.approx(expected, abs=1e-12)
    assert combine_scores(scores, UNIFORM) == pytest.approx(0.6157407407407407, abs=1e-9)


def test_combine_adds_left_to_right_on_every_python():
    """Python 3.12's sum() compensates rounding (six weights of 1/6 sum to 1.0,
    not 0.9999999999999999), which would move the last digit of this score."""
    values = (1.0, 0.25, 4.0 / 9.0, 1.0, 1.0, 0.0)
    scores = {d: _score(d, v) for d, v in zip(UNIFORM, values)}
    assert combine_scores(scores, UNIFORM) == 0.6157407407407408
    assert left_sum([0.1] * 10) == 0.9999999999999999


def test_combine_none_available():
    assert combine_scores({d: _absent(d) for d in UNIFORM}, UNIFORM) is None


def test_combine_respects_weights():
    scores = {d: _absent(d) for d in UNIFORM}
    scores["action"] = _score("action", 1.0)
    scores["personality"] = _score("personality", 0.0)
    weights = dict(UNIFORM, action=3 / 6)
    assert combine_scores(scores, weights) == pytest.approx(0.75)


def test_build_profile_every_dimension_maxed():
    """A PR engineered so all six dimensions are available and equal to 1."""
    users = [
        user("ace", followers=1000, orgs=("acme",), permission="write"),
        user("boss", followers=10, orgs=("acme",), permission="admin", closure=(50, 50)),
    ]
    priors = [pull(n, "ace", state="merged", closer="boss") for n in range(1, 4)]
    target = pull(
        9, "ace", state="merged", created=iso(20), closed=iso(22), closer="boss",
        issue_comments=[
            comment(90 + k, "boss", iso(20, hours=k + 1),
                    body="Ace is a new member of our team, we already reviewed his work"
                    if k == 0 else "more feedback")
            for k in range(8)
        ],
        review_requests=[request("boss", iso(20, minutes=30))],
        commits=[commit("99" + "e" * 38, "ace", iso(20, hours=12))],
    )
    snap = snapshot_from_dict(snapshot(priors + [target], users))
    profile = build_profile(snap.pulls[-1], snap, AnalysisConfig(), default_lexicon())
    for dimension, score in profile.scores.items():
        assert score.available, dimension
        assert score.score == pytest.approx(1.0), dimension
    assert profile.overall == pytest.approx(1.0)
    assert profile.coverage == 6
    assert profile.outcome == "accepted"


class _CountingPulls(tuple):
    """A pulls tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _pull_iterations(n: int) -> int:
    """How often analyze_snapshot iterates the pulls of an n-PR snapshot."""
    authors = ("ana", "ben", "cy")
    users = [user(login) for login in authors] + [user("boss", permission="write")]
    pulls = [
        pull(k, authors[k % 3], state="merged" if k % 4 else "closed_unmerged",
             created=iso(k), closed=iso(k + 1), closer="boss",
             reviews=[review(10_000 + k, "boss", iso(k, hours=2), body="ok")],
             issue_comments=[comment(k, "ben", iso(k, hours=1),
                                     body="we already reviewed their work")])
        for k in range(1, n + 1)
    ]
    snap = snapshot_from_dict(snapshot(pulls, users, fetched=iso(n + 2)))
    counted = dataclasses.replace(snap, pulls=_CountingPulls(snap.pulls))
    analyze_snapshot(counted, AnalysisConfig())
    return counted.pulls.iterations


def test_analysis_walks_the_pulls_a_fixed_number_of_times():
    # a per-PR scan of the history would make the count grow with n
    assert _pull_iterations(50) == _pull_iterations(400)


def test_profiles_carry_unavailability_through(rich_snapshot):
    profiles, _ = analyze_snapshot(rich_snapshot, AnalysisConfig())
    by_number = {p.pr_number: p for p in profiles}
    # PR 2: author bob has no orgs -> institutional unavailable
    assert not by_number[2].scores["institutional"].available
    assert by_number[2].coverage < 6
    assert by_number[2].overall is not None


def _failing_profile(pr, *args):
    if pr.number == VOUCH_PR:
        raise RuntimeError(f"PR {pr.number}")
    return build_profile(pr, *args)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case, error", [
    ("valid", None),
    ("bad-config", ConfigError),
    ("no-pulls", SnapshotError),
    ("profile-raises", RuntimeError),
])
def test_analysis_leaves_the_collector_as_it_found_it(rich_snapshot, collector, monkeypatch, enabled, case,
                                                      error):
    snap, config = rich_snapshot, AnalysisConfig()
    if case == "bad-config":
        config = AnalysisConfig(competence_window=0)
    elif case == "no-pulls":
        snap = dataclasses.replace(snap, pulls=())
    elif case == "profile-raises":
        monkeypatch.setattr(aggregate, "build_profile", _failing_profile)
    collector(enabled)
    frozen = gc.get_freeze_count()
    if error is None:
        analyze_snapshot(snap, config)
    else:
        with pytest.raises(error):
            analyze_snapshot(snap, config)
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == frozen


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config, message", [
    (AnalysisConfig(weights={"action": 1.0}),
     "weights must cover exactly the dimensions ('action', 'commitment', 'competence', "
     "'institutional', 'personality', 'transferred')"),
    (AnalysisConfig(weights={d: 0.0 for d in UNIFORM}), "weights.action must be positive and finite, got 0.0"),
    # each weight positive and finite, their sum in DIMENSIONS order not
    (AnalysisConfig(weights={d: 1e308 for d in UNIFORM}), "weights must have a finite sum, got inf"),
    (AnalysisConfig(competence_window=0), "competence_window must be >= 1, got 0"),
    # a value of the wrong type, named before any range check runs
    (AnalysisConfig(f_cap="4"), "f_cap must be a number, got str"),
    (AnalysisConfig(competence_window=2.5), "competence_window must be an integer, got float"),
    (AnalysisConfig(competence_window=True), "competence_window must be an integer, got bool"),
    (AnalysisConfig(accept_ratio=True), "accept_ratio must be a number, got bool"),
    (AnalysisConfig(per_repo_n="25"), "per_repo_n must be an integer, got str"),
    (AnalysisConfig(seed=1.0), "seed must be an integer, got float"),
    (AnalysisConfig(weights=MappingProxyType(UNIFORM)), "weights must be a dict, got mappingproxy"),
    (AnalysisConfig(weights={**UNIFORM, "personality": "1"}), "weights.personality must be a number, got str"),
    (AnalysisConfig(weights={**UNIFORM, "action": True}), "weights.action must be a number, got bool"),
    (AnalysisConfig(exclude_bots="false"), "exclude_bots must be a boolean, got str"),
    (AnalysisConfig(lexicon_path=Path("vouch.txt")),
     f"lexicon_path must be a string or None, got {type(Path()).__name__}"),
], ids=["one-weight", "zero-weights", "weights-sum", "zero-window", "f_cap", "competence_window", "competence_window-bool",
        "accept_ratio", "per_repo_n", "seed", "weights", "weight-str", "weight-bool", "exclude_bots",
        "lexicon_path"])
def test_analysis_rejects_a_config_built_in_code_as_validate_does(rich_snapshot, config, message):
    with pytest.raises(ConfigError) as err:
        analyze_snapshot(rich_snapshot, config)
    assert str(err.value) == message


def test_plan_split_25_at_three_quarters():
    plan = SamplePlan(per_repo_n=25, accept_ratio=0.75, seed=0)
    assert plan.accepted_count == 19
    assert plan.rejected_count == 6


def test_plan_split_100_at_three_quarters():
    plan = SamplePlan(per_repo_n=100, accept_ratio=0.75, seed=0)
    assert plan.accepted_count == 75
    assert plan.rejected_count == 25


def test_plan_rounding_is_half_up():
    assert SamplePlan(per_repo_n=2, accept_ratio=0.25, seed=0).accepted_count == 1
    assert SamplePlan(per_repo_n=10, accept_ratio=0.05, seed=0).accepted_count == 1
    assert SamplePlan(per_repo_n=3, accept_ratio=0.5, seed=0).accepted_count == 2


def test_plan_counts_are_exact_up_to_2_to_the_53():
    plan = SamplePlan(per_repo_n=2**53, accept_ratio=0.75, seed=0)
    assert (plan.accepted_count, plan.rejected_count) == (3 * 2**51, 2**51)
    # the documented float formula: exact arithmetic on the float 0.3 would give 43,765
    assert SamplePlan(per_repo_n=145_885, accept_ratio=0.3, seed=0).accepted_count == 43_766


def test_plan_validates_inputs():
    for plan, message in [
        (dict(per_repo_n=0, accept_ratio=0.5, seed=0), "per_repo_n must be >= 1, got 0"),
        (dict(per_repo_n=2**53 + 1, accept_ratio=0.5, seed=0), "per_repo_n must be <= 2**53, got 9007199254740993"),
        (dict(per_repo_n=5, accept_ratio=1.5, seed=0), "accept_ratio must be in [0, 1], got 1.5"),
        # a plan is checked as a config: by type first, naming the key
        (dict(per_repo_n=True, accept_ratio=0.5, seed=0), "per_repo_n must be an integer, got bool"),
        (dict(per_repo_n=5, accept_ratio=0.5, seed="7"), "seed must be an integer, got str"),
        # both out of range: named in the order a config checks them
        (dict(per_repo_n=0, accept_ratio=1.5, seed=0), "accept_ratio must be in [0, 1], got 1.5"),
    ]:
        with pytest.raises(ConfigError) as err:
            SamplePlan(**plan)
        assert str(err.value) == message, plan


def test_sample_is_deterministic_and_sorted():
    snap = snapshot_from_dict(sampling_dict())
    plan = SamplePlan(per_repo_n=25, accept_ratio=0.75, seed=1234)
    first = stratified_sample(snap, plan)
    assert first == sorted(first)
    assert len(first) == 25
    for _ in range(9):
        assert stratified_sample(snap, plan) == first


def test_sample_strata_sizes():
    snap = snapshot_from_dict(sampling_dict())
    picked = stratified_sample(snap, SamplePlan(per_repo_n=25, accept_ratio=0.75, seed=7))
    accepted = [n for n in picked if n <= 28]
    rejected = [n for n in picked if n > 28]
    assert len(accepted) == 19
    assert len(rejected) == 6


def test_sample_seeds_differ():
    snap = snapshot_from_dict(sampling_dict())
    samples = {
        tuple(stratified_sample(snap, SamplePlan(per_repo_n=25, accept_ratio=0.75, seed=s)))
        for s in range(10)
    }
    assert len(samples) >= 2


# The exact draws on the rich fixture (15 accepted, 7 rejected, 3 open). The
# rejected picks depend on the generator state the accepted shuffle leaves.
_PINNED_SAMPLES = {
    (8, 0.75, 0): [2, 4, 10, 12, 17, 19, 20, 21],
    (8, 0.75, 1): [1, 6, 10, 11, 15, 19, 23, 25],
    (8, 0.75, 7): [5, 7, 9, 13, 18, 20, 22, 25],
    (8, 0.75, 2023): [1, 4, 5, 7, 9, 14, 15, 22],
    (9, 0.5, 0): [2, 3, 10, 12, 17, 18, 19, 20, 21],
    (9, 0.5, 1): [1, 6, 9, 11, 15, 19, 21, 23, 25],
    (9, 0.5, 7): [5, 6, 9, 13, 15, 18, 20, 22, 25],
    (9, 0.5, 2023): [4, 5, 7, 9, 12, 14, 15, 21, 22],
}


@pytest.mark.parametrize("n,ratio,seed", list(_PINNED_SAMPLES))
def test_sample_draws_are_pinned(n, ratio, seed, rich_snapshot):
    plan = SamplePlan(per_repo_n=n, accept_ratio=ratio, seed=seed)
    assert stratified_sample(rich_snapshot, plan) == _PINNED_SAMPLES[n, ratio, seed]


def test_sample_never_picks_open_prs():
    data = sampling_dict(accepted=6, rejected=4)
    data["pulls"].append(pull(99, "dev", state="open"))
    snap = snapshot_from_dict(data)
    picked = stratified_sample(snap, SamplePlan(per_repo_n=10, accept_ratio=0.6, seed=3))
    assert 99 not in picked


def test_sample_insufficient_stratum():
    snap = snapshot_from_dict(sampling_dict(accepted=10, rejected=5))
    with pytest.raises(InsufficientStratumError) as err:
        stratified_sample(snap, SamplePlan(per_repo_n=25, accept_ratio=0.75, seed=0))
    assert err.value.stratum == "accepted"
    assert err.value.needed == 19
    assert err.value.available == 10
    # 6 rejected needed but 5 present, detected when accepted stratum suffices
    snap2 = snapshot_from_dict(sampling_dict(accepted=19, rejected=5))
    with pytest.raises(InsufficientStratumError) as err2:
        stratified_sample(snap2, SamplePlan(per_repo_n=25, accept_ratio=0.75, seed=0))
    assert err2.value.stratum == "rejected"


def test_sample_marginals_are_near_uniform():
    """Over 1000 seeds each accepted PR appears at close to the ideal rate."""
    snap = snapshot_from_dict(sampling_dict())
    plan_counts = {n: 0 for n in range(1, 29)}
    runs = 1000
    for seed in range(runs):
        picked = stratified_sample(snap, SamplePlan(per_repo_n=25, accept_ratio=0.75, seed=seed))
        for n in picked:
            if n <= 28:
                plan_counts[n] += 1
    ideal = 19 / 28
    for n, count in plan_counts.items():
        assert abs(count / runs - ideal) <= 0.05, f"PR {n} drawn {count}/{runs}"


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def test_summarize_single_pr():
    users = [user("solo"), user("boss", permission="admin")]
    pr = pull(1, "solo", state="merged", created=iso(0), closed=iso(2), closer="boss",
              issue_comments=[comment(5, "boss", iso(0, hours=1))],
              commits=[commit("aa", "solo", iso(0, hours=2))])
    snap = snapshot_from_dict(snapshot([pr], users))
    profiles, summary = analyze_snapshot(snap, AnalysisConfig())
    assert summary.accepted.pr_count == 1
    assert summary.rejected.pr_count == 0
    assert summary.accepted.prs_with_post_feedback_commits == 1
    assert summary.accepted.prs_with_review_response == 0
    assert summary.accepted.first_timer_prs == 1
    assert summary.accepted.mean_comment_frequency == pytest.approx(0.5)
    assert summary.rejected.mean_comment_frequency is None


def test_summarize_rejects_empty_input(rich_snapshot):
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_is_permutation_invariant(rich_snapshot):
    profiles, summary = analyze_snapshot(rich_snapshot, AnalysisConfig())
    for seed in range(5):
        shuffled = list(profiles)
        random.Random(seed).shuffle(shuffled)
        assert summarize(shuffled) == summary


def test_summarize_excludes_pending(rich_snapshot):
    profiles, summary = analyze_snapshot(rich_snapshot, AnalysisConfig())
    pending = [p for p in profiles if p.outcome == "pending"]
    assert len(pending) == 3
    assert summary.accepted.pr_count + summary.rejected.pr_count == 22


def test_summary_counts_bounded_by_stratum(rich_snapshot):
    _, summary = analyze_snapshot(rich_snapshot, AnalysisConfig())
    for stratum in (summary.accepted, summary.rejected):
        for field in (
            "prs_with_post_feedback_commits", "prs_with_review_response",
            "first_timer_prs", "prs_with_shared_org_counterparty",
            "prs_with_full_acceptance_closer", "prs_with_transferred_flag",
        ):
            assert 0 <= getattr(stratum, field) <= stratum.pr_count


def test_the_fold_table_names_every_summary_field_after_pr_count_in_field_order():
    assert list(aggregate.FOLDED) == [f.name for f in dataclasses.fields(aggregate.StratumSummary)][1:]


# Per JSON type the summary may fold, values prtrust writes; a count test sees each of them.
_FOLDED_VALUES = {float: (0.0, 0.5, 1.0, 2.0), int: (0, 1, 3), bool: (False, True), type(None): (None,)}


@pytest.mark.parametrize("name", [name for name, row in aggregate.FOLDED.items() if row[3] is not None])
def test_each_count_test_returns_a_bool(name):
    """A count test is summed, so it must return a bool: ``(1.0).__eq__`` would return
    NotImplemented, which is truthy, for a null closer propensity."""
    _, _, types, counts = aggregate.FOLDED[name]
    for value in (value for json_type in types for value in _FOLDED_VALUES[json_type]):
        assert type(counts(value)) is bool, (name, value)
