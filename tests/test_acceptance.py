"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The network smoke test only runs when PRTRUST_NETWORK_TESTS=1.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager

import pytest

import oracle
from conftest import (
    comment,
    iso,
    pull,
    rich_snapshot_dict,
    sampling_dict,
    snapshot,
    summary_target_dict,
    user,
)
from prtrust import (
    AnalysisConfig,
    SamplePlan,
    SnapshotError,
    analyze_snapshot,
    build_bundle,
    config_echo,
    csv_text,
    default_lexicon,
    load_snapshot,
    markdown_summary,
    save_snapshot,
    snapshot_from_dict,
    snapshot_to_dict,
    stratified_sample,
)

TOL = 1e-9


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def _close(left, right):
    if left is None or right is None:
        return left is None and right is None
    return abs(left - right) <= TOL


# ---------------------------------------------------------------------------
# 1. Oracle equivalence on a 25-PR synthetic corpus
# ---------------------------------------------------------------------------

def test_acceptance_1_oracle_equivalence():
    with criterion("1 (oracle equivalence, 25-PR corpus, <5s)"):
        started = time.perf_counter()
        raw = rich_snapshot_dict()
        snap = snapshot_from_dict(raw)
        profiles, summary = analyze_snapshot(snap, AnalysisConfig())
        expected = {pr["number"]: oracle.oracle_profile(pr, raw) for pr in raw["pulls"]}

        assert len(profiles) == 25
        for profile in profiles:
            want = expected[profile.pr_number]
            assert profile.outcome == want["outcome"]
            assert profile.coverage == want["coverage"]
            assert _close(profile.overall, want["overall"]), profile.pr_number
            for dim, got in profile.scores.items():
                ref = want["scores"][dim]
                assert got.available == ref["available"], (profile.pr_number, dim)
                assert _close(got.score, ref["score"]), (profile.pr_number, dim)

            act, ref = profile.scores["action"].evidence, want["scores"]["action"]
            assert act["comment_count"] == ref["comment_count"]
            assert act["active_days"] == ref["active_days"]
            assert act["revision_commits"] == ref["revision_commits"]
            assert _close(act["frequency"], ref["frequency"])

            com, ref = profile.scores["commitment"].evidence, want["scores"]["commitment"]
            for key in ("requested", "responded", "any_response", "author_addressed"):
                assert com[key] == ref[key]

            cmp_, ref = profile.scores["competence"].evidence, want["scores"]["competence"]
            assert cmp_["prior_pr_count"] == ref["prior_pr_count"]
            assert cmp_["prior_accepted"] == ref["prior_accepted"]
            assert _close(cmp_["prior_acceptance_rate"], ref["prior_acceptance_rate"])

            inst, ref = profile.scores["institutional"].evidence, want["scores"]["institutional"]
            assert inst["counterparties"] == ref["counterparties"]
            assert inst["shared"] == ref["shared"]

            assert _close(
                profile.scores["personality"].evidence["closer_propensity"],
                want["scores"]["personality"]["closer_propensity"],
            )
            assert profile.scores["transferred"].evidence["vouches"] == (
                want["scores"]["transferred"]["vouches"]
            )

        ref_summary = oracle.oracle_summary(raw)
        for stratum_name in ("accepted", "rejected"):
            got = getattr(summary, stratum_name)
            ref = ref_summary[stratum_name]
            assert got.pr_count == ref["pr_count"]
            assert _close(got.mean_comment_frequency, ref["mean_comment_frequency"])
            assert got.prs_with_post_feedback_commits == ref["prs_with_post_feedback_commits"]
            assert got.prs_with_review_response == ref["prs_with_review_response"]
            assert got.first_timer_prs == ref["first_timer_prs"]
            assert got.prs_with_shared_org_counterparty == ref["prs_with_shared_org_counterparty"]
            assert got.prs_with_full_acceptance_closer == ref["prs_with_full_acceptance_closer"]
            assert got.prs_with_transferred_flag == ref["prs_with_transferred_flag"]

        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. Summary reproduction on the engineered 100-PR corpus
# ---------------------------------------------------------------------------

def test_acceptance_2_summary_reproduction():
    with criterion("2 (summary prints 4.000000 / 1.250000 / 75 / 35)"):
        snap = snapshot_from_dict(summary_target_dict())
        config = AnalysisConfig()
        profiles, summary = analyze_snapshot(snap, config)
        assert summary.accepted.pr_count == 75
        assert summary.rejected.pr_count == 25

        bundle = build_bundle(snap, profiles, summary,
                              config_echo(config, config.load_lexicon()))
        text = markdown_summary(bundle)
        assert "| Mean comment frequency (per day) | 4.000000 | 1.250000 |" in text
        assert "| PRs with post-feedback commits | 66 | 9 | 75 |" in text
        assert "| PRs with a review response | 32 | 3 | 35 |" in text


# ---------------------------------------------------------------------------
# 3. Sampling protocol
# ---------------------------------------------------------------------------

def test_acceptance_3_sampling_protocol():
    with criterion("3 (19+6 split, deterministic, seed-sensitive)"):
        snap = snapshot_from_dict(sampling_dict())
        plan = SamplePlan(per_repo_n=25, accept_ratio=0.75, seed=20220101)
        first = stratified_sample(snap, plan)
        assert len([n for n in first if n <= 28]) == 19
        assert len([n for n in first if n > 28]) == 6
        for _ in range(10):
            assert stratified_sample(snap, plan) == first
        distinct = {
            tuple(stratified_sample(snap, SamplePlan(per_repo_n=25, accept_ratio=0.75, seed=s)))
            for s in range(10)
        }
        assert len(distinct) >= 2


# ---------------------------------------------------------------------------
# 4. Personality fixtures in CSV output
# ---------------------------------------------------------------------------

def test_acceptance_4_personality_csv():
    with criterion("4 (closure 272/272 -> 1.000000 and 99/10 -> 0.101010)"):
        snap = snapshot_from_dict(rich_snapshot_dict())
        config = AnalysisConfig()
        profiles, summary = analyze_snapshot(snap, config)
        bundle = build_bundle(snap, profiles, summary,
                              config_echo(config, config.load_lexicon()))
        rows = {line.split(",")[0]: line.split(",")
                for line in csv_text(bundle).splitlines()[1:]}
        personality = 6  # column index
        assert rows["4"][personality] == "1.000000"   # closer carol, history (272, 272)
        assert rows["5"][personality] == "0.101010"   # closer dan, history (99, 10)


# ---------------------------------------------------------------------------
# 5. Transferred-trust detector
# ---------------------------------------------------------------------------

CHATTER = [
    "LGTM",
    "Looks good to me, thanks!",
    "Please rebase onto main before we merge.",
    "CI is red; the linter step is failing.",
    "Can you add a unit test for the empty input case?",
    "Nice catch, I missed that entirely.",
    "This breaks the Windows build, see the log attached.",
    "Could you squash the fixup commits?",
    "The docstring says seconds but the code uses milliseconds.",
    "I left a few inline notes, nothing blocking.",
    "What happens when the list is empty here?",
    "Typo in the changelog entry.",
    "Should this constant live in config instead?",
    "Benchmarks look flat, no regression.",
    "Please target the release branch instead.",
    "The migration needs a downgrade path.",
    "Good idea, but let's keep the API stable for now.",
    "Have you run this against the staging data?",
    "Error handling here swallows the original traceback.",
    "Approved, pending the CI fix.",
    "Thanks for the quick turnaround!",
    "This needs a rebase, there are conflicts in the lockfile.",
    "Why was the timeout raised to 60s?",
    "Let's split this into two smaller changes.",
    "The new flag should be documented in the README.",
    "Off-by-one in the pagination loop, see line 42.",
    "Can we avoid the extra allocation in the hot path?",
    "Test coverage dropped by 2%, please add cases.",
    "I'd prefer a dataclass over a dict here.",
    "The retry logic never stops on 4xx responses.",
    "Merge after the release freeze lifts.",
    "Does this handle unicode filenames?",
    "The lock is held across the await, likely a deadlock.",
    "Style nit: trailing whitespace on several lines.",
    "We deprecated that helper last quarter, use the new one.",
    "Failing test is flaky, restarted the job.",
    "Please update the schema version as well.",
    "Looks like a duplicate of an earlier change.",
    "The default should stay false for backward compatibility.",
    "Memory usage doubles with this cache, is that intended?",
    "Add a note explaining the magic number.",
    "This closes the long-standing pagination bug.",
    "Can you confirm the fix on 3.10 as well?",
    "The fixture file is missing from the diff.",
    "Integration suite passed locally for me.",
    "Needs a changelog entry before merge.",
    "The error message should name the offending field.",
    "Wrong base branch, please retarget.",
    "All review points addressed, thanks.",
    "Ship it once CI is green.",
]


def _chatter_snapshot() -> dict:
    users = [user(f"dev{i}") for i in range(1, 11)]
    users.append(user("maintainer", permission="admin"))
    pulls = []
    body_iter = iter(CHATTER)
    for number in range(1, 11):
        comments = [
            comment(number * 100 + k, "maintainer", iso(days=number, hours=k + 1),
                    body=next(body_iter))
            for k in range(5)
        ]
        pulls.append(pull(number, f"dev{number}", created=iso(days=number),
                          closed=iso(days=number + 1), closer="maintainer",
                          issue_comments=comments))
    return snapshot(pulls, users)


def test_acceptance_5_transferred_detector():
    with criterion("5 (flags the exemplar vouch, zero flags on 50-comment chatter)"):
        assert len(CHATTER) == 50
        rich = snapshot_from_dict(rich_snapshot_dict())
        lexicon = default_lexicon()
        from prtrust import transferred_detect

        vouch_pr = next(pr for pr in rich.pulls if pr.number == 17)
        flagged = transferred_detect(vouch_pr, rich, lexicon)
        assert flagged.score == 1.0
        assert flagged.evidence["vouches"][0]["voucher"] == "maintainer"

        quiet = snapshot_from_dict(_chatter_snapshot())
        for pr in quiet.pulls:
            assert transferred_detect(pr, quiet, lexicon).score == 0.0


# ---------------------------------------------------------------------------
# 6. Property spot-suite (full hypothesis suites live in test_properties.py)
# ---------------------------------------------------------------------------

def test_acceptance_6_property_suite():
    with criterion("6 (bounds, monotonicity, permutation, round-trip, validation)"):
        from test_corpus import negative_snapshot_dicts
        from prtrust import (
            commitment_score,
            institutional_score,
            load_snapshot as _load,
            summarize,
        )

        raw = rich_snapshot_dict()
        snap = snapshot_from_dict(raw)
        profiles, summary = analyze_snapshot(snap, AnalysisConfig())

        # score bounds
        for profile in profiles:
            for score in profile.scores.values():
                if score.available:
                    assert 0.0 <= score.score <= 1.0
            if profile.overall is not None:
                assert 0.0 <= profile.overall <= 1.0

        # permutation invariance
        for seed in range(3):
            shuffled = list(profiles)
            random.Random(seed).shuffle(shuffled)
            assert summarize(shuffled) == summary

        # round-trip
        assert snapshot_from_dict(snapshot_to_dict(snap)) == snap

        # validator rejects the whole negative suite
        for name, bad, _ in negative_snapshot_dicts():
            with pytest.raises(SnapshotError):
                snapshot_from_dict(bad)

        # monotonicity spot checks: an extra responder, an extra shared org
        def commitment_case(extra):
            logins = ["r1", "r2", "r3"] + (["r4"] if extra else [])
            responders = ["r1"] + (["r4"] if extra else [])
            data = snapshot(
                [pull(1, "dev", created=iso(0), closed=iso(2),
                      review_requests=[{"requestee": l, "requested_at": iso(0, hours=1)}
                                       for l in logins],
                      issue_comments=[comment(10 + i, l, iso(0, hours=2))
                                      for i, l in enumerate(responders)])],
                [user(l) for l in ["dev", "r1", "r2", "r3", "r4", "maintainer"]],
            )
            return commitment_score(snapshot_from_dict(data).pulls[0]).score

        assert commitment_case(True) >= commitment_case(False)

        def institutional_case(extra):
            participants = ["out1"] + (["in1"] if extra else [])
            data = snapshot(
                [pull(1, "dev", created=iso(0), closed=iso(1),
                      issue_comments=[comment(20 + i, l, iso(0, hours=1))
                                      for i, l in enumerate(participants)])],
                [user("dev", orgs=("orga",)), user("out1"),
                 user("in1", orgs=("orga",)), user("maintainer")],
            )
            loaded = snapshot_from_dict(data)
            return institutional_score(loaded.pulls[0], loaded).score

        assert institutional_case(True) >= institutional_case(False)


# ---------------------------------------------------------------------------
# 7. Network smoke test (opt-in)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(
    os.environ.get("PRTRUST_NETWORK_TESTS") != "1",
    reason="network smoke test: set PRTRUST_NETWORK_TESTS=1 to run",
)
def test_acceptance_7_network_smoke(tmp_path):
    with criterion("7 (live fetch of 5 PRs, warm cache serves everything, <2min)"):
        import requests

        from prtrust import FetchPlan, fetch_snapshot, validate

        class CountingSession:
            def __init__(self):
                self.inner = requests.Session()
                self.statuses = []

            def get(self, url, headers=None, timeout=None):
                response = self.inner.get(url, headers=headers, timeout=timeout)
                self.statuses.append(response.status_code)
                return response

        started = time.perf_counter()
        plan = FetchPlan(
            repo_owner=os.environ.get("PRTRUST_SMOKE_OWNER", "apache"),
            repo_name=os.environ.get("PRTRUST_SMOKE_REPO", "airflow"),
            max_pulls=5,
            cache_dir=tmp_path / "cache",
        )
        session = CountingSession()
        snap = fetch_snapshot(plan, session=session)
        validate(snap)
        assert len(snap.pulls) == 5

        warm_session = CountingSession()
        warm = fetch_snapshot(plan, session=warm_session)
        assert 200 not in warm_session.statuses
        cold_path, warm_path = tmp_path / "cold.json", tmp_path / "warm.json"
        save_snapshot(snap, cold_path)
        save_snapshot(warm, warm_path)
        assert cold_path.read_bytes() == warm_path.read_bytes()

        assert time.perf_counter() - started < 120.0
