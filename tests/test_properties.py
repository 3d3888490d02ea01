"""Property-based checks over generated corpora and metric inputs."""

from __future__ import annotations

import json

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracle
from conftest import comment, commit, iso, pull, report_dict, request, review, snapshot, user
from prtrust import (
    AnalysisConfig,
    VouchLexicon,
    action_score,
    analyze_snapshot,
    build_bundle,
    build_profile,
    classify_contribution,
    commitment_score,
    competence_score,
    config_echo,
    default_lexicon,
    institutional_score,
    json_text,
    personality_propensity,
    personality_score,
    save_snapshot,
    snapshot_from_dict,
    snapshot_to_dict,
    transferred_detect,
)

LOGINS = ("ana", "ben", "cy", "di")
ORGS = ("orga", "orgb")
PATH_PARTS = ("src", "docs", "lib", "doc")
PATH_NAMES = ("main.c", "readme.md", "guide.rst", "notes.txt", "mod.rs", "intro.adoc")
# Patterns for the generated bodies: wildcards, shared heads, a pattern that
# is a prefix of another, and a head that occurs without its tail.
CUSTOM_PATTERNS = ("reviewed* work", "we already reviewed", "we already", "needs*",
                   "please* this", "looks*")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@st.composite
def snapshot_dicts(draw) -> dict:
    logins = LOGINS[: draw(st.integers(2, 4))]
    users = []
    for login in logins:
        closure = draw(st.one_of(
            st.none(),
            st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
                lambda t: (max(t), min(t))
            ),
        ))
        users.append(user(
            login,
            followers=draw(st.integers(0, 5000)),
            orgs=tuple(sorted(draw(st.sets(st.sampled_from(ORGS))))),
            permission=draw(st.sampled_from(("admin", "write", "read", "none"))),
            closure=closure,
            unknown=draw(st.booleans()),
        ))

    numbers = sorted(draw(st.sets(st.integers(1, 60), max_size=8)))
    pulls = []
    for number in numbers:
        author = draw(st.sampled_from(logins))
        state = draw(st.sampled_from(("merged", "closed_unmerged", "open")))
        created_day = draw(st.integers(0, 10))

        comment_ids = sorted(draw(st.sets(st.integers(1, 500), max_size=4)))
        issue_comments = []
        review_comments = []
        for idx, cid in enumerate(comment_ids):
            body = draw(st.sampled_from(
                ("looks fine", "please explain", "", "we already reviewed their work")))
            entry = comment(cid, draw(st.sampled_from(logins)),
                            iso(days=created_day, hours=draw(st.integers(0, 72))), body)
            (issue_comments if idx % 2 == 0 else review_comments).append(entry)

        reviews = [
            review(600 + k, draw(st.sampled_from(logins)),
                   iso(days=created_day, hours=draw(st.integers(0, 72))),
                   verdict=draw(st.sampled_from(
                       ("approved", "commented", "changes_requested", "dismissed"))),
                   body=draw(st.sampled_from(("", "needs work"))))
            for k in range(draw(st.integers(0, 2)))
        ]
        commits = [
            commit(f"{number:02x}{k}" + "0" * 12, draw(st.sampled_from(logins)),
                   iso(days=created_day, hours=draw(st.integers(0, 72))))
            for k in range(draw(st.integers(0, 2)))
        ]
        candidates = [login for login in logins if login != author]
        review_requests = [
            request(requestee, iso(days=created_day, hours=draw(st.integers(0, 24))))
            for requestee in draw(st.sets(st.sampled_from(candidates), max_size=2))
        ]
        files = draw(st.lists(
            st.tuples(st.sampled_from(PATH_PARTS), st.sampled_from(PATH_NAMES)).map("/".join),
            max_size=3,
        ))

        pulls.append(pull(
            number,
            author,
            state=state,
            created=iso(days=created_day),
            closed=iso(days=created_day + draw(st.integers(0, 3)),
                       hours=draw(st.integers(0, 23))) if state != "open" else None,
            closer=draw(st.sampled_from(logins)) if state != "open" else None,
            files=files,
            commits=commits,
            issue_comments=issue_comments,
            review_comments=review_comments,
            reviews=reviews,
            review_requests=review_requests,
        ))
    return snapshot(pulls, users, fetched=iso(days=30))


# ---------------------------------------------------------------------------
# Round-trip and bounds
# ---------------------------------------------------------------------------

@given(snapshot_dicts())
@settings(max_examples=60, deadline=None)
def test_round_trip_is_identity(data):
    snap = snapshot_from_dict(data)
    assert snapshot_from_dict(snapshot_to_dict(snap)) == snap


@given(data=snapshot_dicts())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_saved_snapshot_is_json_dumps_of_its_dict_form(tmp_path, data):
    snap = snapshot_from_dict(data)
    save_snapshot(snap, tmp_path / "saved.json")  # the same path each example: the save replaces it
    saved = (tmp_path / "saved.json").read_text(encoding="utf-8")
    assert saved == json.dumps(snapshot_to_dict(snap), indent=2, ensure_ascii=False) + "\n"


CONFIGS = {
    "default": AnalysisConfig(),
    "tuned": AnalysisConfig(
        f_cap=2.5, competence_window=2, exclude_bots=False,
        weights={"action": 3.0, "commitment": 0.5, "competence": 1.0,
                 "institutional": 2.0, "personality": 0.25, "transferred": 1.5},
    ),
}


@given(snapshot_dicts(), st.sampled_from(sorted(CONFIGS)))
@settings(max_examples=60, deadline=None)
def test_the_json_report_is_json_dumps_of_its_dict_form(data, config_name):
    assume(data["pulls"])  # a snapshot with no PRs has no report
    snap = snapshot_from_dict(data)
    config = CONFIGS[config_name]
    lexicon = config.load_lexicon()
    profiles, summary = analyze_snapshot(snap, config, lexicon)
    bundle = build_bundle(snap, profiles, summary, config_echo(config, lexicon))
    assert json_text(bundle) == json.dumps(report_dict(bundle), indent=2, ensure_ascii=False) + "\n"


@given(snapshot_dicts())
@settings(max_examples=60, deadline=None)
def test_scores_are_bounded_and_evidence_consistent(data):
    snap = snapshot_from_dict(data)
    config = AnalysisConfig()
    lexicon = default_lexicon()
    for pr in snap.pulls:
        profile = build_profile(pr, snap, config, lexicon)
        values = []
        for score in profile.scores.values():
            assert score.available == (score.score is not None)
            if score.available:
                assert 0.0 <= score.score <= 1.0
                values.append(score.score)
        evidence = profile.scores["commitment"].evidence
        assert 0 <= evidence["responded"] <= evidence["requested"]
        inst = profile.scores["institutional"].evidence
        assert 0 <= inst["shared"] <= inst["counterparties"]
        act = profile.scores["action"].evidence
        assert act["comment_count"] >= 0
        assert 0 <= act["revision_commits"] <= len(pr.commits)
        assert profile.coverage == sum(1 for s in profile.scores.values() if s.available)
        if values:
            assert min(values) - 1e-12 <= profile.overall <= max(values) + 1e-12
        else:
            assert profile.overall is None


def _close(value, expected) -> bool:
    if value is None or expected is None:
        return value is expected
    return abs(value - expected) <= 1e-9


@given(snapshot_dicts())
@settings(max_examples=100, deadline=None)
def test_history_lookups_match_the_oracle(data):
    snap = snapshot_from_dict(data)
    lexicon = default_lexicon()
    for pr, raw in zip(snap.pulls, data["pulls"]):
        for window in ({"window": 1}, {"window": 2}, {"window": 3}, {}):
            got = competence_score(pr, snap, **window)
            want = oracle.oracle_competence(raw, data, **window)
            assert got.evidence["prior_pr_count"] == want["prior_pr_count"]
            assert got.evidence["prior_accepted"] == want["prior_accepted"]
            assert _close(got.evidence["prior_acceptance_rate"], want["prior_acceptance_rate"])
            assert got.available == want["available"] and _close(got.score, want["score"])

        got, want = personality_score(pr, snap), oracle.oracle_personality(raw, data)
        assert _close(got.evidence["closer_propensity"], want["closer_propensity"])
        assert got.available == want["available"] and _close(got.score, want["score"])

        for patterns in (None, CUSTOM_PATTERNS):
            used = lexicon if patterns is None else VouchLexicon(patterns)
            got = transferred_detect(pr, snap, used)
            want = oracle.oracle_transferred(raw, data, patterns=patterns)
            assert got.evidence["vouches"] == want["vouches"]
            assert got.score == want["score"]


# ---------------------------------------------------------------------------
# Determinism and order independence
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(PATH_PARTS + ("",)),
                          st.sampled_from(PATH_NAMES)).map("/".join), max_size=6),
       st.randoms())
@settings(max_examples=80, deadline=None)
def test_classify_contribution_is_order_independent(files, rng):
    shuffled = list(files)
    rng.shuffle(shuffled)
    assert classify_contribution(files) == classify_contribution(shuffled)


@given(st.integers(0, 500), st.integers(0, 500), st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_propensity_is_scale_invariant(closed, accepted, k):
    accepted = min(accepted, closed)
    users = [user("dev"), user("x1", closure=(closed, accepted)),
             user("x2", closure=(closed * k, accepted * k))]
    snap = snapshot_from_dict(snapshot([], users))
    assert personality_propensity("x1", snap) == personality_propensity("x2", snap)


# ---------------------------------------------------------------------------
# Monotonicity
# ---------------------------------------------------------------------------

POOL = [f"r{i}" for i in range(1, 8)]


def _commitment_pr(requested, responded, extra_responder=False):
    logins = POOL[:requested]
    if extra_responder:
        logins = logins + ["rx"]
    requests = [request(login, iso(0, hours=1)) for login in logins]
    responders = POOL[:responded] + (["rx"] if extra_responder else [])
    comments = [comment(100 + i, login, iso(0, hours=2))
                for i, login in enumerate(responders)]
    pr = pull(1, "dev", created=iso(0), closed=iso(2),
              review_requests=requests, issue_comments=comments)
    users = [user("dev"), user("rx"), user("maintainer", permission="admin")]
    users += [user(login) for login in POOL]
    return snapshot_from_dict(snapshot([pr], users)).pulls[0]


@given(st.integers(1, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_commitment_gains_from_a_responding_requestee(requested, data):
    responded = data.draw(st.integers(0, requested))
    before = commitment_score(_commitment_pr(requested, responded)).score
    after = commitment_score(_commitment_pr(requested, responded, extra_responder=True)).score
    assert after >= before - 1e-12


@given(st.integers(0, 6), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_action_frequency_never_drops_with_more_comments(count, days):
    def build(n):
        comments = [comment(10 + i, "maintainer", iso(0, hours=i + 1)) for i in range(n)]
        pr = pull(1, "dev", created=iso(0), closed=iso(days), issue_comments=comments)
        snap = snapshot_from_dict(snapshot([pr], [user("dev"), user("maintainer", permission="admin")]))
        return action_score(snap.pulls[0], snap)

    before = build(count)
    after = build(count + 1)
    assert after.evidence["frequency"] >= before.evidence["frequency"]
    assert after.score >= before.score - 1e-12


@given(st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_institutional_gains_from_a_shared_org_counterparty(outsiders, data):
    sharing = data.draw(st.integers(0, 3))

    def build(extra_shared):
        users = [user("dev", orgs=("orga",)), user("maintainer", permission="admin")]
        participants = []
        for i in range(outsiders):
            users.append(user(f"out{i}"))
            participants.append(f"out{i}")
        for i in range(sharing + (1 if extra_shared else 0)):
            users.append(user(f"in{i}", orgs=("orga",)))
            participants.append(f"in{i}")
        comments = [comment(50 + i, login, iso(0, hours=1))
                    for i, login in enumerate(participants)]
        pr = pull(1, "dev", created=iso(0), closed=iso(1), issue_comments=comments)
        return snapshot_from_dict(snapshot([pr], users))

    before_snap = build(False)
    after_snap = build(True)
    before = institutional_score(before_snap.pulls[0], before_snap)
    after = institutional_score(after_snap.pulls[0], after_snap)
    assert after.score >= before.score - 1e-12
