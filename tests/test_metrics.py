"""Unit tests for the six dimension metrics and the vouch lexicon."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import VOUCH_PR, comment, commit, iso, pull, request, review, snapshot, user
from prtrust import (
    ConfigError,
    UnknownLoginError,
    VouchLexicon,
    action_score,
    commitment_score,
    competence_score,
    default_lexicon,
    institutional_score,
    personality_propensity,
    personality_score,
    snapshot_from_dict,
    transferred_detect,
)
from prtrust.corpus import discussion


def build(pulls, users):
    return snapshot_from_dict(snapshot(pulls, users))


BASE_USERS = [user("dev"), user("maintainer", permission="admin")]


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def test_action_eight_comments_two_days_with_revision():
    pr = pull(
        1, "dev", created=iso(0), closed=iso(2),
        issue_comments=[comment(10 + k, "maintainer", iso(0, hours=k + 1)) for k in range(8)],
        commits=[commit("aa", "dev", iso(0, hours=12))],
    )
    snap = build([pr], BASE_USERS)
    score = action_score(snap.pulls[0], snap)
    assert score.available
    assert score.evidence["frequency"] == pytest.approx(4.0)
    assert score.evidence["active_days"] == 2
    assert score.evidence["revision_commits"] == 1
    assert score.score == pytest.approx(1.0)


def test_action_zero_comments_zero_commits():
    snap = build([pull(1, "dev")], BASE_USERS)
    score = action_score(snap.pulls[0], snap)
    assert score.evidence["frequency"] == 0
    assert score.score == 0.0


def test_action_open_pr_uses_fetch_instant():
    pr = pull(1, "dev", state="open", created=iso(0),
              issue_comments=[comment(10, "maintainer", iso(1))])
    snap = build([pr], BASE_USERS)
    score = action_score(snap.pulls[0], snap)
    # created 2022-01-01, fetched 2022-03-01: 59 days
    assert score.evidence["active_days"] == 59
    assert score.evidence["frequency"] == pytest.approx(1 / 59)


def test_action_same_second_close_counts_one_day():
    pr = pull(1, "dev", created=iso(0), closed=iso(0))
    snap = build([pr], BASE_USERS)
    assert action_score(snap.pulls[0], snap).evidence["active_days"] == 1


def test_action_empty_body_review_not_counted_as_comment():
    pr = pull(
        1, "dev", created=iso(0), closed=iso(1),
        reviews=[review(5, "maintainer", iso(0, hours=2), body=""),
                 review(6, "maintainer", iso(0, hours=3), body="solid work")],
    )
    snap = build([pr], BASE_USERS)
    assert action_score(snap.pulls[0], snap).evidence["comment_count"] == 1


def test_action_empty_body_review_starts_the_revision_window():
    """An empty-body review by another user is not a comment, but it is feedback."""
    pr = pull(
        1, "dev", created=iso(0), closed=iso(1),
        reviews=[review(5, "maintainer", iso(0, hours=2), body="")],
        commits=[commit("aa", "dev", iso(0, hours=1)), commit("bb", "dev", iso(0, hours=3))],
    )
    snap = build([pr], BASE_USERS)
    evidence = action_score(snap.pulls[0], snap).evidence
    assert evidence["comment_count"] == evidence["non_author_comment_count"] == 0
    assert evidence["revision_commits"] == 1


def test_action_bot_comments_excluded_by_default():
    pr = pull(
        1, "dev", created=iso(0), closed=iso(1),
        issue_comments=[comment(10, "ci[bot]", iso(0, hours=1)),
                        comment(11, "maintainer", iso(0, hours=2))],
        commits=[commit("aa", "dev", iso(0, hours=1, minutes=30))],
    )
    snap = build([pr], BASE_USERS + [user("ci[bot]")])
    score = action_score(snap.pulls[0], snap)
    assert score.evidence["comment_count"] == 1
    # feedback starts at the human comment, so the 01:30 commit is not a revision
    assert score.evidence["revision_commits"] == 0
    kept = action_score(snap.pulls[0], snap, exclude_bots=False)
    assert kept.evidence["comment_count"] == 2
    assert kept.evidence["revision_commits"] == 1


def test_action_rejects_nonpositive_cap():
    snap = build([pull(1, "dev")], BASE_USERS)
    for f_cap in (0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            action_score(snap.pulls[0], snap, f_cap=f_cap)


# ---------------------------------------------------------------------------
# commitment
# ---------------------------------------------------------------------------

def test_commitment_four_requested_one_responds():
    reviewers = ["r1", "r2", "r3", "r4"]
    pr = pull(
        1, "dev", created=iso(0), closed=iso(2),
        review_requests=[request(r, iso(0, hours=1)) for r in reviewers],
        reviews=[review(5, "r1", iso(0, hours=6), body="detailed review")],
    )
    snap = build([pr], BASE_USERS + [user(r) for r in reviewers])
    score = commitment_score(snap.pulls[0])
    assert score.available
    assert score.score == pytest.approx(0.25)
    assert score.evidence == {
        "requested": 4, "responded": 1, "any_response": True, "author_addressed": True,
    }


def test_commitment_degenerate_is_unavailable():
    snap = build([pull(1, "dev")], BASE_USERS)
    score = commitment_score(snap.pulls[0])
    assert not score.available
    assert score.score is None
    assert score.evidence["any_response"] is False


def test_commitment_three_requested_none_respond():
    pr = pull(
        1, "dev", created=iso(0), closed=iso(2),
        review_requests=[request(r, iso(0, hours=1)) for r in ("r1", "r2", "r3")],
    )
    snap = build([pr], BASE_USERS + [user(r) for r in ("r1", "r2", "r3")])
    assert commitment_score(snap.pulls[0]).score == 0.0


def test_commitment_response_must_follow_request():
    pr = pull(
        1, "dev", created=iso(0), closed=iso(2),
        review_requests=[request("r1", iso(0, hours=5))],
        issue_comments=[comment(9, "r1", iso(0, hours=1))],  # before the ask
    )
    snap = build([pr], BASE_USERS + [user("r1")])
    assert commitment_score(snap.pulls[0]).score == 0.0


def test_commitment_counts_each_requestee_once_and_only_after_the_request():
    pr = pull(
        1, "dev", created=iso(0), closed=iso(2),
        review_requests=[request("r1", iso(0, hours=5)), request("r2", iso(0, hours=1))],
        issue_comments=[comment(9, "r1", iso(0, hours=1)),  # before r1 was asked
                        comment(10, "r2", iso(0, hours=2)), comment(11, "r2", iso(0, hours=3))],
        reviews=[review(12, "r2", iso(0, hours=4), body="")],
    )
    snap = build([pr], BASE_USERS + [user("r1"), user("r2")])
    score = commitment_score(snap.pulls[0])
    assert score.evidence == {"requested": 2, "responded": 1, "any_response": True, "author_addressed": True}
    assert score.score == pytest.approx(0.5)


def test_commitment_blends_changes_requested_follow_up():
    addressed = pull(
        1, "dev", created=iso(0), closed=iso(2),
        review_requests=[request("r1", iso(0, hours=1))],
        reviews=[review(5, "r1", iso(0, hours=2), verdict="changes_requested", body="fix")],
        commits=[commit("aa", "dev", iso(0, hours=3))],
    )
    ignored = pull(
        2, "dev", created=iso(0), closed=iso(2),
        review_requests=[request("r1", iso(0, hours=1))],
        reviews=[review(6, "r1", iso(0, hours=2), verdict="changes_requested", body="fix")],
    )
    snap = build([addressed, ignored], BASE_USERS + [user("r1")])
    assert commitment_score(snap.pulls[0]).score == pytest.approx(0.7 * 1.0 + 0.3 * 1.0)
    assert commitment_score(snap.pulls[1]).score == pytest.approx(0.7 * 1.0 + 0.3 * 0.0)


def test_commitment_changes_requested_without_requests():
    pr = pull(
        1, "dev", created=iso(0), closed=iso(2),
        reviews=[review(5, "maintainer", iso(0, hours=2), verdict="changes_requested", body="fix")],
        commits=[commit("aa", "dev", iso(0, hours=3))],
    )
    snap = build([pr], BASE_USERS)
    score = commitment_score(snap.pulls[0])
    assert score.available
    assert score.score == 1.0


# ---------------------------------------------------------------------------
# competence
# ---------------------------------------------------------------------------

def test_competence_first_pr_unknown_permission_zero_followers():
    users = [user("newbie", followers=0, unknown=True), user("maintainer", permission="admin")]
    snap = build([pull(1, "newbie")], users)
    score = competence_score(snap.pulls[0], snap)
    assert score.available
    assert score.score == 0.0
    assert score.evidence["prior_pr_count"] == 0
    assert score.evidence["prior_acceptance_rate"] is None
    assert score.evidence["has_write"] is None


def test_competence_established_author_scores_one():
    users = [user("star", followers=1000, permission="write"), user("maintainer", permission="admin")]
    prior = [pull(n, "star", state="merged") for n in (1, 2, 3)]
    snap = build(prior + [pull(4, "star")], users)
    score = competence_score(snap.pulls[3], snap)
    assert score.score == pytest.approx(1.0)
    assert score.evidence["has_write"] is True


def test_competence_mixed_history_four_ninths():
    users = [user("kat", followers=99, permission="read"), user("maintainer", permission="admin")]
    prior = [
        pull(1, "kat", state="merged"),
        pull(2, "kat", state="merged"),
        pull(3, "kat", state="closed_unmerged"),
    ]
    snap = build(prior + [pull(4, "kat")], users)
    score = competence_score(snap.pulls[3], snap)
    assert score.score == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert score.evidence == {
        "prior_pr_count": 3,
        "prior_accepted": 2,
        "prior_acceptance_rate": pytest.approx(2.0 / 3.0),
        "followers": 99,
        "has_write": False,
    }


def test_competence_window_limits_history():
    users = [user("kat"), user("maintainer", permission="admin")]
    prior = [pull(n, "kat", state="closed_unmerged") for n in range(1, 4)]
    prior += [pull(4, "kat", state="merged")]
    snap = build(prior + [pull(5, "kat")], users)
    # window 1 sees only PR 4 (merged)
    assert competence_score(snap.pulls[4], snap, window=1).evidence["prior_acceptance_rate"] == 1.0
    assert competence_score(snap.pulls[4], snap).evidence["prior_acceptance_rate"] == 0.25


@pytest.mark.parametrize("window", [0, -5])
def test_competence_window_below_one_is_refused(window):
    snap = build([pull(1, "dev")], BASE_USERS)
    with pytest.raises(ConfigError) as err:
        competence_score(snap.pulls[0], snap, window=window)
    assert str(err.value) == f"competence window must be >= 1, got {window}"


def test_competence_open_priors_do_not_count():
    users = [user("kat"), user("maintainer", permission="admin")]
    snap = build([pull(1, "kat", state="open"), pull(2, "kat")], users)
    assert competence_score(snap.pulls[1], snap).evidence["prior_pr_count"] == 0


# ---------------------------------------------------------------------------
# institutional
# ---------------------------------------------------------------------------

def test_institutional_single_shared_org_reviewer():
    users = [user("dev", orgs=("apache",)), user("rev", orgs=("apache",), permission="write"),
             user("maintainer", permission="admin")]
    pr = pull(1, "dev", reviews=[review(5, "rev", iso(1), body="nice")], closer="maintainer")
    snap = build([pr], users)
    score = institutional_score(snap.pulls[0], snap)
    assert score.available
    # maintainer (closer, no shared org) and rev (shared) are counterparties
    assert score.evidence == {"counterparties": 2, "shared": 1, "shared_logins": ["rev"]}
    assert score.score == pytest.approx(0.5)


def test_institutional_only_reviewer_shares_org():
    users = [user("dev", orgs=("apache",)), user("rev", orgs=("apache",))]
    pr = pull(1, "dev", reviews=[review(5, "rev", iso(1), body="nice")], closer="rev")
    snap = build([pr], users)
    assert institutional_score(snap.pulls[0], snap).score == pytest.approx(1.0)


def test_institutional_author_without_orgs_unavailable():
    snap = build([pull(1, "dev", issue_comments=[comment(9, "maintainer", iso(1))])], BASE_USERS)
    score = institutional_score(snap.pulls[0], snap)
    assert not score.available


def test_institutional_no_counterparties_unavailable():
    users = [user("dev", orgs=("apache",)), user("dev2")]
    pr = pull(1, "dev", state="open", closer=None)
    snap = build([pr], users)
    assert not institutional_score(snap.pulls[0], snap).available


def test_institutional_two_of_four_share():
    users = [user("dev", orgs=("apache",))]
    users += [user(f"in{i}", orgs=("apache",)) for i in (1, 2)]
    users += [user(f"out{i}") for i in (1, 2)]
    users += [user("maintainer", permission="admin")]
    pr = pull(
        1, "dev", closer="maintainer",
        issue_comments=[comment(10 + i, login, iso(1))
                        for i, login in enumerate(["in1", "in2", "out1", "out2"])],
    )
    snap = build([pr], users)
    score = institutional_score(snap.pulls[0], snap)
    # maintainer joins as a fifth counterparty via closing
    assert score.evidence["counterparties"] == 5
    assert score.evidence["shared"] == 2
    assert score.score == pytest.approx(0.4)


def test_institutional_exact_two_of_four():
    users = [user("dev", orgs=("apache",))]
    users += [user(f"in{i}", orgs=("apache",)) for i in (1, 2)]
    users += [user("out1"), user("out2")]
    pr = pull(
        1, "dev", closer="in1",
        issue_comments=[comment(10 + i, login, iso(1))
                        for i, login in enumerate(["in1", "in2", "out1", "out2"])],
    )
    snap = build([pr], users)
    assert institutional_score(snap.pulls[0], snap).score == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# personality
# ---------------------------------------------------------------------------

def test_propensity_from_closure_history():
    users = [user("dev"), user("always", closure=(272, 272)), user("rarely", closure=(99, 10))]
    snap = build([pull(1, "dev", closer="always")], users)
    assert personality_propensity("always", snap) == (pytest.approx(1.0), "closure_history")
    assert personality_propensity("rarely", snap) == (pytest.approx(10 / 99), "closure_history")


def test_propensity_absent_when_nothing_closed():
    snap = build([], [user("idle")])
    assert personality_propensity("idle", snap) == (None, "snapshot")


def test_propensity_snapshot_fallback():
    users = [user("dev"), user("boss", permission="admin")]
    pulls = [pull(1, "dev", state="merged", closer="boss"),
             pull(2, "dev", state="closed_unmerged", closer="boss"),
             pull(3, "dev", state="merged", closer="boss")]
    snap = build(pulls, users)
    assert personality_propensity("boss", snap) == (pytest.approx(2 / 3), "snapshot")


def test_snapshot_propensity_counts_the_scored_pr():
    # not "historical": the closer's propensity includes this PR's own outcome
    users = [user("dev"), user("boss", permission="admin")]
    for state, expected in (("merged", 1.0), ("closed_unmerged", 0.0)):
        snap = build([pull(1, "dev", state=state, closer="boss")], users)
        score = personality_score(snap.pulls[0], snap)
        assert score.evidence["propensity_sources"] == {"boss": "snapshot"}
        assert score.score == expected


def test_propensity_unknown_login():
    snap = build([], [])
    with pytest.raises(UnknownLoginError):
        personality_propensity("whoever", snap)


def test_personality_score_prefers_closer():
    users = [user("dev"), user("always", closure=(272, 272)),
             user("low", closure=(10, 2))]
    pr = pull(1, "dev", closer="always",
              reviews=[review(5, "low", iso(1), body="hm")])
    snap = build([pr], users)
    score = personality_score(snap.pulls[0], snap)
    assert score.score == pytest.approx(1.0)
    assert score.evidence["closer_propensity"] == pytest.approx(1.0)
    assert score.evidence["propensity_sources"]["always"] == "closure_history"


def test_personality_score_falls_back_to_best_reviewer():
    # open PR: no closer, so the best-informed reviewer decides the score
    users = [user("dev"), user("a", closure=(10, 2)), user("b", closure=(10, 9))]
    pr = pull(1, "dev", state="open",
              reviews=[review(5, "a", iso(1), body=""), review(6, "b", iso(1), body="")])
    snap = build([pr], users)
    assert personality_score(snap.pulls[0], snap).score == pytest.approx(0.9)


def test_personality_closer_with_empty_history_defers_to_reviewers():
    # closure_history (0, 0) leaves the closer's propensity undefined
    users = [user("dev"), user("fresh", closure=(0, 0)), user("b", closure=(10, 9))]
    pr = pull(1, "dev", closer="fresh", reviews=[review(6, "b", iso(1), body="")])
    snap = build([pr], users)
    assert personality_score(snap.pulls[0], snap).score == pytest.approx(0.9)


def test_personality_unavailable_without_history():
    users = [user("dev"), user("quiet")]
    pr = pull(1, "dev", state="open", reviews=[review(5, "quiet", iso(1), body="hm")])
    snap = build([pr], users)
    assert not personality_score(snap.pulls[0], snap).available


def test_propensity_scale_invariance():
    users = [user("dev"), user("x1", closure=(99, 10)), user("x2", closure=(990, 100))]
    snap = build([pull(1, "dev", closer="x1")], users)
    assert personality_propensity("x1", snap) == personality_propensity("x2", snap)


# ---------------------------------------------------------------------------
# transferred + lexicon
# ---------------------------------------------------------------------------

VOUCH = "Syed is a new member of our team, we already reviewed his work :)"


def _vouch_snapshot(comment_author: str, body: str = VOUCH, author: str = "syed"):
    users = [user(author), user("maintainer", permission="admin"),
             user("stranger", permission="read")]
    pr = pull(1, author, closer="maintainer",
              issue_comments=[comment(9, comment_author, iso(1), body=body)])
    return snapshot_from_dict(snapshot([pr], users))


def test_transferred_flags_established_vouch():
    snap = _vouch_snapshot("maintainer")
    score = transferred_detect(snap.pulls[0], snap, default_lexicon())
    assert score.score == 1.0
    assert score.evidence["vouches"] == [
        {"comment_id": 9, "pattern": "new member of our team", "voucher": "maintainer"}
    ]
    assert score.evidence["low_confidence"] is True


def test_transferred_self_vouch_ignored():
    snap = _vouch_snapshot("syed")
    assert transferred_detect(snap.pulls[0], snap, default_lexicon()).score == 0.0


def test_transferred_plain_chatter_ignored():
    snap = _vouch_snapshot("maintainer", body="LGTM")
    assert transferred_detect(snap.pulls[0], snap, default_lexicon()).score == 0.0


def test_transferred_requires_established_voucher():
    snap = _vouch_snapshot("stranger")
    assert transferred_detect(snap.pulls[0], snap, default_lexicon()).score == 0.0


def test_transferred_history_establishes_voucher():
    users = [user("syed"), user("veteran", permission="read")]
    prior = [pull(n, "veteran", state="merged", closer="veteran") for n in range(1, 6)]
    target = pull(9, "syed", closer="veteran",
                  issue_comments=[comment(9, "veteran", iso(10), body=VOUCH)])
    snap = snapshot_from_dict(snapshot(prior + [target], users))
    assert transferred_detect(snap.pulls[-1], snap, default_lexicon()).score == 1.0


def test_transferred_must_reference_author():
    # pattern matches but neither the login nor a possessive appears in span
    snap = _vouch_snapshot("maintainer", body="He is a new member of our team.", author="zara")
    assert transferred_detect(snap.pulls[0], snap, default_lexicon()).score == 0.0


def test_transferred_possessive_inside_span_counts():
    snap = _vouch_snapshot("maintainer", body="We already reviewed their work.", author="zara")
    assert transferred_detect(snap.pulls[0], snap, default_lexicon()).score == 1.0


@pytest.mark.parametrize("body, author, raises", [
    ("LGTM", "syed", False),
    ("He is a new member of our team.", "zara", False),
    (VOUCH, "syed", True),
], ids=["no-match", "match-without-author", "referencing-match"])
def test_transferred_raises_for_an_unknown_commenter_only_on_a_referencing_match(body, author, raises):
    snap = _vouch_snapshot("stranger", body=body, author=author)
    unvalidated = dataclasses.replace(snap, users={k: v for k, v in snap.users.items() if k != "stranger"})
    if raises:
        with pytest.raises(UnknownLoginError, match="'stranger'"):
            transferred_detect(unvalidated.pulls[0], unvalidated, default_lexicon())
    else:
        assert transferred_detect(unvalidated.pulls[0], unvalidated, default_lexicon()).score == 0.0


@dataclasses.dataclass(frozen=True)
class _RecordingLexicon(VouchLexicon):
    """The default lexicon, recording every text it is given."""

    patterns: tuple[str, ...] = default_lexicon().patterns
    seen: list = dataclasses.field(default_factory=list, compare=False)

    def find_each(self, texts):
        self.seen.extend(texts)
        return super().find_each(texts)


def test_transferred_reads_only_bodies_whose_author_could_vouch(rich_snapshot):
    established = {"maintainer", "grace", "carol"}  # write or admin; no other commenter has a record
    withheld = 0
    for pr in rich_snapshot.pulls:
        lexicon = _RecordingLexicon()
        flagged = transferred_detect(pr, rich_snapshot, lexicon).score == 1.0
        bodies = [(e.author, e.body) for e in discussion(pr) if e.author != pr.author and e.body]
        assert lexicon.seen == [body for login, body in bodies if login in established]
        assert flagged == (pr.number == VOUCH_PR)
        withheld += len(bodies) - len(lexicon.seen)
    assert withheld > 0  # the bot's "build passed" comments

    snap = _vouch_snapshot("stranger")
    lexicon = _RecordingLexicon()
    assert transferred_detect(snap.pulls[0], snap, lexicon).score == 0.0
    assert lexicon.seen == []

    unvalidated = dataclasses.replace(snap, users={k: v for k, v in snap.users.items() if k != "stranger"})
    lexicon = _RecordingLexicon()
    with pytest.raises(UnknownLoginError):
        transferred_detect(unvalidated.pulls[0], unvalidated, lexicon)
    assert lexicon.seen == [VOUCH]


def test_lexicon_wildcard_matching():
    lexicon = VouchLexicon(("already reviewed * work",))
    assert lexicon.find("we already reviewed his work") is not None
    assert lexicon.find("ALREADY REVIEWED all of the hard WORK") is not None
    assert lexicon.find("already reviewed nothing") is None
    pattern, start, end = lexicon.find("xx already reviewed his work yy")
    assert "their his".split()  # sanity for slicing below
    assert "already reviewed his work" == "xx already reviewed his work yy".lower()[start:end]


def test_lexicon_wildcard_matches_empty_run():
    lexicon = VouchLexicon(("recommend* this",))
    assert lexicon.find("I recommend this") is not None
    assert lexicon.find("I recommended this") is not None
    assert lexicon.find("this is recommended") is None


def test_lexicon_rejects_bad_patterns():
    with pytest.raises(ConfigError):
        VouchLexicon(())
    with pytest.raises(ConfigError):
        VouchLexicon(("a*b*c",))
    with pytest.raises(ConfigError):
        VouchLexicon(("ok", ""))


def test_lexicon_file_parsing(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# comment\n\nnew member of our team\nvouch* for\n", encoding="utf-8")
    lexicon = VouchLexicon.from_file(path)
    assert lexicon.patterns == ("new member of our team", "vouch* for")


def test_default_lexicon_patterns():
    assert default_lexicon().patterns == (
        "new member of our team",
        "already reviewed * work",
        "i can vouch",
        "recommend* this",
        "works with me",
        "on my team",
    )


# ---------------------------------------------------------------------------
# lexicon matching against the oracle
# ---------------------------------------------------------------------------

# A prefix of another pattern, shared heads, a leading and a trailing
# wildcard, and patterns whose lower-casing is not one character per
# character ("İ" lowers to two) or depends on context (a final "Σ" lowers
# to "ς"). A run of "İ" in a text moves every later offset of its lowered form.
_PATTERN_POOL = (
    "i can vouch",
    "i can vouch for",
    "vouch* for",
    "vouch*",
    "*for them",
    "recommend* this",
    "recommend* their work",
    "ΑΣ",
    "İ can",
    "a\x00b",
)
_TEXT_PIECES = ("i", "can", "vouch", "for", "them", "recommend", "this", "their", "work",
                "İ", "İ" * 12, "Σ", "ς", "σ", "Α", "\x00", "a", "b", "*")
_CASINGS = (str, str.lower, str.upper, str.title)


@st.composite
def _cased(draw, pieces) -> str:
    return draw(st.sampled_from(_CASINGS))(draw(pieces))


@st.composite
def _lexicons(draw) -> VouchLexicon:
    patterns = draw(st.lists(_cased(st.sampled_from(_PATTERN_POOL)),
                             min_size=1, max_size=5, unique=True))
    return VouchLexicon(tuple(patterns))


@st.composite
def _vouch_texts(draw) -> str:
    pieces = draw(st.lists(
        _cased(st.one_of(st.sampled_from(_PATTERN_POOL), st.sampled_from(_TEXT_PIECES),
                         st.text(max_size=4))),
        max_size=8,
    ))
    return draw(st.sampled_from((" ", "", "\x00", "\n"))).join(pieces)


def _oracle_find(patterns, text):
    """The first pattern, in lexicon order, that the oracle's regex matches."""
    for pattern in patterns:
        span = oracle.match_span(pattern, text)
        if span is not None:
            return pattern, span[0], span[1]
    return None


@given(_lexicons(), st.lists(_vouch_texts(), max_size=6))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_lexicon_find_is_the_first_oracle_match(lexicon, texts):
    for text in texts:
        assert lexicon.find(text) == _oracle_find(lexicon.patterns, text)
    assert lexicon.find_each(texts) == [lexicon.find(text) for text in texts]
    assert lexicon.find_each([]) == []
