"""Profile building: page admission, scoring, interest derivation."""

import copy

import pytest
from hypothesis import example, given, strategies as st

from adtrap.errors import SimulationError, ValidationError
from adtrap.profile import (
    AdUserProfile,
    PageProfile,
    analyze_page,
    fold_warmup,
    record_visit,
)
from adtrap.taxonomy import (
    AffinityAudience,
    InterestCategory,
    Taxonomy,
    Topic,
    audiences_for_interests,
)
from adtrap.scenario import load_taxonomy

from conftest import SMALL_TAXONOMY_DOC


def visit(profile, page, tax, t):
    return record_visit(profile, page, t, tax)


def test_topicless_page_not_admitted(small_taxonomy):
    with pytest.raises(ValidationError, match="not eligible for display network"):
        analyze_page("blank", [], small_taxonomy)
    with pytest.raises(ValidationError, match="not eligible for display network"):
        PageProfile("blank", frozenset())


def test_unknown_declared_topic_rejected(small_taxonomy):
    with pytest.raises(ValidationError):
        analyze_page("pg", ["t_soccer", "t_nope"], small_taxonomy)


def test_one_visit_activates_interest_and_audience(small_taxonomy):
    page = analyze_page("pg", ["t_soccer"], small_taxonomy)
    profile = AdUserProfile(cookie_id="ck")
    visit(profile, page, small_taxonomy, t=0.0)
    assert profile.interests == {"i_soccer"}
    assert profile.audiences == {"a_sports"}


def test_count_mode_scores_one_per_visit_per_topic(small_taxonomy):
    # Every topic of the page counts from its first view, and a second
    # view of the same page adds nothing.
    page = analyze_page("pg", ["t_soccer", "t_dogs"], small_taxonomy)
    profile = AdUserProfile(cookie_id="ck")
    for i in range(3):
        visit(profile, page, small_taxonomy, t=float(i))
        assert profile.interests == {"i_soccer", "i_dogs"}
        assert profile.audiences == {"a_sports", "a_pets"}


def test_timestamps_must_not_go_backwards(small_taxonomy):
    page = analyze_page("pg", ["t_soccer"], small_taxonomy)
    profile = AdUserProfile(cookie_id="ck")
    visit(profile, page, small_taxonomy, t=10.0)
    with pytest.raises(SimulationError):
        visit(profile, page, small_taxonomy, t=9.0)
    # equal timestamps are fine (several pages in the same instant)
    visit(profile, page, small_taxonomy, t=10.0)


def test_fold_refuses_to_move_the_clock_backwards(small_taxonomy):
    pages = {"pg": analyze_page("pg", ["t_soccer"], small_taxonomy)}
    profile = visit(AdUserProfile(cookie_id="ck"), pages["pg"], small_taxonomy, t=5.0)
    before = copy.deepcopy(profile)
    with pytest.raises(SimulationError, match="went backwards"):
        fold_warmup(profile, [("pg", 0.0), ("pg", 0.0)], pages, -1.0, small_taxonomy)
    assert profile == before
    with pytest.raises(SimulationError):
        visit(profile, pages["pg"], small_taxonomy, t=0.0)
    # An empty plan leaves the clock where it was; a later time advances it.
    assert fold_warmup(profile, [], pages, 7.0, small_taxonomy).last_timestamp == 5.0
    assert fold_warmup(profile, [("pg", 0.0)], pages, 7.0, small_taxonomy).last_timestamp == 7.0


page_ids = ["pg_soccer", "pg_tennis", "pg_dogs", "pg_recipes"]
page_topics = {
    "pg_soccer": ["t_soccer"],
    "pg_tennis": ["t_tennis"],
    "pg_dogs": ["t_dogs"],
    "pg_recipes": ["t_recipes"],
}


@given(st.lists(st.sampled_from(page_ids), min_size=1, max_size=12))
def test_interests_and_audiences_grow_monotonically(sequence):
    tax = load_taxonomy(SMALL_TAXONOMY_DOC)
    profile = AdUserProfile(cookie_id="ck")
    seen_interests = set()
    seen_audiences = set()
    for t, pid in enumerate(sequence):
        page = analyze_page(pid, page_topics[pid], tax)
        visit(profile, page, tax, t=float(t))
        assert seen_interests <= profile.interests
        assert seen_audiences <= profile.audiences
        seen_interests = set(profile.interests)
        seen_audiences = set(profile.audiences)


# Built directly, not through load_taxonomy: interests fed by several
# topics, topics feeding several interests, a topic feeding none, and an
# audience needing two of its interests.
MULTI_TOPIC_TAXONOMY = Taxonomy(
    topics={t: Topic(t, t) for t in ("t_a", "t_b", "t_c", "t_d", "t_e")},
    interests={
        "i_ab": InterestCategory("i_ab", "AB", frozenset({"t_a", "t_b"})),
        "i_bd": InterestCategory("i_bd", "BD", frozenset({"t_b", "t_d"})),
        "i_c": InterestCategory("i_c", "C", frozenset({"t_c"})),
        "i_d": InterestCategory("i_d", "D", frozenset({"t_d"})),
    },
    audiences={
        "a_two": AffinityAudience("a_two", "Two", frozenset({"i_ab", "i_c", "i_d"}), 2),
        "a_one": AffinityAudience("a_one", "One", frozenset({"i_bd"})),
        "a_three": AffinityAudience(
            "a_three", "Three", frozenset({"i_ab", "i_bd", "i_c", "i_d"}), 3
        ),
    },
)

page_strategy = st.frozensets(
    st.sampled_from(sorted(MULTI_TOPIC_TAXONOMY.topics)), min_size=1
)


@given(visits=st.lists(page_strategy, max_size=15))
def test_incremental_profile_matches_derivation_from_scratch(visits):
    tax = MULTI_TOPIC_TAXONOMY
    profile = AdUserProfile(cookie_id="ck")
    scores: dict[str, float] = {}
    for t, topics in enumerate(visits):
        held_interests, held_audiences = profile.interests, profile.audiences
        before = (set(held_interests), set(held_audiences))
        visit(profile, PageProfile(f"pg{t}", topics), tax, float(t))
        for topic in topics:
            scores[topic] = scores.get(topic, 0.0) + 1.0
        interests = {
            interest.id
            for interest in tax.interests.values()
            if any(scores.get(s, 0.0) >= 1.0 for s in interest.source_topics)
        }
        assert profile.interests == interests
        assert profile.audiences == audiences_for_interests(tax, interests)
        assert (held_interests, held_audiences) == before


# The fold ignores each item's dwell, so any non-negative dwell will do.
@given(
    plan=st.lists(
        st.tuples(page_strategy, st.integers(1, 4), st.sampled_from([0.0, 7.0, 100.0 / 3])),
        max_size=12,
    ),
    split=st.integers(0, 48),
)
@example(plan=[], split=0)
# The fold gains i_d, which completes a_two with the replayed i_c.
@example(plan=[(frozenset({"t_c"}), 1, 0.0), (frozenset({"t_d"}), 1, 0.0)], split=1)
def test_one_pass_warmup_matches_replaying_each_visit(plan, split):
    tax = MULTI_TOPIC_TAXONOMY
    # A page is named by its topics, so equal topic sets revisit one page,
    # and each drawn item is that many plan items in a row.
    pages = {"+".join(sorted(topics)): PageProfile("+".join(sorted(topics)), topics)
             for topics, _, _ in plan}
    steps = [("+".join(sorted(topics)), dwell)
             for topics, repeat, dwell in plan for _ in range(repeat)]
    replayed = AdUserProfile(cookie_id="ck")
    for t, (page_id, _) in enumerate(steps, -len(steps)):
        record_visit(replayed, pages[page_id], float(t), tax)
    # The steps before the split are replayed view by view, and the rest
    # is folded into that same, no longer empty, profile.
    split = min(split, len(steps))
    folded = AdUserProfile(cookie_id="ck")
    for t, (page_id, _) in enumerate(steps[:split], -len(steps)):
        record_visit(folded, pages[page_id], float(t), tax)
    fold_warmup(folded, steps[split:], pages, -1.0, tax)

    def state(profile):
        return (profile.interests, profile.audiences, profile.last_timestamp)

    assert state(folded) == state(replayed)
    assert folded == replayed
