"""Vocabulary loading, validation and audience qualification."""

import copy

import pytest
from hypothesis import given, strategies as st

from adtrap.errors import ValidationError
from adtrap.scenario import load_taxonomy
from adtrap.taxonomy import AffinityAudience, audiences_for_interests

from conftest import SMALL_TAXONOMY_DOC


def test_load_builds_lookup_tables(small_taxonomy):
    assert set(small_taxonomy.topics) == {"t_soccer", "t_tennis", "t_dogs", "t_recipes"}
    assert small_taxonomy.topics["t_dogs"].name == "Dogs"
    assert small_taxonomy.interests["i_soccer"].source_topics == frozenset({"t_soccer"})
    assert small_taxonomy.audiences["a_sports"].qualify_rule == 1


def test_interest_and_topic_ids_are_separate_namespaces():
    doc = {
        "topics": [{"id": "acting", "name": "Acting & Theater"}],
        "interests": [
            {"id": "acting", "name": "Acting & Theater", "source_topics": ["acting"]}
        ],
        "audiences": [],
    }
    tax = load_taxonomy(doc)
    assert tax.topics["acting"] is not tax.interests["acting"]
    assert tax.topics["acting"].name == tax.interests["acting"].name


def test_qualify_rule_defaults_to_one():
    doc = copy.deepcopy(SMALL_TAXONOMY_DOC)
    del doc["audiences"][0]["qualify_rule"]
    tax = load_taxonomy(doc)
    assert tax.audiences["a_sports"].qualify_rule == 1


def test_single_interest_qualifies_with_default_rule(small_taxonomy):
    assert audiences_for_interests(small_taxonomy, {"i_tennis"}) == {"a_sports"}
    assert audiences_for_interests(small_taxonomy, {"i_dogs", "i_cooking"}) == {
        "a_pets",
        "a_cooks",
    }


def test_qualify_rule_two_needs_both_interests():
    doc = copy.deepcopy(SMALL_TAXONOMY_DOC)
    doc["audiences"][0]["qualify_rule"] = 2
    tax = load_taxonomy(doc)
    assert audiences_for_interests(tax, {"i_soccer"}) == set()
    assert audiences_for_interests(tax, {"i_tennis"}) == set()
    assert audiences_for_interests(tax, {"i_soccer", "i_tennis"}) == {"a_sports"}


def test_empty_interest_set_yields_no_audiences(small_taxonomy):
    assert audiences_for_interests(small_taxonomy, set()) == set()


def test_names_are_looked_up_by_id(small_taxonomy):
    assert small_taxonomy.interest_names({"i_soccer", "i_dogs"}) == {"Soccer", "Dogs"}
    assert small_taxonomy.audience_names({"a_sports", "a_cooks"}) == {
        "Sports Fans",
        "Cooking Enthusiasts",
    }
    assert small_taxonomy.audience_names(()) == set()


def test_names_of_an_unknown_id_are_a_validation_error(small_taxonomy):
    with pytest.raises(ValidationError, match="unknown interest id 'i_bogus'"):
        small_taxonomy.interest_names(["i_soccer", "i_bogus"])
    with pytest.raises(ValidationError, match="unknown audience id 'a_bogus'"):
        small_taxonomy.audience_names(["a_sports", "a_bogus"])
    # An interest id is not an audience id, nor the reverse.
    with pytest.raises(ValidationError, match="unknown audience id 'i_soccer'"):
        small_taxonomy.audience_names(["i_soccer"])
    with pytest.raises(ValidationError, match="unknown interest id 'a_sports'"):
        small_taxonomy.interest_names(["a_sports"])


def test_unknown_interest_id_rejected(small_taxonomy):
    with pytest.raises(ValidationError, match="unknown interest id"):
        audiences_for_interests(small_taxonomy, {"i_soccer", "i_bogus"})


def test_topic_parent_links_accepted():
    doc = {
        "topics": [
            {"id": "t_sports", "name": "Sports"},
            {"id": "t_soccer", "name": "Soccer", "parent": "t_sports"},
        ],
        "interests": [],
        "audiences": [],
    }
    tax = load_taxonomy(doc)
    assert tax.topics["t_soccer"].parent == "t_sports"
    assert tax.topics["t_sports"].parent is None


@pytest.mark.parametrize(
    "mutate, pointer_part",
    [
        (lambda d: d["topics"].append({"id": "t_soccer", "name": "Dup"}), "/topics/4/id"),
        (lambda d: d["topics"].append({"name": "No id"}), "/topics/4/id"),
        (
            lambda d: d["interests"].append(
                {"id": "i_x", "name": "X", "source_topics": ["t_missing"]}
            ),
            "/interests/4/source_topics/0",
        ),
        (
            lambda d: d["interests"].append({"id": "i_x", "name": "X", "source_topics": []}),
            "/interests/4/source_topics",
        ),
        (
            lambda d: d["audiences"].append(
                {"id": "a_x", "name": "X", "qualifying_interests": ["i_missing"]}
            ),
            "/audiences/3/qualifying_interests/0",
        ),
        (
            lambda d: d["audiences"][0].update(qualify_rule=0),
            "/audiences/0/qualify_rule",
        ),
        (
            lambda d: d["audiences"][0].update(qualify_rule=True),
            "/audiences/0/qualify_rule",
        ),
        (
            lambda d: d["audiences"][0].update(qualify_rule=3),
            "/audiences/0/qualify_rule",
        ),
        (
            lambda d: d["audiences"][0].update(
                qualifying_interests=["i_soccer", "i_soccer"], qualify_rule=2
            ),
            "/audiences/0/qualify_rule",
        ),
        (lambda d: d["topics"][0].update(label="x"), "/topics/0/label"),
        (lambda d: d.update(categories=[]), "/categories"),
        (
            lambda d: d["interests"][0].update(source_topics=[["t_soccer"]]),
            "/interests/0/source_topics",
        ),
        (
            lambda d: d["interests"][0].update(source_topics=[{}]),
            "/interests/0/source_topics",
        ),
        (
            lambda d: d["audiences"][0].update(qualifying_interests=[["i_soccer"]]),
            "/audiences/0/qualifying_interests",
        ),
        (
            lambda d: d["audiences"][0].update(qualifying_interests=[{}]),
            "/audiences/0/qualifying_interests",
        ),
    ],
)
def test_malformed_documents_report_pointer(mutate, pointer_part):
    doc = copy.deepcopy(SMALL_TAXONOMY_DOC)
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        load_taxonomy(doc, pointer="/taxonomy")
    assert err.value.pointer == "/taxonomy" + pointer_part


def test_qualify_rule_may_equal_the_distinct_qualifying_interests():
    doc = copy.deepcopy(SMALL_TAXONOMY_DOC)
    doc["audiences"][0].update(
        qualifying_interests=["i_soccer", "i_tennis", "i_soccer"], qualify_rule=2
    )
    tax = load_taxonomy(doc)
    assert audiences_for_interests(tax, tax.interests) == {"a_sports", "a_pets", "a_cooks"}


def test_parent_cycle_rejected():
    doc = {
        "topics": [
            {"id": "a", "name": "A", "parent": "b"},
            {"id": "b", "name": "B", "parent": "a"},
        ],
        "interests": [],
        "audiences": [],
    }
    with pytest.raises(ValidationError) as err:
        load_taxonomy(doc)
    assert "cycle" in str(err.value)


def test_dangling_parent_rejected():
    doc = {
        "topics": [{"id": "a", "name": "A", "parent": "ghost"}],
        "interests": [],
        "audiences": [],
    }
    with pytest.raises(ValidationError):
        load_taxonomy(doc)


@given(
    smaller=st.sets(st.sampled_from(["i_soccer", "i_tennis", "i_dogs", "i_cooking"])),
    extra=st.sets(st.sampled_from(["i_soccer", "i_tennis", "i_dogs", "i_cooking"])),
)
def test_qualification_is_monotone_in_interests(smaller, extra):
    tax = load_taxonomy(SMALL_TAXONOMY_DOC)
    assert audiences_for_interests(tax, smaller) <= audiences_for_interests(
        tax, smaller | extra
    )


@pytest.mark.parametrize("rule", [0, -1])
def test_audience_rule_below_one_rejected(rule):
    with pytest.raises(ValidationError, match="qualify_rule must be at least 1"):
        AffinityAudience("a", "A", frozenset({"i"}), rule)
