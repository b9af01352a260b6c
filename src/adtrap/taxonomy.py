"""Topic, interest and affinity-audience vocabulary shared by every scenario.

The ad network describes the world with three distinct namespaces:

* **topics** label page content (what a site is about),
* **interests** are categories attributed to a user from the topics of the
  pages she visits,
* **affinity audiences** group users who have demonstrated qualifying
  interests, and are what advertisers actually target.

An audience qualifies a user when at least ``qualify_rule`` of its
qualifying interests appear in the user's interest set (default 1).  All
mapping edges are data, not code: scenario files declare which topics feed
which interests and which interests qualify which audiences, so the same
engine serves any taxonomy.

This module holds the vocabulary model only; :func:`adtrap.scenario.load_taxonomy`
reads taxonomy documents against the schema table of the whole scenario.

Topic and interest ids live in separate namespaces even when their display
names coincide ("Acting & Theater" exists both as a topic and as an
interest; they are different objects).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .errors import ValidationError


class Topic(NamedTuple):
    id: str
    name: str
    parent: str | None = None


class InterestCategory(NamedTuple):
    id: str
    name: str
    source_topics: frozenset[str]


class AffinityAudience(NamedTuple):
    id: str
    name: str
    qualifying_interests: frozenset[str]
    qualify_rule: int = 1

    def qualifies(self, interests: set[str]) -> bool:
        """Whether ``interests`` hold at least ``qualify_rule`` of the qualifying ones."""
        return len(self.qualifying_interests & interests) >= self.qualify_rule


class _Tables(NamedTuple):
    topics: dict[str, Topic]
    interests: dict[str, InterestCategory]
    audiences: dict[str, AffinityAudience]
    interests_by_topic: MappingProxyType[str, frozenset[str]]
    audiences_by_interest: MappingProxyType[str, tuple[AffinityAudience, ...]]


class Taxonomy(_Tables):
    """Immutable lookup tables keyed by id, and two indexes derived from them.

    Built through :func:`adtrap.scenario.load_taxonomy`; treat the three
    id-keyed dicts as read-only.  Building, copying and ``_replace`` derive
    the read-only indexes from them: the interest ids each topic feeds,
    and the audiences each interest counts toward, in taxonomy order.
    """

    __slots__ = ()

    def __new__(cls, topics=None, interests=None, audiences=None):
        topics, interests, audiences = topics or {}, interests or {}, audiences or {}
        fed: dict[str, set[str]] = {}
        for interest in interests.values():
            for topic in interest.source_topics:
                fed.setdefault(topic, set()).add(interest.id)
        counted: dict[str, list[AffinityAudience]] = {}
        for audience in audiences.values():
            for interest in audience.qualifying_interests:
                counted.setdefault(interest, []).append(audience)
        by_topic = MappingProxyType({t: frozenset(ids) for t, ids in fed.items()})
        by_interest = MappingProxyType({i: tuple(a) for i, a in counted.items()})
        return super().__new__(cls, topics, interests, audiences, by_topic, by_interest)

    def __getnewargs__(self):
        return self[:3]

    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:3]))

    def interest_names(self, interest_ids) -> set[str]:
        """Display names of ``interest_ids``; :class:`ValidationError` for an unknown id."""
        return {_entry(self.interests, "interest", i).name for i in interest_ids}

    def audience_names(self, audience_ids) -> set[str]:
        """Display names of ``audience_ids``; :class:`ValidationError` for an unknown id."""
        return {_entry(self.audiences, "audience", a).name for a in audience_ids}


def _entry(table: dict, kind: str, entry_id):
    """``table[entry_id]``, or a :class:`ValidationError` naming the unknown id."""
    if entry_id not in table:
        raise ValidationError(f"unknown {kind} id {entry_id!r}")
    return table[entry_id]


def audiences_for_interests(taxonomy: Taxonomy, interests) -> set[str]:
    """Audiences whose qualifying interests overlap ``interests`` enough.

    An audience is returned when ``len(qualifying & interests)`` reaches its
    ``qualify_rule``.  Growing the interest set can therefore only grow the
    result, never shrink it.

    Raises :class:`ValidationError` for interest ids absent from the taxonomy.
    """
    interest_set = set(interests)
    for i in interest_set:
        _entry(taxonomy.interests, "interest", i)
    return {a.id for a in taxonomy.audiences.values() if a.qualifies(interest_set)}
