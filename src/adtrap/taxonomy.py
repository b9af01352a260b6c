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

from dataclasses import dataclass, field
from functools import cached_property

from .errors import UnknownIdError, ValidationError


@dataclass(frozen=True)
class Topic:
    id: str
    name: str
    parent: str | None = None


@dataclass(frozen=True)
class InterestCategory:
    id: str
    name: str
    source_topics: frozenset[str]


@dataclass(frozen=True)
class AffinityAudience:
    id: str
    name: str
    qualifying_interests: frozenset[str]
    qualify_rule: int = 1

    def __post_init__(self):
        # A rule below 1 would qualify an empty profile, which
        # adtrap.profile's incremental audiences assume never happens.
        if not self.qualify_rule >= 1:
            raise ValidationError(
                f"audience {self.id!r} qualify_rule must be at least 1, got {self.qualify_rule!r}"
            )

    def qualifies(self, interests: set[str]) -> bool:
        """Whether ``interests`` hold at least ``qualify_rule`` of the qualifying ones."""
        return len(self.qualifying_interests & interests) >= self.qualify_rule


@dataclass(frozen=True)
class Taxonomy:
    """Immutable lookup tables keyed by id.

    Built through :func:`adtrap.scenario.load_taxonomy`; treat the
    contained dicts as read-only.
    """

    topics: dict[str, Topic] = field(default_factory=dict)
    interests: dict[str, InterestCategory] = field(default_factory=dict)
    audiences: dict[str, AffinityAudience] = field(default_factory=dict)

    @cached_property
    def interests_by_topic(self) -> dict[str, frozenset[str]]:
        """Interest ids each topic feeds, built once per taxonomy."""
        index: dict[str, set[str]] = {}
        for interest in self.interests.values():
            for topic in interest.source_topics:
                index.setdefault(topic, set()).add(interest.id)
        return {topic: frozenset(ids) for topic, ids in index.items()}

    @cached_property
    def audiences_by_interest(self) -> dict[str, tuple[AffinityAudience, ...]]:
        """Audiences each interest counts toward, in taxonomy order, built once."""
        index: dict[str, list[AffinityAudience]] = {}
        for audience in self.audiences.values():
            for interest in audience.qualifying_interests:
                index.setdefault(interest, []).append(audience)
        return {interest: tuple(audiences) for interest, audiences in index.items()}

    def interest_names(self, interest_ids) -> set[str]:
        return {self.interests[i].name for i in interest_ids}

    def audience_names(self, audience_ids) -> set[str]:
        return {self.audiences[a].name for a in audience_ids}


def audiences_for_interests(taxonomy: Taxonomy, interests) -> set[str]:
    """Audiences whose qualifying interests overlap ``interests`` enough.

    An audience is returned when ``len(qualifying & interests)`` reaches its
    ``qualify_rule``.  Growing the interest set can therefore only grow the
    result, never shrink it.

    Raises :class:`UnknownIdError` for interest ids absent from the taxonomy.
    """
    interest_set = set(interests)
    for i in interest_set:
        if i not in taxonomy.interests:
            raise UnknownIdError(f"unknown interest id {i!r}")
    return {a.id for a in taxonomy.audiences.values() if a.qualifies(interest_set)}
