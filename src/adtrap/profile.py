"""Per-cookie profiles built from page visits.

The network watches navigation through its embedded ad slots and keeps one
profile per tracking cookie: the interests its viewed pages' topics feed,
plus the audiences those interests qualify for.  A profile grows one view
at a time (:func:`record_visit`) or a whole warm-up plan at once
(:func:`fold_warmup`); both pass the viewed topics to one qualification
step, :func:`_qualify`, which states the invariant every profile keeps.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SimulationError, ValidationError, checked, quoted
from .taxonomy import Taxonomy


@checked
class PageProfile(NamedTuple):
    """Topical classification of a single page.

    Admission to the display network requires at least one topic; pages with
    no recognisable topic are rejected outright.
    """

    page_id: str
    topics: frozenset[str]

    def _check(self):
        if not self.topics:
            raise ValidationError(
                f"page {self.page_id!r} has no topics: page not eligible for display network"
            )


class AdUserProfile:
    """Mutable per-cookie state owned by the ad network."""

    __slots__ = ("cookie_id", "interests", "audiences", "last_timestamp")

    def __init__(self, cookie_id: str, interests: set[str] | None = None,
                 audiences: set[str] | None = None, last_timestamp: float | None = None):
        self.cookie_id = cookie_id
        self.interests = set() if interests is None else interests
        self.audiences = set() if audiences is None else audiences
        self.last_timestamp = last_timestamp

    def __eq__(self, other):
        same = type(other) is AdUserProfile
        return same and all(getattr(self, n) == getattr(other, n) for n in self.__slots__)


def analyze_page(page_id: str, declared_topics, taxonomy: Taxonomy) -> PageProfile:
    """Admit a page to the network, validating its declared topics.

    Raises :class:`ValidationError` when no topics are declared or a topic
    is not in the taxonomy.
    """
    topics = frozenset(declared_topics)
    for t in topics:
        if t not in taxonomy.topics:
            raise ValidationError(f"page {quoted(page_id)} declares unknown topic {quoted(t)}")
    return PageProfile(page_id, topics)


def _check_clock(profile: AdUserProfile, time: float) -> None:
    """Refuse a ``time`` earlier than the profile's ``last_timestamp``."""
    if profile.last_timestamp is not None and time < profile.last_timestamp:
        raise SimulationError(
            f"navigation timestamps for {profile.cookie_id!r} went backwards "
            f"({time} after {profile.last_timestamp})"
        )


def _qualify(profile: AdUserProfile, topics, taxonomy: Taxonomy) -> None:
    """Add the interests and audiences that viewing ``topics`` qualified for.

    The invariant: ``interests`` is every interest fed by a topic the
    profile has viewed (:attr:`Taxonomy.interests_by_topic`), and
    ``audiences`` is :func:`~adtrap.taxonomy.audiences_for_interests` of
    ``interests``.  An empty profile keeps it, since every
    ``qualify_rule`` is at least 1.  If it held before the caller's views
    of ``topics``, it holds after this step.  Only the interests those
    topics feed can join, and held ones stay.  Only the audiences that
    count a newly gained interest (:attr:`Taxonomy.audiences_by_interest`)
    can join: any other audience overlaps the interest set exactly as
    before, and held ones stay.  One with a ``qualify_rule`` of 1 joins
    without a count, since the gained interest it counts meets the rule.

    ``interests`` and ``audiences`` are replaced by new sets, never
    mutated, so a caller holding the old sets sees no change.
    """
    held, by_topic = profile.interests, taxonomy.interests_by_topic
    gained: set[str] = set()
    for topic in topics:
        fed = by_topic.get(topic, ())
        if not held.issuperset(fed):
            gained.update(fed)
    if gained:
        gained -= held
        interests = held | gained
        by_interest = taxonomy.audiences_by_interest
        profile.interests = interests
        profile.audiences = profile.audiences | {
            audience.id
            for interest in gained
            for audience in by_interest.get(interest, ())
            if audience.qualify_rule == 1 or audience.qualifies(interests)
        }


def record_visit(
    profile: AdUserProfile,
    page: PageProfile,
    time: float,
    taxonomy: Taxonomy,
) -> AdUserProfile:
    """Fold one page view into the profile and extend interests/audiences.

    Mutates ``profile`` in place and returns it; see :func:`_qualify` for
    ``interests`` and ``audiences``.  Timestamps must be non-decreasing per
    cookie.
    """
    _check_clock(profile, time)
    profile.last_timestamp = time
    _qualify(profile, page.topics, taxonomy)
    return profile


def fold_warmup(
    profile: AdUserProfile,
    plan,
    pages: dict[str, PageProfile],
    time: float,
    taxonomy: Taxonomy,
) -> AdUserProfile:
    """Fold a whole browsing plan into the profile, in one pass.

    ``plan`` yields ``(page_id, dwell)`` items, as
    :class:`adtrap.scenario.WarmupVisit` records unpack: one view of
    ``pages[page_id]`` each.  Nothing reads ``dwell``.  ``time`` becomes
    ``last_timestamp`` unless the plan is empty; a ``time`` earlier than
    ``last_timestamp`` raises before anything changes.  Mutates
    ``profile`` in place and returns it.

    The result equals replaying every view through :func:`record_visit`
    in plan order, at times from ``last_timestamp`` up to ``time``: the
    invariant of :func:`_qualify` depends only on which topics were
    viewed, so one :func:`_qualify` over the union of the plan's topics
    keeps what the replay keeps view by view.
    """
    _check_clock(profile, time)
    topics: set[str] = set()
    for page_id, _ in plan:
        topics |= pages[page_id].topics
        profile.last_timestamp = time
    _qualify(profile, topics, taxonomy)
    return profile
