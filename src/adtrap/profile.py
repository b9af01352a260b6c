"""Per-cookie profiles built from page visits.

The network watches navigation through its embedded ad slots and keeps one
profile per tracking cookie: topic scores accumulated from visited pages,
plus the interests and audiences those scores qualify for.  A profile grows
one view at a time (:func:`record_visit`) or a whole warm-up plan at once
(:func:`fold_warmup`).  A view adds 1.0 to each of its page's topic
scores; both then pass the raised topics to one qualification step,
:func:`_qualify`, which states the invariant every profile keeps.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SimulationError, ValidationError, checked, quoted
from .taxonomy import Taxonomy

# The minimum topic score that activates an interest; the boundary is
# inclusive.  It is positive, so no interest holds before any visit.
INTEREST_THRESHOLD = 1.0


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

    __slots__ = ("cookie_id", "topic_scores", "interests", "audiences", "last_timestamp")

    def __init__(self, cookie_id: str, topic_scores: dict[str, float] | None = None,
                 interests: set[str] | None = None, audiences: set[str] | None = None,
                 last_timestamp: float | None = None):
        self.cookie_id = cookie_id
        self.topic_scores = {} if topic_scores is None else topic_scores
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
    """Add the interests and audiences that raising ``topics`` qualified for.

    The invariant: ``interests`` is the set of interests with a source
    topic scoring at least ``INTEREST_THRESHOLD``, and ``audiences`` is
    :func:`~adtrap.taxonomy.audiences_for_interests` of ``interests``.  An
    empty profile keeps it, since the threshold is positive and every
    ``qualify_rule`` is at least 1.  If it held before the caller raised
    the scores of ``topics`` (scores never fall: increments are
    non-negative), it holds after this step.  Only the interests those
    topics feed (:attr:`Taxonomy.interests_by_topic`) can join, and held
    ones stay.  Only the audiences that count a newly gained interest
    (:attr:`Taxonomy.audiences_by_interest`) can join: any other audience
    overlaps the interest set exactly as before, and held ones stay.  One
    with a ``qualify_rule`` of 1 joins without a count, since the gained
    interest it counts meets the rule.

    ``interests`` and ``audiences`` are replaced by new sets, never
    mutated, so a caller holding the old sets sees no change.
    """
    scores, held, by_topic = profile.topic_scores, profile.interests, taxonomy.interests_by_topic
    gained: set[str] = set()
    for topic in topics:
        if scores[topic] >= INTEREST_THRESHOLD:
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
    scores = profile.topic_scores
    for topic in page.topics:
        scores[topic] = scores.get(topic, 0.0) + 1.0
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

    ``plan`` yields ``(page_id, repeat, dwell)`` items, as
    :class:`adtrap.scenario.WarmupVisit` records unpack: ``repeat`` (at
    least 1) views in a row of ``pages[page_id]``.  No score reads
    ``dwell``.  ``time`` becomes ``last_timestamp`` unless the plan is
    empty; a ``time`` earlier than ``last_timestamp`` raises before
    anything changes.  Mutates ``profile`` in place and returns it.

    The result equals replaying every view through :func:`record_visit`
    in plan order, at times from ``last_timestamp`` up to ``time``.  A
    step adds ``repeat`` to each of its topics at once: every partial sum
    is a whole number, exact as a float below 2**53, so the scores are
    the same floats, and one :func:`_qualify` over every scored topic
    keeps the invariant the replay keeps view by view.
    """
    _check_clock(profile, time)
    scores = profile.topic_scores
    for page_id, repeat, _ in plan:
        for topic in pages[page_id].topics:
            scores[topic] = scores.get(topic, 0.0) + repeat
        profile.last_timestamp = time
    _qualify(profile, scores, taxonomy)
    return profile
