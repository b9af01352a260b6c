"""Publisher side of the network: websites, page serving and visit logs.

A website owner who enables logging records one entry per page view: its
time, the visitor's pseudonymous network id (an IP-like tag, never the ad
cookie) and the page, as an ordinary web-server log would.  The two id
namespaces are kept disjoint on purpose; correlating them is exactly what
the attack in :mod:`adtrap.trap` is about.

Visitor consent gates logging only.  A non-consenting visitor still sees
ads and still moves the advertiser counters; she is simply absent from the
site's own log.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError, checked, quoted
from .marketplace import ImpressionRecord, Marketplace
from .profile import AdUserProfile, PageProfile, record_visit
from .taxonomy import Taxonomy

OWNERS = ("attacker", "third-party")


class VisitLogEntry(NamedTuple):
    timestamp: float
    network_id: str
    page_id: str


@checked
class Website(NamedTuple):
    """A site as its owner set it up; a run keeps its visit log."""

    id: str
    domain: str
    pages: dict[str, PageProfile]
    owner: str = "third-party"
    logging: bool = False

    def _check(self):
        if self.owner not in OWNERS:
            raise ValidationError(
                f"website {self.id!r} owner must be one of {OWNERS}, got {self.owner!r}"
            )


def serve_page(
    website: Website,
    page_id: str,
    profile: AdUserProfile,
    *,
    network_id: str,
    consent: bool,
    time: float,
    marketplace: Marketplace,
    taxonomy: Taxonomy,
) -> tuple[ImpressionRecord | None, VisitLogEntry | None]:
    """One page view: update the profile, fill the ad slot, maybe log.

    The profile is updated before ad selection, so the page being viewed
    already counts toward targeting.  Returns the impression (None when no
    ad qualified) and the ``(time, network_id, page_id)`` log entry for the
    caller to keep (None when the site does not log or the visitor withheld
    consent).
    """
    if page_id not in website.pages:
        raise ValidationError(f"website {quoted(website.id)} has no page {quoted(page_id)}")
    page = website.pages[page_id]
    record_visit(profile, page, time, taxonomy)
    impression = marketplace.serve(website.id, page, profile, time)
    if not (website.logging and consent):
        return impression, None
    return impression, VisitLogEntry(time, network_id, page_id)

