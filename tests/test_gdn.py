"""Website serving: profile update order, consent gating, visit logs."""

import pytest

from adtrap.errors import ValidationError
from adtrap.gdn import VisitLogEntry, Website, serve_page
from adtrap.marketplace import AdGroup, Bid, Campaign, Marketplace
from adtrap.profile import AdUserProfile, PageProfile

from conftest import reject_value


@pytest.fixture
def site():
    return Website(
        id="monads",
        domain="monads.example",
        pages={"landing": PageProfile("landing", frozenset({"t_soccer"}))},
        owner="attacker",
        logging=True,
    )


@pytest.fixture
def market():
    group = AdGroup(
        id="g",
        ads=("ad",),
        target_audiences=frozenset({"a_sports"}),
        bid=Bid("CPM", 50.0),
    )
    campaign = Campaign(id="c", ad_groups=(group,), total_budget=100.0)
    return Marketplace([campaign])


def serve(site, market, tax, profile, *, t, consent=True, nid="203.0.113.9", **kw):
    return serve_page(
        site,
        "landing",
        profile,
        network_id=nid,
        consent=consent,
        time=t,
        marketplace=market,
        taxonomy=tax,
        **kw,
    )


def test_profile_updates_before_ad_selection(site, market, small_taxonomy):
    # A brand-new profile becomes a sports fan by viewing this very page,
    # so the ad already qualifies on the first view.
    profile = AdUserProfile(cookie_id="ck")
    impression, entry = serve(site, market, small_taxonomy, profile, t=0.0)
    assert profile.audiences == {"a_sports"}
    assert impression is not None
    assert impression.website_id == "monads"
    assert impression.cookie_id == "ck"
    assert entry is not None


def test_log_entry_carries_network_id_not_cookie(site, market, small_taxonomy):
    profile = AdUserProfile(cookie_id="ck")
    _, entry = serve(site, market, small_taxonomy, profile, t=0.0, nid="203.0.113.7")
    assert entry.network_id == "203.0.113.7"
    assert not hasattr(entry, "cookie_id")


def test_no_consent_no_log_but_ads_still_serve(site, market, small_taxonomy):
    profile = AdUserProfile(cookie_id="ck")
    impression, entry = serve(
        site, market, small_taxonomy, profile, t=0.0, consent=False
    )
    assert impression is not None
    assert entry is None


def test_non_logging_site_never_logs(market, small_taxonomy):
    quiet = Website(
        id="quiet",
        domain="quiet.example",
        pages={"landing": PageProfile("landing", frozenset({"t_soccer"}))},
        owner="third-party",
        logging=False,
    )
    profile = AdUserProfile(cookie_id="ck")
    impression, entry = serve_page(
        quiet,
        "landing",
        profile,
        network_id="203.0.113.9",
        consent=True,
        time=0.0,
        marketplace=market,
        taxonomy=small_taxonomy,
    )
    assert impression is not None
    assert entry is None


def test_unknown_page_rejected(site, market, small_taxonomy):
    with pytest.raises(ValidationError, match="has no page"):
        serve_page(
            site,
            "missing",
            AdUserProfile(cookie_id="ck"),
            network_id="n",
            consent=True,
            time=0.0,
            marketplace=market,
            taxonomy=small_taxonomy,
        )


def test_log_entries_carry_the_visit_fields(site, market, small_taxonomy):
    a = AdUserProfile(cookie_id="ck_a")
    b = AdUserProfile(cookie_id="ck_b")
    _, first = serve(site, market, small_taxonomy, a, t=1.0, nid="203.0.113.1")
    _, second = serve(site, market, small_taxonomy, b, t=2.0, nid="203.0.113.2")
    assert first == VisitLogEntry(1.0, "203.0.113.1", "landing")
    assert second == VisitLogEntry(2.0, "203.0.113.2", "landing")


def test_website_owner_validation():
    error = reject_value("/websites/0/owner", "fourth-party")
    assert error.message == "field 'owner' must be 'attacker' or 'third-party'"
