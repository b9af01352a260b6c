"""A naive serving loop, the reference the engine's indexes are tested against.

It keeps no priced table, no per-site table, no topic index and no
audience index.  Every page view derives the visitor's interests and
audiences again from the topic scores, prices every ad group of every
campaign and auctions among all that qualify, straight from the scenario
records.  Only the record types, bid pricing and report batching are
shared with the engine.  It keeps its own topic scores: one point per
view to each topic of the page, with an interest held once a source topic
scores 1.0.
"""

import random

from adtrap.gdn import VisitLogEntry
from adtrap.marketplace import (
    ImpressionRecord,
    build_reports,
    effective_value_micros,
    to_micros,
    window_count,
)
from adtrap.profile import AdUserProfile
from adtrap.simulation import RunTrace
from adtrap.trap import build_trap_campaign


# The topic score that activates an interest.
_THRESHOLD = 1.0


def _audiences(scores, taxonomy):
    interests = {
        interest.id
        for interest in taxonomy.interests.values()
        if any(scores.get(topic, 0.0) >= _THRESHOLD for topic in interest.source_topics)
    }
    return {
        audience.id
        for audience in taxonomy.audiences.values()
        if len(audience.qualifying_interests & interests) >= audience.qualify_rule
    }


def scan_from_scratch(campaigns, spent_micros, config, website_id, profile):
    """Every campaign and group priced again for one page view.

    A group enters the auction once, with the ad id that sorts first.
    Returns the winner, which pays its own value, and every eligible
    entrant, each as ``(campaign, group, ad_id, value)`` in campaign and
    group order; the winner is None when none is eligible.
    """
    eligible = []
    for campaign in campaigns:
        for group in campaign.ad_groups:
            if group.placement and website_id not in group.placement:
                continue
            if not group.target_audiences & profile.audiences:
                continue
            value = effective_value_micros(group.bid, config)
            if value == 0:
                continue
            if to_micros(campaign.total_budget) - spent_micros[campaign.id] < value:
                continue
            entrant = group.ads[0]
            for ad in group.ads[1:]:
                if ad < entrant:
                    entrant = ad
            eligible.append((campaign, group, entrant, value))
    if not eligible:
        return None, eligible
    best = 0
    for i, (_, _, ad, value) in enumerate(eligible):
        if (-value, ad) < (-eligible[best][3], eligible[best][2]):
            best = i
    return eligible[best], eligible


def reference_run(scenario) -> RunTrace:
    """What :func:`adtrap.simulation.run_scenario` should return for ``scenario``."""
    taxonomy = scenario.taxonomy
    config = scenario.market_config
    campaigns = list(scenario.campaigns)
    if scenario.attack is not None:
        campaigns += [
            build_trap_campaign(scenario.attack, scenario.websites[site_id])
            for site_id in scenario.attack.sites
        ]
    pages = {pid: page for site in scenario.websites.values() for pid, page in site.pages.items()}
    scores = {user.id: {} for user in scenario.users}

    def view(user, page):
        for topic in page.topics:
            scores[user.id][topic] = scores[user.id].get(topic, 0.0) + 1.0
        return _audiences(scores[user.id], taxonomy)

    ground_truth = {}
    for user in scenario.users:
        held = set()
        for visit in user.warmup_plan:
            held = view(user, pages[visit.page])
        ground_truth[user.id] = held

    rng = random.Random(scenario.seed)
    spent = {campaign.id: 0 for campaign in campaigns}
    impressions = []
    logs = {site_id: [] for site_id, site in scenario.websites.items() if site.logging}
    events = sorted(
        ((visit.t, user.id, seq, user, visit)
         for user in scenario.users
         for seq, visit in enumerate(user.attack_visits)),
        key=lambda event: event[:3],
    )
    for t, _, _, user, visit in events:
        site = scenario.websites[visit.site]
        held = view(user, site.pages[visit.page])
        profile = AdUserProfile(user.cookie_id, audiences=held)
        winner, _ = scan_from_scratch(campaigns, spent, config, site.id, profile)
        if winner is not None:
            campaign, group, ad, price = winner
            spent[campaign.id] += price
            impressions.append(
                ImpressionRecord(
                    ad_id=ad,
                    campaign_id=campaign.id,
                    ad_group_id=group.id,
                    website_id=site.id,
                    page_id=visit.page,
                    audience_id=min(group.target_audiences & held),
                    cookie_id=user.cookie_id,
                    timestamp=t,
                    clicked=rng.random() < config.click_through_rate,
                )
            )
        if site.logging and user.consent:
            logs[site.id].append(
                VisitLogEntry(
                    timestamp=t,
                    network_id=user.network_id,
                    page_id=visit.page,
                )
            )
    universe = {
        audience
        for campaign in campaigns
        for group in campaign.ad_groups
        for audience in group.target_audiences
    }
    reports = build_reports(
        impressions,
        scenario.window_length,
        window_count(scenario.horizon, scenario.window_length),
        sorted(universe),
    )
    return RunTrace(impressions, reports=reports, logs=logs, ground_truth=ground_truth)
