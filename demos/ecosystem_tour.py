#!/usr/bin/env python3
"""Tour of the simulated ad ecosystem, built by hand, no scenario file.

Walks one user through the whole serving path: pages teach the network
her interests, an audience qualifies, two advertisers fight over the
slot, and the winning campaign's counters tick in windowed reports.
"""

import random

from adtrap.scenario import load_taxonomy
from adtrap.profile import AdUserProfile, PageProfile, record_visit
from adtrap.marketplace import MICROS, AdGroup, Bid, Campaign, Marketplace

TAXONOMY = {
    "topics": [
        {"id": "t_soccer", "name": "Soccer"},
        {"id": "t_fitness", "name": "Fitness"},
        {"id": "t_sneakers", "name": "Sneakers"},
    ],
    "interests": [
        {"id": "i_soccer", "name": "Soccer", "source_topics": ["t_soccer"]},
        {"id": "i_fitness", "name": "Fitness", "source_topics": ["t_fitness"]},
        {"id": "i_sneakers", "name": "Sneakers", "source_topics": ["t_sneakers"]},
    ],
    "audiences": [
        {
            "id": "a_sporty",
            "name": "Sporty Shoppers",
            "qualifying_interests": ["i_soccer", "i_fitness"],
            "qualify_rule": 2,
        },
        {
            "id": "a_sneakerheads",
            "name": "Sneakerheads",
            "qualifying_interests": ["i_sneakers"],
        },
    ],
}


def banner(text):
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


def show_profile(profile, tax):
    print(f"  interests    : {sorted(tax.interest_names(profile.interests))}")
    print(f"  audiences    : {sorted(tax.audience_names(profile.audiences))}")


def main():
    tax = load_taxonomy(TAXONOMY)

    banner("1. A user browses; the network watches through its ad slots")
    pages = {
        "match_report": PageProfile("match_report", frozenset({"t_soccer"})),
        "gym_plans": PageProfile("gym_plans", frozenset({"t_fitness"})),
        "drop_calendar": PageProfile("drop_calendar", frozenset({"t_sneakers"})),
    }
    user = AdUserProfile(cookie_id="dc-tour")
    for t, pid in enumerate(["match_report", "gym_plans", "match_report"]):
        record_visit(user, pages[pid], float(t), tax)
        print(f"\nafter visiting {pid!r}:")
        show_profile(user, tax)
    # 'Sporty Shoppers' needs BOTH qualifying interests (qualify_rule=2),
    # which is why it only appeared on the second page view.

    banner("2. Two advertisers, one slot: the higher effective bid wins")
    sporty = Campaign(
        id="sporty_gear",
        ad_groups=(
            AdGroup(
                id="sporty_gear_g",
                ads=("gear_ad",),
                target_audiences=frozenset({"a_sporty"}),
                bid=Bid("CPM", 40.0),
            ),
        ),
        total_budget=10.0,
    )
    protein = Campaign(
        id="protein_shop",
        ad_groups=(
            AdGroup(
                id="protein_shop_g",
                ads=("shake_ad",),
                target_audiences=frozenset({"a_sporty"}),
                # CPC 2.0 at CLICK_THROUGH_RATE (5%) is worth 0.10 per
                # view, beating CPM 40's 0.04 per view.
                bid=Bid("CPC", 2.0),
            ),
        ),
        total_budget=10.0,
    )
    market = Marketplace([sporty, protein], rng=random.Random(1))
    for t in range(3):
        record = market.serve("fan_forum", pages["match_report"], user, time=float(t))
        print(
            f"t={t}: winner={record.ad_id} (campaign {record.campaign_id}), "
            f"attributed to audience {record.audience_id}"
        )
    for c in (sporty, protein):
        spent = market.spent_micros[c.id] / MICROS
        print(f"  {c.id}: spent {spent:.6f} of {c.total_budget}")

    banner("3. The advertiser-facing view: windowed per-audience counters")
    reports = market.publish_reports(window_length=2.0, up_to_time=8.0)
    print(
        f"{reports.num_windows} windows elapsed; only the {len(reports.hits)} "
        "an impression hit are reported:"
    )
    running = dict.fromkeys(reports.audience_ids, 0)
    for k, deltas in reports.hits.items():
        for audience, n in deltas.items():
            running[audience] += n
        start, end = k * reports.window_length, (k + 1) * reports.window_length
        print(f"window {k} [{start:4.1f}, {end:4.1f}): deltas={deltas} cumulative={running}")
    print()
    print("No cookie ids anywhere in those reports. The rest of this package")
    print("is about how much that anonymity is actually worth.")


if __name__ == "__main__":
    main()
