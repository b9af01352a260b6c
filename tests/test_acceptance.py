"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a single
PASS/FAIL line (visible with ``pytest -s`` or in captured output), so the
whole gate can be read at a glance:

    python3 -m pytest tests/test_acceptance.py -v
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

from adtrap import scenarios
from adtrap.scenario import load_scenario, load_scenario_document
from adtrap.simulation import (
    SimulationEngine,
    attacker_view_reports,
    run_attack,
    run_scenario,
    trace_to_json,
)
from adtrap.trap import group_statistics

from generators import oracle_agreement, random_observations, random_scenario_document
import reference_reports


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


# Interests every victim profile must have derived after warm-up browsing,
# by display name.  Frozen by hand from the browsing corpus; note that two
# of u9's entries are single interest names containing commas.
EXPECTED_INTERESTS = {
    "u1": {"Acting & Theater", "Broadway & Musical Theater", "History"},
    "u2": {"Autos & Vehicles", "Performance Vehicles", "Vehicle Brands"},
    "u3": {"Beverages", "Cooking & Recipes", "Fruits & Vegetables"},
    "u4": {"Movie Reviews & Previews"},
    "u5": {"Audio Files Formats & Codecs", "Samples & Sound Libraries"},
    "u6": {"Arts & Entertainment", "Contests, Awards & Prizes", "Dogs"},
    "u7": {"American Football", "Baseball", "Fantasy Sports", "Sport News"},
    "u8": {"Air Travel", "Travel Agencies & Services"},
    "u9": {"Family & Relationships, marriage", "Parenting, Childcare"},
    "u10": {
        "Apparel",
        "Bodybuilding",
        "Cosmetology & Beauty Professionals",
        "Hair Care",
        "Make-Up & Cosmetic",
        "Skin & Nail Care",
    },
}

# The one affinity audience each victim belongs to, keyed by network id.
EXPECTED_AUDIENCE = {
    "203.0.113.11": "a_art_theater_aficionados",
    "203.0.113.12": "a_auto_enthusiasts",
    "203.0.113.13": "a_cooking_enthusiasts",
    "203.0.113.14": "a_movie_lover",
    "203.0.113.15": "a_music_lover",
    "203.0.113.16": "a_pet_lover",
    "203.0.113.17": "a_sports_fans",
    "203.0.113.18": "a_travel_buffs",
    "203.0.113.19": "a_family_focused",
    "203.0.113.20": "a_health_fitness_buffs",
}


def run_bundled(name):
    scenario = load_scenario(scenarios.path(name))
    trace = run_scenario(scenario)
    return scenario, trace, run_attack(scenario, trace)


def test_full_attack_identifies_all_ten_victims():
    with criterion("full attack on the ten-victim scenario"):
        t0 = time.perf_counter()
        scenario, trace, result = run_bundled("table2_experiment")
        elapsed = time.perf_counter() - t0
        assert result.counts() == {"exact": 10, "ambiguous": 0, "unknown": 0}
        assert result.accuracy == 1.0
        assert not result.inconsistent
        for nid, audience in EXPECTED_AUDIENCE.items():
            assert result.assignments[nid].status == "exact"
            assert result.assignments[nid].audience == audience, nid
            assert result.correct[nid]
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"


def test_warmup_derives_the_reference_interest_sets():
    with criterion("warm-up interest derivation"):
        scenario = load_scenario(scenarios.path("table2_experiment"))
        engine = SimulationEngine(scenario)
        engine.run_warmup()
        taxonomy = scenario.taxonomy
        for user in scenario.users:
            profile = engine.profiles[user.cookie_id]
            names = taxonomy.interest_names(profile.interests)
            assert names == EXPECTED_INTERESTS[user.id], user.id


def test_solver_agrees_with_bruteforce_reference():
    with criterion("solver vs brute-force reference, 1000 instances"):
        rng = random.Random(424242)
        t0 = time.perf_counter()
        agreed = 0
        for i in range(1000):
            observations, _ = random_observations(rng)
            agrees, detail = oracle_agreement(observations)
            assert agrees, f"instance {i}: {detail}"
            agreed += 1
        elapsed = time.perf_counter() - t0
        assert agreed == 1000
        assert elapsed < 60.0, f"took {elapsed:.2f}s, budget is 60s"


def test_dedicated_sites_beat_a_shared_site():
    with criterion("dedicated per-victim sites vs one shared site"):
        _, _, dedicated = run_bundled("per_victim_dedicated")
        assert dedicated.counts()["exact"] == 5
        assert dedicated.accuracy == 1.0
        _, _, shared = run_bundled("per_victim_shared")
        non_exact = shared.counts()["ambiguous"] + shared.counts()["unknown"]
        assert non_exact >= 1


def test_exclusive_placement_beats_shared_placement():
    with criterion("exclusive vs widened ad placement"):
        _, _, exclusive = run_bundled("placement_exclusive")
        _, _, shared = run_bundled("placement_shared")
        assert exclusive.accuracy is not None and shared.accuracy is not None
        assert exclusive.accuracy > shared.accuracy


def test_counters_conserve_impressions_and_budgets_hold():
    with criterion("conservation and budget safety, 200 random scenarios"):
        rng = random.Random(20260823)
        for i in range(200):
            scenario = load_scenario_document(random_scenario_document(rng))
            engine = SimulationEngine(scenario)
            trace = engine.run()
            served = Counter(r.audience_id for r in trace.impressions)
            reports = reference_reports.dense(trace.reports)
            audience_ids = set(reports[0].deltas) if reports else set()
            assert set(served) <= audience_ids or not trace.impressions, i
            for audience in audience_ids:
                total = sum(rep.deltas[audience] for rep in reports)
                assert total == served.get(audience, 0), (i, audience)
                assert reports[-1].cumulative[audience] == total, (i, audience)
            for record in trace.impressions:
                assert 0 <= record.timestamp < scenario.horizon, i
            spent = engine.marketplace.spent_micros
            for campaign in engine.marketplace.campaigns.values():
                assert 0 <= spent[campaign.id] <= campaign.total_budget_micros, (i, campaign.id)


def test_traces_are_byte_identical_across_runs():
    with criterion("byte-identical traces for equal scenario and seed"):
        for name in ("table2_experiment", "placement_shared", "group_statistics"):
            path = scenarios.path(name)
            first = trace_to_json(run_scenario(load_scenario(path)))
            second = trace_to_json(run_scenario(load_scenario(path)))
            assert first == second, name
            assert first.endswith("\n"), name


def test_group_statistics_split_is_exact():
    with criterion("group statistics on the twenty-visitor population"):
        scenario = load_scenario(scenarios.path("group_statistics"))
        trace = run_scenario(scenario)
        stats = group_statistics(
            attacker_view_reports(trace, scenario, "monads"),
            "a_family_focused",
            "a_travel_buffs",
        )
        assert stats.count_x == 15
        assert stats.count_y == 5
        assert stats.fraction == 0.75  # exactly, not approximately
        assert stats.fraction is not None
