"""Scenario document validation and the typed scenario it produces."""

import copy
import json
import math
import random
import re
from collections import OrderedDict
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from adtrap import scenario as loader, scenarios
from adtrap.errors import ValidationError
from adtrap.gdn import Website
from adtrap.marketplace import Campaign, reports_to_rows
from adtrap.scenario import (
    _SCHEMA,
    UNIQUE,
    AttackVisit,
    Scenario,
    UserAgentSpec,
    WarmupVisit,
    load_scenario,
    load_scenario_document,
    read_scenario_file,
)
from adtrap.simulation import run_scenario, trace_to_json
from adtrap.trap import AttackSpec

from conftest import SMALL_TAXONOMY_DOC, benchmark_inputs
from generators import (
    mutate_document,
    mutate_users,
    mutate_visits,
    random_scenario_document,
    random_targeting_scenario_document,
    resolve_pointer,
)


def base_document():
    return {
        "spec_version": 1,
        "seed": 42,
        "window_length_s": 1800,
        "horizon_s": 3600,
        "taxonomy": copy.deepcopy(SMALL_TAXONOMY_DOC),
        "websites": [
            {
                "id": "monads",
                "domain": "monads.example",
                "owner": "attacker",
                "logging": True,
                "pages": [{"id": "landing", "topics": ["t_soccer"]}],
            },
            {
                "id": "kickoff",
                "domain": "kickoff.example",
                "owner": "third-party",
                "logging": False,
                "pages": [{"id": "fixtures", "topics": ["t_soccer", "t_tennis"]}],
            },
        ],
        "campaigns": [
            {
                "id": "rival",
                "total_budget": 100.0,
                "ad_groups": [
                    {
                        "id": "rival_g",
                        "ads": [{"id": "rival_ad"}],
                        "target_audiences": ["a_sports"],
                        "bid": {"kind": "CPM", "amount": 10.0},
                        "placement": [],
                    }
                ],
            }
        ],
        "users": [
            {
                "id": "u1",
                "cookie_id": "dc-u1",
                "network_id": "203.0.113.1",
                "warmup_plan": [{"page": "fixtures"}, {"page": "fixtures"}],
                "attack_visits": [{"site": "monads", "t": 300.0}],
            }
        ],
        "attack": {
            "sites": ["monads"],
            "audiences": ["a_sports", "a_pets"],
            "cpm": 50.0,
        },
    }


def test_valid_document_loads():
    scenario = load_scenario_document(base_document())
    assert scenario.seed == 42
    assert scenario.window_length == 1800
    assert scenario.horizon == 3600
    assert set(scenario.websites) == {"monads", "kickoff"}
    assert scenario.websites["monads"].owner == "attacker"
    assert scenario.campaigns[0].id == "rival"
    assert scenario.users[0].warmup_plan == (WarmupVisit("fixtures"),) * 2
    assert scenario.attack.audiences == ("a_sports", "a_pets")
    assert scenario.attack.budget == 1_000_000.0  # default


def test_window_length_defaults_to_thirty_minutes():
    doc = base_document()
    del doc["window_length_s"]
    assert load_scenario_document(doc).window_length == 1800


def test_attack_is_optional():
    doc = base_document()
    doc["attack"] = None
    doc["users"][0]["attack_visits"] = []
    scenario = load_scenario_document(doc)
    assert scenario.attack is None


def reject(doc, pointer):
    with pytest.raises(ValidationError) as err:
        load_scenario_document(doc)
    assert err.value.pointer == pointer, str(err.value)
    return err.value


@pytest.mark.parametrize("document", [[], None, "scenario", 1])
def test_a_document_that_is_not_an_object_is_rejected_at_the_root(document):
    error = reject(document, "")
    assert error.message == "scenario must be a JSON object"


def test_spec_version_checked():
    doc = base_document()
    doc["spec_version"] = 2
    reject(doc, "/spec_version")


def test_horizon_required_and_positive():
    doc = base_document()
    del doc["horizon_s"]
    reject(doc, "/horizon_s")
    doc = base_document()
    doc["horizon_s"] = 0
    reject(doc, "/horizon_s")
    doc["horizon_s"] = 10**400
    reject(doc, "/horizon_s")


def test_seed_must_fit_64_bits():
    doc = base_document()
    doc["seed"] = 2**64
    reject(doc, "/seed")
    doc["seed"] = True
    reject(doc, "/seed")
    doc["seed"] = -(2**63)
    load_scenario_document(doc)


def test_taxonomy_errors_carry_prefixed_pointer():
    doc = base_document()
    doc["taxonomy"]["interests"][0]["source_topics"] = ["t_ghost"]
    reject(doc, "/taxonomy/interests/0/source_topics/0")


def test_duplicate_website_id():
    doc = base_document()
    doc["websites"].append(copy.deepcopy(doc["websites"][0]))
    doc["websites"][2]["pages"][0]["id"] = "other"
    reject(doc, "/websites/2/id")


def test_page_ids_unique_across_websites():
    doc = base_document()
    doc["websites"][1]["pages"][0]["id"] = "landing"
    reject(doc, "/websites/1/pages/0/id")


def test_page_with_unknown_topic():
    doc = base_document()
    doc["websites"][0]["pages"][0]["topics"] = ["t_ghost"]
    reject(doc, "/websites/0/pages/0/topics")


def test_page_without_topics():
    doc = base_document()
    doc["websites"][0]["pages"][0]["topics"] = []
    error = reject(doc, "/websites/0/pages/0/topics")
    assert error.message == "field 'topics' must be a non-empty list of strings"
    del doc["websites"][0]["pages"][0]["topics"]
    error = reject(doc, "/websites/0/pages/0/topics")
    assert error.message == "field 'topics' must be a non-empty list of strings"


def test_ad_ids_unique_within_a_group_but_not_across_groups():
    doc = base_document()
    group = doc["campaigns"][0]["ad_groups"][0]
    group["ads"] = [{"id": "rival_ad"}, {"id": "other_ad"}, {"id": "rival_ad"}]
    error = reject(doc, "/campaigns/0/ad_groups/0/ads/2/id")
    assert error.message == "duplicate ad id 'rival_ad'"
    group["ads"] = [{"id": "rival_ad"}]
    doc["campaigns"][0]["ad_groups"].append({**group, "id": "second_group"})
    load_scenario_document(doc)


def test_website_without_pages():
    doc = base_document()
    doc["websites"][0]["pages"] = []
    reject(doc, "/websites/0/pages")


def test_reserved_campaign_prefix():
    doc = base_document()
    doc["campaigns"][0]["id"] = "trap_monads"
    reject(doc, "/campaigns/0/id")


@pytest.mark.parametrize("site_id", ["mon/ads", "mon\0ads"], ids=["slash", "nul"])
def test_website_id_that_cannot_be_a_file_name(site_id):
    # A logging site's id names its visits_<id>.csv.
    doc = base_document()
    doc["websites"][0]["id"] = site_id
    assert "visit log file" in reject(doc, "/websites/0/id").message


def test_website_id_whose_visit_log_name_is_too_long():
    # visits_<id>.csv may take 255 UTF-8 bytes, the usual NAME_MAX, so the
    # id gets 244; each "é" takes two.
    doc = base_document()
    doc["websites"][1]["id"] = "é" * 122
    assert "é" * 122 in load_scenario_document(doc).websites
    doc["websites"][1]["id"] = "é" * 122 + "m"
    assert "visit log file" in reject(doc, "/websites/1/id").message


def test_campaign_with_unknown_audience():
    doc = base_document()
    doc["campaigns"][0]["ad_groups"][0]["target_audiences"] = ["a_ghost"]
    reject(doc, "/campaigns/0/ad_groups/0/target_audiences/0")


def test_campaign_with_unknown_placement_site():
    doc = base_document()
    doc["campaigns"][0]["ad_groups"][0]["placement"] = ["ghost_site"]
    reject(doc, "/campaigns/0/ad_groups/0/placement/0")


def test_bad_bid_kind_points_at_bid():
    doc = base_document()
    doc["campaigns"][0]["ad_groups"][0]["bid"] = {"kind": "CPX", "amount": 1.0}
    reject(doc, "/campaigns/0/ad_groups/0/bid/kind")


def test_zero_bid_amount_rejected():
    doc = base_document()
    doc["campaigns"][0]["ad_groups"][0]["bid"] = {"kind": "CPM", "amount": 0}
    reject(doc, "/campaigns/0/ad_groups/0/bid/amount")
    for amount in (math.inf, math.nan, 10**400, 1e303):
        doc["campaigns"][0]["ad_groups"][0]["bid"] = {"kind": "CPC", "amount": amount}
        reject(doc, "/campaigns/0/ad_groups/0/bid/amount")


def test_duplicate_user_cookie_and_network_ids():
    doc = base_document()
    second = copy.deepcopy(doc["users"][0])
    second["id"] = "u2"
    second["network_id"] = "203.0.113.2"
    doc["users"].append(second)
    reject(doc, "/users/1/cookie_id")
    doc["users"][1]["cookie_id"] = "dc-u2"
    doc["users"][1]["network_id"] = "203.0.113.1"
    reject(doc, "/users/1/network_id")


def test_cookie_and_network_namespaces_disjoint():
    doc = base_document()
    doc["users"][0]["network_id"] = "dc-u1"  # same string as their cookie id
    reject(doc, "/users")


def test_an_overlap_error_stays_short_however_many_ids_overlap():
    doc = base_document()
    doc["users"] = [{"id": f"u{i}", "cookie_id": f"c{i}", "network_id": f"c{i}"} for i in range(2000)]
    message = reject(doc, "/users").message
    assert len(message) < 200
    assert "'c0'" in message and "2000" in message


def test_cookie_network_overlap_across_users():
    doc = base_document()
    second = copy.deepcopy(doc["users"][0])
    second["id"] = "u2"
    second["cookie_id"] = "203.0.113.1"  # another user's network id
    second["network_id"] = "203.0.113.2"
    doc["users"].append(second)
    reject(doc, "/users")


def test_attack_visit_time_bounds():
    doc = base_document()
    doc["users"][0]["attack_visits"] = [{"site": "monads", "t": 3600.0}]
    reject(doc, "/users/0/attack_visits/0/t")
    doc["users"][0]["attack_visits"] = [{"site": "monads", "t": -1.0}]
    reject(doc, "/users/0/attack_visits/0/t")


def test_attack_visit_times_strictly_increase():
    doc = base_document()
    doc["users"][0]["attack_visits"] = [
        {"site": "monads", "t": 300.0},
        {"site": "monads", "t": 300.0},
    ]
    reject(doc, "/users/0/attack_visits/1/t")


def test_attack_visits_may_target_non_attack_sites():
    doc = base_document()
    doc["users"][0]["attack_visits"] = [{"site": "kickoff", "t": 100.0}]
    scenario = load_scenario_document(doc)
    assert scenario.users[0].attack_visits[0].site == "kickoff"


def test_attack_visit_page_must_belong_to_site():
    doc = base_document()
    doc["users"][0]["attack_visits"] = [
        {"site": "monads", "t": 100.0, "page": "fixtures"}
    ]
    reject(doc, "/users/0/attack_visits/0/page")


@pytest.mark.parametrize("spelling", [{}, {"page": None}], ids=["absent", "null"])
def test_attack_visit_page_defaults_to_first_page_of_its_site(spelling):
    doc = base_document()
    doc["websites"][0]["pages"].append({"id": "about", "topics": ["t_tennis"]})
    doc["users"][0]["attack_visits"] = [{"site": "monads", "t": 100.0, **spelling}]
    scenario = load_scenario_document(doc)
    assert scenario.users[0].attack_visits[0].page == "landing"
    assert doc["users"][0]["attack_visits"][0] == {"site": "monads", "t": 100.0, **spelling}


def is_record(node):
    return isinstance(node, tuple) and hasattr(node, "_fields")


def records(node):
    """Every record reachable from ``node`` through fields and containers.

    Anything else reachable must be a plain immutable value.
    """
    if is_record(node):
        yield node
        for value in node:
            yield from records(value)
    elif isinstance(node, Mapping):
        for key, value in node.items():
            yield from records(key)
            yield from records(value)
    elif isinstance(node, (list, tuple, set, frozenset)):
        for item in node:
            yield from records(item)
    else:
        assert node is None or isinstance(node, (str, int, float)), type(node)


def mutable_containers(node, owner=None):
    """``Class.field`` of every list, set or dict reachable from ``node``."""
    if is_record(node):
        for name, value in zip(node._fields, node):
            yield from mutable_containers(value, f"{type(node).__name__}.{name}")
        return
    if isinstance(node, (list, set, dict)):
        yield owner
    if isinstance(node, Mapping):
        node = [*node.keys(), *node.values()]
    if isinstance(node, (list, tuple, set, frozenset)):
        for item in node:
            yield from mutable_containers(item, owner)


def test_every_scenario_record_is_frozen():
    documents = [scenarios.load(name) for name in scenarios.names()]
    rng = random.Random(5)
    documents += [random_scenario_document(rng) for _ in range(10)]
    documents.append(base_document())
    loaded = [load_scenario_document(doc) for doc in documents]
    found = {id(r): r for scenario in loaded for r in records(scenario)}.values()
    kinds = {type(r) for r in found}
    assert {Scenario, Website, Campaign, UserAgentSpec, AttackSpec} <= kinds
    # No field can be set, and no attribute added.
    for record in found:
        for name in (*record._fields, "added"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    # Sequences are tuples.  The id-keyed mappings stay dicts, which
    # copy.deepcopy can copy and a MappingProxyType could not.
    assert {where for scenario in loaded for where in mutable_containers(scenario)} == {
        "Scenario.websites",
        "Website.pages",
        "Taxonomy.topics",
        "Taxonomy.interests",
        "Taxonomy.audiences",
    }
    for scenario in loaded:
        assert type(scenario.campaigns) is tuple and type(scenario.users) is tuple
        with pytest.raises(AttributeError):
            scenario.users.clear()


def test_warmup_page_must_exist():
    doc = base_document()
    doc["users"][0]["warmup_plan"] = [{"page": "ghost"}]
    reject(doc, "/users/0/warmup_plan/0/page")


def test_negative_dwell_rejected():
    # No score reads dwell, but the loader still checks it.
    doc = base_document()
    for dwell, problem in ((-1.0, "must be >= 0"), (math.nan, "must be finite, also in micros")):
        visits = [{"page": "fixtures"}, {"page": "fixtures", "dwell": dwell}]
        doc["users"][0]["warmup_plan"] = visits
        error = reject(doc, "/users/0/warmup_plan/1/dwell")
        assert error.message == f"field 'dwell' {problem}"


def test_attack_site_must_be_attacker_owned_and_logging():
    doc = base_document()
    doc["attack"]["sites"] = ["kickoff"]
    reject(doc, "/attack/sites/0")
    doc = base_document()
    doc["websites"][0]["logging"] = False
    reject(doc, "/attack/sites/0")
    doc = base_document()
    doc["attack"]["sites"] = ["monads", "monads"]
    assert reject(doc, "/attack/sites").message == "field 'sites' must not repeat an item"


def test_attack_audiences_checked():
    doc = base_document()
    doc["attack"]["audiences"] = ["a_ghost"]
    reject(doc, "/attack/audiences/0")
    doc = base_document()
    doc["attack"]["audiences"] = ["a_sports", "a_sports"]
    reject(doc, "/attack/audiences")
    doc["attack"]["audiences"] = ["a_ghost", "a_ghost"]
    assert "repeat" in reject(doc, "/attack/audiences").message
    doc = base_document()
    doc["attack"]["audiences"] = []
    reject(doc, "/attack/audiences")


def test_attack_cpm_must_be_positive():
    doc = base_document()
    doc["attack"]["cpm"] = 0
    reject(doc, "/attack/cpm")
    for cpm in (math.nan, math.inf, 10**400, 1e303):
        doc["attack"]["cpm"] = cpm
        reject(doc, "/attack/cpm")
    doc["attack"]["cpm"] = 50.0
    for budget in (math.inf, 1e303):
        doc["attack"]["budget"] = budget
        reject(doc, "/attack/budget")


def document_with_every_object():
    doc = base_document()
    doc["market_config"] = {}
    return doc


@pytest.mark.parametrize(
    "path, key",
    [
        ("", "surplus"),
        ("/taxonomy", "surplus"),
        ("/taxonomy/topics/0", "surplus"),
        ("/taxonomy/interests/0", "surplus"),
        ("/taxonomy/audiences/0", "surplus"),
        ("/websites/0", "surplus"),
        ("/websites/0/pages/0", "surplus"),
        ("/campaigns/0", "surplus"),
        ("/campaigns/0/ad_groups/0", "surplus"),
        ("/campaigns/0/ad_groups/0/ads/0", "surplus"),
        ("/campaigns/0/ad_groups/0/bid", "surplus"),
        ("/users/0", "surplus"),
        ("/users/0/warmup_plan/0", "surplus"),
        ("/users/0/attack_visits/0", "surplus"),
        ("/users/0/attack_visits/0", "tracking_arg"),
        ("/users/0/attack_visits/0", "referral"),
        ("/attack", "surplus"),
        ("/attack", "one_site_per_victim"),
        ("/attack", "tracking_args"),
        ("/attack", "total_budget"),
        ("/market_config", "surplus"),
    ],
)
def test_unknown_keys_rejected_at_their_pointer(path, key):
    doc = document_with_every_object()
    load_scenario_document(copy.deepcopy(doc))
    node = doc
    for part in path.split("/")[1:]:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[key] = 1
    error = reject(doc, f"{path}/{key}")
    assert f"unknown field {key!r}" in str(error)


def node_at(doc, path):
    node = doc
    for part in path.split("/")[1:]:
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


# Where each kind of object sits in document_with_every_object().
SCHEMA_POINTERS = {
    "document": "",
    "taxonomy": "/taxonomy",
    "topic": "/taxonomy/topics/0",
    "interest": "/taxonomy/interests/0",
    "audience": "/taxonomy/audiences/0",
    "website": "/websites/0",
    "page": "/websites/0/pages/0",
    "campaign": "/campaigns/0",
    "ad_group": "/campaigns/0/ad_groups/0",
    "ad": "/campaigns/0/ad_groups/0/ads/0",
    "bid": "/campaigns/0/ad_groups/0/bid",
    "user": "/users/0",
    "warmup_visit": "/users/0/warmup_plan/0",
    "attack_visit": "/users/0/attack_visits/0",
    "attack": "/attack",
    "market_config": "/market_config",
}

SCHEMA_FIELDS = [(kind, key) for kind, row in _SCHEMA.items() for key in row]


def test_schema_pointers_cover_every_kind():
    assert set(SCHEMA_POINTERS) == set(_SCHEMA)


@pytest.mark.parametrize("kind, key", SCHEMA_FIELDS)
def test_every_schema_field_rejects_a_wrong_type(kind, key):
    doc = document_with_every_object()
    node = node_at(doc, SCHEMA_POINTERS[kind])
    current = node.get(key)
    # A list of objects is wrong as a string; anything else is wrong as a
    # list holding a list, which is also the unhashable item that used to
    # crash the id lookups.
    lists_objects = isinstance(current, list) and current and isinstance(current[0], dict)
    node[key] = "x" if lists_objects else [["x"]]
    reject(doc, f"{SCHEMA_POINTERS[kind]}/{key}")


@pytest.mark.parametrize(
    "kind, key",
    [(kind, key) for kind, key in SCHEMA_FIELDS if _SCHEMA[kind][key][1]],
)
def test_every_required_schema_field_is_reported_missing(kind, key):
    doc = document_with_every_object()
    del node_at(doc, SCHEMA_POINTERS[kind])[key]
    reject(doc, f"{SCHEMA_POINTERS[kind]}/{key}")


UNIQUE_FIELDS = [(kind, key) for kind, key in SCHEMA_FIELDS if _SCHEMA[kind][key][1] == UNIQUE]


def test_unique_fields_are_the_ids():
    assert set(UNIQUE_FIELDS) == {
        ("topic", "id"), ("interest", "id"), ("audience", "id"), ("website", "id"),
        ("campaign", "id"), ("ad", "id"), ("user", "id"), ("user", "cookie_id"),
        ("user", "network_id"),
    }


@pytest.mark.parametrize("kind, key", UNIQUE_FIELDS)
def test_every_unique_schema_field_rejects_a_repeated_value(kind, key):
    doc = document_with_every_object()
    listed, index = SCHEMA_POINTERS[kind].rsplit("/", 1)
    items = node_at(doc, listed)
    again = copy.deepcopy(items[int(index)])
    for other in UNIQUE_FIELDS:
        if other[0] == kind and other[1] != key:
            again[other[1]] += "_other"
    items.append(again)
    error = reject(doc, f"{listed}/{len(items) - 1}/{key}")
    assert error.message.startswith("duplicate ")


def required_lists():
    doc = document_with_every_object()
    return [
        (kind, key)
        for kind, key in SCHEMA_FIELDS
        if _SCHEMA[kind][key][1] and isinstance(node_at(doc, SCHEMA_POINTERS[kind]).get(key), list)
    ]


def test_required_lists_include_the_containers_and_probe_lists():
    assert {
        ("website", "pages"), ("campaign", "ad_groups"), ("ad_group", "ads"),
        ("ad_group", "target_audiences"), ("attack", "sites"), ("attack", "audiences"),
        ("page", "topics"),
    } <= set(required_lists())


@pytest.mark.parametrize("kind, key", required_lists())
def test_every_required_list_rejects_an_empty_list(kind, key):
    doc = document_with_every_object()
    node_at(doc, SCHEMA_POINTERS[kind])[key] = []
    error = reject(doc, f"{SCHEMA_POINTERS[kind]}/{key}")
    assert "non-empty list" in error.message


def test_missing_bid_is_reported_as_not_an_object():
    doc = base_document()
    del doc["campaigns"][0]["ad_groups"][0]["bid"]
    error = reject(doc, "/campaigns/0/ad_groups/0/bid")
    assert error.message == "bid must be an object"


@pytest.mark.parametrize("value", [[["x"]], [{}], [1]])
@pytest.mark.parametrize(
    "path, key",
    [
        ("/campaigns/0/ad_groups/0", "target_audiences"),
        ("/campaigns/0/ad_groups/0", "placement"),
        ("/attack", "sites"),
        ("/attack", "audiences"),
        ("/attack", "extra_placement_sites"),
        ("/websites/0/pages/0", "topics"),
        ("/taxonomy/interests/0", "source_topics"),
        ("/taxonomy/audiences/0", "qualifying_interests"),
    ],
)
def test_id_lists_must_hold_strings(path, key, value):
    doc = document_with_every_object()
    node_at(doc, path)[key] = value
    error = reject(doc, f"{path}/{key}")
    assert "list of strings" in error.message


def test_readme_field_reference_matches_schema():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Field reference\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert set(rows) <= set(_SCHEMA), f"README rows {set(rows) - set(_SCHEMA)} name no kind"
    for kind, row in _SCHEMA.items():
        line = next(
            (line for line in section.splitlines() if line.startswith(f"| `{kind}` |")), None
        )
        assert line is not None, f"README has no field reference row for {kind!r}"
        keys = line.split("|")[3]
        assert set(re.findall(r"`(\w+)`", keys)) == set(row), kind
        required = {key for key, (_, is_required) in row.items() if is_required}
        assert set(re.findall(r"\*\*`(\w+)`\*\*", keys)) == required, kind
        has_unique = any(flag == UNIQUE for _, flag in row.values())
        assert ("unique" in line.split("|")[4]) == has_unique, kind


@pytest.mark.parametrize(
    "horizon, window, windows",
    [
        (10**6, 1, 10**6),
        (10**6, math.nextafter(1.0, 0.0), 10**6 + 1),
        (1800 * 10**6 + 1, None, 10**6 + 1),
        (3600, 1e-300, math.floor(math.nextafter(3600, 0.0) / 1e-300) + 1),
        (1.7e302, 1e-6, math.floor(math.nextafter(1.7e302, 0.0) / 1e-6) + 1),
    ],
)
def test_any_finite_window_count_loads_and_runs(horizon, window, windows):
    # Reports are sparse, so a run costs its events, not its windows:
    # up to about 1.7e308 windows each of these runs and writes its
    # reports in a blink.
    doc = base_document()
    doc["horizon_s"] = horizon
    if window is None:
        del doc["window_length_s"]
    else:
        doc["window_length_s"] = window
    scenario = load_scenario_document(doc)
    assert scenario.horizon == horizon
    trace = run_scenario(scenario)
    assert trace.reports.num_windows == windows
    assert json.loads(trace_to_json(trace))["reports"]["num_windows"] == windows
    assert [row[4] for row in reports_to_rows(trace.reports)] == [1]


@pytest.mark.parametrize(
    "horizon, window, pointer",
    [
        (1e302, 1e-10, "/window_length_s"),
        (1e300, 1e-10, "/window_length_s"),
        (3600, 5e-324, "/window_length_s"),
        (1800, 1e-305, "/window_length_s"),
        # this horizon is not finite in micros, which its own rule rejects first
        (1e308, 1e-308, "/horizon_s"),
    ],
)
def test_a_window_count_that_is_not_finite_is_rejected_at_load(horizon, window, pointer):
    # floor(horizon / window) of an infinite ratio overflows, so no
    # window count or window index could be taken.
    doc = base_document()
    doc["horizon_s"] = horizon
    doc["window_length_s"] = window
    error = reject(doc, pointer)
    assert "finite" in error.message


def test_unknown_key_pointer_is_escaped():
    doc = base_document()
    doc["attack"]["a/b~c"] = 1
    reject(doc, "/attack/a~1b~0c")


def test_attack_extra_placement_sites_must_exist():
    doc = base_document()
    doc["attack"]["extra_placement_sites"] = ["ghost"]
    reject(doc, "/attack/extra_placement_sites/0")


def test_profile_and_market_config_sections():
    doc = base_document()
    doc["market_config"] = {"click_through_rate": 0.1}
    assert load_scenario_document(doc).market_config.click_through_rate == 0.1
    doc["profile_config"] = {}
    reject(doc, "/profile_config")
    del doc["profile_config"]
    for rate in (math.nan, math.inf, -math.inf, -0.05, 1.5):
        doc["market_config"] = {"click_through_rate": rate}
        reject(doc, "/market_config/click_through_rate")


@pytest.mark.parametrize(
    "parent, key, value",
    [
        # The whole section is deleted, so the error names the section.
        pytest.param("", "profile_config", {"interest_threshold": 1.0},
                     id="profile_config-interest_threshold-1.0"),
        ("market_config", "auction_mode", "first_price"),
        ("market_config", "acquisition_rate", 0.01),
        ("users/0", "demographics", None),
        ("users/0", "geo", "IT"),
        ("campaigns/0/ad_groups/0", "demographics", None),
        ("campaigns/0/ad_groups/0", "geo", None),
    ],
)
def test_deleted_config_options_are_unknown_fields(parent, key, value):
    doc = document_with_every_object()
    pointer = f"/{parent}" if parent else ""
    node_at(doc, pointer)[key] = value
    error = reject(doc, f"{pointer}/{key}")
    assert error.message == f"unknown field {key!r}"


def test_read_scenario_file_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        read_scenario_file(path)
    assert "not valid JSON" in str(err.value)


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(base_document()), encoding="utf-8")
    scenario = load_scenario(path)
    assert scenario.seed == 42


# Documents the mutation properties start from: each bundled scenario,
# the document holding every kind of object, and generated documents.
MUTATION_SOURCES = [*scenarios.names(), "every_object", "generated", "targeting"]


def mutation_source(source, rng):
    if source == "every_object":
        return document_with_every_object()
    if source == "generated":
        return random_scenario_document(random.Random(rng.getrandbits(32)))
    if source == "targeting":
        return random_targeting_scenario_document(random.Random(rng.getrandbits(32)))
    return scenarios.load(source)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(MUTATION_SOURCES), st.randoms(use_true_random=False))
def test_an_error_in_a_mutated_document_points_into_it(source, rng):
    doc = mutation_source(source, rng)
    for _ in range(rng.randint(1, 3)):
        mutate_document(doc, rng)
    try:
        load_scenario_document(copy.deepcopy(doc))
    except ValidationError as error:
        resolve_pointer(doc, error.pointer)


def test_generated_documents_always_validate():
    rng = random.Random(555)
    for _ in range(50):
        doc = random_scenario_document(rng)
        scenario = load_scenario_document(doc)
        assert scenario.horizon > 0


# --- visit lists, loaded in one pass --------------------------------------


def typed(node):
    """``node`` with each value beside its type's name, so that 1 and 1.0,
    0.0 and -0.0, or two records with equal fields, compare unequal."""
    if isinstance(node, (tuple, list)):
        return type(node).__name__, tuple(map(typed, node))
    if isinstance(node, Mapping):
        return type(node).__name__, tuple((typed(k), typed(v)) for k, v in node.items())
    if isinstance(node, (set, frozenset)):
        return type(node).__name__, sorted(map(repr, map(typed, node)))
    return type(node).__name__, repr(node)


def load_outcome(document):
    """The typed scenario ``document`` loads to, or its error's type, message and pointer."""
    try:
        return typed(load_scenario_document(document))
    except ValidationError as error:
        return type(error), error.message, error.pointer


def rule_by_rule_outcome(document):
    """:func:`load_outcome`, with the user list and every visit list handed to ``_each``."""
    with mock.patch.object(loader, "_users_by_column", return_value=None):
        return load_outcome(document)


def valid_documents(seed):
    """Every bundled scenario, 20 generated and 20 targeting documents, then
    two at the column pass's boundaries: a horizon under 1 s with no attack
    visit, and columns that mix ints and floats."""
    documents = [scenarios.load(name) for name in scenarios.names()]
    rng = random.Random(seed)
    documents += [random_scenario_document(rng) for _ in range(20)]
    documents += [random_targeting_scenario_document(rng) for _ in range(20)]
    short = base_document()
    short["horizon_s"] = 0.5
    del short["users"][0]["attack_visits"]
    mixed = base_document()
    mixed["users"][0]["warmup_plan"] = [{"page": "fixtures", "dwell": d} for d in (7, 7.5)]
    mixed["users"][0]["attack_visits"] = [{"site": "monads", "t": t} for t in (300, 600.5)]
    return documents + [short, mixed]


def test_records_built_by_column_check_nothing_themselves():
    """The column pass builds them with ``tuple.__new__``, which would skip a check."""
    for cls in (UserAgentSpec, WarmupVisit, AttackVisit):
        assert not hasattr(cls, "_check"), cls


def test_valid_visit_lists_load_in_one_pass():
    never = AssertionError("a visit list went through _each")
    with (
        mock.patch.object(loader, "_warmup_visit", side_effect=never),
        mock.patch.object(loader, "_attack_visit", side_effect=never),
    ):
        for document in valid_documents(24):
            load_scenario_document(document)


def test_valid_user_lists_load_in_one_pass():
    """Valid users never go through ``_each``."""
    documents = valid_documents(33)
    with mock.patch.object(loader, "_user", side_effect=AssertionError("a user went through _each")):
        for document in documents:
            load_scenario_document(document)


# Half the steps mutate visits; at 400 examples that is about 300 visit
# mutations and 150 each of user and document mutations.
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(MUTATION_SOURCES), st.randoms(use_true_random=False))
def test_users_and_visit_lists_load_as_they_do_rule_by_rule(source, rng):
    doc = mutation_source(source, rng)
    for _ in range(rng.randint(0, 3)):
        rng.choice((mutate_visits, mutate_visits, mutate_users, mutate_document))(doc, rng)
    assert load_outcome(doc) == rule_by_rule_outcome(doc)


class Count(int):
    """An int subclass, as a Python caller may pass; JSON never makes one."""


# On base_document(), whose horizon is 3600 s, each case replaces user 0's
# warm-up plan or attack visits.
VISIT_EDGES = {
    # A warm-up visit has no "repeat" field: both paths reject it as unknown.
    "repeat-true": ("warmup_plan", [{"page": "fixtures", "repeat": True}]),
    "repeat-int-subclass": ("warmup_plan", [{"page": "fixtures", "repeat": Count(2)}]),
    "dwell-true": ("warmup_plan", [{"page": "fixtures", "dwell": True}]),
    "dwell-int-subclass": ("warmup_plan", [{"page": "fixtures", "dwell": Count(2)}]),
    "dwell-int": ("warmup_plan", [{"page": "fixtures", "dwell": 7}]),
    "dwell-1e301": ("warmup_plan", [{"page": "fixtures", "dwell": 1e301}]),
    "dwell-10**400": ("warmup_plan", [{"page": "fixtures", "dwell": 10**400}]),
    "warmup-page-null": ("warmup_plan", [{"page": None}]),
    "warmup-unknown-key": ("warmup_plan", [{"page": "fixtures", "odd": 1}]),
    "warmup-dict-subclass": ("warmup_plan", [OrderedDict(page="fixtures")]),
    "t-int": ("attack_visits", [{"site": "monads", "t": 300}, {"site": "kickoff", "t": 300.5}]),
    "t-int-subclass": ("attack_visits", [{"site": "monads", "t": Count(300)}]),
    "t-at-horizon": ("attack_visits", [{"site": "monads", "t": 3600}]),
    "t-just-below-horizon": ("attack_visits", [{"site": "monads", "t": math.nextafter(3600, 0)}]),
    "t-repeated": ("attack_visits", [{"site": "monads", "t": 5.0}, {"site": "kickoff", "t": 5}]),
    "t-decreasing": ("attack_visits", [{"site": "monads", "t": 5.0}, {"site": "monads", "t": 4}]),
    "t-negative-zero": ("attack_visits", [{"site": "monads", "t": -0.0}]),
    "t-nan": ("attack_visits", [{"site": "monads", "t": math.nan}]),
    "dwell-nan-second": (
        "warmup_plan", [{"page": "fixtures"}, {"page": "fixtures", "dwell": math.nan}]
    ),
    "attack-page-null": ("attack_visits", [{"site": "monads", "t": 1.0, "page": None}]),
    "another-sites-page": ("attack_visits", [{"site": "monads", "t": 1.0, "page": "fixtures"}]),
    "page-list": ("attack_visits", [{"site": "monads", "t": 1.0, "page": []}]),
    "site-object": ("attack_visits", [{"site": {}, "t": 1.0}]),
    "attack-unknown-key": ("attack_visits", [{"site": "monads", "t": 1.0, "odd": 1}]),
    "later-visit-bad": ("attack_visits", [{"site": "monads", "t": 1.0}, {"site": "x", "t": 2.0}]),
}
# min() and max() skip a NaN that is not first, so each bad time comes second.
VISIT_EDGES |= {
    f"t-{name}-second": ("attack_visits", [{"site": "monads", "t": 1}, {"site": "monads", "t": t}])
    for name, t in (("nan", math.nan), ("inf", math.inf), ("10**400", 10**400), ("negative", -2.0))
}


@pytest.mark.parametrize("key, visits", VISIT_EDGES.values(), ids=VISIT_EDGES)
def test_visit_edges_load_as_they_do_rule_by_rule(key, visits):
    doc = base_document()
    doc["users"][0][key] = visits
    assert load_outcome(doc) == rule_by_rule_outcome(doc)


class Name(str):
    """A str subclass, as a Python caller may pass; JSON never makes one."""


def user_node(uid, **fields):
    return {"id": uid, "cookie_id": f"dc-{uid}", "network_id": f"net-{uid}", **fields}


# On base_document(), each case replaces the user list.
USER_EDGES = {
    "user-list": [["u1"]],
    "user-null": [None],
    "id-repeated": [user_node("u1"), {**user_node("u2"), "id": "u1"}],
    "cookie-id-repeated": [user_node("u1"), {**user_node("u2"), "cookie_id": "dc-u1"}],
    "network-id-repeated": [user_node("u1"), {**user_node("u2"), "network_id": "net-u1"}],
    "id-shared-across-columns": [user_node("u1"), {**user_node("u2"), "cookie_id": "u1"}],
    "id-missing": [{"cookie_id": "dc-u1", "network_id": "net-u1"}],
    "cookie-id-missing": [{"id": "u1", "network_id": "net-u1"}],
    "id-empty": [user_node("")],
    "network-id-empty": [user_node("u1", network_id="")],
    "cookie-id-int": [user_node("u1", cookie_id=1)],
    "network-id-surrogate": [user_node("u1", network_id="net-\ud800")],
    "id-non-ascii": [user_node("usér")],
    "id-surrogate": [user_node("u\ud800")],
    "id-str-subclass": [user_node(Name("u1"))],
    "user-dict-subclass": [OrderedDict(user_node("u1"))],
    "user-unknown-key": [user_node("u1", odd=1)],
    "consent-false": [user_node("u1", consent=False)],
    "consent-int": [user_node("u1", consent=1)],
    "consent-null": [user_node("u1", consent=None)],
    "geo-empty": [user_node("u1", geo="")],
    "geo-surrogate": [user_node("u1", geo="\ud800")],
    "geo-null": [user_node("u1", geo=None)],
    "demographics-null": [user_node("u1", demographics=None)],
    "demographics-object": [user_node("u1", demographics={"gender": "f"})],
    "demographics-empty": [user_node("u1", demographics={})],
    "demographics-every-key": [
        user_node("u1", demographics={"gender": "", "age_band": "25-34", "languages": ["it", "fr"]})
    ],
    "demographics-gender-int": [user_node("u1", demographics={"gender": 1})],
    "demographics-unknown-key": [user_node("u1", demographics={"odd": 1})],
    "demographics-dict-subclass": [user_node("u1", demographics=OrderedDict(gender="f"))],
    "languages-tuple": [user_node("u1", demographics={"languages": ("it",)})],
    "languages-null": [user_node("u1", demographics={"languages": None})],
    "languages-surrogate": [user_node("u1", demographics={"languages": ["it", "\ud800"]})],
    "age-band-surrogate": [user_node("u1", demographics={"age_band": "\ud800"})],
    "warmup-plan-tuple": [user_node("u1", warmup_plan=())],
    "warmup-plan-null": [user_node("u1", warmup_plan=None)],
    "attack-visits-tuple": [user_node("u1", attack_visits=())],
    "later-user-bad": [user_node("u1"), user_node("u2", consent=0)],
    # Times increase per user, not along every user's visits taken together.
    "times-below-an-earlier-users": [
        user_node("u1", attack_visits=[{"site": "monads", "t": 100}, {"site": "monads", "t": 200}]),
        user_node("u2", attack_visits=[{"site": "monads", "t": 10}, {"site": "kickoff", "t": 20}]),
    ],
    "user-without-visits-between": [
        user_node("u1", warmup_plan=[{"page": "fixtures"}],
                  attack_visits=[{"site": "monads", "t": 5}]),
        user_node("u2"),
        user_node("u3", warmup_plan=[{"page": "landing"}],
                  attack_visits=[{"site": "kickoff", "t": 1}]),
    ],
    "attack-page-null-beside-named": [
        user_node("u1", attack_visits=[
            {"site": "monads", "t": 1.0, "page": None},
            {"site": "kickoff", "t": 2.0, "page": "fixtures"},
        ]),
    ],
}


@pytest.mark.parametrize("users", USER_EDGES.values(), ids=USER_EDGES)
def test_user_edges_load_as_they_do_rule_by_rule(users):
    doc = base_document()
    doc["users"] = users
    assert load_outcome(doc) == rule_by_rule_outcome(doc)


@pytest.mark.parametrize("seed", [101, 202])
@pytest.mark.parametrize("workload", ["ecosystem", "crowded"])
def test_benchmark_inputs_load_in_one_pass(workload, seed):
    """A benchmark input that fell back to the rule-by-rule path would only
    show as a slower ``setup_s``; here it fails."""
    generate, workloads = benchmark_inputs()
    document = generate(workloads[workload]["params"], seed)
    never = AssertionError("a benchmark input went through _each")
    with (
        mock.patch.object(loader, "_user", side_effect=never),
        mock.patch.object(loader, "_warmup_visit", side_effect=never),
        mock.patch.object(loader, "_attack_visit", side_effect=never),
    ):
        scenario = load_scenario_document(document)
    assert len(scenario.users) == len(document["users"])
