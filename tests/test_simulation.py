"""End-to-end runs: phases, determinism, scoring, sweeps."""

import copy
import gc
import itertools
import json
import logging
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from adtrap import gdn, scenarios, simulation
from adtrap.errors import SimulationError, ValidationError
from adtrap.gdn import VisitLogEntry
from adtrap.marketplace import (
    CounterReports,
    ImpressionRecord,
    window_count,
    window_index,
)
from adtrap.profile import fold_warmup, record_visit
from adtrap.scenario import load_scenario, load_scenario_document
from adtrap.simulation import (
    SWEEP_COLUMNS,
    RunTrace,
    SimulationEngine,
    apply_grid_value,
    attacker_view_reports,
    run_attack,
    run_scenario,
    sweep,
    trace_to_json,
)
from adtrap.trap import build_trap_campaign, collect_observations, probe_campaign_id

from conftest import SMALL_TAXONOMY_DOC, benchmark_inputs
from generators import random_scenario_document, random_targeting_scenario_document
import reference_reports
from reference_engine import reference_run


def small_attack_document(**overrides):
    doc = {
        "spec_version": 1,
        "seed": 5,
        "window_length_s": 1800,
        "horizon_s": 1800,
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
                "id": "kick",
                "domain": "kick.example",
                "pages": [{"id": "kick_home", "topics": ["t_soccer"]}],
            },
            {
                "id": "dogpark",
                "domain": "dogpark.example",
                "pages": [{"id": "dog_home", "topics": ["t_dogs"]}],
            },
        ],
        "campaigns": [],
        "users": [
            {
                "id": "u_open",
                "cookie_id": "dc-open",
                "network_id": "203.0.113.1",
                "warmup_plan": [{"page": "kick_home"}],
                "attack_visits": [{"site": "monads", "t": 100.0}],
            },
            {
                "id": "u_shy",
                "cookie_id": "dc-shy",
                "network_id": "203.0.113.2",
                "consent": False,
                "warmup_plan": [{"page": "dog_home"}],
                "attack_visits": [{"site": "monads", "t": 200.0}],
            },
        ],
        "attack": {"sites": ["monads"], "audiences": ["a_pets", "a_sports"], "cpm": 50.0},
    }
    doc.update(overrides)
    return doc


def test_warmup_builds_profiles_without_serving():
    scenario = load_scenario(scenarios.path("table2_experiment"))
    engine = SimulationEngine(scenario)
    engine.run_warmup()
    assert engine.marketplace.impressions == []
    assert engine.logs == {"monads": []}
    assert engine.ground_truth["u7"] == {"a_sports_fans"}
    # no clicks sampled yet either: the rng is untouched
    assert engine.marketplace.rng.getstate() == random.Random(scenario.seed).getstate()


@pytest.mark.parametrize("dwells", [None, [0.0], [1e300], [7.5, 0, 3600]],
                         ids=["absent", "zero", "huge", "mixed"])
def test_warmup_dwell_changes_no_trace_byte(dwells):
    # A view adds 1.0 to each of its page's topics, whatever its dwell.
    doc = scenarios.load("table2_experiment")
    expected = trace_to_json(run_scenario(load_scenario_document(doc)))
    for user in doc["users"]:
        for i, visit in enumerate(user["warmup_plan"]):
            visit.pop("dwell", None)
            if dwells:
                visit["dwell"] = dwells[i % len(dwells)]
    assert trace_to_json(run_scenario(load_scenario_document(doc))) == expected


def test_attack_phase_logs_each_page_view_at_debug_only(caplog):
    scenario = load_scenario(scenarios.path("two_visitor_ambiguity"))
    views = sorted((v.t, user.id) for user in scenario.users for v in user.attack_visits)
    with caplog.at_level(logging.DEBUG, logger="adtrap.simulation"):
        run_scenario(scenario)
    logged = [
        record.args[:2]
        for record in caplog.records
        if record.name == "adtrap.simulation" and record.msg.startswith("t=%s user=%s ")
    ]
    assert len(views) == 3
    assert logged == views
    caplog.clear()
    # At the CLI's default level nothing is logged, and no message is built.
    with (
        caplog.at_level(logging.WARNING, logger="adtrap.simulation"),
        mock.patch.object(simulation.log, "debug") as debug,
    ):
        run_scenario(scenario)
    assert debug.call_count == 0
    assert [r for r in caplog.records if r.name == "adtrap.simulation"] == []


def test_ground_truth_is_snapshotted_before_the_attack_phase():
    doc = small_attack_document()
    doc["users"] = [
        {
            "id": "u_fresh",
            "cookie_id": "dc-fresh",
            "network_id": "203.0.113.9",
            "warmup_plan": [],
            "attack_visits": [{"site": "monads", "t": 100.0}],
        }
    ]
    scenario = load_scenario_document(doc)
    engine = SimulationEngine(scenario)
    trace = engine.run()
    # viewing the trap page itself made the visitor a sports fan, so the
    # probe fires, but at attack start she qualified for nothing
    assert trace.ground_truth == {"u_fresh": set()}
    assert engine.profiles["dc-fresh"].audiences == {"a_sports"}
    assert len(trace.impressions) == 1
    result = run_attack(scenario, trace)
    assert result.assignments["203.0.113.9"].audience == "a_sports"
    assert result.correct == {"203.0.113.9": False}


def test_run_produces_trace_with_logs_reports_and_truth():
    scenario = load_scenario(scenarios.path("table2_experiment"))
    trace = run_scenario(scenario)
    assert len(trace.impressions) == 10
    assert {r.campaign_id for r in trace.impressions} == {"trap_monads"}
    assert {r.website_id for r in trace.impressions} == {"monads"}
    assert set(trace.logs) == {"monads"}
    assert len(trace.logs["monads"]) == 10
    assert trace.reports.num_windows == 10  # horizon 18000 / window 1800
    assert trace.ground_truth["u1"] == {"a_art_theater_aficionados"}


def expected_logs(scenario):
    """Every logging site's log from the schedule alone: one entry per
    visit of a consenting user, in time order, ties by user id."""
    visits = sorted(
        ((user, visit) for user in scenario.users for visit in user.attack_visits),
        key=lambda uv: (uv[1].t, uv[0].id),
    )
    logs = {wid: [] for wid, site in scenario.websites.items() if site.logging}
    for user, visit in visits:
        if user.consent and visit.site in logs:
            logs[visit.site].append(
                VisitLogEntry(
                    timestamp=visit.t,
                    network_id=user.network_id,
                    page_id=visit.page,
                )
            )
    return logs


def test_logs_hold_consenting_visits_in_arrival_order():
    scenario = load_scenario_document(small_attack_document())
    assert run_scenario(scenario).logs == {
        "monads": [VisitLogEntry(100.0, "203.0.113.1", "landing")]
    }
    rng = random.Random(7)
    for _ in range(20):
        scenario = load_scenario_document(random_scenario_document(rng))
        assert run_scenario(scenario).logs == expected_logs(scenario)


def test_visit_log_never_goes_backwards():
    engine = SimulationEngine(load_scenario_document(small_attack_document()))
    engine.run_warmup()
    engine.logs["monads"].append(VisitLogEntry(1e9, "203.0.113.9", "landing"))
    with pytest.raises(SimulationError, match="visit log for 'monads' would go backwards"):
        engine.run_attack_phase()


def assert_reusable(scenario, seeds, order):
    """Runs of one Scenario object repeat exactly, also between runs of
    reseeded copies.

    Runs of the copies reseeded with ``seeds``, repeated in the
    interleaved ``order`` (a permutation of their indexes), give the
    traces of their first runs, and the whole scenario is as it was.
    """
    before = copy.deepcopy(scenario)
    first = trace_to_json(run_scenario(scenario))
    fresh = [trace_to_json(run_scenario(scenario._replace(seed=s))) for s in seeds]
    assert trace_to_json(run_scenario(scenario)) == first
    for i in order:
        assert trace_to_json(run_scenario(scenario._replace(seed=seeds[i]))) == fresh[i]
    assert trace_to_json(run_scenario(scenario)) == first
    assert scenario == before


run_seeds = st.lists(st.integers(-(2**63), 2**64 - 1), min_size=2, max_size=4)


def test_scenario_object_survives_repeated_runs():
    scenario = load_scenario(scenarios.path("table2_experiment"))
    assert_reusable(scenario, seeds=[8, scenario.seed, 9], order=[2, 0, 1])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    generate=st.sampled_from([random_scenario_document, random_targeting_scenario_document]),
    seeds=run_seeds,
    data=st.data(),
)
def test_generated_scenario_objects_survive_repeated_runs(seed, generate, seeds, data):
    order = data.draw(st.permutations(range(len(seeds))))
    assert_reusable(load_scenario_document(generate(random.Random(seed))), seeds, order)


ATTACK_SCENARIOS = [name for name in scenarios.names() if scenarios.load(name).get("attack")]


@pytest.mark.parametrize("name", ATTACK_SCENARIOS)
@settings(max_examples=5, deadline=None)
@given(seeds=run_seeds, data=st.data())
def test_bundled_scenario_objects_survive_repeated_runs(name, seeds, data):
    order = data.draw(st.permutations(range(len(seeds))))
    assert_reusable(load_scenario(scenarios.path(name)), seeds, order)


def test_equal_seeds_give_byte_identical_traces():
    path = scenarios.path("table2_experiment")
    a = trace_to_json(run_scenario(load_scenario(path)))
    b = trace_to_json(run_scenario(load_scenario(path)))
    assert a == b
    assert a.endswith("\n")


def test_trace_document_shape():
    scenario = load_scenario(scenarios.path("two_visitor_ambiguity"))
    doc = json.loads(trace_to_json(run_scenario(scenario)))
    assert doc["schema_version"] == 4
    assert set(doc) == {
        "schema_version",
        "impression_fields",
        "impressions",
        "log_fields",
        "logs",
        "reports",
        "ground_truth",
    }
    assert doc["impressions"] and doc["reports"]["hits"] and doc["logs"]
    assert doc["impression_fields"] == list(ImpressionRecord._fields)
    assert doc["log_fields"] == list(VisitLogEntry._fields)
    assert "cookie_id" in doc["impression_fields"]
    assert "cookie_id" not in doc["log_fields"]
    assert all(len(row) == len(ImpressionRecord._fields) for row in doc["impressions"])
    assert set(doc["reports"]) == set(CounterReports._fields)
    assert all(len(hit) == 2 for hit in doc["reports"]["hits"])
    cookie_ids = {user.cookie_id for user in scenario.users}
    for site_log in doc["logs"].values():
        for row in site_log:
            assert len(row) == len(VisitLogEntry._fields)
            assert cookie_ids.isdisjoint(row)


def reference_trace_document(trace):
    """The trace's document, built here independently of ``trace_to_json``:
    each record as the values of its fields, named once per record kind."""
    reports = trace.reports
    impression_fields = list(ImpressionRecord._fields)
    log_fields = list(VisitLogEntry._fields)
    return {
        "schema_version": 4,
        "impression_fields": impression_fields,
        "impressions": [[getattr(r, f) for f in impression_fields] for r in trace.impressions],
        "log_fields": log_fields,
        "logs": {
            site: [[getattr(e, f) for f in log_fields] for e in entries]
            for site, entries in trace.logs.items()
        },
        "reports": {
            "window_length": reports.window_length,
            "num_windows": reports.num_windows,
            "audience_ids": list(reports.audience_ids),
            "hits": [[k, d] for k, d in reports.hits.items()],
        },
        "ground_truth": {
            user_id: sorted(audiences) for user_id, audiences in trace.ground_truth.items()
        },
    }


def reference_trace_json(trace):
    """The indented view of the trace document: re-indenting ``trace.json``
    with ``indent=2, sort_keys=True`` must give it byte for byte."""
    return json.dumps(reference_trace_document(trace), indent=2, sort_keys=True) + "\n"


def check_trace_json(trace):
    """``trace_to_json`` is the one-line sorted dump of the document,
    re-indenting it gives the indented form byte for byte, and it writes
    no zero delta."""
    text = trace_to_json(trace)
    assert text == json.dumps(reference_trace_document(trace), sort_keys=True) + "\n"
    assert text.splitlines(keepends=True) == [text]
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == (
        reference_trace_json(trace)
    )
    assert parsed_reports(text) == trace.reports
    assert all(0 not in deltas.values() for _, deltas in json.loads(text)["reports"]["hits"])


def parsed_reports(text):
    """The ``reports`` section of a ``trace.json`` text, read back as a record."""
    section = json.loads(text)["reports"]
    return CounterReports(
        section["window_length"],
        section["num_windows"],
        tuple(section["audience_ids"]),
        dict(section["hits"]),
    )


def check_round_trip(trace):
    """The records rebuilt from the written ``trace.json`` text equal the run's
    own, whether each row is read by position or by its kind's field names."""
    text = trace_to_json(trace)
    doc = json.loads(text)
    impressions, logs = doc["impressions"], doc["logs"]
    assert [ImpressionRecord(*row) for row in impressions] == trace.impressions
    assert {site: [VisitLogEntry(*row) for row in rows] for site, rows in logs.items()} == (
        trace.logs
    )
    assert [dict(zip(doc["impression_fields"], row)) for row in impressions] == [
        r._asdict() for r in trace.impressions
    ]
    assert {
        site: [dict(zip(doc["log_fields"], row)) for row in rows] for site, rows in logs.items()
    } == {site: [e._asdict() for e in entries] for site, entries in trace.logs.items()}
    assert parsed_reports(text) == trace.reports
    assert {u: set(a) for u, a in doc["ground_truth"].items()} == trace.ground_truth


@pytest.mark.parametrize("name", scenarios.names())
def test_bundled_traces_read_back_as_their_records(name):
    check_round_trip(run_scenario(load_scenario(scenarios.path(name))))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_traces_read_back_as_their_records(seed):
    check_round_trip(
        run_scenario(load_scenario_document(random_scenario_document(random.Random(seed))))
    )


# Characters that frame JSON, need escaping, or are not ASCII.
adversarial_text = st.text(
    st.one_of(
        st.sampled_from(list('}{][,:" \\/\n\r\t\x00\x1f\x7f\u00e9\u2028\u20ac\U0001f600')),
        st.characters(),
    ),
    max_size=6,
)
extreme_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, -1e16, 1.7976931348623157e308]),
    st.floats(),
)
impressions = st.builds(
    ImpressionRecord,
    *(adversarial_text,) * 7,
    timestamp=extreme_floats,
    clicked=st.booleans(),
)


@st.composite
def counter_reports(draw):
    """Counters over adversarial audience ids with huge and negative
    non-zero deltas, hit windows past 9 and up to 2**70, on window lengths
    from the smallest subnormal to ones whose window bounds overflow to
    infinity."""
    audiences = tuple(sorted(draw(st.sets(adversarial_text, max_size=4))))
    num_windows = draw(st.integers(0, 12) | st.integers(0, 2**70))
    delta = st.integers(-(2**70), 2**70).filter(bool)
    deltas = st.dictionaries(st.sampled_from(audiences), delta, min_size=1).map(
        lambda d: dict(sorted(d.items()))
    )
    hits = {}
    if audiences and num_windows:
        indices = draw(st.sets(st.integers(0, num_windows - 1), max_size=5))
        hits = {k: draw(deltas) for k in sorted(indices)}
    window = draw(
        st.sampled_from([5e-324, 1.0, 1e16, 1.7976931348623157e308])
        | st.floats(min_value=5e-324, allow_infinity=False)
    )
    return CounterReports(window, num_windows, audiences, hits)


entries = st.builds(
    VisitLogEntry,
    timestamp=extreme_floats,
    network_id=adversarial_text,
    page_id=adversarial_text,
)


traces = st.builds(
    RunTrace,
    impressions=st.lists(impressions, max_size=4),
    reports=counter_reports(),
    logs=st.dictionaries(adversarial_text, st.lists(entries, max_size=4), max_size=3),
    ground_truth=st.dictionaries(
        adversarial_text, st.sets(adversarial_text, max_size=3), max_size=4
    ),
)


@settings(max_examples=100, deadline=None)
@given(trace=traces)
@example(
    trace=RunTrace(
        impressions=[], reports=CounterReports(1.0, 0, (), {}), logs={}, ground_truth={}
    )
)
@example(
    trace=RunTrace(
        impressions=[],
        reports=CounterReports(1.0, 0, (), {}),
        logs={"site": []},
        ground_truth={"u": set()},
    )
)
@example(
    trace=RunTrace(
        impressions=[],
        reports=CounterReports(5e-324, 2, (), {}),
        logs={
            "a": [
                VisitLogEntry(timestamp=1e16, network_id="}\né", page_id=""),
                VisitLogEntry(timestamp=-0.0, network_id="", page_id=""),
            ],
            "b": [],
        },
        ground_truth={"u1": set(), "u2": {"x"}},
    )
)
# Hit windows 9 and 10: string keys would sort "10" first.
@example(
    trace=RunTrace(
        impressions=[],
        reports=CounterReports(11.0, 12, ("a", "b"), {9: {"a": 1}, 10: {"a": -1, "b": 2}}),
        logs={},
        ground_truth={},
    )
)
def test_trace_json_is_the_sorted_one_line_dump(trace):
    check_trace_json(trace)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_trace_json_is_the_sorted_one_line_dump_on_generated_runs(seed):
    check_trace_json(
        run_scenario(load_scenario_document(random_scenario_document(random.Random(seed))))
    )


@pytest.mark.parametrize("name", scenarios.names())
def test_bundled_runs_match_the_reference_engine(name):
    scenario = load_scenario(scenarios.path(name))
    assert trace_to_json(run_scenario(scenario)) == trace_to_json(reference_run(scenario))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_runs_match_the_reference_engine(seed):
    scenario = load_scenario_document(random_targeting_scenario_document(random.Random(seed)))
    assert trace_to_json(run_scenario(scenario)) == trace_to_json(reference_run(scenario))


@pytest.mark.parametrize("seed", [101, 202])
@pytest.mark.parametrize("workload", ["ecosystem", "crowded"])
def test_benchmark_runs_match_the_reference_engine(workload, seed):
    """The benchmark inputs hold ties the bundled scenarios lack: a dozen
    equal-value rows on one site, and campaigns that run out of budget."""
    generate, workloads = benchmark_inputs()
    scenario = load_scenario_document(generate(workloads[workload]["params"], seed))
    assert trace_to_json(run_scenario(scenario)) == trace_to_json(reference_run(scenario))


def test_attacker_view_is_probe_campaign_only():
    doc = small_attack_document(
        campaigns=[
            {
                "id": "rival",
                "total_budget": 100.0,
                "ad_groups": [
                    {
                        "id": "rival_g",
                        "ads": [{"id": "rival_ad"}],
                        "target_audiences": ["a_cooks"],
                        "bid": {"kind": "CPM", "amount": 10.0},
                    }
                ],
            }
        ]
    )
    scenario = load_scenario_document(doc)
    trace = run_scenario(scenario)
    reports = reference_reports.dense(attacker_view_reports(trace, scenario, "monads"))
    assert len(reports) == 1
    assert set(reports[0].deltas) == {"a_pets", "a_sports"}
    own = probe_campaign_id("monads")
    counted = [r for r in trace.impressions if r.campaign_id == own]
    assert sum(reports[0].deltas.values()) == len(counted)


def test_withheld_consent_breaks_the_books():
    # u_shy sees the pets probe but never appears in the log, so the
    # counters cannot be explained by the visible visitors.
    scenario = load_scenario_document(small_attack_document())
    trace = run_scenario(scenario)
    assert len(trace.impressions) == 2
    assert len(trace.logs["monads"]) == 1
    result = run_attack(scenario, trace)
    assert result.inconsistent
    assert result.assignments["203.0.113.1"].status == "unknown"
    assert result.accuracy == 0.0


def test_extra_placement_sites_widen_probe_groups():
    scenario = load_scenario(scenarios.path("placement_shared"))
    engine = SimulationEngine(scenario)
    for group in engine.marketplace.campaigns["trap_monads"].ad_groups:
        assert "dailybuzz" in group.placement
        assert "monads" in group.placement
    exclusive = SimulationEngine(load_scenario(scenarios.path("placement_exclusive")))
    for group in exclusive.marketplace.campaigns["trap_monads"].ad_groups:
        assert group.placement == frozenset({"monads"})


def test_attack_free_scenario_runs_and_scores_empty():
    scenario = load_scenario(scenarios.path("empty_scenario"))
    trace = run_scenario(scenario)
    assert trace.impressions == []
    result = run_attack(scenario, trace)
    assert result.assignments == {}
    assert result.accuracy is None
    with pytest.raises(ValidationError, match="no attack section"):
        attacker_view_reports(trace, scenario, "monads")


@pytest.mark.parametrize("cpm", [0.0004, 10.0])
def test_a_campaign_without_budget_serves_nothing_even_at_a_bid_worth_nothing(cpm):
    document = json.loads(scenarios.path("table2_experiment").read_text(encoding="utf-8"))
    document["attack"] = None
    document["campaigns"][0]["total_budget"] = 0
    document["campaigns"][0]["ad_groups"][0]["bid"] = {"kind": "CPM", "amount": cpm}
    engine = SimulationEngine(load_scenario_document(document))
    trace = engine.run()
    assert [i for i in trace.impressions if i.campaign_id == "rival_display"] == []
    assert engine.marketplace.spent_micros == {"rival_display": 0}
    # the platform report still counts every targeted audience
    targets = document["campaigns"][0]["ad_groups"][0]["target_audiences"]
    assert trace.reports.audience_ids == tuple(sorted(targets))


def test_bundled_scenarios_all_load_and_run():
    for name in scenarios.names():
        scenario = load_scenario(scenarios.path(name))
        trace = run_scenario(scenario)
        run_attack(scenario, trace)


def test_impressions_respect_placement_and_horizon():
    rng = random.Random(99)
    for _ in range(30):
        scenario = load_scenario_document(random_scenario_document(rng))
        engine = SimulationEngine(scenario)
        trace = engine.run()
        placements = {
            g.id: g.placement
            for c in engine.marketplace.campaigns.values()
            for g in c.ad_groups
        }
        for record in trace.impressions:
            assert 0 <= record.timestamp < scenario.horizon
            allowed = placements[record.ad_group_id]
            assert not allowed or record.website_id in allowed
        spent = engine.marketplace.spent_micros
        for campaign in engine.marketplace.campaigns.values():
            assert 0 <= spent[campaign.id] <= campaign.total_budget_micros


# --- window membership ------------------------------------------------------


def test_float_windows_join_logs_where_reports_count_impressions():
    # Visits on multiples of 0.1 s from 1.7 s: at t=1.7 the platform's
    # floor(t / W) says window 17 while [k*W, (k+1)*W) says 16, and a join
    # by the latter makes the whole run inconsistent.  Thirty windows cover
    # every visit.
    doc = scenarios.load("table2_experiment")
    doc["window_length_s"] = 0.1
    doc["horizon_s"] = 3.0
    for i, user in enumerate(doc["users"]):
        (visit,) = user["attack_visits"]
        visit["t"] = (17 + i) / 10
    scenario = load_scenario_document(doc)
    result = run_attack(scenario, run_scenario(scenario))
    assert not result.inconsistent
    assert result.counts() == {"exact": 6, "ambiguous": 4, "unknown": 0}
    exact = [nid for nid, a in result.assignments.items() if a.status == "exact"]
    assert all(result.correct[nid] for nid in exact)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    window=st.sampled_from([0.1, 0.2, 0.3, 1.1, 300.0]),
    windows=st.integers(2, 40),
    data=st.data(),
)
def test_probe_impressions_share_the_window_of_their_log_entry(seed, window, windows, data):
    # Generated scenarios with their visits moved onto a half-window grid,
    # so every other visit sits exactly on a window boundary.
    doc = random_scenario_document(random.Random(seed))
    doc["window_length_s"] = window
    doc["horizon_s"] = windows * window
    for user in doc["users"]:
        n = len(user["attack_visits"])
        slots = data.draw(st.lists(st.integers(0, 2 * windows - 1), min_size=n, max_size=n, unique=True))
        for visit, slot in zip(user["attack_visits"], sorted(slots)):
            visit["t"] = round(slot * window / 2, 10)
    scenario = load_scenario_document(doc)
    trace = run_scenario(scenario)
    if scenario.attack is None:
        return
    view = attacker_view_reports(trace, scenario, "atk")
    observations = collect_observations(view, trace.logs["atk"])
    holder = {(e.network_id, e.timestamp): o.window_index for o in observations for e in o.visits}
    users = {user.cookie_id: user for user in scenario.users}
    for record in trace.impressions:
        user = users[record.cookie_id]
        if record.campaign_id == probe_campaign_id("atk") and user.consent:
            key = (user.network_id, record.timestamp)
            assert holder[key] == window_index(record.timestamp, window)


def test_a_visit_just_before_the_horizon_is_reported_and_attributed():
    # 41.1 / 0.3 rounds to exactly 137.0, but the last visit, at the last
    # float below the horizon, is in window 137: ceil(H / W) windows would
    # leave its impression out of every report and its visitor unattributed.
    doc = scenarios.load("table2_experiment")
    doc["window_length_s"] = 0.3
    doc["horizon_s"] = 41.1
    times = [i * 4.11 for i in range(9)] + [math.nextafter(41.1, 0.0)]
    for user, t in zip(doc["users"], times, strict=True):
        (visit,) = user["attack_visits"]
        visit["t"] = t
    scenario = load_scenario_document(doc)
    trace = run_scenario(scenario)
    assert window_index(times[-1], 0.3) == 137
    assert trace.reports.num_windows == 138
    assert len(trace.impressions) == 10
    view = attacker_view_reports(trace, scenario, "monads")
    assert sum(sum(deltas.values()) for deltas in view.hits.values()) == 10
    assert 137 in view.hits
    result = run_attack(scenario, trace)
    assert sorted(result.assignments) == sorted(e.network_id for e in trace.logs["monads"])
    assert len(result.assignments) == 10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    window=st.sampled_from([0.1, 0.3, 1.1, 7.0, 300.0]),
    windows=st.integers(1, 40),
    data=st.data(),
)
def test_runs_match_the_dense_reports_and_join(seed, window, windows, data):
    # Generated scenarios on float windows, visits on a half-window grid or
    # at the last float before the horizon: the dense view of every report
    # equals the dense batching, and the join over the sparse reports gives
    # the result of the dense join over the dense view.
    doc = random_scenario_document(random.Random(seed))
    doc["window_length_s"] = window
    doc["horizon_s"] = windows * window
    last = math.nextafter(doc["horizon_s"], 0.0)
    for user in doc["users"]:
        n = len(user["attack_visits"])
        slots = data.draw(st.lists(st.integers(0, 2 * windows), min_size=n, max_size=n, unique=True))
        for visit, slot in zip(user["attack_visits"], sorted(slots)):
            visit["t"] = min(round(slot * window / 2, 10), last)
    scenario = load_scenario_document(doc)
    engine = SimulationEngine(scenario)
    trace = engine.run()
    num_windows = window_count(scenario.horizon, window)
    campaigns = engine.marketplace.campaigns.values()
    universe = sorted({a for c in campaigns for g in c.ad_groups for a in g.target_audiences})
    assert reference_reports.dense(trace.reports) == reference_reports.build_reports(
        trace.impressions, window, num_windows, universe
    )
    if scenario.attack is None:
        return
    for site_id in scenario.attack.sites:
        assert reference_reports.dense(attacker_view_reports(trace, scenario, site_id)) == (
            reference_reports.build_reports(
                trace.impressions,
                window,
                num_windows,
                sorted(scenario.attack.audiences),
                campaign_id=probe_campaign_id(site_id),
            )
        )

    def dense_join(reports, log_entries):
        return reference_reports.collect_observations(
            reference_reports.dense(reports), log_entries, reports.window_length
        )

    with mock.patch("adtrap.simulation.collect_observations", dense_join):
        expected = run_attack(scenario, trace)
    assert run_attack(scenario, trace) == expected


@settings(max_examples=200, deadline=None)
@given(
    generate=st.sampled_from([random_scenario_document, random_targeting_scenario_document]),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 1000),
)
def test_shifting_the_attack_by_whole_windows_keeps_the_attribution(generate, seed, k):
    # Generated window lengths and times are whole numbers, so every
    # shifted time is exact.  The attack only ever sees windows relative
    # to each other; a join that dropped window 0 would fail here.
    document = generate(random.Random(seed))
    shifted = copy.deepcopy(document)
    shift = k * document["window_length_s"]
    shifted["horizon_s"] += shift
    for user in shifted["users"]:
        for visit in user["attack_visits"]:
            visit["t"] += shift
    results = []
    for doc in (document, shifted):
        scenario = load_scenario_document(doc)
        results.append(run_attack(scenario, run_scenario(scenario)))
    assert results[0] == results[1]


# --- parameter sweeps -------------------------------------------------------


def test_apply_grid_value_traverses_paths():
    doc = small_attack_document(
        campaigns=[
            {
                "id": "rival",
                "total_budget": 100.0,
                "ad_groups": [
                    {
                        "id": "rival_g",
                        "ads": [{"id": "rival_ad"}],
                        "target_audiences": ["a_sports"],
                        "bid": {"kind": "CPM", "amount": 10.0},
                    }
                ],
            }
        ]
    )
    campaigns, attack = doc["campaigns"], doc["attack"]
    apply_grid_value(doc, "campaigns/0/ad_groups/0/bid/amount", 77.0)
    assert doc["campaigns"][0]["ad_groups"][0]["bid"]["amount"] == 77.0
    apply_grid_value(doc, "attack/cpm", 60.0)
    assert doc["attack"]["cpm"] == 60.0
    # Only the top level changes in place: each container on a path is copied first.
    assert campaigns[0]["ad_groups"][0]["bid"]["amount"] == 10.0
    assert attack["cpm"] == 50.0


def test_apply_grid_value_may_introduce_defaulted_top_level_keys():
    doc = small_attack_document()
    del doc["window_length_s"]
    apply_grid_value(doc, "window_length_s", 600)
    assert doc["window_length_s"] == 600


def test_apply_grid_value_rejects_unknown_paths():
    doc = small_attack_document()
    with pytest.raises(ValidationError, match="unknown grid key"):
        apply_grid_value(doc, "no_such_field", 1)
    with pytest.raises(ValidationError, match="unknown grid key"):
        apply_grid_value(doc, "campaigns/5/total_budget", 1)
    with pytest.raises(ValidationError, match="unknown grid key"):
        apply_grid_value(doc, "attack/cpm/deeper", 1)


def test_sweep_rejects_empty_seed_list():
    with pytest.raises(ValidationError, match="no seeds"):
        sweep(small_attack_document(), {"attack/cpm": [50.0]}, [])


def test_sweep_with_empty_grid_yields_no_rows():
    assert sweep(small_attack_document(), {}, [1, 2]) == []


def test_sweep_rows_carry_cell_seed_and_summary():
    doc = small_attack_document()
    doc["users"] = [doc["users"][0]]  # consenting visitor only
    rows = sweep(doc, {"attack/cpm": [50.0, 60.0]}, [1, 2])
    assert len(rows) == 4
    assert [(r["attack/cpm"], r["seed"]) for r in rows] == [
        (50.0, 1),
        (50.0, 2),
        (60.0, 1),
        (60.0, 2),
    ]
    for row in rows:
        assert set(row) == {
            "attack/cpm",
            "seed",
            "exact",
            "ambiguous",
            "unknown",
            "accuracy",
            "impressions",
        }
        assert row["exact"] == 1
        assert row["accuracy"] == 1.0


def test_sweep_checks_every_seed_with_the_document_seed_rule():
    with pytest.raises(ValidationError) as excinfo:
        sweep(small_attack_document(), {"attack/cpm": [50.0]}, [1, True])
    assert excinfo.value.pointer == "/seed"
    assert excinfo.value.message == "field 'seed' must be an integer"


def test_sweep_checks_every_seed_before_the_first_run():
    with pytest.raises(ValidationError) as excinfo:
        sweep(small_attack_document(), {}, [2**64])
    assert (excinfo.value.pointer, excinfo.value.message) == (
        "/seed", "field 'seed' must fit in 64 bits"
    )
    never = AssertionError("a run started")
    with mock.patch.object(SimulationEngine, "run_warmup", side_effect=never):
        with pytest.raises(ValidationError) as excinfo:
            sweep(small_attack_document(), {"attack/cpm": [50.0, 60.0]}, [1, 2, 2**64])
    assert excinfo.value.pointer == "/seed"


def reference_sweep(template_document, grid, seeds):
    """The per-seed sweep loop: every run copies, edits and loads its own
    document.  ``sweep`` must give the same rows in the same order."""
    keys = sorted(grid)
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        for seed in seeds:
            document = copy.deepcopy(template_document)
            for k, v in zip(keys, combo):
                apply_grid_value(document, k, v)
            document["seed"] = seed
            scenario = load_scenario_document(document)
            trace = run_scenario(scenario)
            result = run_attack(scenario, trace)
            counts = result.counts()
            row = dict(zip(keys, combo))
            summary = (
                seed, counts["exact"], counts["ambiguous"], counts["unknown"],
                result.accuracy, len(trace.impressions),
            )
            row.update(zip(SWEEP_COLUMNS, summary))
            rows.append(row)
    return rows


def sweep_outcome(run, template_document, grid, seeds):
    """Rows, or the message and pointer of the validation error raised."""
    try:
        return run(template_document, grid, seeds)
    except ValidationError as exc:
        return exc.message, exc.pointer


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid=st.dictionaries(
        st.sampled_from(["window_length_s", "attack/cpm"]),
        st.lists(st.sampled_from([300, 450.5, 600, 25.0, 90.0]), min_size=1, max_size=2),
        min_size=1,
    ),
    seeds=st.lists(st.integers(-(2**63), 2**64 - 1), min_size=1, max_size=4),
    fault=st.sampled_from([None, None, None, ("grid", 0), ("seed", 2**64), ("seed", True)]),
    data=st.data(),
)
def test_sweep_matches_the_per_seed_reference(seed, grid, seeds, fault, data):
    # Some draws put a bad grid value or seed anywhere in its list: both
    # loops must then fail with the same error.
    if fault is not None:
        where, bad = fault
        values = grid[data.draw(st.sampled_from(sorted(grid)))] if where == "grid" else seeds
        values.insert(data.draw(st.integers(0, len(values))), bad)
    template = random_scenario_document(random.Random(seed))
    before = copy.deepcopy(template)
    expected = sweep_outcome(reference_sweep, template, grid, seeds)
    assert sweep_outcome(sweep, template, grid, seeds) == expected
    assert template == before


# perfbench's sweep workload at seed 101: these window lengths, 60 seeds per run.
BENCHMARK_GRID = {"window_length_s": [300, 600, 900, 1200, 1800, 3600]}
BENCHMARK_SEEDS = list(range(101 * 60, 102 * 60))


def test_benchmark_sweep_grid_matches_the_per_seed_reference():
    template = read_bundled("table2_experiment")
    assert sweep(template, BENCHMARK_GRID, BENCHMARK_SEEDS) == reference_sweep(
        template, BENCHMARK_GRID, BENCHMARK_SEEDS
    )


def test_sweep_does_the_per_cell_work_once_per_cell():
    # 6 cells of 60 seeds over table2_experiment's 10 users: one run per
    # cell, with one probe campaign and one warm-up, which folds each
    # user's plan once (12 views per cell in all), 10 attack-phase visits
    # and one inference.  Warm-up folds and attack-phase page views are
    # counted apart, and record_visit is counted wherever the engine could
    # call it.
    folds = mock.Mock(wraps=fold_warmup)
    visits = mock.Mock(wraps=record_visit)
    with (
        mock.patch.object(simulation, "build_trap_campaign", wraps=build_trap_campaign) as build,
        mock.patch.object(
            SimulationEngine, "run_warmup", autospec=True, side_effect=SimulationEngine.run_warmup
        ) as warmup,
        mock.patch.object(simulation, "fold_warmup", folds),
        mock.patch.object(simulation, "record_visit", visits),
        mock.patch.object(gdn, "record_visit", visits),
        mock.patch.object(simulation, "run_attack", wraps=run_attack) as attack,
    ):
        rows = sweep(read_bundled("table2_experiment"), BENCHMARK_GRID, BENCHMARK_SEEDS)
    assert len(rows) == 360
    assert build.call_count == 6
    assert warmup.call_count == 6
    assert folds.call_count == 6 * 10
    folded_views = sum(len(call.args[1]) for call in folds.call_args_list)
    assert folded_views == 6 * 12
    assert visits.call_count == 6 * 10
    assert attack.call_count == 6


def test_rival_bid_sweep_shows_takeover_threshold():
    # Past the probe's own CPM of 50, a whole-network rival starves the
    # probe of impressions and inference degrades to wrong "none"s.
    template = read_bundled("table2_experiment")
    template["campaigns"][0]["ad_groups"][0]["placement"] = []
    rows = sweep(
        template,
        {"campaigns/0/ad_groups/0/bid/amount": [1.0, 40.0, 60.0, 200.0]},
        [7],
    )
    accuracies = [row["accuracy"] for row in rows]
    assert accuracies == [1.0, 1.0, 0.0, 0.0]
    assert all(a <= b for a, b in zip(accuracies[1:], accuracies))  # non-increasing
    assert rows[0]["impressions"] >= 10
    assert rows[-1]["exact"] == 10  # confidently wrong, not ambiguous


def test_window_length_sweep_controls_separability():
    template = read_bundled("table2_experiment")
    rows = sweep(
        template,
        {"window_length_s": [300, 1800, 7200]},
        [7, 8, 9, 10, 11],
    )
    assert len(rows) == 15
    by_window = {}
    for row in rows:
        by_window.setdefault(row["window_length_s"], []).append(row["accuracy"])
    assert by_window[300] == [1.0] * 5
    assert by_window[1800] == [1.0] * 5
    assert all(a < 1.0 for a in by_window[7200])


def read_bundled(name):
    import json

    with open(scenarios.path(name), encoding="utf-8") as fh:
        return json.load(fh)


def test_a_run_leaves_nothing_for_the_cyclic_collector():
    # ``adtrap.cli.main`` pauses the cyclic collector, which is safe only
    # while a run makes no reference cycles: each step here must leave
    # nothing that reference counting cannot free.  per_victim_shared
    # reaches the solver's component search.
    document = read_bundled("per_victim_shared")
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        scenario = load_scenario_document(document)
        assert gc.collect() == 0
        trace = run_scenario(scenario)
        assert gc.collect() == 0
        result = run_attack(scenario, trace)
        assert result.assignments and gc.collect() == 0
        rows = sweep(document, {"attack/cpm": [40.0, 50.0, 60.0]}, [1])
        assert len(rows) == 3 and gc.collect() == 0
    finally:
        if collecting:
            gc.enable()
