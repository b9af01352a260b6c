"""Inference from counters and logs: the heart of the attack."""

import copy
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
import reference_enumerator
import reference_reports
from conftest import make_observation, reject_value
from generators import oracle_agreement, random_observations

from adtrap import trap
from adtrap.errors import InconsistentObservationsError, ValidationError
from adtrap.gdn import VisitLogEntry, Website
from adtrap.marketplace import Bid, CounterReports, window_index
from adtrap.profile import PageProfile
from adtrap.trap import (
    AttackSpec,
    AttributionResult,
    Assignment,
    WindowObservation,
    build_trap_campaign,
    collect_observations,
    group_statistics,
    infer_audiences,
    render_value,
    score_attribution,
    summary_counts,
    summary_line,
)

CPM = Bid("CPM", 50.0)


def attacker_site(site_id="monads"):
    return Website(
        id=site_id,
        domain=f"{site_id}.example",
        pages={"landing": PageProfile("landing", frozenset({"t_x"}))},
        owner="attacker",
        logging=True,
    )


# --- configuration and campaign construction -------------------------------


def test_attack_spec_validation():
    error = reject_value("/attack/audiences", [])
    assert error.message == "field 'audiences' must be a non-empty list of strings"
    error = reject_value("/attack/audiences", ["a_sports", "a_sports"])
    assert error.message == "field 'audiences' must not repeat an item"


def test_build_trap_campaign_structure():
    attack = AttackSpec(sites=("monads",), audiences=("a_pets", "a_sports"), cpm=50.0)
    campaign = build_trap_campaign(attack, attacker_site())
    assert campaign.id == "trap_monads"
    assert len(campaign.ad_groups) == 2
    by_audience = {next(iter(g.target_audiences)): g for g in campaign.ad_groups}
    assert set(by_audience) == {"a_pets", "a_sports"}
    for group in campaign.ad_groups:
        assert group.placement == frozenset({"monads"})
        assert len(group.target_audiences) == 1
        assert group.bid == CPM


def test_build_trap_campaign_widens_placement_with_extra_sites():
    attack = AttackSpec(sites=("monads",), audiences=("a_pets", "a_sports"), cpm=50.0)
    exclusive = build_trap_campaign(attack, attacker_site())
    widened = build_trap_campaign(
        AttackSpec(
            sites=("monads",), audiences=("a_pets", "a_sports"), cpm=50.0,
            extra_placement_sites=("dailybuzz",),
        ),
        attacker_site(),
    )
    assert widened.id == exclusive.id
    assert widened.total_budget == exclusive.total_budget
    for group, plain in zip(widened.ad_groups, exclusive.ad_groups, strict=True):
        assert group.placement == frozenset({"monads", "dailybuzz"})
        assert group.id == plain.id
        assert group.ads == plain.ads
        assert group.bid == CPM


def test_build_trap_campaign_refuses_wrong_sites():
    attack = AttackSpec(sites=("monads",), audiences=("a",), cpm=50.0)
    third_party = Website(
        id="monads", domain="m.example", pages={}, owner="third-party", logging=True
    )
    with pytest.raises(ValidationError):
        build_trap_campaign(attack, third_party)
    silent = Website(
        id="monads", domain="m.example", pages={}, owner="attacker", logging=False
    )
    with pytest.raises(ValidationError):
        build_trap_campaign(attack, silent)
    with pytest.raises(ValidationError):
        build_trap_campaign(attack, attacker_site("other"))


# --- joining reports with logs ---------------------------------------------


def entry(t, nid="203.0.113.1"):
    return VisitLogEntry(timestamp=t, network_id=nid, page_id="landing")


def counters(hits, num_windows, window=100.0, audiences=("a",)):
    return CounterReports(window, num_windows, tuple(audiences), hits)


def test_collect_observations_buckets_by_window():
    reports = counters({1: {"a": 1}, 3: {"a": 2}}, 4)
    log = [entry(5.0), entry(105.0, "203.0.113.2"), entry(100.0)]
    observations = collect_observations(reports, log)
    # window 2 has no visits and no counted impression, so it gets no
    # observation; window 0 has a visit to explain and window 3 a delta
    assert [o.window_index for o in observations] == [0, 1, 3]
    assert [e.timestamp for e in observations[0].visits] == [5.0]
    assert observations[0].deltas == {}
    # boundary entry at t=100.0 belongs to the later window, in log order
    assert [e.timestamp for e in observations[1].visits] == [105.0, 100.0]
    assert observations[2].visits == ()
    assert observations[2].deltas == {"a": 2}
    # 17 * 0.1 rounds above 1.7, so [k*W, (k+1)*W) would say window 16;
    # the platform's floor(t / W) says 17, and the join must agree with it.
    assert window_index(1.7, 0.1) == 17
    assert reference_reports.dense(counters({}, 18, window=0.1))[17].window_start > 1.7
    observations = collect_observations(counters({17: {"a": 1}}, 18, window=0.1), [entry(1.7)])
    assert [(o.window_index, o.visits) for o in observations] == [(17, (entry(1.7),))]
    # with a delta to explain window 16 is joined, and still holds no visit
    reports = counters({16: {"a": 1}, 17: {"a": 1}}, 18, window=0.1)
    observations = collect_observations(reports, [entry(1.7)])
    assert [(o.window_index, o.visits) for o in observations] == [(16, ()), (17, (entry(1.7),))]


def test_collect_observations_drops_out_of_range_entries():
    inside = entry(150.0, "203.0.113.2")
    log = [entry(250.0), entry(-1.0), inside, entry(-100.0)]
    observations = collect_observations(counters({0: {"a": 1}}, 2), log)
    assert [(o.window_index, o.visits) for o in observations] == [(0, ()), (1, (inside,))]
    assert collect_observations(counters({}, 1), [entry(250.0), entry(-1.0)]) == []


def test_collect_observations_passes_negative_deltas_on_to_be_rejected():
    reports = counters({0: {"b": -1}}, 1, audiences=("a", "b"))
    with pytest.raises(ValidationError, match="negative delta"):
        collect_observations(reports, [])


@st.composite
def join_inputs(draw):
    """Sparse counters and a log for the join: float windows, negative deltas,
    and entries before, between and after the reported windows."""
    window = draw(st.sampled_from([0.1, 0.3, 1.1, 100.0]))
    audiences = sorted(draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True)))
    num_windows = draw(st.integers(0, 12))
    delta = st.integers(1, 2) | st.sampled_from([-1, 1, 2])
    deltas = st.dictionaries(st.sampled_from(audiences), delta, min_size=1).map(
        lambda d: dict(sorted(d.items()))
    )
    indices = st.sets(st.integers(0, num_windows - 1), max_size=10) if audiences else st.just(set())
    hits = {k: draw(deltas) for k in sorted(draw(indices))} if num_windows else {}
    timestamp = st.integers(-3, 15).map(lambda k: k * window) | st.floats(
        min_value=-3 * window, max_value=15 * window
    )
    log = draw(st.lists(st.builds(entry, timestamp, st.sampled_from(["n1", "n2", "n3"]))))
    return CounterReports(window, num_windows, tuple(audiences), hits), log


def join_outcome(join, args):
    try:
        return join(*args)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(args=join_inputs())
def test_join_is_the_dense_reference_without_inert_windows(args):
    reports, log = args
    dense = (reference_reports.dense(reports), log, reports.window_length)
    expected = join_outcome(reference_reports.collect_observations, dense)
    if isinstance(expected, list):
        expected = [
            WindowObservation(o.window_index, {a: n for a, n in o.deltas.items() if n}, o.visits)
            for o in expected
            if o.visits or any(o.deltas.values())
        ]
    assert join_outcome(collect_observations, args) == expected


def test_negative_delta_rejected():
    with pytest.raises(ValidationError):
        make_observation(0, {"a": -1}, {})


def test_delta_that_is_not_an_integer_rejected():
    # Truncating them would read 1.5 or True as one impression and 0.5
    # as none.
    for delta, visitors in ((1.5, {"n1": 1}), (True, {"n1": 1}), (0.5, {"n1": 1, "n2": 1})):
        with pytest.raises(ValidationError, match="is not an integer"):
            make_observation(0, {"a": delta}, visitors)


# --- the solver, frozen small cases ----------------------------------------
# Expected values below were derived by hand and are cross-checked against
# the brute-force reference inside each test.


def check_oracle(observations):
    agrees, detail = oracle_agreement(observations)
    assert agrees, detail


def test_lone_visitor_single_audience_is_exact():
    observations = [make_observation(0, {"a_sports": 1, "a_pets": 0}, {"n1": 1})]
    result = infer_audiences(observations)
    assert result.assignments["n1"] == Assignment("exact", audience="a_sports")
    check_oracle(observations)


def test_lone_visitor_zero_deltas_is_exactly_none():
    observations = [make_observation(0, {"a_sports": 0, "a_pets": 0}, {"n1": 1})]
    result = infer_audiences(observations)
    a = result.assignments["n1"]
    assert a.status == "exact" and a.audience is None
    check_oracle(observations)


def test_two_visitors_same_window_are_ambiguous():
    observations = [
        make_observation(0, {"a_sports": 1, "a_pets": 1}, {"n1": 1, "n2": 1})
    ]
    result = infer_audiences(observations)
    for nid in ("n1", "n2"):
        a = result.assignments[nid]
        assert a.status == "ambiguous"
        assert a.candidates == frozenset({"a_sports", "a_pets"})
    check_oracle(observations)


def test_cross_window_visit_disambiguates_both():
    # Window 0 mixes the two visitors; window 1 catches n1 alone, which
    # pins n1 and, by elimination, n2 as well.
    observations = [
        make_observation(0, {"a_sports": 1, "a_pets": 1}, {"n1": 1, "n2": 1}),
        make_observation(1, {"a_sports": 1, "a_pets": 0}, {"n1": 1}),
    ]
    result = infer_audiences(observations)
    assert result.assignments["n1"] == Assignment("exact", audience="a_sports")
    assert result.assignments["n2"] == Assignment("exact", audience="a_pets")
    check_oracle(observations)


def test_repeat_visits_count_multiply():
    observations = [make_observation(0, {"a_sports": 2, "a_pets": 0}, {"n1": 2})]
    result = infer_audiences(observations)
    assert result.assignments["n1"] == Assignment("exact", audience="a_sports")
    check_oracle(observations)


def test_shared_audience_stays_ambiguous_between_none_and_it():
    # Two visitors, one sports impression: either could be the fan.
    observations = [
        make_observation(0, {"a_sports": 1}, {"n1": 1, "n2": 1})
    ]
    result = infer_audiences(observations)
    for nid in ("n1", "n2"):
        a = result.assignments[nid]
        assert a.status == "ambiguous"
        assert a.candidates == frozenset({"a_sports", None})
    check_oracle(observations)


def test_uniform_window_fixes_everyone():
    observations = [
        make_observation(0, {"a_sports": 3, "a_pets": 0}, {"n1": 1, "n2": 1, "n3": 1})
    ]
    result = infer_audiences(observations)
    for nid in ("n1", "n2", "n3"):
        assert result.assignments[nid] == Assignment("exact", audience="a_sports")
    check_oracle(observations)


def test_independent_components_solve_separately():
    observations = [
        make_observation(0, {"a_sports": 1, "a_pets": 0}, {"n1": 1}),
        make_observation(1, {"a_sports": 0, "a_pets": 1}, {"n2": 1}),
    ]
    result = infer_audiences(observations)
    assert result.assignments["n1"].audience == "a_sports"
    assert result.assignments["n2"].audience == "a_pets"
    check_oracle(observations)


def test_visit_count_mismatch_is_inconsistent():
    # n1 visits twice but only one impression lands: impossible, since one
    # profile produces its audience on every visit.
    observations = [make_observation(0, {"a_sports": 1}, {"n1": 2})]
    with pytest.raises(InconsistentObservationsError) as err:
        infer_audiences(observations)
    assert "inconsistent observations" in str(err.value)
    check_oracle(observations)


def test_lone_visitor_cannot_split_her_visits_between_audiences():
    # Her visit count matches the total, but one profile gives every visit
    # the same audience, so two audiences of 1 each cannot both be hers.
    observations = [make_observation(0, {"a_sports": 1, "a_pets": 1}, {"n1": 2})]
    with pytest.raises(InconsistentObservationsError, match="visitor 'n1' cannot produce"):
        infer_audiences(observations)
    check_oracle(observations)


def test_deltas_without_visits_are_inconsistent():
    observations = [make_observation(0, {"a_sports": 1}, {})]
    with pytest.raises(InconsistentObservationsError):
        infer_audiences(observations)
    check_oracle(observations)


def test_excess_deltas_are_inconsistent():
    observations = [make_observation(0, {"a_sports": 2, "a_pets": 1}, {"n1": 1, "n2": 1})]
    with pytest.raises(InconsistentObservationsError):
        infer_audiences(observations)
    check_oracle(observations)


def test_cross_window_contradiction_detected():
    # Window 0 says n1 is a sports fan; window 1 says she produced a pets
    # impression instead.
    observations = [
        make_observation(0, {"a_sports": 1, "a_pets": 0}, {"n1": 1}),
        make_observation(1, {"a_sports": 0, "a_pets": 1}, {"n1": 1}),
    ]
    with pytest.raises(InconsistentObservationsError):
        infer_audiences(observations)
    check_oracle(observations)


def test_oversized_component_reports_unknown():
    # Thirteen visitors, each of them sports, pets or none: 3**13 > 10**6
    # candidates, above the enumeration cap.
    visitors = {f"n{i:02d}": 1 for i in range(13)}
    observations = [make_observation(0, {"a_sports": 1, "a_pets": 1}, visitors)]
    result = infer_audiences(observations)
    assert result.assignments == {nid: Assignment("unknown") for nid in visitors}


@pytest.mark.parametrize(
    "limit, status, candidates",
    [(4, "ambiguous", frozenset({"a", None})), (3, "unknown", frozenset())],
)
def test_the_cap_admits_a_domain_product_equal_to_it(monkeypatch, limit, status, candidates):
    # Two visitors of one window, each "a" or none: a product of 4.
    monkeypatch.setattr(trap, "_EXHAUSTIVE_LIMIT", limit)
    observations = [make_observation(0, {"a": 1}, {"n1": 1, "n2": 1})]
    result = infer_audiences(observations)
    for nid in ("n1", "n2"):
        assert result.assignments[nid] == Assignment(status, candidates=candidates)


def test_solver_ignores_observation_order():
    observations = [
        make_observation(0, {"a_sports": 1, "a_pets": 1}, {"n1": 1, "n2": 1}),
        make_observation(1, {"a_sports": 1, "a_pets": 0}, {"n1": 1}),
        make_observation(2, {"a_sports": 0, "a_pets": 1}, {"n2": 1}),
    ]
    forward = infer_audiences(observations)
    backward = infer_audiences(list(reversed(observations)))
    assert forward.assignments == backward.assignments


def test_empty_observations_solve_to_nothing():
    result = infer_audiences([])
    assert result.assignments == {}
    assert summary_line(result) == "exact=0 ambiguous=0 unknown=0 accuracy=undefined"


def test_solver_matches_reference_on_random_instances():
    rng = random.Random(20260823)
    for i in range(300):
        observations, _ = random_observations(rng)
        agrees, detail = oracle_agreement(observations)
        assert agrees, f"instance {i}: {detail}"


def test_windows_of_two_sites_sharing_an_index_both_constrain():
    # Window 0 of two attacker sites: n0 is pinned to "b" only when the
    # second site's window 0 is checked next to the first's.
    observations = [
        make_observation(0, {"a": 1, "b": 2}, {"n0": 1, "n1": 1, "n2": 1}),
        make_observation(0, {"a": 1, "b": 1}, {"n1": 1, "n2": 1}),
    ]
    result = infer_audiences(observations)
    assert result.assignments["n0"] == Assignment("exact", audience="b")
    check_oracle(observations)


def test_solver_matches_reference_on_random_multi_site_instances():
    rng = random.Random(20261018)
    for i in range(300):
        observations, _ = random_observations(rng, sites=2)
        agrees, detail = oracle_agreement(observations)
        assert agrees, f"instance {i}: {detail}"


def solve(observations):
    """The solver's outcome as a comparable value, inconsistency included."""
    try:
        return infer_audiences(observations)
    except InconsistentObservationsError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sites=st.integers(1, 2), data=st.data())
def test_inert_windows_change_no_result(seed, sites, data):
    # Windows with no visits and all-zero (or no) deltas, such as the empty
    # windows of a long horizon, constrain nothing.
    observations, _ = random_observations(random.Random(seed), sites=sites)
    audiences = sorted(observations[0].deltas)
    padded = list(observations)
    for _ in range(data.draw(st.integers(1, 6))):
        index = data.draw(st.integers(0, 10))
        deltas = dict.fromkeys(audiences[: data.draw(st.integers(0, len(audiences)))], 0)
        at = data.draw(st.integers(0, len(padded)))
        padded.insert(at, WindowObservation(window_index=index, deltas=deltas, visits=()))
    assert solve(padded) == solve(observations)


@st.composite
def solver_instances(draw):
    """Observations of up to 7 visitors over up to 3 audiences.

    At most 4**7 candidates, under the enumeration cap.  Visitors repeat
    within a window (1-3 visits), windows share indices as the windows of
    several attacker sites do, a window may hold deltas and no visits, and
    about one window in eight has a delta nudged off the truth.
    """
    audiences = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    visitors = [f"n{i}" for i in range(draw(st.integers(1, 7)))]
    truth = {nid: draw(st.sampled_from([None, *audiences])) for nid in visitors}
    observations = []
    for _ in range(draw(st.integers(1, 6))):
        present = draw(st.lists(st.sampled_from(visitors), max_size=4, unique=True))
        counts = {nid: draw(st.integers(1, 3)) for nid in present}
        deltas = dict.fromkeys(audiences, 0)
        for nid, k in counts.items():
            if truth[nid] is not None:
                deltas[truth[nid]] += k
        if draw(st.integers(0, 7)) == 0:
            audience = draw(st.sampled_from(audiences))
            deltas[audience] = max(0, deltas[audience] + draw(st.sampled_from([-1, 1])))
        observations.append(make_observation(draw(st.integers(0, 2)), deltas, counts))
    return observations


def solve_with_reference_enumerator(observations):
    with mock.patch("adtrap.trap._solve_component", reference_enumerator.solve_component):
        return solve(observations)


@settings(max_examples=400, deadline=None)
@given(observations=solver_instances())
def test_search_matches_reference_enumerator(observations):
    assert solve(observations) == solve_with_reference_enumerator(observations)


def test_search_handles_components_of_many_forced_visitors():
    # x and z are the only visitors with a choice: each y_i sits in window
    # 0, which has only "a", and in its own window, which has only "b", so
    # it can only be "none".  1500 of them link x and z into one component
    # far deeper than the recursion limit.
    ys = [f"y{i:04d}" for i in range(1500)]
    observations = [make_observation(0, {"a": 1, "b": 0}, {"x": 1, **dict.fromkeys(ys, 1)})]
    observations += [
        make_observation(i, {"a": 0, "b": 1}, {y: 1, "z": 1}) for i, y in enumerate(ys, 1)
    ]
    result = infer_audiences(observations)
    assert result == solve_with_reference_enumerator(observations)
    assert result.assignments["x"] == Assignment("exact", audience="a")
    assert result.assignments["z"] == Assignment("exact", audience="b")
    assert {result.assignments[y] for y in ys} == {Assignment("exact", audience=None)}


def test_window_of_forced_visitors_alone_still_constrains():
    # y1 and y2 can only be "none" (each of their windows lacks the other's
    # audience), so nobody can produce window 0's "a" although z, the one
    # visitor with a choice, satisfies every window it is in.
    observations = [
        make_observation(0, {"a": 1, "b": 0}, {"y1": 1, "y2": 1}),
        make_observation(1, {"a": 0, "b": 1}, {"y1": 1, "z": 1}),
        make_observation(2, {"a": 0, "b": 1}, {"y2": 1, "z": 1}),
    ]
    with pytest.raises(InconsistentObservationsError, match="no audience assignment"):
        infer_audiences(observations)
    assert solve(observations) == solve_with_reference_enumerator(observations)
    check_oracle(observations)


# --- scoring against ground truth ------------------------------------------


def test_scoring_marks_exact_hits_and_misses():
    result = AttributionResult(
        assignments={
            "n1": Assignment("exact", audience="a_sports"),
            "n2": Assignment("exact", audience="a_pets"),
            "n3": Assignment("exact", audience=None),
            "n4": Assignment("ambiguous", candidates=frozenset({"a_sports", "a_pets"})),
        }
    )
    truth = {
        "n1": {"a_sports"},
        "n2": {"a_sports"},  # n2 guessed wrong
        "n3": set(),
        "n4": {"a_pets"},  # ambiguous never counts
    }
    scored = score_attribution(result, truth, ["a_sports", "a_pets"])
    assert scored.correct == {"n1": True, "n2": False, "n3": True, "n4": False}
    assert scored.accuracy == pytest.approx(0.5)


def test_scoring_restricts_truth_to_probed_audiences():
    result = AttributionResult(
        assignments={"n1": Assignment("exact", audience=None)}
    )
    # n1 is in an audience, but not one the attacker probed, so "none"
    # is the right answer for this probe set.
    scored = score_attribution(result, {"n1": {"a_elsewhere"}}, ["a_sports"])
    assert scored.correct == {"n1": True}
    assert scored.accuracy == 1.0


def test_scoring_with_no_assignments_leaves_accuracy_undefined():
    scored = score_attribution(AttributionResult(assignments={}), {}, ["a"])
    assert scored.accuracy is None


def test_scoring_replaces_accuracy_and_correct_and_leaves_its_argument_alone():
    result = AttributionResult(
        assignments={"n1": Assignment("exact", audience="a"), "n2": Assignment("unknown")},
        inconsistent=True,
    )
    before = copy.deepcopy(result)
    scored = score_attribution(result, {"n1": {"a"}, "n2": {"a"}}, ["a"])
    assert result == before
    assert type(scored) is AttributionResult
    assert scored == result._replace(accuracy=0.5, correct={"n1": True, "n2": False})
    assert scored.assignments is result.assignments


def test_an_unscored_result_is_a_record_with_a_read_only_empty_correct_map():
    result = AttributionResult({"n1": Assignment("unknown")})
    assert AttributionResult._fields == ("assignments", "accuracy", "correct", "inconsistent")
    assert result == ({"n1": Assignment("unknown")}, None, {}, False)
    with pytest.raises(TypeError):
        result.correct["n1"] = True
    assert AttributionResult({}).correct == {}
    assert copy.deepcopy(result) == result
    assert pickle.loads(pickle.dumps(result)) == result


def test_counts_tally_statuses():
    result = AttributionResult(
        assignments={
            "n1": Assignment("exact", audience="a"),
            "n2": Assignment("ambiguous", candidates=frozenset({"a", None})),
            "n3": Assignment("unknown"),
            "n4": Assignment("exact", audience=None),
        }
    )
    assert result.counts() == {"exact": 2, "ambiguous": 1, "unknown": 1}
    assert summary_counts(result) == {
        "exact": 2,
        "ambiguous": 1,
        "unknown": 1,
        "accuracy": None,
    }


def test_summary_line_format():
    result = AttributionResult(
        assignments={"n1": Assignment("exact", audience="a")},
        accuracy=2 / 3,
    )
    assert summary_line(result) == "exact=1 ambiguous=0 unknown=0 accuracy=0.6667"


def test_render_value():
    assert render_value("a_sports") == "a_sports"
    assert render_value(None) == "none"


# --- group statistics -------------------------------------------------------


def test_group_statistics_sums_deltas():
    reports = counters(
        {0: {"a_family": 10, "a_travel": 2}, 1: {"a_family": 5, "a_travel": 3}},
        2,
        audiences=("a_family", "a_travel"),
    )
    stats = group_statistics(reports, "a_family", "a_travel")
    assert stats.count_x == 15
    assert stats.count_y == 5
    assert stats.fraction == pytest.approx(0.75)
    assert stats.fraction is not None


def test_group_statistics_zero_and_undefined_differ():
    audiences = ("a_family", "a_travel")
    zero = group_statistics(counters({0: {"a_travel": 4}}, 1, audiences=audiences), *audiences)
    assert zero.fraction == 0.0
    assert zero.fraction is not None
    undefined = group_statistics(counters({}, 1, audiences=audiences), *audiences)
    assert undefined.fraction is None


def test_group_statistics_without_hits_still_rejects_an_unprobed_audience():
    # An attack that logged no visit and got no probe impression still has
    # its probed audiences in the reports.
    reports = counters({}, 1, audiences=("a_family", "a_travel"))
    with pytest.raises(ValidationError, match="was not probed"):
        group_statistics(reports, "a_family", "a_never_probed")
    stats = group_statistics(reports, "a_family", "a_travel")
    assert (stats.count_x, stats.count_y, stats.fraction) == (0, 0, None)


def test_group_statistics_rejects_unprobed_audience_of_sparse_reports():
    # a_travel counted nothing in window 1, so its delta is absent there.
    reports = counters({1: {"a_family": 1}}, 2, audiences=("a_family", "a_travel"))
    assert group_statistics(reports, "a_family", "a_travel").fraction == 1.0
    with pytest.raises(ValidationError, match="was not probed"):
        group_statistics(reports, "a_family", "a_never_probed")


def test_group_statistics_input_checks():
    reports = counters({0: {"a_family": 1, "a_travel": 1}}, 1, audiences=("a_family", "a_travel"))
    with pytest.raises(ValidationError):
        group_statistics(reports, "a_family", "a_family")
    with pytest.raises(ValidationError, match="was not probed"):
        group_statistics(reports, "a_never_probed", "a_travel")


# --- reference solver sanity ------------------------------------------------


def test_bruteforce_reference_on_known_case():
    # The reference itself must get the frozen two-visitor case right,
    # otherwise agreement tests would prove nothing.
    observations = [
        make_observation(0, {"a_sports": 1, "a_pets": 1}, {"n1": 1, "n2": 1})
    ]
    status, classified = bruteforce.classify(observations)
    assert status == "ok"
    assert classified["n1"] == ("ambiguous", frozenset({"a_sports", "a_pets"}))
    assert classified["n2"] == ("ambiguous", frozenset({"a_sports", "a_pets"}))
