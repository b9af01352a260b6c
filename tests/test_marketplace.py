"""Auctions, exact budget arithmetic and counter reports."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from adtrap.errors import SimulationError, ValidationError
from adtrap.marketplace import (
    MICROS,
    AdGroup,
    Bid,
    Campaign,
    CounterReports,
    ImpressionRecord,
    MarketConfig,
    Marketplace,
    REPORT_COLUMNS,
    build_reports,
    effective_value_micros,
    reports_to_rows,
    to_micros,
    window_count,
    window_index,
)
from adtrap.profile import AdUserProfile, PageProfile
from adtrap.taxonomy import AffinityAudience

import reference_reports
from reference_engine import scan_from_scratch

PAGE = PageProfile("landing", frozenset({"t_soccer"}))


def make_campaign(
    cid,
    amount,
    kind="CPM",
    budget=1000.0,
    audiences=("a_sports",),
    placement=(),
    ad_id=None,
):
    group = AdGroup(
        id=f"{cid}_g",
        ads=(ad_id or f"{cid}_ad",),
        target_audiences=frozenset(audiences),
        bid=Bid(kind, amount),
        placement=frozenset(placement),
    )
    return Campaign(id=cid, ad_groups=(group,), total_budget=budget)


def sports_profile(cookie="ck", audiences=("a_sports",)):
    return AdUserProfile(
        cookie_id=cookie, interests={"i_soccer"}, audiences=set(audiences)
    )


def test_bid_validation():
    with pytest.raises(ValidationError):
        Bid("CPX", 1.0)
    with pytest.raises(ValidationError):
        Bid("CPM", 0.0)
    with pytest.raises(ValidationError):
        Bid("CPC", -3.0)
    for amount in (math.inf, math.nan, 10**400, 1e303):
        with pytest.raises(ValidationError):
            Bid("CPM", amount)


def test_ad_group_needs_ads_and_targets():
    bid = Bid("CPM", 1.0)
    with pytest.raises(ValidationError):
        AdGroup(id="g", ads=(), target_audiences=frozenset({"a"}), bid=bid)
    with pytest.raises(ValidationError):
        AdGroup(id="g", ads=("ad",), target_audiences=frozenset(), bid=bid)


def test_effective_values_in_micros():
    config = MarketConfig()
    assert effective_value_micros(Bid("CPM", 50.0), config) == 50_000
    assert effective_value_micros(Bid("CPM", 0.001), config) == 1
    assert effective_value_micros(Bid("CPC", 2.0), config) == 100_000
    assert effective_value_micros(Bid("CPA", 10.0), config) == 100_000
    aggressive = MarketConfig(click_through_rate=0.5)
    assert effective_value_micros(Bid("CPC", 2.0), aggressive) == 1_000_000


def test_thousand_cpm_impressions_spend_exactly_the_rate():
    # 1000 impressions at CPM 50 must cost exactly 50.0, no float drift.
    market = Marketplace([make_campaign("c", 50.0, budget=100.0)])
    profile = sports_profile()
    for i in range(1000):
        assert market.serve("site", PAGE, profile, time=float(i)) is not None
    assert market.spent_micros["c"] == 50_000_000
    assert market.spent_micros["c"] / MICROS == 50.0


def test_auction_prefers_higher_value():
    market = Marketplace(
        [make_campaign("low", 10.0), make_campaign("high", 60.0)]
    )
    winner = market.run_auction(market.eligible_ads("site", sports_profile()))
    assert winner.campaign.id == "high"
    assert winner.value_micros == 60_000


def test_equal_value_tie_breaks_on_ad_id():
    market = Marketplace(
        [
            make_campaign("zeta", 50.0, ad_id="zz_ad"),
            make_campaign("alpha", 50.0, ad_id="aa_ad"),
        ]
    )
    winner = market.run_auction(market.eligible_ads("site", sports_profile()))
    assert winner.ad_id == "aa_ad"


def test_equal_value_and_ad_id_tie_goes_to_first_listed():
    market = Marketplace(
        [
            make_campaign("zeta", 50.0, ad_id="same_ad"),
            make_campaign("alpha", 50.0, ad_id="same_ad"),
        ]
    )
    winner = market.run_auction(market.eligible_ads("site", sports_profile()))
    assert winner.campaign.id == "zeta"
    assert winner.value_micros == 50_000


def test_cpc_and_cpm_compete_on_effective_value():
    # CPC 2.0 at ctr 0.05 is worth 100_000 micros, beating CPM 50 (50_000).
    market = Marketplace([make_campaign("m", 50.0), make_campaign("c", 2.0, kind="CPC")])
    winner = market.run_auction(market.eligible_ads("site", sports_profile()))
    assert winner.campaign.id == "c"


@pytest.mark.parametrize("ad_ids", [("h1",), ("h1", "h2"), ("h2", "h1")])
def test_an_ad_group_bids_once_per_auction(ad_ids):
    # A group with two ads enters the auction once, with its smallest-id
    # ad, and pays its own value whatever its number of ads.
    high = make_campaign("high", 60.0)
    group = high.ad_groups[0]
    high = high._replace(ad_groups=(group._replace(ads=ad_ids),))
    market = Marketplace([high, make_campaign("low", 10.0)])
    assert len(market.eligible_ads("site", sports_profile())) == 2
    record = market.serve("site", PAGE, sports_profile(), time=0.0)
    assert record.ad_id == "h1"
    assert market.spent_micros == {"high": 60_000, "low": 0}


def test_exhausted_budget_drops_out_of_eligibility():
    # budget covers exactly two impressions at CPM 50
    market = Marketplace([make_campaign("c", 50.0, budget=0.1)])
    profile = sports_profile()
    assert market.serve("site", PAGE, profile, time=0.0) is not None
    assert market.serve("site", PAGE, profile, time=1.0) is not None
    assert market.serve("site", PAGE, profile, time=2.0) is None
    assert market.spent_micros["c"] == market.campaigns["c"].total_budget_micros


def test_overspend_refused_outright():
    campaign = make_campaign("c", 50.0, budget=0.1)
    market = Marketplace([campaign])
    winner = market.run_auction(market.eligible_ads("site", sports_profile()))
    market.spent_micros["c"] = campaign.total_budget_micros - 1
    with pytest.raises(SimulationError, match="cannot pay"):
        market.record_impression(winner, sports_profile(), PAGE, "site", time=0.0)


def test_impression_refused_for_a_profile_outside_every_target():
    market = Marketplace([make_campaign("c", 50.0)])
    winner = market.run_auction(market.eligible_ads("site", sports_profile()))
    with pytest.raises(SimulationError, match="left all audiences"):
        market.record_impression(winner, sports_profile(audiences=("a_pets",)), PAGE,
                                 "site", time=0.0)
    assert market.spent_micros["c"] == 0
    assert market.impressions == []


def test_placement_restricts_serving_to_listed_sites():
    market = Marketplace([make_campaign("c", 50.0, placement=("only_here",))])
    profile = sports_profile()
    assert market.serve("elsewhere", PAGE, profile, time=0.0) is None
    assert market.serve("only_here", PAGE, profile, time=1.0) is not None


def test_empty_placement_serves_anywhere():
    market = Marketplace([make_campaign("c", 50.0)])
    assert market.serve("wherever", PAGE, sports_profile(), time=0.0) is not None


def test_audience_targeting_gates_eligibility():
    market = Marketplace([make_campaign("c", 50.0, audiences=("a_pets",))])
    assert market.eligible_ads("site", sports_profile()) == []
    pets = sports_profile(audiences=("a_pets", "a_sports"))
    assert len(market.eligible_ads("site", pets)) == 1


def test_impression_attributed_to_smallest_matched_audience():
    market = Marketplace(
        [make_campaign("c", 50.0, audiences=("a_sports", "a_pets", "a_cooks"))]
    )
    profile = sports_profile(audiences=("a_sports", "a_pets"))
    record = market.serve("site", PAGE, profile, time=0.0)
    assert record.audience_id == "a_pets"


def test_click_sampling_is_seeded():
    def run(seed):
        market = Marketplace(
            [make_campaign("c", 50.0)], rng=random.Random(seed)
        )
        profile = sports_profile()
        return [
            market.serve("site", PAGE, profile, time=float(i)).clicked
            for i in range(200)
        ]

    assert run(42) == run(42)
    assert run(42) != run(43)
    assert 0 < sum(run(42)) < 40  # ctr 0.05 should land well inside this


def test_a_marketplace_built_without_an_rng_draws_clicks_as_seed_0():
    def clicks(rng):
        market = Marketplace([make_campaign("c", 50.0)], rng=rng)
        profile = sports_profile()
        return [market.serve("site", PAGE, profile, time=float(i)).clicked for i in range(200)]

    assert clicks(None) == clicks(random.Random(0))
    assert clicks(None) != clicks(random.Random(1))


def test_window_index_boundaries():
    assert window_index(0.0, 1800.0) == 0
    assert window_index(1799.999, 1800.0) == 0
    assert window_index(1800.0, 1800.0) == 1
    assert window_index(3600.0, 1800.0) == 2


def test_window_count_covers_the_last_timestamp_before_the_horizon():
    # 41.1 / 0.3 rounds to exactly 137.0, so ceil(H / W) says 137 windows,
    # yet the last float below 41.1 is in window 137.
    last = math.nextafter(41.1, 0.0)
    assert math.ceil(41.1 / 0.3) == 137
    assert window_index(last, 0.3) == 137
    assert window_count(41.1, 0.3) == 138
    assert window_count(3600.0, 1800.0) == 2
    assert window_count(3600.5, 1800.0) == 3
    assert window_count(1.0, 1800.0) == 1
    assert window_count(0.0, 1800.0) == 0
    assert window_count(-5.0, 1800.0) == 0


@st.composite
def timestamps_before_horizons(draw):
    horizon = draw(st.floats(min_value=0.0, max_value=1e9, exclude_min=True))
    window = draw(
        st.sampled_from([0.1, 0.3, 1.1, 1800.0])
        | st.floats(min_value=1e-3, max_value=1e6, allow_subnormal=False)
    )
    t = draw(
        st.floats(min_value=0.0, max_value=horizon, exclude_max=True)
        | st.just(math.nextafter(horizon, 0.0))
    )
    return t, horizon, window


@settings(max_examples=500)
@given(case=timestamps_before_horizons())
@example(case=(math.nextafter(41.1, 0.0), 41.1, 0.3))
@example(case=(math.nextafter(3.0, 0.0), 3.0, 0.1))
def test_every_timestamp_before_the_horizon_falls_in_a_counted_window(case):
    t, horizon, window = case
    assert 0 <= window_index(t, window) < window_count(horizon, window)


def imp(t, audience="a_sports", campaign="c"):
    return ImpressionRecord(
        ad_id="ad",
        campaign_id=campaign,
        ad_group_id="g",
        website_id="site",
        page_id="landing",
        audience_id=audience,
        cookie_id="ck",
        timestamp=t,
    )


def dense_reports(*args, **kwargs):
    return reference_reports.dense(build_reports(*args, **kwargs))


def test_build_reports_batches_and_accumulates():
    impressions = [imp(10.0), imp(20.0, "a_pets"), imp(110.0), imp(310.0)]
    counters = build_reports(impressions, 100.0, 4, ["a_sports", "a_pets"])
    assert counters.audience_ids == ("a_pets", "a_sports")
    # only the windows an impression hit are held
    assert counters.hits == {
        0: {"a_pets": 1, "a_sports": 1},
        1: {"a_sports": 1},
        3: {"a_sports": 1},
    }
    reports = reference_reports.dense(counters)
    assert [r.window_index for r in reports] == [0, 1, 2, 3]
    assert reports[0].deltas == {"a_pets": 1, "a_sports": 1}
    assert reports[1].deltas == {"a_pets": 0, "a_sports": 1}
    assert reports[2].deltas == {"a_pets": 0, "a_sports": 0}  # all-zero window filled in
    assert reports[2].cumulative == {"a_pets": 1, "a_sports": 2}
    assert reports[3].deltas == {"a_pets": 0, "a_sports": 1}
    assert reports[3].cumulative == {"a_pets": 1, "a_sports": 3}
    assert reports[1].window_start == 100.0
    assert reports[1].window_end == 200.0


def test_boundary_impression_lands_in_later_window():
    reports = dense_reports([imp(100.0)], 100.0, 2, ["a_sports"])
    assert reports[0].deltas == {"a_sports": 0}
    assert reports[1].deltas == {"a_sports": 1}


def test_reports_filter_by_campaign():
    impressions = [imp(10.0, campaign="mine"), imp(20.0, campaign="other")]
    reports = dense_reports(impressions, 100.0, 1, ["a_sports"], campaign_id="mine")
    assert reports[0].deltas == {"a_sports": 1}


def test_reports_ignore_unlisted_audiences():
    counters = build_reports([imp(10.0, audience="a_other")], 100.0, 1, ["a_sports"])
    assert counters.hits == {}
    assert [r.deltas for r in reference_reports.dense(counters)] == [{"a_sports": 0}]


def test_reports_conserve_impressions():
    impressions = [imp(float(t)) for t in range(0, 500, 7)]
    reports = dense_reports(impressions, 100.0, 5, ["a_sports"])
    assert sum(r.deltas["a_sports"] for r in reports) == len(impressions)
    assert reports[-1].cumulative["a_sports"] == len(impressions)


def test_reports_reject_a_zero_window_length_before_counting():
    # Counting divides by the window length, so an impression must not reach it.
    with pytest.raises(ValidationError, match="window length must be positive, got 0$"):
        build_reports([imp(10.0)], 0, 2, ["a_sports"])


def test_reports_count_a_repeated_audience_id_once():
    reports = dense_reports([imp(10.0)], 100.0, 2, ["a_sports", "a_sports"])
    assert [r.deltas for r in reports] == [{"a_sports": 1}, {"a_sports": 0}]
    assert [r.cumulative for r in reports] == [{"a_sports": 1}, {"a_sports": 1}]


@st.composite
def report_inputs(draw):
    """Arguments for build_reports: float windows, timestamps on and off
    window boundaries, before 0 and past the last window, audiences outside
    the list, repeated audience ids, impressions of two campaigns, and
    num_windows down to 0."""
    window = draw(
        st.sampled_from([0.1, 0.3, 1.1, 100.0])
        | st.floats(min_value=0.01, max_value=1000.0, allow_subnormal=False)
    )
    num_windows = draw(st.integers(0, 25))
    timestamp = st.integers(-3, 30).map(lambda k: k * window) | st.floats(
        min_value=-5 * window, max_value=30 * window
    )
    impressions = draw(
        st.lists(
            st.builds(
                imp,
                timestamp,
                audience=st.sampled_from(["a_pets", "a_sports", "a_cooks", "a_other"]),
                campaign=st.sampled_from(["mine", "other"]),
            ),
            max_size=40,
        )
    )
    audiences = draw(st.lists(st.sampled_from(["a_sports", "a_pets", "a_cooks"])))
    campaign_id = draw(st.sampled_from([None, "mine", "absent"]))
    return impressions, window, num_windows, audiences, campaign_id


def report_layout(reports):
    """Reports with the key order of their counters, which dict equality ignores."""
    return [(r, list(r.deltas), list(r.cumulative)) for r in reports]


@settings(max_examples=300, deadline=None)
@given(args=report_inputs())
def test_dense_view_matches_the_dense_reference(args):
    impressions, window, num_windows, audiences, campaign_id = args
    counters = build_reports(*args)
    # The reference counts a repeated audience id twice into `cumulative`;
    # build_reports counts it once, so the reference gets each id once.
    expected = reference_reports.build_reports(
        impressions, window, num_windows, sorted(set(audiences)), campaign_id
    )
    reports = reference_reports.dense(counters)
    assert report_layout(reports) == report_layout(expected)
    assert list(counters.hits) == [r.window_index for r in expected if any(r.deltas.values())]
    # every hit window gets its own counter, of non-zero deltas in audience order
    assert len({id(c) for c in counters.hits.values()}) == len(counters.hits)
    for deltas in counters.hits.values():
        assert 0 not in deltas.values()
        assert list(deltas) == [a for a in counters.audience_ids if a in deltas]


@settings(max_examples=300, deadline=None)
@given(args=report_inputs())
def test_report_rows_are_the_non_zero_rows_of_the_dense_reference(args):
    impressions, window, num_windows, audiences, campaign_id = args
    expected = reference_reports.build_reports(
        impressions, window, num_windows, sorted(set(audiences)), campaign_id
    )
    dense_rows = reference_reports.report_rows(expected)
    # same window bounds and running totals, zero deltas left out
    assert reports_to_rows(build_reports(*args)) == [row for row in dense_rows if row[4] != 0]


@pytest.mark.parametrize(
    "window_length, num_windows, audience_ids, hits, message",
    [
        (0.0, 1, ("a",), {}, "window length"),
        (-1.0, 1, ("a",), {}, "window length"),
        (math.nan, 1, ("a",), {}, "window length"),
        (1.0, 2, ("b", "a"), {}, "sorted and distinct"),
        (1.0, 2, ("a", "a"), {}, "sorted and distinct"),
        (1.0, 2, ("a",), {2: {"a": 1}}, "hit window 2"),
        (1.0, 2, ("a",), {-1: {"a": 1}}, "hit window -1"),
        (1.0, 0, ("a",), {0: {"a": 1}}, "hit window 0"),
        (1.0, 5, ("a",), {3: {"a": 1}, 1: {"a": 1}}, "hit window 1"),
        (1.0, 5, ("a",), {1: {"a": 0}}, "hit window 1 must hold non-zero deltas"),
        (1.0, 5, ("a", "b"), {1: {"a": 1, "b": 0}}, "hit window 1 must hold non-zero deltas"),
        (1.0, 5, ("a",), {1: {"a": 1, "b": 1}}, "hit window 1 must hold non-zero deltas"),
        (1.0, 5, ("a",), {1: {}}, "hit window 1 must hold non-zero deltas"),
        (1.0, 5, ("a", "b"), {1: {"b": 1, "a": 1}}, "hit window 1 must hold non-zero deltas"),
        (1.0, 2, ("a", "b"), {0: {"a": True}, 1: {"a": 1.5}}, "delta True .* window 0 is not an"),
        (1.0, 2, ("a", "b"), {1: {"a": 1, "b": 1.5}}, "delta 1.5 .* window 1 is not an integer"),
        (1.0, 2, ("a",), {1: {"a": 2.0}}, "delta 2.0 of audience 'a' in hit window 1 is not an"),
        (math.inf, 2, ("a",), {0: {"a": 1}}, "window length must be finite as a float, got inf"),
        (1.0, -3, (), {}, "num_windows must be an integer >= 0"),
        (-math.inf, 1, ("a",), {}, "window length must be positive"),
        (10**400, 1, ("a",), {}, "window length must be finite as a float"),
        (1.0, True, ("a",), {}, "num_windows must be an integer >= 0, got True"),
        (1.0, 2.0, ("a",), {}, "num_windows must be an integer >= 0, got 2.0"),
    ],
)
def test_counter_reports_reject_a_malformed_record(
    window_length, num_windows, audience_ids, hits, message
):
    with pytest.raises(ValidationError, match=message):
        CounterReports(window_length, num_windows, audience_ids, hits)


def test_counter_reports_accept_negative_deltas_for_the_join_to_reject():
    counters = CounterReports(1.0, 2, ("a", "b"), {1: {"b": -1}})
    assert [r.cumulative for r in reference_reports.dense(counters)] == [
        {"a": 0, "b": 0},
        {"a": 0, "b": -1},
    ]
    assert reports_to_rows(counters) == [(1, 1.0, 2.0, "b", -1, -1)]


def test_a_cpc_group_never_serves_when_no_impression_is_clicked():
    config = MarketConfig(click_through_rate=0.0)
    market = Marketplace([make_campaign("c", 5.0, kind="CPC")], config=config)
    assert effective_value_micros(Bid("CPC", 5.0), config) == 0
    assert market.eligible_ads("site", sports_profile()) == []
    assert market.serve("site", PAGE, sports_profile(), time=0.0) is None
    assert market.spent_micros == {"c": 0}
    # its audience is still counted, at zero
    assert market.publish_reports(window_length=1.0, up_to_time=1.0).audience_ids == ("a_sports",)


def test_publish_reports_covers_elapsed_windows():
    market = Marketplace([make_campaign("c", 50.0)])
    profile = sports_profile()
    market.serve("site", PAGE, profile, time=50.0)
    market.serve("site", PAGE, profile, time=250.0)
    counters = market.publish_reports(window_length=100.0, up_to_time=300.0)
    assert counters.num_windows == 3
    assert list(counters.hits) == [0, 2]
    assert [r.deltas["a_sports"] for r in reference_reports.dense(counters)] == [1, 0, 1]


def test_reports_to_rows_shape():
    reports = build_reports([imp(10.0)], 100.0, 2, ["a_sports", "a_pets"])
    rows = reports_to_rows(reports)
    assert REPORT_COLUMNS == (
        "window_index",
        "window_start",
        "window_end",
        "audience_id",
        "delta",
        "cumulative",
    )
    # only non-zero deltas get a row: no a_pets row, no row for window 1
    assert rows == [(0, 0.0, 100.0, "a_sports", 1, 1)]


def test_each_marketplace_keeps_its_own_spend():
    campaign = make_campaign("c", 50.0)
    first = Marketplace([campaign])
    first.serve("site", PAGE, sports_profile(), time=0.0)
    second = Marketplace([campaign])
    assert first.spent_micros == {"c": 50_000}
    assert second.spent_micros == {"c": 0}
    assert second.serve("site", PAGE, sports_profile(), time=0.0) is not None
    assert first.spent_micros == second.spent_micros == {"c": 50_000}


def test_duplicate_campaign_ids_rejected():
    with pytest.raises(ValidationError):
        Marketplace([make_campaign("c", 1.0), make_campaign("c", 2.0)])


def test_negative_budget_rejected():
    for budget in (-1.0, math.inf, math.nan, 10**400, 1e303):
        with pytest.raises(ValidationError):
            make_campaign("c", 1.0, budget=budget)


# Documents never reach these checks with a wrong type, since the schema
# rejects it first; a record built in code must still get a
# ValidationError, not a TypeError, and a bool is not a number.
@pytest.mark.parametrize(
    "build",
    [
        lambda: Bid("CPM", "5"),
        lambda: Bid("CPM", None),
        lambda: Bid("CPM", True),
        lambda: Campaign("c", (), "5"),
        lambda: Campaign("c", (), True),
        lambda: MarketConfig(click_through_rate="0.5"),
        lambda: MarketConfig(click_through_rate=True),
        lambda: AffinityAudience("a", "A", frozenset({"i"}), "2"),
        lambda: AffinityAudience("a", "A", frozenset({"i"}), 1.5),
        lambda: AffinityAudience("a", "A", frozenset({"i"}), True),
        lambda: CounterReports("1", 2, (), {}),
        lambda: CounterReports(True, 2, (), {}),
        lambda: CounterReports(1.0, "2", ("a",), {0: {"a": 1}}),
        lambda: CounterReports(1.0, 2.0, (), {}),
        lambda: CounterReports(1.0, True, ("a",), {0: {"a": 1}}),
    ],
    ids=[
        "bid-str", "bid-none", "bid-bool", "budget-str", "budget-bool", "ctr-str", "ctr-bool",
        "rule-str", "rule-float", "rule-bool", "window-str", "window-bool", "windows-str",
        "windows-float", "windows-bool",
    ],
)
def test_records_reject_a_wrongly_typed_number(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("rate", [-0.05, 1.5, math.nan, math.inf])
def test_rates_outside_unit_interval_rejected(rate):
    with pytest.raises(ValidationError):
        MarketConfig(click_through_rate=rate)


@given(
    amounts=st.lists(
        st.floats(min_value=0.001, max_value=500.0, allow_nan=False), min_size=1, max_size=6
    )
)
def test_spend_is_sum_of_integer_prices(amounts):
    campaigns = [
        make_campaign(f"c{i}", amount, ad_id=f"ad{i}")
        for i, amount in enumerate(amounts)
    ]
    market = Marketplace(campaigns)
    profile = sports_profile()
    for t in range(20):
        market.serve("site", PAGE, profile, time=float(t))
    for campaign in market.campaigns.values():
        spent = market.spent_micros[campaign.id]
        assert 0 <= spent <= campaign.total_budget_micros
        assert spent % effective_value_micros(campaign.ad_groups[0].bid) == 0


def test_micros_conversion_rounds_half_up_at_micro_scale():
    assert to_micros(50.0) == 50_000_000
    assert to_micros(0.000001) == 1
    assert to_micros(1.5) == 1_500_000


SITES = ("s1", "s2", "s3")
AUDIENCES = ("a1", "a2", "a3")
# CPM 0.0004 is worth 0 micros, as is every CPC bid at a rate of 0.
BIDS = [
    ("CPM", 0.0004),
    ("CPM", 0.5),
    ("CPM", 1.0),
    ("CPM", 2.0),
    ("CPC", 0.02),
    ("CPC", 0.04),
    ("CPA", 0.1),
]


def subsets(items, min_size=0):
    return st.frozensets(st.sampled_from(items), min_size=min_size)


@st.composite
def ad_groups(draw, cid, j):
    kind, amount = draw(st.sampled_from(BIDS))
    ad_ids = draw(st.lists(st.sampled_from(["ad_a", "ad_b"]), min_size=1, max_size=2))
    return AdGroup(
        id=f"{cid}_g{j}",
        ads=tuple(ad_ids),
        target_audiences=draw(subsets(AUDIENCES, min_size=1)),
        bid=Bid(kind, amount),
        placement=draw(st.just(frozenset()) | subsets(SITES, min_size=1)),
    )


@st.composite
def campaign_lists(draw):
    """Campaigns, and each one's spend, by id, before the page views."""
    campaigns = []
    prior_spend = {}
    for i in range(draw(st.integers(1, 5))):
        cid = f"c{i}"
        groups = tuple(draw(ad_groups(cid, j)) for j in range(draw(st.integers(1, 3))))
        budget = draw(st.sampled_from([0.0, 0.0005, 0.001, 0.0025, 0.005, 1.0, 1.0]))
        campaign = Campaign(id=cid, ad_groups=groups, total_budget=budget)
        prior_spend[cid] = draw(st.integers(0, campaign.total_budget_micros))
        campaigns.append(campaign)
    return campaigns, prior_spend


# "s0" is in no placement: only network-wide groups serve there.
page_views = st.tuples(st.sampled_from(("s0",) + SITES), subsets(AUDIENCES, min_size=1))


def auction_order(entrants):
    """``(campaign, group, ad, value)`` entrants sorted stably by highest
    value, then smallest ad id."""
    return sorted(entrants, key=lambda entrant: (-entrant[3], entrant[2]))


@given(
    drawn=campaign_lists(),
    ctr=st.sampled_from([0.0, 0.05, 0.5]),
    views=st.lists(page_views, min_size=1, max_size=12),
)
def test_priced_table_matches_scan_from_scratch(drawn, ctr, views):
    campaigns, prior_spend = drawn
    config = MarketConfig(click_through_rate=ctr)
    market = Marketplace(campaigns, config=config)
    market.spent_micros.update(prior_spend)
    for t, (site, audiences) in enumerate(views):
        profile = AdUserProfile(cookie_id="ck", audiences=set(audiences))
        expected, expected_eligible = scan_from_scratch(
            campaigns, market.spent_micros, config, site, profile
        )
        candidates = market.eligible_ads(site, profile)
        assert [tuple(c) for c in candidates] == auction_order(expected_eligible)
        winner = market.run_auction(candidates)
        if expected is None:
            assert winner is None
            continue
        assert tuple(winner) == expected
        market.record_impression(winner, profile, PAGE, site, float(t))


@given(
    drawn=campaign_lists(),
    ctr=st.sampled_from([0.0, 0.05, 0.5]),
    rnd=st.randoms(use_true_random=False),
)
def test_every_site_lists_its_rows_in_auction_order_and_the_first_wins(drawn, ctr, rnd):
    # Every campaign can pay and the profile is in every audience, so each
    # site's candidates are all the rows that may serve there.
    campaigns = [campaign._replace(total_budget=1.0) for campaign in drawn[0]]
    config = MarketConfig(click_through_rate=ctr)
    market = Marketplace(campaigns, config=config)
    everyone = AdUserProfile(cookie_id="ck", audiences=set(AUDIENCES))
    for site in ("s0",) + SITES:
        _, entrants = scan_from_scratch(campaigns, market.spent_micros, config, site, everyone)
        candidates = market.eligible_ads(site, everyone)
        assert [tuple(c) for c in candidates] == auction_order(entrants)
        shuffled = rnd.sample(candidates, len(candidates))
        assert market.run_auction(shuffled) is (shuffled[0] if shuffled else None)
