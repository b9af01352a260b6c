"""Campaigns, auctions, impression accounting and windowed counter reports.

Money is handled in integer micro-units internally (one currency unit =
10**6 micros), so budget arithmetic is exact and auction ties are decided
on equal integers rather than float noise.  Public fields keep plain float
amounts.

Counter reports batch impressions into fixed windows (default 30 simulated
minutes).  A report row is the advertiser-visible side channel of this
whole simulation: per-audience deltas plus cumulative totals, with no
cookie ids anywhere.  Reports are held sparse, as :class:`CounterReports`
of non-zero deltas only, and written as they are held.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Iterable, NamedTuple

from .errors import SimulationError, ValidationError, checked, is_integer, is_number, quoted
from .profile import AdUserProfile, PageProfile

MICROS = 10**6

BID_KINDS = ("CPC", "CPM", "CPA")

# The share of impressions that a CPA bid expects to turn into an
# acquisition, which prices it per impression.
ACQUISITION_RATE = 0.01


def to_micros(amount: float) -> int:
    return round(amount * MICROS)


def finite_in_micros(amount: float) -> bool:
    """Whether ``amount`` and ``amount * MICROS`` are finite as floats.

    Float arithmetic on purpose: Python compares a huge int with ``inf``
    exactly, so ``10**400 < math.inf`` holds and would overflow later.
    """
    try:
        return math.isfinite(float(amount) * MICROS)
    except OverflowError:
        return False


@checked
class Bid(NamedTuple):
    """Price attached to an ad group: kind is one of CPC, CPM or CPA."""

    kind: str
    amount: float

    def _check(self):
        if self.kind not in BID_KINDS:
            message = f"bid kind must be one of {BID_KINDS}, got {quoted(self.kind)}"
            raise ValidationError(message, "/kind")
        if not (is_number(self.amount) and self.amount > 0 and finite_in_micros(self.amount)):
            message = f"bid amount must be positive and finite, got {quoted(self.amount)}"
            raise ValidationError(message, "/amount")


@checked
class AdGroup(NamedTuple):
    """A set of ads, by id, sharing targeting and one bid.

    Empty ``placement`` means the whole network; a non-empty set restricts
    serving to exactly those website ids.
    """

    id: str
    ads: tuple[str, ...]
    target_audiences: frozenset[str]
    bid: Bid
    placement: frozenset[str] = frozenset()

    def _check(self):
        if not self.ads:
            raise ValidationError(f"ad group {self.id!r} must contain at least one ad")
        if not self.target_audiences:
            raise ValidationError(f"ad group {self.id!r} must target at least one audience")


@checked
class Campaign(NamedTuple):
    """An advertiser's campaign; a run's spend is in ``Marketplace.spent_micros``."""

    id: str
    ad_groups: tuple[AdGroup, ...]
    total_budget: float

    def _check(self):
        budget = self.total_budget
        if not (is_number(budget) and budget >= 0 and finite_in_micros(budget)):
            raise ValidationError(f"campaign {self.id!r} budget must be finite and >= 0")

    @property
    def total_budget_micros(self) -> int:
        return to_micros(self.total_budget)


class ImpressionRecord(NamedTuple):
    """Ground-truth record of one served ad.

    ``cookie_id`` identifies the profile that saw the ad; it exists only on
    this internal side and is never exposed through reports or logs.
    """

    ad_id: str
    campaign_id: str
    ad_group_id: str
    website_id: str
    page_id: str
    audience_id: str
    cookie_id: str
    timestamp: float
    clicked: bool = False


@checked
class CounterReports(NamedTuple):
    """Per-audience impression counters of windows ``0 .. num_windows - 1``, held sparse.

    ``hits`` maps each window some counted impression hit, in ascending
    order, to its non-zero integer deltas, keyed in ``audience_ids`` order;
    an absent window or audience counted 0, and a negative delta is kept for
    the join to reject.  Equal counters therefore give equal records.
    Window ``k`` has the nominal bounds ``k * W`` and ``(k + 1) * W``, which
    float rounding can put on the other side of a member timestamp (see
    :func:`window_index`).
    """

    window_length: float
    num_windows: int
    audience_ids: tuple[str, ...]
    hits: dict[int, dict[str, int]]

    def _check(self):
        if not (is_number(self.window_length) and self.window_length > 0):
            length = quoted(self.window_length)
            raise ValidationError(f"window length must be positive, got {length}")
        if self.window_length > sys.float_info.max:
            length = quoted(self.window_length)
            raise ValidationError(f"window length must be finite as a float, got {length}")
        if not (is_integer(self.num_windows) and self.num_windows >= 0):
            count = quoted(self.num_windows)
            raise ValidationError(f"num_windows must be an integer >= 0, got {count}")
        if list(self.audience_ids) != sorted(set(self.audience_ids)):
            raise ValidationError(
                f"audience ids must be sorted and distinct, got {self.audience_ids!r}"
            )
        keys = set(self.audience_ids)
        previous = -1
        for k, deltas in self.hits.items():
            if not previous < k < self.num_windows:
                raise ValidationError(
                    f"hit window {k} must lie after window {previous} and before {self.num_windows}"
                )
            if not deltas or 0 in deltas.values() or not keys.issuperset(deltas) or (
                len(deltas) > 1 and list(deltas) != sorted(deltas)
            ):
                raise ValidationError(
                    f"hit window {k} must hold non-zero deltas keyed by audience ids, in order"
                )
            for audience, n in deltas.items():
                if type(n) is not int:
                    raise ValidationError(
                        f"delta {n!r} of audience {audience!r} in hit window {k} is not an integer"
                    )
            previous = k


@checked
class MarketConfig(NamedTuple):
    """Marketplace-wide serving parameters.

    ``click_through_rate``, in [0, 1], converts CPC bids into expected
    per-impression values and samples each impression's click.
    """

    click_through_rate: float = 0.05

    def _check(self):
        rate = self.click_through_rate
        if not (is_number(rate) and 0 <= rate <= 1):
            raise ValidationError(
                f"click_through_rate must lie in [0, 1], got {quoted(rate)}", "/click_through_rate"
            )


DEFAULT_MARKET_CONFIG = MarketConfig()


class Candidate(NamedTuple):
    campaign: Campaign
    ad_group: AdGroup
    ad_id: str
    value_micros: int


def effective_value_micros(bid: Bid, config: MarketConfig = DEFAULT_MARKET_CONFIG) -> int:
    """Expected value of one impression under the given bid, in micros.

    CPM is amount per thousand impressions; CPC is scaled by the configured
    click-through rate and CPA by ``ACQUISITION_RATE``.
    """
    micros = to_micros(bid.amount)
    if bid.kind == "CPM":
        return micros // 1000
    if bid.kind == "CPC":
        return round(micros * config.click_through_rate)
    return round(micros * ACQUISITION_RATE)


class Marketplace:
    """Holds campaigns and the impression stream for one simulated run.

    Campaigns and config are read once, at construction, which prices every
    ad group into one row; a group whose bid is worth 0 micros per
    impression gets no row, since it would serve for free whatever its
    budget.  An ad group bids once per auction, with its smallest-id ad:
    auction ties break on ad id, so no other ad of the group could win.  A
    row holds what eligibility reads, unpacked once: the group's targeted
    audiences, its campaign id, its value and the :class:`Candidate` it
    enters the auction as.  The rows are sorted once, stably, by highest
    value then smallest ad id, rows still tied keeping campaign then group
    order: this is the one definition of auction order.  Each website named
    in some placement gets the rows that can serve there, its placed groups
    and the network-wide ones, in that order; any other website gets the
    network-wide rows.  A page view scans only its website's rows.  Each
    campaign's budget in micros and the sorted union of every targeted
    audience, served or not, are taken once, too.

    Those tables never change.  What a run changes is its own:
    ``impressions``, ``spent_micros`` (what each campaign, by id, has
    spent) and the click-sampling ``rng``.
    """

    def __init__(
        self,
        campaigns: Iterable[Campaign],
        config: MarketConfig = DEFAULT_MARKET_CONFIG,
        rng: random.Random | None = None,
    ):
        self.campaigns: dict[str, Campaign] = {}
        for c in campaigns:
            if c.id in self.campaigns:
                raise ValidationError(f"duplicate campaign id {c.id!r}")
            self.campaigns[c.id] = c
        self.config = config
        self.rng = rng if rng is not None else random.Random(0)
        self.impressions: list[ImpressionRecord] = []
        self.spent_micros: dict[str, int] = dict.fromkeys(self.campaigns, 0)
        self._budget_micros = {cid: c.total_budget_micros for cid, c in self.campaigns.items()}
        priced = []  # (placement, row) per ad group worth more than 0 micros
        targeted = set()
        for c in self.campaigns.values():
            for g in c.ad_groups:
                targeted |= g.target_audiences
                value = effective_value_micros(g.bid, config)
                if not value:
                    continue
                candidate = Candidate(c, g, min(g.ads), value)
                priced.append((g.placement, (g.target_audiences, c.id, value, candidate)))
        priced.sort(key=lambda p: (-p[1][2], p[1][3].ad_id))
        self._network_wide = [row for placement, row in priced if not placement]
        placed = {site for placement, _ in priced for site in placement}
        self._rows_by_site = {
            site: [row for placement, row in priced if not placement or site in placement]
            for site in placed
        }
        self._audience_universe = tuple(sorted(targeted))

    def eligible_ads(self, website_id: str, profile: AdUserProfile) -> list[Candidate]:
        """Candidates allowed to compete for one slot on one page view.

        An ad group qualifies when its placement covers the website, the
        profile is in at least one targeted audience, its bid is worth more
        than 0 micros, and the campaign can still pay for the impression.
        It competes with its smallest-id ad.  Candidates come in auction
        order, so the first one wins.
        """
        candidates: list[Candidate] = []
        spent, budget, audiences = self.spent_micros, self._budget_micros, profile.audiences
        for targets, campaign_id, value, candidate in (
            self._rows_by_site.get(website_id, self._network_wide)
        ):
            if targets.isdisjoint(audiences):
                continue
            if budget[campaign_id] - spent[campaign_id] < value:
                continue
            candidates.append(candidate)
        return candidates

    def run_auction(self, candidates: list[Candidate]) -> Candidate | None:
        """The first of ``candidates``, listed in auction order as
        :meth:`eligible_ads` lists them, or None if there is none.

        The order needs no randomness, so the outcome is reproducible.
        """
        return candidates[0] if candidates else None

    def record_impression(
        self,
        candidate: Candidate,
        profile: AdUserProfile,
        page: PageProfile,
        website_id: str,
        time: float,
    ) -> ImpressionRecord:
        """Charge the winning campaign its own value and append the impression record.

        The impression is attributed to exactly one audience: the
        lexicographically smallest id among the winning group's targets the
        profile is currently in.  A click is sampled from the configured
        click-through rate using the marketplace rng.
        """
        campaign = candidate.campaign
        spent = self.spent_micros[campaign.id] + candidate.value_micros
        if spent > self._budget_micros[campaign.id]:
            raise SimulationError(
                f"campaign {campaign.id!r} cannot pay {candidate.value_micros} micros"
            )
        matched = candidate.ad_group.target_audiences & profile.audiences
        if not matched:
            raise SimulationError(
                f"profile {profile.cookie_id!r} left all audiences targeted by "
                f"ad group {candidate.ad_group.id!r} before the impression"
            )
        self.spent_micros[campaign.id] = spent
        record = ImpressionRecord(
            candidate.ad_id, campaign.id, candidate.ad_group.id, website_id, page.page_id,
            min(matched), profile.cookie_id, time,
            self.rng.random() < self.config.click_through_rate,
        )
        self.impressions.append(record)
        return record

    def serve(
        self,
        website_id: str,
        page: PageProfile,
        profile: AdUserProfile,
        time: float,
    ) -> ImpressionRecord | None:
        """One page view, one slot: eligibility, auction, impression."""
        winner = self.run_auction(self.eligible_ads(website_id, profile))
        if winner is None:
            return None
        return self.record_impression(winner, profile, page, website_id, time)

    def publish_reports(self, window_length: float, up_to_time: float) -> CounterReports:
        """Counters of every window elapsed by ``up_to_time``, over every targeted audience."""
        return build_reports(
            self.impressions,
            window_length,
            window_count(up_to_time, window_length),
            self._audience_universe,
        )


def window_index(timestamp: float, window_length: float) -> int:
    """Index ``floor(t / W)`` of the window holding ``timestamp``.

    This is the one definition of window membership.  It is not the test
    ``k * W <= t < (k + 1) * W`` on the nominal bounds a report carries:
    with W = 0.1, t = 1.7 is in window 17, whose nominal start ``17 * 0.1``
    is 1.7000000000000002.  A timestamp exactly on a boundary belongs to
    the later window.
    """
    return math.floor(timestamp / window_length)


def window_count(up_to_time: float, window_length: float) -> int:
    """Number of windows elapsed by ``up_to_time``, the last one partial.

    One more than the index of the last timestamp before ``up_to_time``,
    so every ``0 <= t < up_to_time`` falls in a counted window even where
    ``up_to_time / W`` rounds to a whole number.
    """
    if up_to_time <= 0:
        return 0
    return window_index(math.nextafter(up_to_time, 0.0), window_length) + 1


def build_reports(
    impressions: Iterable[ImpressionRecord],
    window_length: float,
    num_windows: int,
    audience_ids: Iterable[str],
    campaign_id: str | None = None,
) -> CounterReports:
    """Batch impressions into per-window audience counters, in one pass.

    Counts the impressions in windows ``0 .. num_windows - 1`` whose
    audience is one of ``audience_ids`` (a repeated id counts once).  When
    ``campaign_id`` is given, only that campaign's impressions are
    counted: this is the advertiser-facing view, since each advertiser
    sees counters for her own campaigns only.  Only the windows an
    impression hit get a counter, and only the audiences it counted.
    """
    audience_ids = tuple(sorted(set(audience_ids)))
    counted = set(audience_ids)
    hit: dict[int, dict[str, int]] = {}
    # Counting divides by the window length; CounterReports rejects any
    # length that is not positive.
    for record in impressions if window_length > 0 else ():
        if campaign_id is not None and record.campaign_id != campaign_id:
            continue
        k = window_index(record.timestamp, window_length)
        if 0 <= k < num_windows and record.audience_id in counted:
            counts = hit.setdefault(k, {})
            counts[record.audience_id] = counts.get(record.audience_id, 0) + 1
    # audience_ids is sorted, so sorting a window's keys puts them in its order.
    hits = {k: dict(sorted(c.items())) if len(c) > 1 else c for k, c in sorted(hit.items())}
    return CounterReports(window_length, num_windows, audience_ids, hits)


REPORT_COLUMNS = (
    "window_index", "window_start", "window_end", "audience_id", "delta", "cumulative"
)


def reports_to_rows(reports: CounterReports) -> list[tuple]:
    """Flatten reports for CSV export, sparse as they are held.

    One ``REPORT_COLUMNS`` row per held delta, in window then audience
    order; ``cumulative`` is that audience's running total up to and
    including the window.
    """
    window = reports.window_length
    running = dict.fromkeys(reports.audience_ids, 0)
    rows = []
    for k, deltas in reports.hits.items():
        for a, n in deltas.items():
            running[a] += n
            rows.append((k, k * window, (k + 1) * window, a, n, running[a]))
    return rows
