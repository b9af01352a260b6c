"""Deterministic end-to-end runs of a scenario.

A run has two phases.  Warm-up happens at negative simulated time: every
user executes her browsing plan and the network builds her profile, but no
ads are auctioned and nothing is logged, so the reporting clock starts
clean at t=0.  The attack phase then replays every scheduled visit through
the full serving path (profile update, auction, impression, log entry),
ordered by timestamp, then user id, so equal seeds give byte-identical
traces.

Ground truth is snapshotted at the warm-up/attack boundary: it is what a
user's profile qualified for at the moment the probing started.
"""

from __future__ import annotations

import copy
import itertools
import json
import logging
import random
from typing import NamedTuple

from .errors import InconsistentObservationsError, SimulationError, ValidationError
from .errors import digits_to_int, quoted
from .gdn import VisitLogEntry, serve_page
from .marketplace import (
    CounterReports,
    ImpressionRecord,
    Marketplace,
    build_reports,
    window_count,
)
from .profile import AdUserProfile, PageProfile, fold_warmup
from .profile import record_visit  # noqa: F401  unused here; bound so perfbench can wrap it
from .scenario import Scenario, check_seed, load_scenario_document
from .trap import (
    Assignment,
    AttributionResult,
    build_trap_campaign,
    collect_observations,
    infer_audiences,
    probe_campaign_id,
    score_attribution,
    summary_counts,
)

log = logging.getLogger(__name__)

TRACE_SCHEMA_VERSION = 4

# Top-level scenario fields a sweep may introduce even when the template
# relies on their defaults.
_SWEEPABLE_TOP_LEVEL = {"window_length_s", "horizon_s"}


class RunTrace(NamedTuple):
    """Everything one run produced, ground truth included.

    ``reports`` are the platform's counters over every targeted audience,
    sparse, as :func:`trace_to_json` and ``reports.csv`` write them.
    """

    impressions: list[ImpressionRecord]
    reports: CounterReports
    logs: dict[str, list[VisitLogEntry]]
    ground_truth: dict[str, set[str]]


class SimulationEngine:
    """Materialised state for one run of one scenario.

    Scenario records are frozen, so everything a run changes lives here:
    profiles, the marketplace (impressions and each campaign's spend) and
    ``logs``, the visit log of every logging site.  The same
    :class:`Scenario` can therefore back any number of runs.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.pages: dict[str, PageProfile] = {
            pid: page for site in scenario.websites.values() for pid, page in site.pages.items()
        }
        self.logs: dict[str, list[VisitLogEntry]] = {
            wid: [] for wid, site in scenario.websites.items() if site.logging
        }
        campaigns = list(scenario.campaigns)
        if scenario.attack is not None:
            campaigns.extend(
                build_trap_campaign(scenario.attack, scenario.websites[site_id])
                for site_id in scenario.attack.sites
            )
        self.marketplace = Marketplace(campaigns, rng=random.Random(scenario.seed))
        self.profiles: dict[str, AdUserProfile] = {
            user.cookie_id: AdUserProfile(cookie_id=user.cookie_id)
            for user in scenario.users
        }
        self.ground_truth: dict[str, set[str]] = {}

    def run_warmup(self) -> None:
        """Fill profiles by folding each warm-up plan, at negative time."""
        taxonomy = self.scenario.taxonomy
        for user in self.scenario.users:
            profile = self.profiles[user.cookie_id]
            fold_warmup(profile, user.warmup_plan, self.pages, -1.0, taxonomy)
        self.ground_truth = {
            user.id: set(self.profiles[user.cookie_id].audiences)
            for user in self.scenario.users
        }

    def run_attack_phase(self) -> None:
        """Replay every scheduled visit through the serving path.

        Visits are served in order of time, then user id, then the user's
        own order.
        """
        events = [
            (visit.t, user.id, seq, user, visit)
            for user in self.scenario.users
            for seq, visit in enumerate(user.attack_visits)
        ]
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        websites, profiles, logs = self.scenario.websites, self.profiles, self.logs
        marketplace, taxonomy = self.marketplace, self.scenario.taxonomy
        debug = log.isEnabledFor(logging.DEBUG)
        for t, _, _, user, visit in events:
            impression, entry = serve_page(
                websites[visit.site],
                visit.page,
                profiles[user.cookie_id],
                network_id=user.network_id,
                consent=user.consent,
                time=t,
                marketplace=marketplace,
                taxonomy=taxonomy,
            )
            if entry is not None:
                site_log = logs[visit.site]
                if site_log and t < site_log[-1].timestamp:
                    raise SimulationError(
                        f"visit log for {visit.site!r} would go backwards in time"
                    )
                site_log.append(entry)
            if debug:
                log.debug(
                    "t=%s user=%s site=%s page=%s impression=%s",
                    t,
                    user.id,
                    visit.site,
                    visit.page,
                    impression.ad_id if impression else None,
                )

    def run(self) -> RunTrace:
        self.run_warmup()
        self.run_attack_phase()
        return RunTrace(
            impressions=self.marketplace.impressions,
            reports=self.marketplace.publish_reports(
                self.scenario.window_length, self.scenario.horizon
            ),
            logs=self.logs,
            ground_truth=self.ground_truth,
        )


def run_scenario(scenario: Scenario) -> RunTrace:
    """One full deterministic run; see :class:`SimulationEngine`."""
    return SimulationEngine(scenario).run()


def attacker_view_reports(trace: RunTrace, scenario: Scenario, site_id: str) -> CounterReports:
    """Counter reports as the probing advertiser sees them for one site.

    Restricted to the probing campaign's own impressions and keyed over
    exactly the probed audiences; cookie ids are structurally absent.
    The counters stay sparse: the join needs only the windows they hit.
    """
    attack = scenario.attack
    if attack is None:
        raise ValidationError("scenario has no attack section")
    return build_reports(
        trace.impressions,
        scenario.window_length,
        window_count(scenario.horizon, scenario.window_length),
        sorted(attack.audiences),
        campaign_id=probe_campaign_id(site_id),
    )


def run_attack(scenario: Scenario, trace: RunTrace) -> AttributionResult:
    """Run the inference pipeline over a finished trace and score it.

    Observations from all attacker sites are solved jointly (each window
    of each site is one constraint).  If they contradict the model, every
    log-visible visitor is reported as unknown and the result is flagged
    inconsistent rather than aborting the evaluation.
    """
    attack = scenario.attack
    if attack is None:
        return AttributionResult({}, accuracy=None)
    observations = []
    for site_id in attack.sites:
        observations.extend(
            collect_observations(
                attacker_view_reports(trace, scenario, site_id), trace.logs.get(site_id, [])
            )
        )
    try:
        result = infer_audiences(observations)
    except InconsistentObservationsError as exc:
        log.warning("inference gave up: %s", exc)
        visitors = {
            entry.network_id
            for site_id in attack.sites
            for entry in trace.logs.get(site_id, [])
        }
        result = AttributionResult(
            {nid: Assignment("unknown") for nid in sorted(visitors)},
            inconsistent=True,
        )
    truth_by_network = {
        user.network_id: trace.ground_truth.get(user.id, set())
        for user in scenario.users
    }
    return score_attribution(result, truth_by_network, attack.audiences)


def trace_to_json(trace: RunTrace) -> str:
    """Plain-JSON form of a trace, stable across runs of the same seed.

    The text is ``json.dumps(document, sort_keys=True) + "\\n"``, one line.
    Each record kind's field names are written once, and its records as the
    tuples they are; ``reports.hits`` as ``[window_index, deltas]`` pairs in
    window order (a list: sorted string keys would put window "10" before "9").
    The document is built fresh here and holds no cycle, so the encoder skips
    its cycle check.
    """
    document = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "impression_fields": ImpressionRecord._fields,
        "impressions": trace.impressions,
        "log_fields": VisitLogEntry._fields,
        "logs": trace.logs,
        "reports": {**trace.reports._asdict(), "hits": list(trace.reports.hits.items())},
        "ground_truth": {user: sorted(audiences) for user, audiences in trace.ground_truth.items()},
    }
    return json.dumps(document, sort_keys=True, check_circular=False) + "\n"


def apply_grid_value(document: dict, key: str, value) -> None:
    """Set one swept parameter inside a scenario document.

    ``key`` is a slash-separated path ("window_length_s",
    "campaigns/0/ad_groups/0/bid/amount").  A path that cannot be
    traversed raises, so typos do not silently sweep nothing; the only
    keys that may be introduced are top-level fields with defaults.  Each
    container along the path is replaced by a shallow copy before it is
    changed, so only ``document`` itself is changed in place: what it
    shares with another document stays as it was.  No nesting is
    recursed into, so a document of any depth can be edited.
    """
    parts = key.split("/")
    node = document
    for depth, part in enumerate(parts):
        last = depth == len(parts) - 1
        if isinstance(node, list):
            index = part.removeprefix("-")
            if not (index.isascii() and index.isdigit()
                    and -len(node) <= digits_to_int(part) < len(node)):
                raise ValidationError(f"unknown grid key {quoted(key)}")
            part = digits_to_int(part)
        elif not isinstance(node, dict) or not (
            part in node or (last and node is document and part in _SWEEPABLE_TOP_LEVEL)
        ):
            raise ValidationError(f"unknown grid key {quoted(key)}")
        if last:
            node[part] = value
        else:
            child = copy.copy(node[part])
            node[part] = child
            node = child


# What each sweep row holds after its grid keys, in ``sweep.csv`` order:
# the seed, the run's ``summary_counts`` and its impression count.
SWEEP_COLUMNS = ("seed", "exact", "ambiguous", "unknown", "accuracy", "impressions")


def sweep(
    template_document: dict,
    grid: dict[str, list],
    seeds: list[int],
) -> list[dict]:
    """Run every grid cell once; one summary row per cell and seed.

    Cells iterate in sorted-key order with values in the given order, then
    seeds in the given order, so the row sequence is reproducible.  Each
    cell's document is built and validated once, with the first seed.
    Every seed is checked by the document's seed rule before the first
    run, after the first cell's document: a loop that built each run's
    document would meet that document's errors first.

    Each cell is run once, as ``adtrap run`` runs a scenario, and its
    result fills the row of every seed.  That holds only while a row reads
    nothing the seed draws: the seed draws only ``ImpressionRecord.clicked``,
    and no row column reads it, so the rows of one cell differ only in
    ``seed``.  An empty grid yields no rows; an empty seed list is an
    error, and so is a ``seed`` grid key, since ``seeds`` sets every run's
    seed.
    """
    if not seeds:
        raise ValidationError("no seeds")
    if "seed" in grid:
        raise ValidationError(
            "grid key 'seed' is not sweepable: seeds come from the seed list (--seeds)"
        )
    if not grid:
        _check_seeds(seeds)
        return []
    keys = sorted(grid)
    rows: list[dict] = []
    # apply_grid_value copies what it changes below the top level, and
    # loading neither changes the document nor keeps a list or dict of it,
    # so one copy of the top level serves every cell.
    document = dict(template_document)
    for n, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        cell = dict(zip(keys, combo))
        for k, v in cell.items():
            apply_grid_value(document, k, v)
        document["seed"] = seeds[0]
        scenario = load_scenario_document(document)
        if n == 0:
            _check_seeds(seeds)
        trace = run_scenario(scenario)
        result = run_attack(scenario, trace)
        summary = {**summary_counts(result), "impressions": len(trace.impressions)}
        rows.extend({**cell, "seed": seed, **summary} for seed in seeds)
        log.info("sweep cell %s: accuracy=%s", cell, result.accuracy)
    return rows


def _check_seeds(seeds: list[int]) -> None:
    for seed in seeds:
        check_seed(seed)
