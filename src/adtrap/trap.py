"""The probing campaign and audience inference from its counters.

The attacker runs a campaign whose ads appear only on her own site, one ad
group per probed audience: :class:`AttackSpec` is that probe and
:func:`build_trap_campaign` builds its campaign for one attacker site.
The ad platform then hands her, per reporting window, how many
impressions each audience generated; her web server log tells her who
visited in the same window.  Matching the two streams turns
aggregate counters into per-visitor audience labels.

The matching problem is a constraint model: each visitor (network id) gets
one value, either a probed audience or "none", and in every window the
multiset of values carried by that window's visits must reproduce the
window's deltas.  Solving proceeds in three stages:

1. propagate forced values (a window whose remaining deltas are fully
   determined fixes its remaining visitors), repeated to a fixpoint;
2. split what is left into independent components and, for each one whose
   candidate count (the product of its visitors' domain sizes) stays within
   a cap of 10**6, enumerate every consistent assignment by a depth-first
   search: visitors take values one at a time, each window keeps its
   residual deltas and its unassigned visits up to date, and a branch is
   pruned as soon as a residual goes negative or a window's unassigned
   visits can no longer cover its residual;
3. mark visitors of any component over the cap ``unknown``; the cap is
   checked on the domain product before any search starts.

A visitor is ``exact`` when every surviving assignment agrees on her value
(which may be "none": she matched no probed audience), ``ambiguous`` when
at least two values survive.  If no assignment reproduces the counters at
all, the observations contradict the model and an
:class:`InconsistentObservationsError` is raised.

The join (:func:`collect_observations`) visits only the windows that a
counted impression or a log entry hit: any other window has no visits
and counted nothing, so it constrains nothing and the solver never sees
it.  Counter reports arrive as :class:`~adtrap.marketplace.CounterReports`
of non-zero deltas only, so the join's work follows the impressions and
visits, not the number of windows or audiences.

Everything here consumes attacker-visible data only: counter reports and
site logs.  Profiles, cookies and impression records never enter.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from .errors import InconsistentObservationsError, ValidationError, checked
from .gdn import VisitLogEntry, Website
from .marketplace import AdGroup, Bid, Campaign, CounterReports, window_index

# Sentinel meaning "this visitor matched no probed audience".  Kept as
# Python None internally; rendered as the string "none" at the edges.
NO_AUDIENCE = None

# Largest candidate count (product of the visitors' domain sizes) a
# component is searched for.  It is checked before the pruned depth-first
# search starts, so a larger component comes out unknown without any search.
_EXHAUSTIVE_LIMIT = 10**6


class AttackSpec(NamedTuple):
    """The probing side of a scenario.

    ``sites`` lists the attacker sites carrying probe ads (one campaign is
    built per site; one site per victim is expressed by listing several).
    ``extra_placement_sites`` widens every probe ad group's placement
    beyond the attacker sites; that is a deliberate foot-gun used to study
    what happens when placement exclusivity is broken.
    """

    sites: tuple[str, ...]
    audiences: tuple[str, ...]
    cpm: float
    budget: float = 1_000_000.0
    extra_placement_sites: tuple[str, ...] = ()


@checked
class WindowObservation(NamedTuple):
    """Attacker-side join of one reporting window with the matching log slice;
    an audience absent from ``deltas`` counted 0 in the window."""

    window_index: int
    deltas: dict[str, int]
    visits: tuple[VisitLogEntry, ...]

    def _check(self):
        for audience, n in self.deltas.items():
            if type(n) is not int:
                raise ValidationError(
                    f"delta {n!r} for audience {audience!r} in window "
                    f"{self.window_index} is not an integer"
                )
            if n < 0:
                raise ValidationError(
                    f"negative delta {n} for audience {audience!r} in window "
                    f"{self.window_index}"
                )


class Assignment(NamedTuple):
    """Outcome for one visitor.

    ``status`` is ``"exact"``, ``"ambiguous"`` or ``"unknown"``.  For exact,
    ``audience`` holds the probed audience id, or None when the visitor
    provably matched no probed audience.  For ambiguous, ``candidates``
    holds every surviving value (two or more; may include None).
    """

    status: str
    audience: str | None = None
    candidates: frozenset = frozenset()


class AttributionResult(NamedTuple):
    """Every visitor's :class:`Assignment`, and once scored, which were correct."""

    assignments: dict[str, Assignment]
    accuracy: float | None = None
    correct: Mapping[str, bool] = MappingProxyType({})
    inconsistent: bool = False

    # A read-only view cannot be copied or pickled, so a copy holds ``correct`` as a dict.
    def __reduce__(self):
        return AttributionResult, (*self[:2], dict(self.correct), self.inconsistent)

    def counts(self) -> dict[str, int]:
        tally = {"exact": 0, "ambiguous": 0, "unknown": 0}
        for a in self.assignments.values():
            tally[a.status] += 1
        return tally


# Every probe campaign, group and ad id starts with this; no scenario campaign id may.
PROBE_ID_PREFIX = "trap_"


def probe_campaign_id(site_id: str) -> str:
    """Id of the probing campaign :func:`build_trap_campaign` builds for a site."""
    return f"{PROBE_ID_PREFIX}{site_id}"


def check_probe_site(website: Website) -> None:
    """Raise unless ``website`` may carry probe ads: attacker-owned and logging visits."""
    if website.owner != "attacker":
        raise ValidationError(f"website {website.id!r} is not attacker-owned")
    if not website.logging:
        raise ValidationError(f"website {website.id!r} does not log visits")


def build_trap_campaign(attack: AttackSpec, website: Website) -> Campaign:
    """One campaign, one ad group per probed audience, on one attacker site.

    The exclusive placement is what makes every counter increment
    correspond to a logged visit; the builder refuses sites that are not
    attacker-owned or do not log.  Only ``extra_placement_sites`` widens it.
    """
    if website.id not in attack.sites:
        raise ValidationError(f"website {website.id!r} is not one of the attack sites")
    check_probe_site(website)
    campaign_id = probe_campaign_id(website.id)
    bid = Bid("CPM", attack.cpm)
    placement = frozenset({website.id, *attack.extra_placement_sites})
    groups = []
    for audience in attack.audiences:
        probe_id = f"{campaign_id}_{audience}"
        groups.append(AdGroup(probe_id, (probe_id,), frozenset({audience}), bid, placement))
    return Campaign(id=campaign_id, ad_groups=tuple(groups), total_budget=attack.budget)


def collect_observations(
    reports: CounterReports, log_entries: list[VisitLogEntry]
) -> list[WindowObservation]:
    """Join counter reports with log entries window by window.

    Each entry goes to the window :func:`~adtrap.marketplace.window_index`
    gives its timestamp, the same rule the platform batches impressions
    by; entries outside the reports' ``num_windows`` windows are dropped.
    Every window that holds an entry or a counted impression gets one
    observation, in window order, with the non-zero deltas the reports
    hold; the others constrain nothing.
    """
    window_length, num_windows = reports.window_length, reports.num_windows
    buckets: dict[int, list[VisitLogEntry]] = {}
    for entry in log_entries:
        k = window_index(entry.timestamp, window_length)
        if 0 <= k < num_windows:
            buckets.setdefault(k, []).append(entry)
    return [
        WindowObservation(k, dict(reports.hits.get(k, ())), tuple(buckets.get(k, ())))
        for k in sorted(buckets.keys() | reports.hits.keys())
    ]


class _Window:
    """Mutable solver view of one observation: unfixed visit counts and
    the residual deltas still unexplained."""

    __slots__ = ("index", "counts", "resid")

    def __init__(self, obs: WindowObservation):
        self.index = obs.window_index
        counts: dict[str, int] = {}
        for v in obs.visits:
            counts[v.network_id] = counts.get(v.network_id, 0) + 1
        self.counts = counts
        self.resid = {a: n for a, n in obs.deltas.items() if n > 0}


def _inconsistent(window: _Window, why: str) -> InconsistentObservationsError:
    return InconsistentObservationsError(
        f"inconsistent observations in window {window.index}: {why}"
    )


def infer_audiences(observations: list[WindowObservation]) -> AttributionResult:
    """Solve the visitor/counter constraint model.

    Deterministic: equal observations give equal results, whatever the
    input order.  Raises :class:`InconsistentObservationsError` when no
    assignment reproduces the counters.  Every observation given becomes
    a window of the model; one with no visits and only zero deltas
    changes no result, and :func:`collect_observations` builds none.
    """
    windows = [_Window(obs) for obs in observations]
    visitor_windows: dict[str, list[_Window]] = {}
    for w in windows:
        for nid in w.counts:
            visitor_windows.setdefault(nid, []).append(w)

    fixed: dict[str, str | None] = {}

    def fix(nid: str, value: str | None) -> None:
        fixed[nid] = value
        for w in visitor_windows[nid]:
            k = w.counts.pop(nid)
            if value is NO_AUDIENCE:
                continue
            have = w.resid.get(value, 0)
            if have < k:
                raise _inconsistent(
                    w, f"visitor {nid!r} needs {k} x {value!r} but only {have} remain"
                )
            if have == k:
                del w.resid[value]
            else:
                w.resid[value] = have - k

    # Stage 1: propagate forced values to a fixpoint.
    changed = True
    while changed:
        changed = False
        for w in windows:
            total_resid = sum(w.resid.values())
            if not w.counts:
                if total_resid:
                    raise _inconsistent(w, "deltas remain but no visits are left")
                continue
            if total_resid == 0:
                # Nothing left to explain: everyone here matched no
                # probed audience.
                for nid in list(w.counts):
                    fix(nid, NO_AUDIENCE)
                changed = True
            elif len(w.counts) == 1:
                (nid, k), = w.counts.items()
                if len(w.resid) == 1 and total_resid == k:
                    (audience, _), = w.resid.items()
                    fix(nid, audience)
                    changed = True
                else:
                    # One visitor contributes either nothing or exactly
                    # her visit count to a single audience.
                    raise _inconsistent(
                        w, f"visitor {nid!r} cannot produce deltas {w.resid}"
                    )
            elif len(w.resid) == 1 and total_resid == sum(w.counts.values()):
                (audience, _), = w.resid.items()
                for nid in list(w.counts):
                    fix(nid, audience)
                changed = True

    assignments: dict[str, Assignment] = {}
    for nid, value in fixed.items():
        assignments[nid] = Assignment("exact", audience=value)

    # Stage 2: independent components of the remaining visitors.  Two
    # visitors are linked when they share a window, so components can be
    # enumerated separately.
    remaining = sorted(nid for nid in visitor_windows if nid not in fixed)
    unresolved = set(remaining)
    while unresolved:
        seed_nid = min(unresolved)
        component = {seed_nid}
        frontier = [seed_nid]
        while frontier:
            nid = frontier.pop()
            for w in visitor_windows[nid]:
                for other in w.counts:
                    if other in unresolved and other not in component:
                        component.add(other)
                        frontier.append(other)
        unresolved -= component
        _solve_component(sorted(component), visitor_windows, assignments)

    return AttributionResult(assignments)


def _solve_component(
    members: list[str],
    visitor_windows: dict[str, list[_Window]],
    assignments: dict[str, Assignment],
) -> None:
    # Per-visitor domains: "none" always fits; an audience fits only if
    # every window the visitor appears in has enough residual delta to
    # absorb all her visits there.
    domains: list[list[str | None]] = []
    for nid in members:
        feasible: list[str | None] = [NO_AUDIENCE]
        candidates: set[str] = set()
        for w in visitor_windows[nid]:
            candidates |= set(w.resid)
        for audience in sorted(candidates):
            if all(
                w.resid.get(audience, 0) >= w.counts[nid]
                for w in visitor_windows[nid]
            ):
                feasible.append(audience)
        domains.append(feasible)

    size = 1
    for dom in domains:
        size *= len(dom)
        if size > _EXHAUSTIVE_LIMIT:
            for nid in members:
                assignments[nid] = Assignment("unknown")
            return

    # Search state per window of the component: the residual per audience,
    # their total, and the visits not yet assigned.  Windows are keyed by
    # identity: several attacker sites share indices.
    windows = dict.fromkeys(w for nid in members for w in visitor_windows[nid])
    slot = {w: j for j, w in enumerate(windows)}
    resid = [dict(w.resid) for w in windows]
    need = [sum(r.values()) for r in resid]
    left = [sum(w.counts.values()) for w in windows]
    visits = [[(slot[w], w.counts[nid]) for w in visitor_windows[nid]] for nid in members]

    # A visitor whose domain is "none" alone takes it up front, so the
    # search recurses only through the others: fewer than 20, as 2**20
    # exceeds the cap.
    free = [(i, dom, visits[i]) for i, dom in enumerate(domains) if len(dom) > 1]
    for i, dom in enumerate(domains):
        if len(dom) == 1:
            for j, k in visits[i]:
                left[j] -= k
    chosen: list[str | None] = [NO_AUDIENCE] * len(members)
    survivors: list[set] = [set() for _ in members]

    # Up-front visitors can leave a window unable to cover its residual,
    # which the search only checks for the windows it touches.
    if all(n <= m for n, m in zip(need, left)):
        _search(0, free, chosen, resid, need, left, survivors)
    if not survivors[0]:
        raise InconsistentObservationsError(
            "inconsistent observations: no audience assignment reproduces the "
            f"counters for visitors {members}"
        )
    for nid, values in zip(members, survivors):
        if len(values) == 1:
            assignments[nid] = Assignment("exact", audience=next(iter(values)))
        else:
            assignments[nid] = Assignment("ambiguous", candidates=frozenset(values))


def _search(
    depth: int,
    free: list[tuple[int, list[str | None], list[tuple[int, int]]]],
    chosen: list[str | None],
    resid: list[dict[str, int]],
    need: list[int],
    left: list[int],
    survivors: list[set],
) -> None:
    """Try each value of ``free[depth]``'s visitor, then go one deeper.

    ``free`` lists each searched visitor's index, domain and (window slot,
    visit count) pairs; the other arguments are :func:`_solve_component`'s
    search state, whose ``resid``, ``need`` and ``left`` are as they were
    on return.  It is not a closure: a closure that calls itself is a
    reference cycle, which the command line leaves for a collector it
    pauses.
    """
    if depth == len(free):
        # Every visit is assigned and no residual is negative or left
        # uncovered, so every window's deltas are reproduced exactly.
        for seen, value in zip(survivors, chosen):
            seen.add(value)
        return
    i, domain, visits = free[depth]
    for value in domain:
        chosen[i] = value
        fits = True
        for j, k in visits:
            left[j] -= k
            if value is not NO_AUDIENCE:
                resid[j][value] -= k
                need[j] -= k
                fits = fits and resid[j][value] >= 0
            fits = fits and need[j] <= left[j]
        if fits:
            _search(depth + 1, free, chosen, resid, need, left, survivors)
        for j, k in visits:
            left[j] += k
            if value is not NO_AUDIENCE:
                resid[j][value] += k
                need[j] += k


def score_attribution(
    result: AttributionResult,
    truth_by_network: dict[str, set[str]],
    probed_audiences,
) -> AttributionResult:
    """Fill in accuracy against ground truth (evaluator side, not attacker).

    An exact assignment is correct when its audience really belongs to the
    visitor's probed audiences, or, for "none", when the visitor genuinely
    had no probed audience.  Ambiguous and unknown assignments never count
    as correct.  Accuracy is None when there are no assignments at all.
    """
    probed = set(probed_audiences)
    correct: dict[str, bool] = {}
    for nid, assignment in result.assignments.items():
        truth = set(truth_by_network.get(nid, set())) & probed
        if assignment.status == "exact":
            if assignment.audience is NO_AUDIENCE:
                correct[nid] = not truth
            else:
                correct[nid] = assignment.audience in truth
        else:
            correct[nid] = False
    accuracy = None
    if correct:
        accuracy = sum(correct.values()) / len(correct)
    return result._replace(accuracy=accuracy, correct=correct)


class GroupStats(NamedTuple):
    """Population split between two probed audiences.

    ``fraction`` is count_x / (count_x + count_y), or None when no
    impression hit either audience ("undefined" is not the same as zero).
    """

    audience_x: str
    audience_y: str
    count_x: int
    count_y: int
    fraction: float | None


def group_statistics(
    reports: CounterReports,
    audience_x: str,
    audience_y: str,
) -> GroupStats:
    """Aggregate split of a visitor population between two audiences.

    Needs no join and no per-visitor inference at all: summing the
    reports' deltas is enough, which is what makes group-level profiling
    so much cheaper than individual attribution.  An audience outside
    ``reports.audience_ids`` was not probed and raises
    :class:`ValidationError`, even when nothing was counted.
    """
    if audience_x == audience_y:
        raise ValidationError("the two audiences must differ")
    for audience in (audience_x, audience_y):
        if audience not in reports.audience_ids:
            raise ValidationError(f"audience {audience!r} was not probed")
    count_x = sum(deltas.get(audience_x, 0) for deltas in reports.hits.values())
    count_y = sum(deltas.get(audience_y, 0) for deltas in reports.hits.values())
    total = count_x + count_y
    fraction = count_x / total if total else None
    return GroupStats(audience_x, audience_y, count_x, count_y, fraction)


def render_value(value: str | None) -> str:
    """External spelling of an assignment value ("none" for no audience)."""
    return value if value is not None else "none"


def summary_counts(result: AttributionResult) -> dict:
    counts = result.counts()
    counts["accuracy"] = result.accuracy
    return counts


def summary_line(result: AttributionResult) -> str:
    """The one-line digest printed after a run."""
    counts = result.counts()
    accuracy = "undefined" if result.accuracy is None else f"{result.accuracy:.4f}"
    return (
        f"exact={counts['exact']} ambiguous={counts['ambiguous']} "
        f"unknown={counts['unknown']} accuracy={accuracy}"
    )
