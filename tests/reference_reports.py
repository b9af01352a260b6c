"""Dense reports, dense report batching and the dense join, kept as references for tests.

``build_reports`` builds one zero counter per window up front and then
counts every impression into it; ``collect_observations`` builds one
observation per reported window, empty windows included.  Both are the
implementations the single-pass batching and the sparse join replaced,
copied unchanged.  ``dense`` expands a sparse ``CounterReports`` record
to one report per window with a delta for every audience, the form
``trace.json`` and ``reports.csv`` once wrote.  Tests compare production
with them on the dense view: the expansion of a production record must
give the reports built here, the production join over the sparse record
must equal this join over the dense view with every window that has no
visits and only zero deltas left out and every zero delta dropped, and
the sparse ``reports.csv`` rows must be the dense rows with a non-zero
delta.  A repeated audience id is added twice into
``cumulative`` here, so tests pass each id once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from adtrap.errors import ValidationError
from adtrap.gdn import VisitLogEntry
from adtrap.marketplace import CounterReports, ImpressionRecord, window_index
from adtrap.trap import WindowObservation


@dataclass(frozen=True)
class AudienceCounterReport:
    """One reporting window of per-audience impression counters.

    ``deltas`` counts the impressions whose timestamp ``t`` has
    ``window_index(t, W) == window_index``, that is ``floor(t / W)``;
    ``window_start`` and ``window_end`` are the nominal bounds ``k * W``
    and ``(k + 1) * W``.  ``cumulative`` is the prefix sum over this and
    all earlier windows.
    """

    window_index: int
    window_start: float
    window_end: float
    deltas: dict[str, int]
    cumulative: dict[str, int]


def dense(counters: CounterReports) -> list[AudienceCounterReport]:
    """One report per window, in order, with the all-zero windows and the
    absent audiences' zero deltas filled in.

    ``cumulative`` carries the running totals forward; every report gets
    its own ``deltas`` and ``cumulative`` dicts.
    """
    running = dict.fromkeys(counters.audience_ids, 0)
    reports = []
    for k in range(counters.num_windows):
        held = counters.hits.get(k, {})
        deltas = {a: held.get(a, 0) for a in counters.audience_ids}
        for a, n in deltas.items():
            running[a] += n
        reports.append(
            AudienceCounterReport(
                window_index=k,
                window_start=k * counters.window_length,
                window_end=(k + 1) * counters.window_length,
                deltas=deltas,
                cumulative=running.copy(),
            )
        )
    return reports


def report_rows(reports: list[AudienceCounterReport]) -> list[tuple]:
    """The dense ``reports.csv`` rows: one per window and audience, zero deltas included."""
    return [
        (r.window_index, r.window_start, r.window_end, a, r.deltas[a], r.cumulative[a])
        for r in reports
        for a in sorted(r.deltas)
    ]


def build_reports(
    impressions: Iterable[ImpressionRecord],
    window_length: float,
    num_windows: int,
    audience_ids: list[str],
    campaign_id: str | None = None,
) -> list[AudienceCounterReport]:
    """Batch impressions into per-window audience counters.

    Every window in range gets a report, including all-zero ones, keyed
    over exactly ``audience_ids``.  When ``campaign_id`` is given, only
    that campaign's impressions are counted: this is the advertiser-facing
    view, since each advertiser sees counters for her own campaigns only.
    """
    if window_length <= 0:
        raise ValidationError(f"window length must be positive, got {window_length!r}")
    audience_ids = sorted(audience_ids)
    deltas = [dict.fromkeys(audience_ids, 0) for _ in range(num_windows)]
    for record in impressions:
        if campaign_id is not None and record.campaign_id != campaign_id:
            continue
        k = window_index(record.timestamp, window_length)
        if 0 <= k < num_windows and record.audience_id in deltas[k]:
            deltas[k][record.audience_id] += 1
    reports: list[AudienceCounterReport] = []
    running = dict.fromkeys(audience_ids, 0)
    for k in range(num_windows):
        for a in audience_ids:
            running[a] += deltas[k][a]
        reports.append(
            AudienceCounterReport(
                window_index=k,
                window_start=k * window_length,
                window_end=(k + 1) * window_length,
                deltas=deltas[k],
                cumulative=dict(running),
            )
        )
    return reports


def collect_observations(
    reports: list[AudienceCounterReport],
    log_entries: list[VisitLogEntry],
    window_length: float,
) -> list[WindowObservation]:
    """Join counter reports with log entries window by window.

    Each entry goes to the window :func:`~adtrap.marketplace.window_index`
    gives its timestamp, the same rule the platform batches impressions
    by.  Entries outside every reported window are dropped.  Duplicate
    window indices in the reports are rejected.
    """
    buckets: dict[int, list[VisitLogEntry]] = {}
    for entry in log_entries:
        buckets.setdefault(window_index(entry.timestamp, window_length), []).append(entry)
    seen: set[int] = set()
    observations = []
    for report in sorted(reports, key=lambda r: r.window_index):
        if report.window_index in seen:
            raise ValidationError(f"duplicate report window index {report.window_index}")
        seen.add(report.window_index)
        observations.append(
            WindowObservation(
                window_index=report.window_index,
                deltas=dict(report.deltas),
                visits=tuple(buckets.get(report.window_index, ())),
            )
        )
    return observations

