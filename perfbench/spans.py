"""Spans recorded from outside around adtrap's public functions.

``install`` replaces each function or method named in ``_targets`` with a
wrapper that records one span per call, plus a few counts taken from the
call's arguments or result.  Spans live in memory as
``[name, parent, start, end]`` lists (``parent`` is the index of the
enclosing span, -1 at the root); all spans of one tracer share its run id.
``Tracer.dump`` writes them out once the run has ended.

Wrappers go where the engine looks names up: ``record_visit`` is imported
by name into both ``adtrap.gdn`` and ``adtrap.simulation``; ``Marketplace``
and ``SimulationEngine`` methods live on their classes; ``run_scenario``,
``run_attack`` and ``load_scenario_document`` are looked up in
``adtrap.cli`` and in ``adtrap.simulation``.

``layer_metrics`` turns one dumped run into the benchmark's per-layer
figures; ``self_times`` gives each span's duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    """Collects the spans and counts of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        document = {
            "run_id": self.run_id,
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, separators=(",", ":"))


def load_spans(path) -> tuple[list[tuple], dict[str, int]]:
    """Read a dumped run back as ``(name, parent, start, end)`` tuples."""
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    names = document["names"]
    spans = [(names[n], parent, start, end) for n, parent, start, end in document["spans"]]
    return spans, document["counts"]


def _count_log_entry(counts, args, result):
    counts["gdn.log_entries"] += result[1] is not None


def _count_candidates(counts, args, result):
    counts["marketplace.candidates"] += len(args[1])


def _count_join(counts, args, result):
    counts["trap.log_entries"] += len(args[1])
    counts["trap.windows"] += len(result)


def _count_infer(counts, args, result):
    counts["trap.visitors"] += len(result.assignments)
    for status, n in result.counts().items():
        counts[f"trap.{status}"] += n


def _targets():
    from adtrap import cli, gdn, simulation
    from adtrap.marketplace import Marketplace
    from adtrap.simulation import SimulationEngine

    return [
        (cli, "read_scenario_file", "scenario.read", None),
        (cli, "load_scenario_document", "scenario.load", None),
        (simulation, "load_scenario_document", "scenario.load", None),
        (cli, "run_to_directory", "cli.run_to_directory", None),
        (cli, "trace_to_json", "cli.trace_to_json", None),
        (cli, "sweep", "simulation.sweep", None),
        (cli, "run_scenario", "simulation.run_scenario", None),
        (simulation, "run_scenario", "simulation.run_scenario", None),
        (cli, "run_attack", "simulation.run_attack", None),
        (simulation, "run_attack", "simulation.run_attack", None),
        (SimulationEngine, "__init__", "simulation.engine_init", None),
        (SimulationEngine, "run_warmup", "simulation.warmup", None),
        (SimulationEngine, "run_attack_phase", "simulation.attack_phase", None),
        (simulation, "serve_page", "gdn.serve_page", _count_log_entry),
        (simulation, "record_visit", "profile.record_visit", None),
        (gdn, "record_visit", "profile.record_visit", None),
        (Marketplace, "eligible_ads", "marketplace.eligible_ads", None),
        (Marketplace, "run_auction", "marketplace.run_auction", _count_candidates),
        (Marketplace, "record_impression", "marketplace.record_impression", None),
        (Marketplace, "publish_reports", "marketplace.publish_reports", None),
        (simulation, "attacker_view_reports", "simulation.attacker_view", None),
        (simulation, "collect_observations", "trap.join", _count_join),
        (simulation, "infer_audiences", "trap.infer", _count_infer),
    ]


def install(tracer: Tracer):
    """Wrap every target; returns a function that puts the originals back."""
    saved = []
    for owner, attr, name, count in _targets():
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children = defaultdict(list)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][2], spans[c][3]) for c in children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def sweep_cells(spans) -> list[float]:
    """Duration of each sweep cell.

    A cell runs from the start of its scenario load to the start of the
    next cell's load; the last one ends with the sweep.  The interval
    therefore holds one load, run, inference and row, plus the next cell's
    document copy.
    """
    cells = []
    for i, (name, _, start, end) in enumerate(spans):
        if name != "simulation.sweep":
            continue
        starts = [s[2] for s in spans if s[0] == "scenario.load" and s[1] == i]
        bounds = starts + [end]
        cells.extend(b - a for a, b in zip(bounds, bounds[1:]))
    return cells


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer figures of one traced CLI invocation.

    Times are totals over the invocation (summed over cells for a sweep).
    Figures of a layer the invocation never reached read 0.
    """
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        total[name] += end - start
        self_total[name] += own
        calls[name] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    visits = calls["profile.record_visit"]
    serving = total["simulation.warmup"] + total["simulation.attack_phase"]
    auctions = calls["marketplace.run_auction"]
    cells = sweep_cells(spans)
    return {
        "scenario.load_s": total["scenario.read"] + total["scenario.load"],
        "simulation.engine_init_s": total["simulation.engine_init"],
        "simulation.warmup_s": total["simulation.warmup"],
        "simulation.attack_phase_s": total["simulation.attack_phase"],
        "simulation.events_per_s": ratio(visits, serving),
        "profile.record_visit_s": total["profile.record_visit"],
        "profile.record_visit_calls": visits,
        "profile.record_visit_us": ratio(total["profile.record_visit"] * 1e6, visits),
        "marketplace.eligible_ads_s": total["marketplace.eligible_ads"],
        "marketplace.run_auction_s": total["marketplace.run_auction"],
        "marketplace.record_impression_s": total["marketplace.record_impression"],
        "marketplace.auctions": auctions,
        "marketplace.candidates_per_auction": ratio(counts.get("marketplace.candidates", 0), auctions),
        "marketplace.fill_rate": ratio(calls["marketplace.record_impression"], auctions),
        "marketplace.publish_reports_s": total["marketplace.publish_reports"],
        "simulation.attacker_view_s": total["simulation.attacker_view"],
        "gdn.serve_page_self_s": self_total["gdn.serve_page"],
        "gdn.log_entries": counts.get("gdn.log_entries", 0),
        "trap.join_s": total["trap.join"],
        "trap.windows": counts.get("trap.windows", 0),
        "trap.log_entries": counts.get("trap.log_entries", 0),
        "trap.infer_s": total["trap.infer"],
        "trap.visitors": counts.get("trap.visitors", 0),
        "trap.exact": counts.get("trap.exact", 0),
        "trap.ambiguous": counts.get("trap.ambiguous", 0),
        "trap.unknown": counts.get("trap.unknown", 0),
        "cli.write_s": self_total["cli.run_to_directory"],
        "cli.trace_json_s": total["cli.trace_to_json"],
        "simulation.sweep_cell_s": statistics.median(cells) if cells else 0.0,
        "simulation.sweep_cell_p99_s": (
            statistics.quantiles(cells, n=100)[98] if len(cells) > 1 else 0.0
        ),
    }
