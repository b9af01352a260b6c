"""Reference solver for membership inference, used only by tests.

Enumerates every possible assignment of visitors to audiences over the
whole observation list at once.  No propagation, no decomposition, no
cleverness: for each candidate assignment, replay the counters per
window and keep the assignment iff every window matches exactly.  This
is exponential in the number of visitors and only usable on the small
instances the test generator produces, which is the point: it shares no
code or structure with the production solver.
"""

from collections import Counter
from itertools import product


def solve(observations):
    """Return ("inconsistent", None) or ("ok", {network_id: set of values}).

    A value is either an audience id or None (the visitor belongs to no
    probed audience).  The per-visitor set collects the values that
    visitor takes across all globally consistent assignments.
    """
    visitors = sorted({v.network_id for obs in observations for v in obs.visits})
    audiences = sorted({a for obs in observations for a in obs.deltas})
    values = [None] + audiences
    expected = [Counter({a: n for a, n in obs.deltas.items() if n > 0}) for obs in observations]
    seen = {nid: set() for nid in visitors}
    found_any = False
    for combo in product(values, repeat=len(visitors)):
        assignment = dict(zip(visitors, combo))
        if all(
            _window_matches(obs, counts, assignment)
            for obs, counts in zip(observations, expected)
        ):
            found_any = True
            for nid, value in assignment.items():
                seen[nid].add(value)
    if not found_any:
        return "inconsistent", None
    return "ok", seen


def _window_matches(obs, expected, assignment):
    produced = Counter()
    for visit in obs.visits:
        value = assignment[visit.network_id]
        if value is not None:
            produced[value] += 1
    return produced == expected


def classify(observations):
    """Map solve() output onto (status, audience-or-candidates) per visitor.

    Returns ("inconsistent", None) or ("ok", {network_id: (status, payload)})
    where payload is the single value for "exact" or a frozenset for
    "ambiguous".
    """
    status, seen = solve(observations)
    if status == "inconsistent":
        return "inconsistent", None
    out = {}
    for nid, values in seen.items():
        if len(values) == 1:
            out[nid] = ("exact", next(iter(values)))
        else:
            out[nid] = ("ambiguous", frozenset(values))
    return "ok", out
