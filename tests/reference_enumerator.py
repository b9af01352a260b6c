"""The solver's former stage-2 enumerator, kept as a reference for tests.

``solve_component`` is the product-loop ``trap._solve_component`` that the
pruned depth-first search replaced: it scores every combination of the
visitors' domains against every window of the component in full.  Tests
swap it in for the production search (same signature, same writes to
``assignments``, same errors) and compare the two results.
"""

import itertools
from collections import Counter

from adtrap.errors import InconsistentObservationsError
from adtrap.trap import _EXHAUSTIVE_LIMIT, NO_AUDIENCE, Assignment


def solve_component(members, visitor_windows, assignments):
    # Per-visitor domains: "none" always fits; an audience fits only if
    # every window the visitor appears in has enough residual delta to
    # absorb all her visits there.
    domains = []
    for nid in members:
        feasible = [NO_AUDIENCE]
        candidates = set()
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

    # Windows are keyed by identity: several attacker sites share indices.
    component_windows = dict.fromkeys(w for nid in members for w in visitor_windows[nid])
    targets = [(w, Counter(w.resid)) for w in component_windows]

    survivors = [set() for _ in members]
    position = {nid: i for i, nid in enumerate(members)}
    any_consistent = False
    for combo in itertools.product(*domains):
        ok = True
        for w, expected in targets:
            produced = Counter()
            for nid, k in w.counts.items():
                value = combo[position[nid]]
                if value is not NO_AUDIENCE:
                    produced[value] += k
            if produced != expected:
                ok = False
                break
        if ok:
            any_consistent = True
            for i, value in enumerate(combo):
                survivors[i].add(value)
    if not any_consistent:
        raise InconsistentObservationsError(
            "inconsistent observations: no audience assignment reproduces the "
            f"counters for visitors {members}"
        )
    for nid, values in zip(members, survivors):
        if len(values) == 1:
            assignments[nid] = Assignment("exact", audience=next(iter(values)))
        else:
            assignments[nid] = Assignment("ambiguous", candidates=frozenset(values))
