#!/usr/bin/env python3
"""When counters stop identifying people, and what gets them talking again.

Two visitors in the same reporting window produce a counter multiset the
attacker cannot split. A repeat visit in a later window breaks the tie;
so does giving every victim her own site. Both tricks are shown on raw
observations first, then on full scenario runs.
"""

from adtrap import scenarios
from adtrap.gdn import VisitLogEntry
from adtrap.scenario import load_scenario
from adtrap.simulation import run_attack, run_scenario
from adtrap.trap import WindowObservation, infer_audiences, render_value, summary_line


def obs(index, deltas, visitors, window=1800.0):
    visits = []
    for nid, count in sorted(visitors.items()):
        visits.extend(
            VisitLogEntry(timestamp=index * window + 10.0 * (i + 1), network_id=nid, page_id="landing")
            for i in range(count)
        )
    return WindowObservation(window_index=index, deltas=deltas, visits=tuple(visits))


def describe(result):
    for nid in sorted(result.assignments):
        a = result.assignments[nid]
        if a.status == "exact":
            print(f"  {nid}: exactly {render_value(a.audience)}")
        elif a.status == "ambiguous":
            options = " or ".join(sorted(render_value(v) for v in a.candidates))
            print(f"  {nid}: could be {options}")
        else:
            print(f"  {nid}: unknown")


def main():
    print("One window, two visitors, one sports + one pets impression:")
    tangled = [
        obs(0, {"a_sports": 1, "a_pets": 1}, {"alice": 1, "bob": 1}),
    ]
    describe(infer_audiences(tangled))

    print()
    print("Same, but alice comes back in window 1 and only sports ticks:")
    unraveled = tangled + [obs(1, {"a_sports": 1, "a_pets": 0}, {"alice": 1})]
    describe(infer_audiences(unraveled))
    print("  (bob never returned, yet the repeat visit outed him too)")

    print()
    print("Full scenario runs, five victims visiting in the same window")
    print("---------------------------------------------------------------")
    for name in ("per_victim_shared", "per_victim_dedicated"):
        scenario = load_scenario(scenarios.path(name))
        result = run_attack(scenario, run_scenario(scenario))
        sites = len(scenario.attack.sites)
        print(f"{name:22} ({sites} attacker site{'s' if sites > 1 else ''}): "
              f"{summary_line(result)}")
    print()
    print("A shared site piles co-visitors into each window; dedicated")
    print("sites make every observation a singleton, timing be damned.")


if __name__ == "__main__":
    main()
