"""The benchmark's workloads: why each exists and how its input is made.

``ecosystem`` and ``crowded`` are generated by ``scenario_gen`` from the
parameters below and the run's seed.  ``sweep`` runs the bundled
``table2_experiment`` template over a fixed grid of window lengths with a
seed list derived from the run's seed; its outcomes depend on the window
length only, the seed drives click sampling.
"""

from __future__ import annotations

from scenario_gen import GenParams

WORKLOADS = {
    "ecosystem": {
        "why": (
            "The simulator is the bottleneck: rich warm-ups and third-party "
            "revisits drive profile updates and auctions among many rivals, "
            "while attacker-site visitors are mostly alone in their window, so "
            "the join and the solver stay nearly idle."
        ),
        "command": "run",
        "params": GenParams(
            audiences=40,
            probed=12,
            topics_per_audience=3,
            sites=40,
            pages_per_site=6,
            audiences_per_site=4,
            rivals=60,
            rival_sites=(3, 12),
            users=400,
            favourite_sites=(2, 4),
            warmup_visits=(10, 20),
            revisits=(4, 10),
            solo_visitors=80,
            solo_visits=(1, 2),
            pair_windows=10,
            cohorts=0,
            cohort_size=6,
            cohort_values=3,
            crowds=0,
            crowd_size=10,
            crowd_values=4,
            windows=400,
        ),
    },
    "crowded": {
        "why": (
            "The attacker side is the bottleneck: thousands of attacker-site "
            "visits over thousands of windows load the report/log join and "
            "propagation, cohorts make stage-2 enumeration do real work, and "
            "crowds exceed the enumeration cap and come out unknown. Short "
            "warm-ups and three rivals keep profile and marketplace light."
        ),
        "command": "run",
        "params": GenParams(
            audiences=8,
            probed=6,
            topics_per_audience=2,
            sites=8,
            pages_per_site=4,
            audiences_per_site=3,
            rivals=3,
            rival_sites=(2, 4),
            users=2000,
            favourite_sites=(1, 1),
            warmup_visits=(1, 2),
            revisits=(0, 1),
            solo_visitors=1700,
            solo_visits=(1, 2),
            pair_windows=300,
            cohorts=25,
            cohort_size=5,
            cohort_values=3,
            crowds=3,
            crowd_size=10,
            crowd_values=4,
            windows=3200,
        ),
    },
    "sweep": {
        "why": (
            "Many small runs: per-cell fixed cost (deepcopy, validation, engine "
            "construction, report building) dominates and no per-run artifacts "
            "are written, so moving work into load time or parallelising the "
            "sweep shows here first."
        ),
        "command": "sweep",
        "template": "table2_experiment",
        "grid": "window_length_s=300,600,900,1200,1800,3600",
        "seeds_per_run": 60,
    },
}


def sweep_seeds(workload: dict, seed: int) -> list[int]:
    """The sweep's seed list for one benchmark seed; same seed, same list."""
    n = workload["seeds_per_run"]
    return [seed * n + i for i in range(n)]
