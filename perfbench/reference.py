"""Fixed reference work, timed next to each measurement to rescale it.

The host the benchmark was written on is shared, and its speed for this
kind of code drifts by up to 1.7x within minutes.  The benchmark therefore
times this work, which does not depend on adtrap, next to every timed
invocation and every set-up repeat, and reports each time as a multiple of
it (see ``run.at_reference_speed``).  The work is pure Python of the same
flavour as adtrap's (dict, list and string building, seeded ``random``
calls, JSON round trips, deep copies): it generates scenario documents,
serialises and parses them, and copies them.

``python3 perfbench/reference.py`` runs ``CHILD_ROUNDS`` rounds in a fresh
interpreter, the way the CLI is run.
"""

import copy
import json

from scenario_gen import generate, to_json
from workloads import WORKLOADS

# The crowded workload's documents; changing its parameters changes the
# reference, like any other change to the benchmark.
PARAMS = WORKLOADS["crowded"]["params"]
CHILD_ROUNDS = 4


def work(rounds: int = 1) -> int:
    size = 0
    for seed in range(rounds):
        document = generate(PARAMS, seed)
        size += len(json.loads(to_json(document))["users"]) + len(copy.deepcopy(document))
    return size


if __name__ == "__main__":
    work(CHILD_ROUNDS)
