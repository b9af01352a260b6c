"""Shared fixtures for the test suite."""

import functools
import importlib.util
import random
import sys
from pathlib import Path
from unittest import mock

import pytest

from adtrap.gdn import VisitLogEntry
from adtrap.scenario import load_taxonomy
from adtrap.trap import WindowObservation


@functools.cache
def benchmark_inputs():
    """perfbench's ``generate`` and ``WORKLOADS``, imported by path, as the
    benchmark runs them; ``sys.modules`` is left as it was."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    with mock.patch.dict(sys.modules):
        for name in ("scenario_gen", "workloads"):
            spec = importlib.util.spec_from_file_location(name, perfbench / f"{name}.py")
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        return sys.modules["scenario_gen"].generate, sys.modules["workloads"].WORKLOADS


SMALL_TAXONOMY_DOC = {
    "topics": [
        {"id": "t_soccer", "name": "Soccer"},
        {"id": "t_tennis", "name": "Tennis"},
        {"id": "t_dogs", "name": "Dogs"},
        {"id": "t_recipes", "name": "Recipes"},
    ],
    "interests": [
        {"id": "i_soccer", "name": "Soccer", "source_topics": ["t_soccer"]},
        {"id": "i_tennis", "name": "Tennis", "source_topics": ["t_tennis"]},
        {"id": "i_dogs", "name": "Dogs", "source_topics": ["t_dogs"]},
        {"id": "i_cooking", "name": "Cooking", "source_topics": ["t_recipes"]},
    ],
    "audiences": [
        {
            "id": "a_sports",
            "name": "Sports Fans",
            "qualifying_interests": ["i_soccer", "i_tennis"],
            "qualify_rule": 1,
        },
        {
            "id": "a_pets",
            "name": "Pet Lovers",
            "qualifying_interests": ["i_dogs"],
            "qualify_rule": 1,
        },
        {
            "id": "a_cooks",
            "name": "Cooking Enthusiasts",
            "qualifying_interests": ["i_cooking"],
            "qualify_rule": 1,
        },
    ],
}


@pytest.fixture
def small_taxonomy():
    return load_taxonomy(SMALL_TAXONOMY_DOC)


@pytest.fixture
def rng():
    return random.Random(0xAD7)


def make_observation(index, deltas, visitors, window_length=100.0):
    """Build a WindowObservation from compact inputs.

    `visitors` maps network id to visit count within the window.
    """
    start = index * window_length
    visits = []
    for nid in sorted(visitors):
        for j in range(visitors[nid]):
            visits.append(
                VisitLogEntry(
                    timestamp=start + j + 0.5,
                    network_id=nid,
                    page_id="landing",
                )
            )
    return WindowObservation(window_index=index, deltas=dict(deltas), visits=tuple(visits))
