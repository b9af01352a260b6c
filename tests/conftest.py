"""Shared fixtures for the test suite."""

import copy
import functools
import importlib.util
import random
import sys
from pathlib import Path
from unittest import mock

import pytest

from adtrap.errors import ValidationError
from adtrap.gdn import VisitLogEntry
from adtrap.scenario import load_scenario_document, load_taxonomy
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


def base_document():
    """A valid scenario: two websites, a rival campaign, one user and an attack."""
    return {
        "spec_version": 1,
        "seed": 42,
        "window_length_s": 1800,
        "horizon_s": 3600,
        "taxonomy": copy.deepcopy(SMALL_TAXONOMY_DOC),
        "websites": [
            {
                "id": "monads",
                "domain": "monads.example",
                "owner": "attacker",
                "logging": True,
                "pages": [{"id": "landing", "topics": ["t_soccer"]}],
            },
            {
                "id": "kickoff",
                "domain": "kickoff.example",
                "owner": "third-party",
                "logging": False,
                "pages": [{"id": "fixtures", "topics": ["t_soccer", "t_tennis"]}],
            },
        ],
        "campaigns": [
            {
                "id": "rival",
                "total_budget": 100.0,
                "ad_groups": [
                    {
                        "id": "rival_g",
                        "ads": [{"id": "rival_ad"}],
                        "target_audiences": ["a_sports"],
                        "bid": {"kind": "CPM", "amount": 10.0},
                        "placement": [],
                    }
                ],
            }
        ],
        "users": [
            {
                "id": "u1",
                "cookie_id": "dc-u1",
                "network_id": "203.0.113.1",
                "warmup_plan": [{"page": "fixtures"}, {"page": "fixtures"}],
                "attack_visits": [{"site": "monads", "t": 300.0}],
            }
        ],
        "attack": {
            "sites": ["monads"],
            "audiences": ["a_sports", "a_pets"],
            "cpm": 50.0,
        },
    }


def reject(doc, pointer):
    """The loader's error for ``doc``, which must point at ``pointer``."""
    with pytest.raises(ValidationError) as err:
        load_scenario_document(doc)
    assert err.value.pointer == pointer, str(err.value)
    return err.value


def reject_value(pointer, value):
    """The loader's error for :func:`base_document` with ``value`` set at
    ``pointer``, making any object missing on the way; it must point there."""
    doc = base_document()
    *steps, key = pointer.split("/")[1:]
    node = doc
    for step in steps:
        node = node[int(step)] if isinstance(node, list) else node.setdefault(step, {})
    node[key] = value
    return reject(doc, pointer)


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
