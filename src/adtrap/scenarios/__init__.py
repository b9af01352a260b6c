"""Bundled scenario files, addressable by bare name from the CLI and tests.

They are package data beside this module, read as plain files: on Python
3.12 ``importlib.resources`` alone would import ``inspect`` and
``tempfile`` into every invocation.
"""

from __future__ import annotations

import json
from pathlib import Path

_ROOT = Path(__file__).parent


def names() -> list[str]:
    """Bare names of every bundled scenario."""
    return sorted(entry.stem for entry in _ROOT.glob("*.json"))


def path(name: str) -> Path:
    """Filesystem path of a bundled scenario."""
    resource = _ROOT / f"{name}.json"
    if not resource.is_file():
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return resource


def load(name: str) -> dict:
    """Parsed (but unvalidated) document of a bundled scenario."""
    return json.loads((_ROOT / f"{name}.json").read_text(encoding="utf-8"))
