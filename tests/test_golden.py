"""Artifacts of every bundled scenario at its default seed, pinned by sha256.

``golden_digests.json`` holds the digest of every artifact ``adtrap run``
writes for each bundled scenario.  A change that alters an artifact on
purpose says why and regenerates the file:

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_digests.json
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from adtrap import scenarios
from adtrap.cli import run_to_directory

GOLDEN = Path(__file__).with_name("golden_digests.json")


def artifact_digests(name, out_dir):
    output = run_to_directory(name, seed=None, out_dir=str(out_dir))
    return {
        artifact: hashlib.sha256((output.out_dir / artifact).read_bytes()).hexdigest()
        for artifact in output.artifacts
    }


def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_bundled_scenario_is_pinned():
    assert sorted(golden()) == scenarios.names()


@pytest.mark.parametrize("name", scenarios.names())
def test_artifacts_match_golden_digests(name, tmp_path):
    assert artifact_digests(name, tmp_path) == golden()[name]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_artifacts_do_not_depend_on_the_hash_seed(hash_seed, tmp_path):
    # One pytest process has one string-hash seed, so the iteration order
    # of a set of strings is checked under other seeds only in new processes.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for name in scenarios.names():
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "adtrap.cli", "run", name, "--out", str(out)],
                       check=True, stdout=subprocess.DEVNULL, env=env, timeout=120)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == golden()[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: artifact_digests(name, Path(tmp) / name) for name in scenarios.names()}
    print(json.dumps(digests, indent=2, sort_keys=True))
