"""Every script in demos/ runs to completion: exit status 0, empty stderr,
and stdout byte-identical to its pinned sha256 digest.  So does every
fenced ``python`` block in README.md, printing what README says it prints.

A change that alters what a demo prints says why and replaces
``STDOUT_SHA256`` below with what this prints:

    PYTHONPATH=src python3 tests/test_demos.py
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.
STDOUT_SHA256 = {
    "ambiguity_and_elimination": "492f3b0182542bd7b2bf1efc908eeb2b8c1ea4fd8d6139e5cc3a09a2498bed6d",
    "countermeasure_knobs": "e837ccdc110f589ca97968e71337c9452c1dd281b809de0720f4a7b81222cdb5",
    "ecosystem_tour": "5baf2d88e763e0362803a4b2c5ad3f04fa078a66a5e8edad17dfc4920510354f",
    "victim_roundup": "c09b5aca03b7f63853b91651694713e149d9918d52da24897a801e1fd7745800",
}


def test_demos_exist():
    assert len(DEMOS) == 4
    assert {demo.stem for demo in DEMOS} == set(STDOUT_SHA256)


def run_demo(demo, cwd):
    env = {k: v for k, v in os.environ.items() if k != "ADTRAP_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=60,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]


# Each fenced python block of README.md, dedented (one sits in a list
# item), with the output README quotes for it after "this prints", if any.
README_BLOCKS = [
    (textwrap.dedent(match["code"]), match["prints"] and " ".join(match["prints"].split()))
    for match in re.finditer(
        r"(?:this prints\s+`(?P<prints>[^`]*)`:\n\n)?^(?P<indent> *)```python\n"
        r"(?P<code>.*?)^(?P=indent)```$",
        (ROOT / "README.md").read_text(encoding="utf-8"),
        re.M | re.S,
    )
]


def test_readme_has_its_python_blocks():
    assert len(README_BLOCKS) == 2
    assert [prints is not None for _, prints in README_BLOCKS] == [True, False]


@pytest.mark.parametrize("code, prints", README_BLOCKS, ids=["group_statistics", "library_use"])
def test_readme_block_runs_cleanly(code, prints, tmp_path):
    script = tmp_path / "block.py"
    script.write_text(code, encoding="utf-8")
    proc = run_demo(script, tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout
    if prints is not None:
        assert proc.stdout.decode() == f"{prints}\n"


if __name__ == "__main__":
    print("STDOUT_SHA256 = {")
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            digest = hashlib.sha256(run_demo(demo, tmp).stdout).hexdigest()
        print(f'    "{demo.stem}": "{digest}",')
    print("}")
