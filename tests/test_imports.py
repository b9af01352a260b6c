"""Each name has one import path, the module that defines it.

Every check runs in a fresh ``python -S`` interpreter, so the modules
that are loaded are the ones the import itself loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(
    ["scenarios", *(p.stem for p in (SRC / "adtrap").glob("*.py") if p.stem != "__init__")]
)


def python(code):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def loaded_by(module):
    """The ``adtrap`` modules loaded by importing ``module``, printed."""
    return python(
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'adtrap'))"
    )


def test_the_package_root_exports_nothing():
    code = "import adtrap; print(sorted(n for n in vars(adtrap) if not n.startswith('__')))"
    assert python(code) == "[]\n"


def test_bundled_scenarios_load_no_simulator_module():
    assert loaded_by("adtrap.scenarios") == "['adtrap', 'adtrap.scenarios']\n"


# A module that imports cleanly only after another one has been loaded
# hides an import cycle.
@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first(module):
    assert python(f"import adtrap.{module}") == ""
