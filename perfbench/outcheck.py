"""The benchmark's output check for one CLI invocation.

An invocation fails unless its exit code is 0, its stderr is empty (the
CLI logs ``inference gave up`` there when observations are inconsistent),
the run reports ``inconsistent: false``, no visitor is exact but wrong, and
every artifact is byte-identical to the first invocation of the same
workload and seed.

For ``run`` the exact-but-wrong test reads ``attribution.csv``.  ``sweep``
writes no per-visitor rows, so each ``sweep.csv`` row must satisfy
``accuracy * visitors == exact``: accuracy counts correct visitors, only
exact ones can be correct, so the equality holds iff every exact visitor
is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in an artifact directory, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(out_dir).iterdir())
        if path.is_file()
    }


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _run_problems(out_dir: Path) -> list[str]:
    problems = []
    summary = json.loads((out_dir / "run_output.json").read_text(encoding="utf-8"))["summary"]
    if summary["inconsistent"] is not False:
        problems.append("run_output.json reports inconsistent observations")
    for row in read_rows(out_dir / "attribution.csv"):
        if row["status"] == "exact" and row["correct"] != "true":
            problems.append(f"attribution.csv: visitor {row['network_id']} is exact but wrong")
    return problems


def _sweep_problems(out_dir: Path) -> list[str]:
    problems = []
    for i, row in enumerate(read_rows(out_dir / "sweep.csv"), start=1):
        visitors = int(row["exact"]) + int(row["ambiguous"]) + int(row["unknown"])
        if visitors and row["accuracy"] == "":
            problems.append(f"sweep.csv row {i}: no accuracy")
        elif visitors and abs(float(row["accuracy"]) * visitors - int(row["exact"])) > 1e-6:
            problems.append(f"sweep.csv row {i}: an exact visitor is wrong")
    return problems


def check(command: str, out_dir: Path, returncode: int, stderr: str,
          reference: dict[str, str] | None) -> tuple[list[str], dict[str, str]]:
    """Problems found with one invocation, and its artifact digests.

    ``reference`` holds the digests of the first invocation of the same
    workload and seed, or None for that first invocation itself.
    """
    out_dir = Path(out_dir)
    if returncode != 0:
        return [f"exit code {returncode}: {stderr.strip()[-500:]}"], {}
    problems = []
    if stderr:
        problems.append(f"stderr not empty: {stderr.strip()[-500:]}")
    try:
        problems += _run_problems(out_dir) if command == "run" else _sweep_problems(out_dir)
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable artifacts: {exc!r}")
    found = digests(out_dir)
    if reference is not None and found != reference:
        changed = sorted(set(found) ^ set(reference) | {
            name for name in set(found) & set(reference) if found[name] != reference[name]
        })
        problems.append(f"artifacts differ from the first invocation: {', '.join(changed)}")
    return problems, found
