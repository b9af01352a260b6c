"""Command-line front end: validate, run and sweep scenario files.

Exit codes: 0 on success, 1 when a scenario fails validation, 2 on runtime
failures (I/O included).  The ``ADTRAP_LOG`` environment variable picks the
logging level (debug, info, warning, error); default is warning.

Artifacts are UTF-8 with ``\\n`` line endings and deterministic content, so
re-running a command overwrites them byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import logging
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .errors import AdtrapError, ValidationError, digits_to_int, quoted
from .gdn import VisitLogEntry
from .marketplace import REPORT_COLUMNS, reports_to_rows
from .scenario import load_scenario_document, read_scenario_file
from .simulation import SWEEP_COLUMNS, run_attack, run_scenario, sweep, trace_to_json
from .trap import AttributionResult, render_value, summary_counts, summary_line
from . import scenarios as bundled


class RunOutput(NamedTuple):
    result: AttributionResult
    artifacts: list[str]
    out_dir: Path

    @property
    def summary(self) -> dict:
        return {**summary_counts(self.result), "inconsistent": self.result.inconsistent}


def _setup_logging() -> None:
    level_name = os.environ.get("ADTRAP_LOG", "warning").lower()
    level = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }.get(level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _resolve_scenario(arg: str) -> Path:
    """Accept a filesystem path or the bare name of a bundled scenario."""
    path = Path(arg)
    if path.exists():
        return path
    name = arg[:-5] if arg.endswith(".json") else arg
    if name in bundled.names():
        return bundled.path(name)
    raise FileNotFoundError(f"no such scenario file or bundled scenario: {arg}")


def _csv(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def _write_all(out: Path, artifacts: dict[str, bytes]) -> None:
    """Make ``out`` and write each artifact into it, under its name."""
    out.mkdir(parents=True, exist_ok=True)
    for name, data in artifacts.items():
        (out / name).write_bytes(data)


_ATTRIBUTION_COLUMNS = ("network_id", "status", "audience_or_set", "correct")


def _attribution_rows(result: AttributionResult) -> list[tuple]:
    rows = []
    for nid in sorted(result.assignments):
        assignment = result.assignments[nid]
        if assignment.status == "exact":
            shown = render_value(assignment.audience)
        elif assignment.status == "ambiguous":
            shown = "|".join(sorted(render_value(v) for v in assignment.candidates))
        else:
            shown = ""
        correct = str(result.correct.get(nid, False)).lower()
        rows.append((nid, assignment.status, shown, correct))
    return rows


def cmd_validate(args) -> int:
    path = _resolve_scenario(args.scenario)
    scenario = load_scenario_document(read_scenario_file(path))
    print(
        f"ok: {path} "
        f"(websites={len(scenario.websites)} campaigns={len(scenario.campaigns)} "
        f"users={len(scenario.users)} "
        f"attack={'yes' if scenario.attack else 'no'})"
    )
    return 0


def cmd_run(args) -> int:
    seed = None
    if args.seed is not None:
        if not _is_seed_token(args.seed):
            raise ValidationError(f"seed must be an integer: {quoted(args.seed)}")
        seed = digits_to_int(args.seed)
    output = run_to_directory(args.scenario, seed=seed, out_dir=args.out)
    print(summary_line(output.result))
    return 0


def run_to_directory(scenario_arg: str, seed: int | None, out_dir: str) -> RunOutput:
    """Load, run, infer and write every artifact; importable for tests.

    Every artifact is built before anything is written, so only I/O can
    fail part-way through the output directory.
    """
    path = _resolve_scenario(scenario_arg)
    document = read_scenario_file(path)
    if seed is not None:
        document["seed"] = seed
    scenario = load_scenario_document(document)
    del document  # not held through the run and the artifact writing
    trace = run_scenario(scenario)
    result = run_attack(scenario, trace)

    artifacts = {
        "trace.json": trace_to_json(trace).encode(),
        "reports.csv": _csv(REPORT_COLUMNS, reports_to_rows(trace.reports)),
    }
    for site_id in sorted(trace.logs):
        artifacts[f"visits_{site_id}.csv"] = _csv(VisitLogEntry._fields, trace.logs[site_id])
    artifacts["attribution.csv"] = _csv(_ATTRIBUTION_COLUMNS, _attribution_rows(result))
    output = RunOutput(result, sorted([*artifacts, "run_output.json"]), Path(out_dir))
    run_output = {"seed": scenario.seed, "summary": output.summary, "artifacts": output.artifacts}
    artifacts["run_output.json"] = f"{json.dumps(run_output, indent=2, sort_keys=True)}\n".encode()
    _write_all(output.out_dir, artifacts)
    return output


def _parse_grid(args_grid: list[str]) -> dict[str, list]:
    grid: dict[str, list] = {}
    for item in args_grid or []:
        if "=" not in item:
            raise ValidationError(f"grid item {quoted(item)} must look like key=v1,v2,...")
        key, _, raw = item.partition("=")
        if not key or not raw:
            raise ValidationError(f"grid item {quoted(item)} must look like key=v1,v2,...")
        if key in grid:
            message = "is repeated; give all its values in one item"
            raise ValidationError(f"grid key {quoted(key)} {message}")
        values = []
        for token in raw.split(","):
            # Too deep to decode, or an integer too long for int, is a string too.
            try:
                values.append(json.loads(token))
            except (ValueError, RecursionError):
                values.append(token)
        grid[key] = values
    return grid


def _is_seed_token(token: str) -> bool:
    """Whether ``token`` is a seed as typed: an optional ``-`` and ASCII digits.

    ``int`` alone would also take other scripts' digits, ``_`` separators
    and surrounding spaces, and run seeds nobody typed.
    """
    digits = token.removeprefix("-")
    return digits.isascii() and digits.isdigit()


def _parse_seeds(raw: str) -> list[int]:
    """Comma-separated seeds, each passing :func:`_is_seed_token`."""
    tokens = [t for t in (raw or "").split(",") if t != ""]
    if not tokens:
        raise ValidationError("no seeds")
    if not all(map(_is_seed_token, tokens)):
        raise ValidationError(f"seeds must be integers: {quoted(raw)}")
    return [digits_to_int(t) for t in tokens]


def cmd_sweep(args) -> int:
    path = _resolve_scenario(args.scenario)
    template = read_scenario_file(path)
    grid = _parse_grid(args.grid)
    seeds = _parse_seeds(args.seeds)
    rows = sweep(template, grid, seeds)
    fieldnames = [*sorted(grid), *SWEEP_COLUMNS]
    table = [[row[k] for k in fieldnames] for row in rows]
    _write_all(Path(args.out), {"sweep.csv": _csv(fieldnames, table)})
    print("\t".join(fieldnames))
    for values in table:
        print("\t".join("" if v is None else str(v) for v in values))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adtrap",
        description="Simulate a profile-targeted ad network and run counter-correlation attacks on it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario", help="scenario file path or bundled scenario name")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("scenario", help="scenario file path or bundled scenario name")
    p_run.add_argument("--seed", default=None, help="override the scenario seed")
    p_run.add_argument("--out", default="adtrap_out", help="artifact directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid across seeds")
    p_sweep.add_argument("scenario", help="template scenario file or bundled name")
    p_sweep.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="swept parameter; repeatable; KEY is a /-separated document path",
    )
    p_sweep.add_argument("--seeds", required=True, help="comma-separated seed list")
    p_sweep.add_argument("--out", default="adtrap_out", help="artifact directory")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _parser()
    args = parser.parse_args(argv)
    # A run makes no reference cycles (tests/test_simulation.py checks
    # this), so reference counting frees what it allocates and the cyclic
    # collector would only scan.  The collector's state is the process's:
    # hand it back to an in-process caller as it was.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (AdtrapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValidationError) else 2
    finally:
        if collecting:
            gc.enable()


def console() -> int:
    """The process entry: ``python -m adtrap.cli`` and the ``adtrap`` script.

    Runs :func:`main`, then freezes every object the collector tracks:
    finalizing the interpreter runs full collections over the modules,
    classes and functions still alive, and they skip frozen objects.  A
    run makes no cycles, so those scans would free nothing it made.
    ``main`` itself leaves the collector as it found it.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console())
