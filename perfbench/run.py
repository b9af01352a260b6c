"""adtrap's benchmark: end-to-end CLI cost and attack quality, or per-layer
figures from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The input is made from the seed (see ``workloads.py``) and written to
``.perfbench_out/``; the program under test only receives that file.  Each
run times whole ``python -m adtrap.cli run|sweep`` invocations, back to
back, for S seconds after one untimed warm-up invocation, and checks every
invocation's outputs (``outcheck.py``).

With ``--trace 0`` it reports the end-to-end metrics, medians over the
invocations, plus ``setup_s``: scenario read, validation and engine
construction, timed in-process and repeated.  With ``--trace 1`` it
alternates untraced invocations with traced ones (``traced_cli.py``) and
reports the per-layer metrics, medians over the traced invocations, with
``trace.overhead_frac`` taken against the untraced ones.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything the run measured, the artifact digests and the machine facts go
to ``.perfbench_out/<workload>-s<seed>-t<trace>/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import outcheck
import reference
import spans
from scenario_gen import generate, to_json
from workloads import WORKLOADS, sweep_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

# A run must exit within 180 s; stop starting invocations well before.
RUN_DEADLINE_S = 150.0
MIN_TIMED = 3
SETUP_SECONDS = 3.0
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 400

# End-to-end times are rescaled by the reference work (reference.py) timed
# next to them, to seconds on a host where that work takes these times: in
# a fresh process (CHILD_ROUNDS rounds), and one round in-process.
REFERENCE_CHILD_NOMINAL_S = 0.5
REFERENCE_INPROC_NOMINAL_S = 0.1

# (name, unit, better) of the metrics printed in the result line.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy", "ratio", "higher"),
    ("resolved_frac", "ratio", "higher"),
]

# (name, unit, better, end-to-end metrics it should move, workloads where).
PER_LAYER = [
    ("scenario.load_s", "s", "lower", "setup_s, wall_s", "sweep (most), all"),
    ("simulation.engine_init_s", "s", "lower", "setup_s, wall_s", "sweep (most), all"),
    ("simulation.warmup_s", "s", "lower", "wall_s", "ecosystem"),
    ("simulation.attack_phase_s", "s", "lower", "wall_s", "ecosystem"),
    ("simulation.events_per_s", "1/s", "higher", "wall_s", "ecosystem"),
    ("profile.record_visit_s", "s", "lower", "wall_s", "ecosystem; little on crowded"),
    ("profile.record_visit_calls", "count", "lower", "wall_s", "ecosystem; little on crowded"),
    ("profile.record_visit_us", "us", "lower", "wall_s", "ecosystem; little on crowded"),
    ("marketplace.eligible_ads_s", "s", "lower", "wall_s", "ecosystem; little on crowded"),
    ("marketplace.run_auction_s", "s", "lower", "wall_s", "ecosystem; little on crowded"),
    ("marketplace.record_impression_s", "s", "lower", "wall_s", "ecosystem; little on crowded"),
    ("marketplace.auctions", "count", "lower", "wall_s", "ecosystem; little on crowded"),
    ("marketplace.candidates_per_auction", "count", "lower", "wall_s", "ecosystem; little on crowded"),
    ("marketplace.fill_rate", "ratio", "higher", "wall_s", "ecosystem; little on crowded"),
    ("marketplace.publish_reports_s", "s", "lower", "wall_s", "crowded, sweep"),
    ("simulation.attacker_view_s", "s", "lower", "wall_s", "crowded, sweep"),
    ("gdn.serve_page_self_s", "s", "lower", "wall_s", "ecosystem"),
    ("gdn.log_entries", "count", "lower", "wall_s", "ecosystem"),
    ("trap.join_s", "s", "lower", "wall_s", "crowded; nil on ecosystem"),
    ("trap.windows", "count", "lower", "wall_s", "crowded; nil on ecosystem"),
    ("trap.log_entries", "count", "lower", "wall_s", "crowded; nil on ecosystem"),
    ("trap.infer_s", "s", "lower", "wall_s, resolved_frac, accuracy", "crowded"),
    ("trap.visitors", "count", "higher", "wall_s, resolved_frac, accuracy", "crowded"),
    ("trap.exact", "count", "higher", "wall_s, resolved_frac, accuracy", "crowded"),
    ("trap.ambiguous", "count", "lower", "wall_s, resolved_frac, accuracy", "crowded"),
    ("trap.unknown", "count", "lower", "wall_s, resolved_frac, accuracy", "crowded"),
    ("cli.write_s", "s", "lower", "wall_s, peak_rss_mb", "ecosystem; nil on sweep"),
    ("cli.trace_json_s", "s", "lower", "wall_s, peak_rss_mb", "ecosystem; nil on sweep"),
    ("cli.artifact_mb", "MB", "lower", "wall_s, peak_rss_mb", "ecosystem; nil on sweep"),
    ("simulation.sweep_cell_s", "s", "lower", "wall_s", "sweep"),
    ("simulation.sweep_cell_p99_s", "s", "lower", "wall_s", "sweep"),
    ("trace.overhead_frac", "ratio", "lower", "none (tracing cost)", "all"),
]

# Why a per-layer figure reads 0 for one kind of invocation.
ABSENT = {
    "run": {
        "simulation.sweep_cell_s": "a single run has no sweep cells",
        "simulation.sweep_cell_p99_s": "a single run has no sweep cells",
    },
    "sweep": {
        "cli.write_s": "sweep does not call run_to_directory; it writes only sweep.csv",
        "cli.trace_json_s": "sweep serialises no trace",
    },
}


def at_reference_speed(seconds: float, ref_s: float, nominal_s: float) -> float:
    """A time measured while the reference work took ``ref_s``, rescaled to
    a host on which that work takes ``nominal_s``."""
    return seconds * nominal_s / ref_s


def timed_child(argv: list[str], env: dict, timeout: float, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL):
    """Run one process to completion: (wall seconds, exit code, its own rusage).

    ``os.wait4`` gives the rusage of that one child, not the running
    maximum over all children that ``RUSAGE_CHILDREN`` keeps.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


@dataclass
class Invocation:
    wall_s: float
    ref_s: float | None
    rss_mb: float
    problems: list[str]


class Bench:
    """One benchmark run: a workload, a seed and its working directory."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = WORK / f"{name}-s{seed}-t{int(trace)}"
        self.scenario = self.work / "scenario.json"
        self.out = self.work / "out"
        self.digests: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), ADTRAP_LOG="warning")

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if self.workload["command"] == "run":
            text = to_json(generate(self.workload["params"], self.seed))
        else:
            template = SRC / "adtrap" / "scenarios" / f"{self.workload['template']}.json"
            text = template.read_text(encoding="utf-8")
        self.scenario.write_text(text, encoding="utf-8")

    def cli_args(self) -> list[str]:
        if self.workload["command"] == "run":
            return ["run", str(self.scenario), "--out", str(self.out)]
        seeds = ",".join(str(s) for s in sweep_seeds(self.workload, self.seed))
        return ["sweep", str(self.scenario), "--grid", self.workload["grid"],
                "--seeds", seeds, "--out", str(self.out)]

    def invoke(self, prefix: list[str], deadline: float, calibrate: bool = False) -> Invocation:
        """Run one CLI process to completion, time it and check its outputs.

        With ``calibrate``, the reference work runs in its own process just
        before, and its wall time is kept with the invocation's.
        """
        ref = None
        if calibrate:
            ref, code, _ = timed_child([sys.executable, str(HERE / "reference.py")], self.env,
                                       deadline - time.perf_counter())
            if code != 0:
                raise RuntimeError(f"reference work exited with {code}")
        shutil.rmtree(self.out, ignore_errors=True)
        stdout, stderr = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(stdout, "wb") as so, open(stderr, "wb") as se:
            wall, code, usage = timed_child(prefix + self.cli_args(), self.env,
                                            deadline - time.perf_counter(), so, se)
        problems, found = outcheck.check(
            self.workload["command"], self.out, code,
            stderr.read_text(encoding="utf-8", errors="replace"), self.digests,
        )
        if self.digests is None and not problems:
            self.digests = found
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += problems
        return Invocation(wall, ref, usage.ru_maxrss / 1024, problems)

    def summary(self) -> dict:
        """Counts read from the last invocation's artifacts."""
        if self.workload["command"] == "run":
            s = json.loads((self.out / "run_output.json").read_text(encoding="utf-8"))["summary"]
            visitors = s["exact"] + s["ambiguous"] + s["unknown"]
            return {"accuracy": s["accuracy"], "unknown": s["unknown"], "visitors": visitors}
        rows = outcheck.read_rows(self.out / "sweep.csv")
        return {
            "accuracy": statistics.fmean(float(r["accuracy"]) for r in rows),
            "unknown": sum(int(r["unknown"]) for r in rows),
            "visitors": sum(int(r["exact"]) + int(r["ambiguous"]) + int(r["unknown"]) for r in rows),
        }

    def artifact_mb(self) -> float:
        return sum(p.stat().st_size for p in self.out.iterdir() if p.is_file()) / 2**20


def measure_setup(scenario: Path) -> list[tuple[float, float]]:
    """Repeated in-process read + validate + engine construction times,
    each with the in-process reference work's time measured just before."""
    sys.path.insert(0, str(SRC))
    from adtrap.scenario import load_scenario_document, read_scenario_file
    from adtrap.simulation import SimulationEngine

    times: list[tuple[float, float]] = []
    stop = time.perf_counter() + SETUP_SECONDS
    while len(times) < SETUP_MIN_REPEATS or (
        time.perf_counter() < stop and len(times) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        reference.work()
        ref = time.perf_counter() - start
        start = time.perf_counter()
        SimulationEngine(load_scenario_document(read_scenario_file(scenario)))
        times.append((time.perf_counter() - start, ref))
    return times


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    pct = max(50, (100 * (n - 10)) // n) if n > 10 else 50
    if pct == 50:
        return 50, statistics.median(values)
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_end_to_end(bench: Bench, seconds: float, deadline: float) -> tuple[dict, dict]:
    setup = measure_setup(bench.scenario)
    python_cli = [sys.executable, "-m", "adtrap.cli"]
    bench.invoke(python_cli, deadline)
    timed: list[Invocation] = []
    stop = time.perf_counter() + seconds
    while time.perf_counter() < deadline and (
        time.perf_counter() < stop or len(timed) < MIN_TIMED
    ):
        timed.append(bench.invoke(python_cli, deadline, calibrate=True))
    # Each invocation is rescaled by the reference child run just before it.
    walls = [at_reference_speed(i.wall_s, i.ref_s, REFERENCE_CHILD_NOMINAL_S) for i in timed]
    setup_scaled = [at_reference_speed(t, ref, REFERENCE_INPROC_NOMINAL_S) for t, ref in setup]
    facts = bench.summary() if bench.digests else {"accuracy": 0.0, "unknown": 0, "visitors": 0}
    visitors = facts["visitors"]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": statistics.median(i.rss_mb for i in timed),
        "accuracy": facts["accuracy"] or 0.0,
        "resolved_frac": 1 - facts["unknown"] / visitors if visitors else 0.0,
    }
    pct, tail_value = tail(walls)
    raw_wall = statistics.median(i.wall_s for i in timed)
    raw_setup = statistics.median(t for t, _ in setup)
    shown = {
        "wall_s": (f"median of {len(walls)} invocations, p{pct} {tail_value:.4f} s; "
                   f"unscaled median {raw_wall:.4f} s"),
        "setup_s": f"median of {len(setup)} in-process repeats; unscaled median {raw_setup:.4f} s",
        "peak_rss_mb": "median over invocations, rusage of each CLI child",
        "accuracy": "run_output.json" if bench.workload["command"] == "run" else "mean over sweep.csv rows",
        "resolved_frac": f"1 - unknown_frac; unknown_frac = {facts['unknown']}/{visitors}",
    }
    extra = {
        "samples": {
            "wall_s": [i.wall_s for i in timed],
            "wall_reference_s": [i.ref_s for i in timed],
            "setup_s": [t for t, _ in setup],
            "setup_reference_s": [ref for _, ref in setup],
            "peak_rss_mb": [i.rss_mb for i in timed],
        },
        "wall_tail": {"percentile": pct, "value": tail_value, "count": len(walls)},
        "unknown_frac": facts["unknown"] / visitors if visitors else 0.0,
        "notes": shown,
    }
    return metrics, extra


def run_traced(bench: Bench, seconds: float, deadline: float) -> tuple[dict, dict]:
    """Alternate plain and traced invocations; each traced one is compared
    with the plain one just before it for the tracing overhead."""
    python_cli = [sys.executable, "-m", "adtrap.cli"]
    bench.invoke(python_cli, deadline)
    pairs: list[tuple[float, float]] = []
    layers: list[dict] = []
    stop = time.perf_counter() + seconds
    while time.perf_counter() < deadline and (
        time.perf_counter() < stop or len(layers) < MIN_TIMED
    ):
        plain = bench.invoke(python_cli, deadline)
        span_file = bench.work / "spans.json"
        run_id = f"{bench.name}-s{bench.seed}-{len(layers)}"
        traced_cli = [sys.executable, str(HERE / "traced_cli.py"), str(span_file), run_id, "--"]
        traced = bench.invoke(traced_cli, deadline)
        if plain.problems or traced.problems:
            continue
        layer = spans.layer_metrics(*spans.load_spans(span_file))
        layer["cli.artifact_mb"] = bench.artifact_mb()
        layers.append(layer)
        pairs.append((plain.wall_s, traced.wall_s))
    metrics = {}
    for name, *_ in PER_LAYER:
        if name != "trace.overhead_frac":
            metrics[name] = statistics.median(m[name] for m in layers) if layers else 0.0
    metrics["trace.overhead_frac"] = (
        statistics.median(t / p for p, t in pairs) - 1 if pairs else 0.0
    )
    extra = {
        "wall_pairs_s": [{"untraced": p, "traced": t} for p, t in pairs],
        "absent": ABSENT[bench.workload["command"]],
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adtrap" / "cli.py").is_file():
        print(f"error: no adtrap sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_DEADLINE_S
    bench = Bench(args.workload, args.seed, bool(args.trace))
    bench.prepare()
    if args.trace:
        metrics, extra = run_traced(bench, args.seconds, deadline)
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        metrics, extra = run_end_to_end(bench, args.seconds, deadline)
        units = {name: unit for name, unit, _ in END_TO_END}

    result = {
        "correct": bench.failed == 0 and bench.digests is not None,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    facts = machine()
    record = {
        "workload": args.workload,
        "why": bench.workload["why"],
        "generator": (
            asdict(bench.workload["params"]) if "params" in bench.workload
            else {k: bench.workload[k] for k in ("template", "grid", "seeds_per_run")}
        ),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "result": result,
        "artifact_sha256": bench.digests,
        "problems": bench.failures,
        "layer_map": [
            {"name": n, "unit": u, "better": b, "moves": m, "on": on} for n, u, b, m, on in PER_LAYER
        ],
        **extra,
    }
    (bench.work / "results.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cpus={facts['cpu_count']} python={facts['python']} platform={facts['platform']}")
    for name, unit in units.items():
        note = extra.get("notes", {}).get(name) or extra.get("absent", {}).get(name, "")
        print(f"  {name:36s} {metrics[name]:14.6g} {unit:6s} {note}")
    if not args.trace:
        print(f"  {'unknown_frac':36s} {extra['unknown_frac']:14.6g} {'ratio':6s}")
    print(f"  {'failed_frac':36s} {result['failed'] / max(bench.attempted, 1):14.6g} {'ratio':6s}"
          f" {result['failed']} of {bench.attempted} invocations failed the output check")
    for name, digest in sorted((bench.digests or {}).items()):
        print(f"  sha256 {digest} {name}")
    for problem in bench.failures[:10]:
        print(f"  problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
