"""Self-tests of the benchmark: generator, output check and span arithmetic.

Run with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import outcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from scenario_gen import ATTACKER_SITE, GenParams, generate, to_json  # noqa: E402
from workloads import WORKLOADS, sweep_seeds  # noqa: E402

from adtrap.cli import run_to_directory  # noqa: E402
from adtrap.scenario import load_scenario_document  # noqa: E402

SMALL = GenParams(
    audiences=6,
    probed=4,
    topics_per_audience=2,
    sites=4,
    pages_per_site=3,
    audiences_per_site=2,
    rivals=3,
    rival_sites=(1, 3),
    users=40,
    favourite_sites=(1, 2),
    warmup_visits=(1, 3),
    revisits=(0, 2),
    solo_visitors=12,
    solo_visits=(1, 2),
    pair_windows=3,
    cohorts=1,
    cohort_size=3,
    cohort_values=2,
    crowds=1,
    crowd_size=10,
    crowd_values=4,
    windows=40,
)

PARAMS = {"small": SMALL, **{n: w["params"] for n, w in WORKLOADS.items() if "params" in w}}


@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
def test_generator_is_deterministic(params):
    assert to_json(generate(params, 3)) == to_json(generate(params, 3))
    assert to_json(generate(params, 3)) != to_json(generate(params, 4))


@pytest.mark.parametrize("seed", [0, 1, 2, 17])
@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
def test_generated_documents_validate_and_hold_the_check_preconditions(params, seed):
    document = generate(params, seed)
    scenario = load_scenario_document(json.loads(to_json(document)))
    assert len(scenario.users) == params.users
    assert all(user.consent for user in scenario.users)
    assert not scenario.attack.extra_placement_sites
    for campaign in scenario.campaigns:
        for group in campaign.ad_groups:
            assert group.placement and ATTACKER_SITE not in group.placement
    (attacker_page,) = scenario.websites[ATTACKER_SITE].pages.values()
    for interest in scenario.taxonomy.interests.values():
        assert not interest.source_topics & attacker_page.topics
    attacker_visits = 0
    for user in scenario.users:
        warmed = {visit.page for visit in user.warmup_plan}
        for visit in user.attack_visits:
            if visit.site == ATTACKER_SITE:
                attacker_visits += 1
            else:
                assert visit.page in warmed
    assert scenario.attack.budget >= 10 * attacker_visits * scenario.attack.cpm / 1000


def test_small_scenario_gives_the_designed_outcome(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(to_json(generate(SMALL, 5)), encoding="utf-8")
    output = run_to_directory(str(path), seed=None, out_dir=str(tmp_path / "out"))
    assert output.summary["inconsistent"] is False
    assert output.summary["ambiguous"] == SMALL.cohorts * SMALL.cohort_size
    assert output.summary["unknown"] == SMALL.crowds * SMALL.crowd_size
    assert output.summary["exact"] == SMALL.solo_visitors
    problems, found = outcheck.check("run", tmp_path / "out", 0, "", None)
    assert problems == []
    assert set(found) == set(output.artifacts)


def _small_run(tmp_path) -> tuple[Path, dict]:
    path = tmp_path / "scenario.json"
    path.write_text(to_json(generate(SMALL, 6)), encoding="utf-8")
    out = tmp_path / "out"
    run_to_directory(str(path), seed=None, out_dir=str(out))
    problems, reference = outcheck.check("run", out, 0, "", None)
    assert problems == []
    return out, reference


def test_output_check_flags_an_exact_but_wrong_visitor(tmp_path):
    out, reference = _small_run(tmp_path)
    path = out / "attribution.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    doctored = next(r for r in rows if r["status"] == "exact")
    doctored["correct"] = "false"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    problems, _ = outcheck.check("run", out, 0, "", None)
    assert any("exact but wrong" in p for p in problems)


def test_output_check_flags_a_changed_artifact_byte(tmp_path):
    out, reference = _small_run(tmp_path)
    path = out / "reports.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    path.write_bytes(bytes(data))
    problems, _ = outcheck.check("run", out, 0, "", reference)
    assert problems == ["artifacts differ from the first invocation: reports.csv"]


def test_output_check_flags_exit_code_stderr_and_wrong_sweep_rows(tmp_path):
    assert outcheck.check("run", tmp_path, 2, "error: boom", None)[0] == ["exit code 2: error: boom"]
    (tmp_path / "sweep.csv").write_text(
        "window_length_s,seed,exact,ambiguous,unknown,accuracy,impressions\n"
        "300,1,10,0,0,1.0,10\n"
        "600,1,10,0,0,0.9,10\n",
        encoding="utf-8",
    )
    problems, _ = outcheck.check("sweep", tmp_path, 0, "WARNING inference gave up", None)
    assert problems[0].startswith("stderr not empty")
    assert problems[1:] == ["sweep.csv row 2: an exact visitor is wrong"]


def test_self_times_on_a_hand_built_tree():
    tree = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("a.child", 1, 2.0, 3.0),
        ("b", 0, 3.0, 6.0),   # overlaps a: [3, 4] is covered once
        ("c", 0, 9.0, 12.0),  # runs past the root: only [9, 10] counts
        ("leaf", -1, 20.0, 20.5),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0, 0.5])


def test_layer_metrics_on_a_hand_built_sweep():
    tree = [
        ("simulation.sweep", -1, 0.0, 10.0),
        ("scenario.load", 0, 1.0, 1.5),
        ("simulation.run_scenario", 0, 1.5, 3.0),
        ("marketplace.run_auction", 2, 2.0, 2.5),
        ("marketplace.record_impression", 2, 2.5, 2.75),
        ("scenario.load", 0, 4.0, 4.5),
        ("marketplace.run_auction", 0, 5.0, 5.5),
    ]
    counts = {"marketplace.candidates": 3}
    m = spans.layer_metrics(tree, counts)
    assert m["scenario.load_s"] == pytest.approx(1.0)
    assert m["marketplace.auctions"] == 2
    assert m["marketplace.candidates_per_auction"] == pytest.approx(1.5)
    assert m["marketplace.fill_rate"] == pytest.approx(0.5)
    assert spans.sweep_cells(tree) == pytest.approx([3.0, 6.0])
    assert m["simulation.sweep_cell_s"] == pytest.approx(4.5)
    assert set(m) | {"cli.artifact_mb", "trace.overhead_frac"} == {n for n, *_ in run.PER_LAYER}


def test_installed_tracer_records_every_layer_and_restores(tmp_path):
    from adtrap import cli, gdn, simulation

    originals = (cli.run_to_directory, gdn.record_visit, simulation.infer_audiences)
    path = tmp_path / "scenario.json"
    path.write_text(to_json(generate(SMALL, 7)), encoding="utf-8")
    tracer = spans.Tracer("test")
    restore = spans.install(tracer)
    try:
        summary = cli.run_to_directory(str(path), seed=None, out_dir=str(tmp_path / "out")).summary
    finally:
        restore()
    assert (cli.run_to_directory, gdn.record_visit, simulation.infer_audiences) == originals
    tracer.dump(tmp_path / "spans.json")
    recorded, counts = spans.load_spans(tmp_path / "spans.json")
    m = spans.layer_metrics(recorded, counts)
    assert m["trap.visitors"] == summary["exact"] + summary["ambiguous"] + summary["unknown"]
    assert m["trap.unknown"] == summary["unknown"]
    assert m["gdn.log_entries"] == m["trap.log_entries"] > 0
    for name in ("scenario.load_s", "simulation.warmup_s", "simulation.attack_phase_s",
                 "marketplace.eligible_ads_s", "trap.join_s", "trap.infer_s",
                 "cli.write_s", "cli.trace_json_s", "gdn.serve_page_self_s"):
        assert m[name] > 0, name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for n, u, b, *_ in run.PER_LAYER
    ]


def test_sweep_seeds_follow_the_benchmark_seed():
    sweep = WORKLOADS["sweep"]
    assert sweep_seeds(sweep, 3) == sweep_seeds(sweep, 3)
    assert not set(sweep_seeds(sweep, 3)) & set(sweep_seeds(sweep, 4))


def test_harness_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_keeps_ten_samples_above_the_reported_percentile():
    assert run.tail([float(v) for v in range(15)]) == (50, 7.0)
    pct, value = run.tail([float(v) for v in range(40)])
    assert pct == 75
    assert sum(v > value for v in range(40)) == 10
