"""The adtrap command-line interface."""

import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from adtrap import cli, errors, scenarios
from adtrap.cli import RunOutput, main, run_to_directory
from adtrap.errors import SimulationError, digits_to_int, quoted
from adtrap.marketplace import window_count
from adtrap.trap import summary_counts


def src_env():
    """This environment with the checkout's ``src`` first on ``PYTHONPATH``."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_validate_bundled_scenario_by_name(capsys):
    assert main(["validate", "table2_experiment"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: ")
    assert "websites=13" in out
    assert "campaigns=1" in out
    assert "users=10" in out
    assert "attack=yes" in out


def test_validate_scenario_file_path(tmp_path, capsys):
    src = scenarios.path("empty_scenario")
    dst = tmp_path / "copy.json"
    dst.write_bytes(src.read_bytes())
    assert main(["validate", str(dst)]) == 0
    assert "attack=no" in capsys.readouterr().out


def test_validate_rejects_bad_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"spec_version": 99}), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "/spec_version" in err


@pytest.mark.parametrize(
    "pointer, value",
    [
        ("/users/0/demographics", None),
        ("/users/0/geo", "IT"),
        ("/campaigns/0/ad_groups/0/demographics", None),
        ("/campaigns/0/ad_groups/0/geo", None),
        # The whole section is deleted, so the error names the section.
        pytest.param("/profile_config", {"interest_threshold": 1.0},
                     id="/profile_config/interest_threshold-1.0"),
        ("/market_config/auction_mode", "first_price"),
        ("/market_config/acquisition_rate", 0.01),
        # Too large for a float: once read, it crashed the warm-up fold.
        pytest.param("/users/0/warmup_plan/0/repeat", 10**400,
                     id="/users/0/warmup_plan/0/repeat-10**400"),
        ("/campaigns/0/name", "rival"),
        ("/campaigns/0/ad_groups/0/name", "rival"),
        ("/campaigns/0/ad_groups/0/ads/0/landing_url", "https://brandhub.example/"),
        ("/campaigns/0/ad_groups/0/ads/0/creative", "brand banner"),
    ],
)
def test_validate_rejects_a_deleted_field_as_unknown(tmp_path, capsys, pointer, value):
    doc = json.loads(scenarios.path("table2_experiment").read_text(encoding="utf-8"))
    *steps, key = pointer.split("/")[1:]
    node = doc
    for step in steps:
        node = node[int(step)] if isinstance(node, list) else node.setdefault(step, {})
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {pointer}: unknown field {key!r}\n"


HUGE = "x" * 100000


@pytest.mark.parametrize(
    "pointer, value, message",
    [
        ("/users/0/attack_visits/0/page", list(range(200000)), "website 'monads' has no page [0,"),
        ("/users/0/warmup_plan/0/page", HUGE, "unknown page 'xxx"),
        ("/campaigns/0/ad_groups/0/bid/kind", HUGE, "bid kind must be one of ('CPC', 'CPM'"),
        ("/spec_version", HUGE, "spec_version must be 1, got 'xxx"),
    ],
    ids=["attack-page", "warmup-page", "bid-kind", "spec-version"],
)
def test_validate_quotes_a_huge_value_within_a_bound(tmp_path, capsys, pointer, value, message):
    doc = json.loads(scenarios.path("table2_experiment").read_text(encoding="utf-8"))
    *steps, key = pointer.split("/")[1:]
    node = doc
    for step in steps:
        node = node[int(step)] if isinstance(node, list) else node.setdefault(step, {})
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pointer}: {message}")
    assert err.endswith("...\n")
    assert len(err) < 200


def test_validate_reports_unhashable_list_item_without_traceback(tmp_path):
    doc = json.loads(scenarios.path("two_visitor_ambiguity").read_text(encoding="utf-8"))
    doc["attack"]["sites"] = [["monads"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "adtrap.cli", "validate", str(bad)],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: /attack/sites:")
    assert "Traceback" not in proc.stderr


SWEEP_OPTS = ["--seeds", "1", "--out", "{dir}/out"]
# 18000 / 1e-305 overflows to infinity: no window count exists.
INFINITE_WINDOWS = json.dumps({**scenarios.load("table2_experiment"), "window_length_s": 1e-305})
# Deeper than the JSON decoder's recursion allows.
TOO_DEEP = b"[" * 100000
# Decodable, but copying it recursively would exhaust the stack.
DEEP_MARKET_CONFIG = json.dumps(
    {**scenarios.load("table2_experiment"), "market_config": "X"}
).replace('"X"', "[" * 600 + "]" * 600)
# More digits than int reads from text, where it has a limit (0 is none).
INT_DIGITS = getattr(sys, "get_int_max_str_digits", int)()
HUGE_INT = "9" * ((INT_DIGITS or 4300) + 1)
NEEDS_INT_LIMIT = pytest.mark.skipif(not INT_DIGITS, reason="int reads text of any length")


@pytest.mark.parametrize(
    "content, args, message",
    [
        (None, ["sweep", "table2_experiment", "--grid", "campaigns/--0/total_budget=5",
                *SWEEP_OPTS], "unknown grid key"),
        (None, ["sweep", "table2_experiment", "--grid", "campaigns/\u00b2/total_budget=5",
                *SWEEP_OPTS], "unknown grid key"),
        (b"\xff\xfe{}", ["validate", "{dir}/bad.json"], "not valid JSON"),
        (b"[]", ["run", "{dir}/bad.json", "--seed", "3", "--out", "{dir}/out"],
         "scenario must be a JSON object"),
        (b"[1]", ["sweep", "{dir}/bad.json", "--grid", "0=5", *SWEEP_OPTS],
         "scenario must be a JSON object"),
        (INFINITE_WINDOWS.encode(), ["validate", "{dir}/bad.json"],
         "/window_length_s: horizon_s / window_length_s must be finite"),
        (TOO_DEEP, ["validate", "{dir}/bad.json"], "not valid JSON: maximum recursion depth"),
        (TOO_DEEP, ["run", "{dir}/bad.json", "--out", "{dir}/out"],
         "not valid JSON: maximum recursion depth"),
        (TOO_DEEP, ["sweep", "{dir}/bad.json", "--grid", "horizon_s=10", *SWEEP_OPTS],
         "not valid JSON: maximum recursion depth"),
        (DEEP_MARKET_CONFIG.encode(), ["sweep", "{dir}/bad.json", "--grid", "horizon_s=10",
                                       *SWEEP_OPTS],
         "error: /market_config: market_config must be an object"),
        (None, ["sweep", "table2_experiment", "--grid", f"horizon_s={TOO_DEEP.decode()}",
                *SWEEP_OPTS], "/horizon_s: field 'horizon_s' must be a number"),
        pytest.param(f'{{"spec_version": 1, "horizon_s": {HUGE_INT}}}'.encode(),
                     ["validate", "{dir}/bad.json"], "not valid JSON: Exceeds the limit",
                     marks=NEEDS_INT_LIMIT),
        pytest.param(None, ["sweep", "table2_experiment", "--grid", f"horizon_s={HUGE_INT}",
                            *SWEEP_OPTS], "/horizon_s: field 'horizon_s' must be a number",
                     marks=NEEDS_INT_LIMIT),
        (None, ["run", "table2_experiment", "--seed", HUGE_INT, "--out", "{dir}/out"],
         "/seed: field 'seed' must fit in 64 bits"),
        (None, ["sweep", "table2_experiment", "--seeds", f"1,-{HUGE_INT}", "--out", "{dir}/out"],
         "/seed: field 'seed' must fit in 64 bits"),
        (None, ["sweep", "table2_experiment", "--grid", f"users/{HUGE_INT}/id=x", *SWEEP_OPTS],
         "unknown grid key"),
    ],
    ids=["grid-double-minus", "grid-superscript", "not-utf8", "run-seed-list", "sweep-list",
         "infinite-windows", "validate-too-deep", "run-too-deep", "sweep-too-deep",
         "sweep-deep-template", "grid-value-too-deep", "validate-huge-int", "grid-value-huge-int",
         "run-huge-seed", "sweep-huge-seed", "grid-key-huge-index"],
)
def test_bad_input_is_reported_without_traceback(tmp_path, content, args, message):
    if content is not None:
        (tmp_path / "bad.json").write_bytes(content)
    args = [a.replace("{dir}", str(tmp_path)) for a in args]
    proc = subprocess.run(
        [sys.executable, "-m", "adtrap.cli", *args],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


LONG_ARG = "x" * 5000
CUT = quoted(LONG_ARG)


@pytest.mark.parametrize(
    "args, line",
    [
        (["sweep", "table2_experiment", "--grid", f"{LONG_ARG}=1", *SWEEP_OPTS],
         f"unknown grid key {CUT}"),
        (["sweep", "table2_experiment", "--grid", LONG_ARG, *SWEEP_OPTS],
         f"grid item {CUT} must look like key=v1,v2,..."),
        (["sweep", "table2_experiment", "--grid", f"{LONG_ARG}=1", "--grid", f"{LONG_ARG}=2",
          *SWEEP_OPTS], f"grid key {CUT} is repeated; give all its values in one item"),
        (["sweep", "table2_experiment", "--seeds", LONG_ARG, "--out", "{dir}/out"],
         f"seeds must be integers: {CUT}"),
        (["run", "table2_experiment", "--seed", LONG_ARG, "--out", "{dir}/out"],
         f"seed must be an integer: {CUT}"),
    ],
    ids=["unknown-grid-key", "grid-item", "repeated-grid-key", "seeds", "seed"],
)
def test_an_argument_is_quoted_within_a_bound(tmp_path, capsys, args, line):
    # An argument can be as long as the command line allows, so each
    # message cuts the value it quotes, as it does a document value.
    assert main([a.replace("{dir}", str(tmp_path)) for a in args]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {line}\n"
    assert CUT.endswith("...")
    assert len(err) < 200
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "site_id",
    ["mon/ads", "mon\0ads", "m" * 245, "mon\ud800ads"],
    ids=["slash", "nul", "overlong", "lone-surrogate"],
)
def test_run_rejects_a_site_id_that_cannot_be_a_file_name(tmp_path, capsys, site_id):
    doc = scenarios.path("two_visitor_ambiguity").read_text(encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text(doc.replace('"monads"', json.dumps(site_id)), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: /websites/2/id:")
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: /websites/2/id:")
    assert not out.exists()


def test_run_rejects_a_network_id_that_cannot_be_written(tmp_path, capsys):
    doc = scenarios.load("two_visitor_ambiguity")
    doc["users"][0]["network_id"] = "net\ud800x"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    error = "error: /users/0/network_id: field 'network_id' must encode as UTF-8"
    assert capsys.readouterr().err.startswith(error)
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(error)
    assert not out.exists()


def test_a_failing_artifact_leaves_no_output_directory(tmp_path, monkeypatch):
    # attribution.csv is built after trace.json, reports.csv and the visit
    # logs; its failure must come before any of them is written.
    def fail(result):
        raise RuntimeError("attribution rows failed")

    monkeypatch.setattr(cli, "_attribution_rows", fail)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="attribution rows failed"):
        run_to_directory("two_visitor_ambiguity", seed=None, out_dir=str(out))
    assert not out.exists()


def test_importing_the_cli_imports_no_code_generation():
    # dataclasses generates each record's methods as source text and pulls
    # inspect, ast and dis into every invocation; -S keeps site hooks out.
    root = Path(__file__).resolve().parent.parent
    modules = "{'dataclasses', 'inspect', 'ast', 'dis'}"
    code = f"import sys, adtrap.cli; print(sorted({modules} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_validate_rejects_broken_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_scenario_is_a_runtime_error(capsys):
    assert main(["validate", "no_such_scenario"]) == 2
    assert "no such scenario" in capsys.readouterr().err


def test_a_simulation_error_is_a_runtime_error(monkeypatch, capsys):
    def fail(args):
        raise SimulationError("engine failed")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert main(["validate", "table2_experiment"]) == 2
    assert capsys.readouterr().err == "error: engine failed\n"


def test_errors_are_one_base_and_the_three_kinds_the_program_tells_apart():
    classes = {
        name: value
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    assert set(classes) == {
        "AdtrapError",
        "ValidationError",
        "SimulationError",
        "InconsistentObservationsError",
    }
    assert all(issubclass(kind, errors.AdtrapError) for kind in classes.values())


def test_run_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "table2_experiment", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == (
        "exact=10 ambiguous=0 unknown=0 accuracy=1.0000"
    )
    expected = {
        "trace.json",
        "reports.csv",
        "visits_monads.csv",
        "attribution.csv",
        "run_output.json",
    }
    assert {p.name for p in out.iterdir()} == expected

    output = json.loads((out / "run_output.json").read_text(encoding="utf-8"))
    assert output["seed"] == 7
    assert output["summary"] == {
        "exact": 10,
        "ambiguous": 0,
        "unknown": 0,
        "accuracy": 1.0,
        "inconsistent": False,
    }
    assert output["artifacts"] == sorted(expected)

    rows = read_csv(out / "attribution.csv")
    assert len(rows) == 10
    assert all(row["status"] == "exact" for row in rows)
    assert all(row["correct"] == "true" for row in rows)
    assert rows == sorted(rows, key=lambda r: r["network_id"])

    report_rows = read_csv(out / "reports.csv")
    # one row per non-zero delta: each of the 10 visitors is alone in a window
    assert len(report_rows) == 10
    assert all(r["delta"] == "1" for r in report_rows)
    assert [int(r["cumulative"]) for r in report_rows] == [1] * 10

    visits = read_csv(out / "visits_monads.csv")
    assert len(visits) == 10
    assert visits[0]["network_id"].startswith("203.0.113.")


@pytest.fixture
def collector_state():
    """Put the cyclic collector back as it was, whatever a test leaves."""
    collecting = gc.isenabled()
    frozen = gc.get_freeze_count()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()
    if not frozen:
        gc.unfreeze()


def test_main_pauses_an_enabled_collector_and_enables_it_again(
    tmp_path, collector_state, monkeypatch, capsys
):
    collecting_during_run = []
    run = cli.run_to_directory

    def recording_run(*args, **kwargs):
        collecting_during_run.append(gc.isenabled())
        return run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_to_directory", recording_run)
    gc.enable()
    frozen = gc.get_freeze_count()
    assert main(["run", "per_victim_shared", "--out", str(tmp_path / "out")]) == 0
    assert collecting_during_run == [False]
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"spec_version": 99}), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_main_leaves_a_disabled_collector_disabled(tmp_path, collector_state, capsys):
    gc.disable()
    frozen = gc.get_freeze_count()
    assert main(["run", "per_victim_shared", "--out", str(tmp_path / "out")]) == 0
    assert not gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_console_returns_the_exit_code_of_main_and_leaves_the_collector_frozen():
    # The freeze is for the interpreter's exit, so it runs in a child.
    code = (
        "import gc, sys; from adtrap import cli; "
        "sys.argv[1:] = ['validate', 'table2_experiment']; "
        "code = cli.console(); "
        "print(code, gc.isenabled(), gc.get_freeze_count() > 0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok: ")
    assert proc.stdout.endswith("\n0 True True\n")


@pytest.mark.parametrize(
    "args, code",
    [
        (["run", "two_visitor_ambiguity", "--out", "{dir}/out"], 0),
        (["validate", "{dir}/bad.json"], 1),
        (["run", "two_visitor_ambiguity", "--out", "{dir}/bad.json/out"], 2),
    ],
    ids=["ok", "invalid", "io-error"],
)
def test_module_entry_behaves_as_main(tmp_path, capsys, args, code):
    (tmp_path / "bad.json").write_text(json.dumps({"spec_version": 99}), encoding="utf-8")
    args = [a.replace("{dir}", str(tmp_path)) for a in args]
    assert main(args) == code
    captured = capsys.readouterr()
    assert captured.out if code == 0 else captured.err.startswith("error: ")
    proc = subprocess.run(
        [sys.executable, "-m", "adtrap.cli", *args],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=60,
    )
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)


def test_console_script_is_the_process_entry():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    lines = pyproject.read_text(encoding="utf-8").splitlines()
    assert 'adtrap = "adtrap.cli:console"' in lines


def test_run_to_directory_returns_a_record_of_the_run(tmp_path):
    out = tmp_path / "out"
    output = run_to_directory("two_visitor_ambiguity", seed=None, out_dir=str(out))
    assert type(output) is RunOutput
    assert RunOutput._fields == ("result", "artifacts", "out_dir")
    result, artifacts, out_dir = output
    assert out_dir == out
    assert artifacts == sorted(p.name for p in out.iterdir())
    written = json.loads((out / "run_output.json").read_text(encoding="utf-8"))
    assert written["summary"] == output.summary
    assert output.summary == {**summary_counts(result), "inconsistent": result.inconsistent}


def test_a_run_over_a_billion_windows_costs_its_events(tmp_path):
    doc = json.loads(scenarios.path("table2_experiment").read_text(encoding="utf-8"))
    doc["window_length_s"] = doc["horizon_s"] / 10**9
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    started = time.perf_counter()
    output = run_to_directory(str(path), seed=None, out_dir=str(out))
    # Writing a row or report per window would take hours; the run does
    # as much as the 10-window original.
    assert time.perf_counter() - started < 5.0
    assert output.result.accuracy == 1.0
    reports = json.loads((out / "trace.json").read_text(encoding="utf-8"))["reports"]
    assert reports["num_windows"] == window_count(doc["horizon_s"], doc["window_length_s"])
    assert reports["num_windows"] >= 10**9
    held = [
        (window_index, audience, delta)
        for window_index, deltas in reports["hits"]
        for audience, delta in sorted(deltas.items())
    ]
    rows = read_csv(out / "reports.csv")
    assert [(int(r["window_index"]), r["audience_id"], int(r["delta"])) for r in rows] == held
    assert len(rows) == 10


def test_visits_csv_holds_time_network_id_and_page(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "table2_experiment", "--out", str(out)]) == 0
    lines = (out / "visits_monads.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "timestamp,network_id,page_id"
    assert lines[1] == "300,203.0.113.11,monads_home"
    assert all(line.count(",") == 2 for line in lines)
    assert len(lines) == 11


def test_rerun_overwrites_byte_for_byte(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "table2_experiment", "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["run", "table2_experiment", "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_run_seed_override_lands_in_output(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "two_visitor_ambiguity", "--seed", "123", "--out", str(out)]) == 0
    output = json.loads((out / "run_output.json").read_text(encoding="utf-8"))
    assert output["seed"] == 123


def test_a_seed_of_any_length_is_read(tmp_path):
    # Leading zeros count toward int's digit limit but not toward 64 bits.
    out = tmp_path / "out"
    seed = "-" + "0" * (INT_DIGITS or 4300) + "123"
    assert main(["run", "two_visitor_ambiguity", "--seed", seed, "--out", str(out)]) == 0
    output = json.loads((out / "run_output.json").read_text(encoding="utf-8"))
    assert output["seed"] == -123
    assert digits_to_int(str(2**64 - 1)) == 2**64 - 1
    assert digits_to_int(HUGE_INT) >= 10**20 and digits_to_int("-" + HUGE_INT) <= -(10**20)


@pytest.mark.parametrize(
    "seed", [" 1_0", "\u0663", "1_0", "+3", "3 "],
    ids=["space-underscore", "arabic-indic-digit", "underscore", "plus", "trailing-space"],
)
def test_run_and_sweep_reject_the_same_seed_tokens(tmp_path, capsys, seed):
    # int() reads " 1_0" as 10 and an Arabic-Indic three as 3; neither is a
    # seed as typed, under --seed or --seeds.
    out = tmp_path / "out"
    assert main(["run", "two_visitor_ambiguity", "--seed", seed, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: seed must be an integer: {seed!r}\n"
    code = main(
        ["sweep", "two_visitor_ambiguity", "--grid", "attack/cpm=40", "--seeds", seed,
         "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: seeds must be integers: {seed!r}\n"
    assert not out.exists()


def test_run_takes_a_negative_seed(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "two_visitor_ambiguity", "--seed", "-3", "--out", str(out)]) == 0
    assert json.loads((out / "run_output.json").read_text(encoding="utf-8"))["seed"] == -3


def test_ambiguous_assignments_render_as_candidate_sets(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "per_victim_shared", "--out", str(out)]) == 0
    rows = read_csv(out / "attribution.csv")
    assert len(rows) == 5
    for row in rows:
        assert row["status"] == "ambiguous"
        assert "|" in row["audience_or_set"]
        assert row["correct"] == "false"


def test_undefined_accuracy_prints_as_undefined(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "empty_scenario", "--out", str(out)]) == 0
    assert "accuracy=undefined" in capsys.readouterr().out


def test_sweep_writes_csv_and_prints_table(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "sweep",
            "two_visitor_ambiguity",
            "--grid",
            "attack/cpm=40,50",
            "--seeds",
            "1,2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 4
    assert rows[0]["attack/cpm"] == "40"
    assert set(rows[0]) == {
        "attack/cpm",
        "seed",
        "exact",
        "ambiguous",
        "unknown",
        "accuracy",
        "impressions",
    }
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split("\t") == [
        "attack/cpm",
        "seed",
        "exact",
        "ambiguous",
        "unknown",
        "accuracy",
        "impressions",
    ]
    assert len(printed) == 5


def test_sweep_rejects_empty_seed_list(capsys):
    code = main(
        ["sweep", "two_visitor_ambiguity", "--grid", "attack/cpm=50", "--seeds", ","]
    )
    assert code == 1
    assert "no seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "seeds",
    ["\u0661,7", "1_0,7", "1, 7"],
    ids=["non-ascii-digit", "underscore", "surrounding-space"],
)
def test_sweep_rejects_seeds_that_are_not_ascii_integers(tmp_path, capsys, seeds):
    out = tmp_path / "out"
    code = main(
        [
            "sweep", "two_visitor_ambiguity", "--grid", "attack/cpm=40",
            "--seeds", seeds, "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: seeds must be integers: {seeds!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("item", ["nonsense", "=1", "k="])
def test_sweep_rejects_malformed_grid(item, capsys):
    code = main(["sweep", "two_visitor_ambiguity", "--grid", item, "--seeds", "1"])
    assert code == 1
    assert "key=v1,v2" in capsys.readouterr().err


def test_sweep_rejects_unknown_grid_key(capsys):
    code = main(
        ["sweep", "two_visitor_ambiguity", "--grid", "bogus/path=1", "--seeds", "1"]
    )
    assert code == 1
    assert "unknown grid key" in capsys.readouterr().err


def test_sweep_rejects_repeated_grid_key(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "sweep", "two_visitor_ambiguity", "--grid", "attack/cpm=40",
            "--grid", "attack/cpm=50,60", "--seeds", "1", "--out", str(out),
        ]
    )
    assert code == 1
    assert "grid key 'attack/cpm' is repeated" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_seed_grid_key(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["sweep", "table2_experiment", "--grid", "seed=1,2", "--seeds", "5,6", "--out", str(out)]
    )
    assert code == 1
    assert "grid key 'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_later_seed_outside_64_bits(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "sweep", "table2_experiment", "--grid", "window_length_s=300,600",
            "--seeds", f"1,{2**64}", "--out", str(out),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: /seed: field 'seed' must fit in 64 bits\n"
    assert not (out / "sweep.csv").exists()


def test_console_script_runs_with_debug_logging(tmp_path):
    exe = shutil.which("adtrap")
    assert exe, "console script 'adtrap' not installed"
    env = dict(os.environ, ADTRAP_LOG="debug")
    proc = subprocess.run(
        [exe, "run", "two_visitor_ambiguity", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "exact=2" in proc.stdout
    assert "DEBUG" in proc.stderr


def test_console_script_quiet_by_default(tmp_path):
    exe = shutil.which("adtrap")
    assert exe, "console script 'adtrap' not installed"
    proc = subprocess.run(
        [exe, "run", "two_visitor_ambiguity", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
