from __future__ import annotations

import filecmp
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ebg import cli
from ebg.cli import default_config, load_config, main, validate_config
from ebg.engine import load_lineage, load_run
from ebg.fitness import evaluate_benchmark
from ebg.llm import TransportError
from helpers import child_env, levenshtein_table

FIXTURES = Path(__file__).parent / "fixtures"
SMOKE_CONFIG = str(FIXTURES / "smoke_config.json")
SMOKE_TRANSCRIPT = str(FIXTURES / "smoke_transcript.jsonl")


def _write_config(tmp_path, **overrides) -> str:
    data = json.loads(json.dumps(default_config()))
    for key, value in overrides.items():
        if isinstance(value, dict):
            data[key] = {**data[key], **value}
        else:
            data[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


TINY_BLOCKS = dict(
    fitness={"trials": 3, "prevalidation_samples": 64},
    ga={"population": 8, "generations": 5},
    de={"population": 8, "generations": 5},
)


# -------------------------------------------------------------- config I/O


def test_print_default_config_round_trips(capsys):
    assert main(["--print-default-config"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["population_size"] == 10
    assert data["max_generations"] == 20
    assert data["crossover_rate"] == 0.5
    assert data["dimension"] == 5
    assert data["fitness"]["trials"] == 20
    assert data["fitness"]["alpha"] == 10.0
    assert data["ga"]["population"] == 50
    assert data["ga"]["generations"] == 1000
    assert data["de"]["population"] == 50
    assert data["de"]["generations"] == 1000
    assert data["backend"]["mode"] == "live"
    assert data["analysis"]["sobol_base_samples"] == 1024


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ebg.cli", "--print-default-config"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["population_size"] == 10


def test_import_cli_leaves_scipy_out():
    probe = "import sys, ebg.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_import_cli_leaves_requests_out():
    # only a live chat call imports it
    probe = "import sys, ebg.cli; print('requests' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_validate_config_lists_every_violated_field():
    data = default_config()
    data["population_size"] = 1
    data["crossover_rate"] = 2.0
    data["analysis"]["sobol_base_samples"] = 0
    problems = validate_config(data)
    joined = "\n".join(problems)
    assert "population_size" in joined
    assert "crossover_rate" in joined
    assert "sobol_base_samples" in joined
    assert "endpoint_url" in joined  # live mode with no endpoint
    assert len(problems) == 4


def test_printed_default_config_loads_back_valid(tmp_path, capsys):
    assert main(["--print-default-config"]) == 0
    data = json.loads(capsys.readouterr().out)
    data["backend"].update(mode="replay", transcript=SMOKE_TRANSCRIPT)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert validate_config(load_config(str(path))) == []


def test_no_command_prints_help(capsys):
    assert main([]) == 1


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"not_a_key": 1}))
    code = main(["generate", "--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, key", [("analysis", "sobol_base_sample"), ("backend", "endpoint")]
)
def test_unknown_nested_config_key_is_validation_error(tmp_path, capsys, block, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({block: {key: 0}}))
    code = main(["analyze", "--expr", "x[0]*x[1]", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert f"{block}.{key}" in capsys.readouterr().err


# (command, config file contents, every problem printed, in order)
WRONG_TYPE = {
    "file-not-object": ("analyze", [1, 2], ["{path}: must be an object"]),
    "analysis-number": ("analyze", {"analysis": 3}, ["analysis: must be an object"]),
    "analysis-string": ("analyze", {"analysis": "ab"}, ["analysis: must be an object"]),
    "backend-analyze": ("analyze", {"backend": 3}, ["backend: must be an object"]),
    # a block that is not an object keeps its defaults, and live mode needs an endpoint
    "backend-generate": (
        "generate", {"backend": 3},
        ["backend: must be an object", "backend.endpoint_url: required when mode is live or record"],
    ),
    "float-trials": ("analyze", {"fitness": {"trials": 2.5}}, ["fitness.trials: must be an integer"]),
    "float-dimension": ("analyze", {"dimension": 2.5}, ["dimension: must be an integer"]),
    "bool-dimension": ("analyze", {"dimension": True}, ["dimension: must be an integer"]),
    "bool-float": ("analyze", {"crossover_rate": True}, ["crossover_rate: must be a number"]),
    # a rejected transcript is not also reported as missing
    "number-transcript": (
        "generate", {"backend": {"mode": "replay", "transcript": 3}}, ["backend.transcript: must be a string"],
    ),
    "list-transcript": (
        "generate", {"backend": {"mode": "replay", "transcript": ["a"]}}, ["backend.transcript: must be a string"],
    ),
    "bool-transcript": (
        "generate", {"backend": {"mode": "replay", "transcript": True}}, ["backend.transcript: must be a string"],
    ),
    # a rejected field is not also reported by a check that reads it
    "number-mode": ("generate", {"backend": {"mode": 3}}, ["backend.mode: must be a string"]),
    "number-mode-with-transcript": (
        "generate", {"backend": {"mode": 3, "transcript": "x.jsonl"}}, ["backend.mode: must be a string"],
    ),
    "number-a1": ("evaluate", {"fitness": {"a1": 3, "a2": "GA"}}, ["fitness.a1: must be a string"]),
    # the range problems of the block's other fields are still listed
    "type-beside-range": (
        "analyze",
        {"ga": {"population": 1, "crossover_rate": "x", "mutation_rate": 2.0}},
        [
            "ga.population: must be >= 2",
            "ga.mutation_rate: must lie in [0, 1]",
            "ga.crossover_rate: must be a number",
        ],
    ),
    "all-at-once": (
        "generate",
        {"dimension": True, "fitness": {"trials": 2.5}, "ga": {"mutation_rate": False}},
        [
            "dimension: must be an integer",
            "fitness.trials: must be an integer",
            "ga.mutation_rate: must be a number",
            "backend.endpoint_url: required when mode is live or record",
        ],
    ),
}


@pytest.mark.parametrize("command, content, problems", WRONG_TYPE.values(), ids=WRONG_TYPE)
def test_config_value_of_the_wrong_json_type_fails_cleanly(tmp_path, capsys, command, content, problems):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(content))
    target = [] if command == "generate" else ["--expr", "x[0]*x[1]"]
    code = main([command, *target, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: " + problem.format(path=path) for problem in problems
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "generate"])
def test_one_load_lists_shape_and_field_problems_together(tmp_path, capsys, command):
    # a block that is not an object, an unknown key and wrong field types
    # in one file: every problem is printed, one per line
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dimension": True, "fitness": {"trials": 2.5}, "analysis": 3, "nope": 1}))
    target = ["--expr", "x[0]*x[1]"] if command == "analyze" else ["--replay", SMOKE_TRANSCRIPT]
    code = main([command, *target, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: analysis: must be an object",
        "config error: unknown config keys: ['nope']",
        "config error: dimension: must be an integer",
        "config error: fitness.trials: must be an integer",
    ]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- generate


def test_generate_replays_smoke_transcript(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "generate",
            "--config",
            SMOKE_CONFIG,
            "--out",
            str(out),
            "--replay",
            SMOKE_TRANSCRIPT,
        ]
    )
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "best expression:" in captured.out
    assert "best fitness:" in captured.out
    for name in ("config.json", "lineage.jsonl", "best.json"):
        assert (out / name).exists()
    for k in range(3):
        assert (out / f"population.gen{k}.jsonl").exists()
    record = load_run(out)
    assert len(record.populations) == 3
    assert all(len(pop) == 4 for pop in record.populations)


def test_generate_replay_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert (
            main(
                [
                    "generate",
                    "--config",
                    SMOKE_CONFIG,
                    "--out",
                    str(out),
                    "--replay",
                    SMOKE_TRANSCRIPT,
                ]
            )
            == 0
        )
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        if name == "config.json":
            continue  # embeds the differing output path
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_generate_live_without_endpoint_fails_validation(tmp_path, capsys):
    code = main(["generate", "--out", str(tmp_path / "run")])
    assert code == 1
    assert "backend.endpoint_url" in capsys.readouterr().err


def test_generate_replay_miss_is_runtime_abort(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(
        [
            "generate",
            "--config",
            SMOKE_CONFIG,
            "--out",
            str(tmp_path / "run"),
            "--replay",
            str(empty),
        ]
    )
    assert code == 2
    assert "run aborted" in capsys.readouterr().err


def test_generate_transport_failure_is_runtime_abort(tmp_path, capsys, monkeypatch):
    class DeadEndpoint:
        name = "dead"

        def complete(self, prompt: str) -> str:
            raise TransportError("chat endpoint failed after 3 attempts: refused")

    monkeypatch.setattr(cli, "build_backend", lambda config, out_dir: DeadEndpoint())
    out = tmp_path / "run"
    code = main(
        ["generate", "--config", SMOKE_CONFIG, "--out", str(out), "--replay", SMOKE_TRANSCRIPT]
    )
    assert code == 2
    assert "run aborted: chat endpoint failed" in capsys.readouterr().err
    assert not (out / "best.json").exists()


def test_generate_missing_transcript_fails_before_creating_run_dir(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["generate", "--out", str(out), "--replay", str(tmp_path / "missing.jsonl")])
    assert code == 1
    assert "cannot read transcript" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("line", ["{not json", "[1, 2]", '{"digest": "d"}'])
def test_generate_corrupt_transcript_names_file_and_line(tmp_path, capsys, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n")
    out = tmp_path / "run"
    code = main(["generate", "--out", str(out), "--replay", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{bad}:1: bad transcript record" in err
    assert "Traceback" not in err and not out.exists()

# ---------------------------------------------------------------- evaluate


def test_evaluate_constant_expression(tmp_path, capsys):
    config = _write_config(tmp_path, **TINY_BLOCKS)
    report = tmp_path / "evaluation.json"
    code = main(["evaluate", "--expr", "1", "--config", config, "--out", str(report)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "fitness: 0.5" in captured.out
    assert "GA" in captured.out and "DE" in captured.out
    payload = json.loads(report.read_text())
    assert payload["fitness"] == 0.5
    assert len(payload["GA"]) == 3
    assert len(payload["DE"]) == 3
    assert payload["any_invalid"] is False


def test_evaluate_rejects_undefined_expression(tmp_path, capsys):
    config = _write_config(tmp_path, **TINY_BLOCKS)
    code = main(["evaluate", "--expr", "sqrt(x[0])", "--config", config])
    assert code == 1
    assert "pre-validation" in capsys.readouterr().err


def test_evaluate_rejects_zero_prevalidation_samples(tmp_path, capsys):
    # zero samples would pass every expression through the gate
    config = _write_config(tmp_path, fitness={"prevalidation_samples": 0})
    code = main(["evaluate", "--expr", "sqrt(x[0])", "--config", config])
    assert code == 1
    assert "fitness.prevalidation_samples" in capsys.readouterr().err


def test_evaluate_reports_parse_errors(tmp_path, capsys):
    code = main(["evaluate", "--expr", "x[0] + log(x[1])"])
    assert code == 1
    assert "log" in capsys.readouterr().err


def test_evaluate_reads_expression_from_file(tmp_path, capsys):
    config = _write_config(tmp_path, **TINY_BLOCKS)
    source = tmp_path / "expr.txt"
    source.write_text("x[0]**2 + x[1]**2\n")
    report = tmp_path / "evaluation.json"
    code = main(["evaluate", "--file", str(source), "--config", config, "--out", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["expression"] == "x[0]**2 + x[1]**2"


def test_evaluate_reports_the_text_it_scored(tmp_path, capsys, monkeypatch):
    config = _write_config(tmp_path, **TINY_BLOCKS)
    source = tmp_path / "expr.txt"
    source.write_text("x[0]**2\n", encoding="utf-8")
    scored = []

    def rewrite_mid_run(expr, *args):
        scored.append(str(expr))
        source.write_text("x[1]**4\n", encoding="utf-8")
        return evaluate_benchmark(expr, *args)

    monkeypatch.setattr(cli, "evaluate_benchmark", rewrite_mid_run)
    report = tmp_path / "evaluation.json"
    code = main(["evaluate", "--file", str(source), "--config", config, "--out", str(report)])
    assert code == 0
    assert scored == ["x[0]**2"]
    assert json.loads(report.read_text(encoding="utf-8"))["expression"] == "x[0]**2"


# ----------------------------------------------------------------- analyze


def test_analyze_expression_writes_both_reports(tmp_path, capsys):
    config = _write_config(tmp_path, dimension=2, analysis={"seed": 49})
    out = tmp_path / "analysis"
    code = main(
        [
            "analyze",
            "--expr",
            "x[0]*x[1]",
            "--config",
            config,
            "--what",
            "both",
            "--out",
            str(out),
        ]
    )
    assert code == 0, capsys.readouterr().err
    sobol = json.loads((out / "sobol.json").read_text())
    assert abs(sobol["first_order"][0]) <= 0.05
    assert abs(sobol["total_order"][0] - 1.0) <= 0.05
    assert sobol["base_samples"] == 1024
    curvature = json.loads((out / "curvature.json").read_text())
    assert curvature["hessian_cond_lower_quartile"] >= 1.0
    assert curvature["expression"] == "x[0]*x[1]"


def test_analyze_sobol_abort_on_invalid_sample(tmp_path, capsys):
    code = main(
        ["analyze", "--expr", "sqrt(x[0])", "--what", "sobol", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "sqrt-of-negative" in capsys.readouterr().err


def test_analyze_curvature_skips_overflowed_estimates(tmp_path, capsys):
    # every stencil value is finite, but at points with a large sum of
    # squares 2*f0 in the second difference overflows
    text = "5e307*(x[0]**2 + x[1]**2 + x[2]**2 + x[3]**2 + x[4]**2)"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["analyze", "--expr", text, "--what", "curvature", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert caught == []
    curvature = json.loads((tmp_path / "curvature.json").read_text())
    assert math.isfinite(curvature["grad_ratio_median"])
    assert math.isfinite(curvature["hessian_cond_lower_quartile"])
    assert curvature["skipped_count"] > 0
    assert curvature["sample_count"] + curvature["skipped_count"] == 100


def test_analyze_curvature_of_an_absorbing_term_aborts_cleanly(tmp_path, capsys):
    # the 1.7e308 term absorbs x[1]..x[4], so a gradient entry is exactly
    # 0 at every point and every point is skipped as degenerate; the
    # overflowing differences at |x[0]| near 1 stay quiet
    text = "1.7e308*abs(x[0])**8 + x[1]**2 + x[2]**2 + x[3]*x[4]"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["analyze", "--expr", text, "--what", "curvature", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "analysis aborted: only 0 usable sample points (100 skipped); need at least 4\n"
    )
    assert caught == []


def test_analyze_run_directory_targets_best(tmp_path, capsys):
    out = tmp_path / "run"
    main(
        [
            "generate",
            "--config",
            SMOKE_CONFIG,
            "--out",
            str(out),
            "--replay",
            SMOKE_TRANSCRIPT,
        ]
    )
    capsys.readouterr()
    analysis_dir = tmp_path / "analysis"
    code = main(["analyze", "--run", str(out), "--what", "sobol", "--out", str(analysis_dir)])
    assert code == 0, capsys.readouterr().err
    sobol = json.loads((analysis_dir / "sobol.json").read_text())
    record = load_run(out)
    assert sobol["expression"] == record.best.text
    assert len(sobol["first_order"]) == 5


# ----------------------------------------------------------------- lineage


@pytest.fixture
def smoke_run(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "generate",
            "--config",
            SMOKE_CONFIG,
            "--out",
            str(out),
            "--replay",
            SMOKE_TRANSCRIPT,
        ]
    )
    assert code == 0
    return out


def test_lineage_outputs_structure(smoke_run, capsys):
    capsys.readouterr()
    code = main(["lineage", "--run", str(smoke_run)])
    assert code == 0, capsys.readouterr().err
    events = load_lineage(smoke_run / "lineage.jsonl")
    record = load_run(smoke_run)

    dot = (smoke_run / "lineage.dot").read_text()
    # one node per created individual: N members per generation over 3
    # generations means 4 + 4 + 4 = 12 creations
    assert dot.count("[label=") == 12
    crossover_edges = sum(2 for e in events if e.kind == "crossover")
    mutation_edges = sum(1 for e in events if e.kind == "mutation")
    init_edges = sum(len(e.parent_ids) for e in events if e.kind == "init_llm")
    assert dot.count("[style=solid]") == crossover_edges
    assert dot.count("[style=dashed]") == mutation_edges
    assert dot.count("[style=dotted]") == init_edges
    assert init_edges == 1 + 2 + 3

    survivors = {b.id for pop in record.populations for b in pop}
    embedding_rows = (smoke_run / "embedding.csv").read_text().strip().splitlines()
    assert embedding_rows[0] == "id,x,y"
    assert len(embedding_rows) - 1 == len(survivors)

    n = len(survivors)
    distance_rows = (smoke_run / "distances.csv").read_text().strip().splitlines()
    assert distance_rows[0] == "id_a,id_b,distance"
    assert len(distance_rows) - 1 == n * (n - 1) // 2

    stats = json.loads((smoke_run / "operator_stats.json").read_text())
    assert stats["best_id"] == record.best.id
    assert 0.0 <= stats["crossover_ratio"] <= 1.0
    assert stats["individuals"] >= stats["operations"] + 1


def test_lineage_distances_match_full_table(smoke_run):
    assert main(["lineage", "--run", str(smoke_run)]) == 0
    texts = {b.id: b.text for pop in load_run(smoke_run).populations for b in pop}
    rows = (smoke_run / "distances.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == len(texts) * (len(texts) - 1) // 2
    for row in rows:
        a, b, distance = (int(field) for field in row.split(","))
        assert distance == levenshtein_table(texts[a], texts[b])


def test_lineage_corrupt_line_reports_position(smoke_run, capsys):
    path = smoke_run / "lineage.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["lineage", "--run", str(smoke_run)])
    assert code == 1
    assert ":3:" in capsys.readouterr().err


def test_torn_final_lineage_line_is_ignored(smoke_run, tmp_path):
    # a crash during an append leaves a final line without its newline
    whole, torn = tmp_path / "whole", tmp_path / "torn"
    assert main(["lineage", "--run", str(smoke_run), "--out", str(whole)]) == 0
    with open(smoke_run / "lineage.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"child_id": 99, "ki')
    assert main(["lineage", "--run", str(smoke_run), "--out", str(torn)]) == 0
    for name in ("distances.csv", "embedding.csv", "operator_stats.json", "lineage.dot"):
        assert filecmp.cmp(whole / name, torn / name, shallow=False), name
    assert main(["analyze", "--run", str(smoke_run), "--out", str(tmp_path / "analysis")]) == 0


def test_bad_final_lineage_line_with_its_newline_reports_position(smoke_run, capsys):
    with open(smoke_run / "lineage.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"child_id": 99, "ki\n')
    capsys.readouterr()
    assert main(["lineage", "--run", str(smoke_run)]) == 1
    assert "lineage.jsonl:13: bad lineage record" in capsys.readouterr().err


def test_lineage_holds_only_committed_generations(smoke_run):
    path = smoke_run / "best.json"
    summary = json.loads(path.read_text())
    path.write_text(json.dumps({**summary, "generations_completed": 2}))
    written = load_lineage(smoke_run / "lineage.jsonl")
    assert {event.generation for event in written} == {0, 1, 2}
    assert load_run(smoke_run).lineage == [event for event in written if event.generation < 2]


@pytest.mark.parametrize("command", ["lineage", "analyze"])
def test_run_directory_with_unknown_config_key(smoke_run, capsys, command):
    path = smoke_run / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "foo": 1}))
    capsys.readouterr()
    code = main([command, "--run", str(smoke_run), "--out", str(smoke_run / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "cannot load run" in err and "foo" in err


@pytest.mark.parametrize("command", ["lineage", "analyze"])
def test_run_directory_with_stale_snapshots(smoke_run, command):
    # best.json of a run that stopped after generation 0, beside the
    # snapshots of generations 1 and 2 that it never committed
    path = smoke_run / "best.json"
    summary = json.loads(path.read_text())
    path.write_text(json.dumps({**summary, "generations_completed": 1}))
    assert len(load_run(smoke_run).populations) == 1
    code = main([command, "--run", str(smoke_run), "--out", str(smoke_run / "out")])
    assert code == 0


@pytest.mark.parametrize(
    "completed, cause",
    [(4, "population.gen3.jsonl"), (0, "0 completed"), ("2", "'2' completed")],
)
@pytest.mark.parametrize("command", ["lineage", "analyze"])
def test_run_directory_missing_committed_snapshot(smoke_run, capsys, command, completed, cause):
    path = smoke_run / "best.json"
    summary = json.loads(path.read_text())
    path.write_text(json.dumps({**summary, "generations_completed": completed}))
    capsys.readouterr()
    code = main([command, "--run", str(smoke_run), "--out", str(smoke_run / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "cannot load run" in err and cause in err


def test_lineage_missing_run_directory(tmp_path, capsys):
    code = main(["lineage", "--run", str(tmp_path / "nope")])
    assert code == 1
    assert "cannot load run" in capsys.readouterr().err


# ------------------------------------------------------------ output paths


def _fail_if_called(*args, **kwargs):
    raise AssertionError("the command did work before checking --out")


# (command, what is at the blocking path, whether --out lies inside it,
# arguments besides --out, functions that do the command's work)
REPLAY = ["--replay", SMOKE_TRANSCRIPT]
EXPR = ["--expr", "x[0]**2"]
EVALUATE_WORK = ["prevalidate", "evaluate_benchmark"]
WRONG_OUT = {
    "generate": ("generate", "file", False, ["--config", SMOKE_CONFIG, *REPLAY], ["run"]),
    "generate-under-file": ("generate", "file", True, REPLAY, ["run"]),
    "lineage": ("lineage", "file", False, ["--run", "never-read"], ["load_run"]),
    "analyze": ("analyze", "file", False, EXPR, ["sobol_indices", "curvature_features"]),
    "evaluate": ("evaluate", "dir", False, EXPR, EVALUATE_WORK),
    "evaluate-under-file": ("evaluate", "file", True, EXPR, EVALUATE_WORK),
    "evaluate-in-missing-dir": ("evaluate", None, True, EXPR, EVALUATE_WORK),
}


@pytest.mark.parametrize("command, blocker, inside, argv, work", WRONG_OUT.values(), ids=WRONG_OUT)
def test_output_of_the_wrong_kind_fails_before_any_work(
    tmp_path, capsys, monkeypatch, command, blocker, inside, argv, work
):
    for name in work:
        monkeypatch.setattr(cli, name, _fail_if_called)
    block = tmp_path / "out"
    if blocker == "file":
        block.write_text("keep\n")
    elif blocker == "dir":
        block.mkdir()
    out = block / "report" if inside else block
    code = main([command, *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("cannot write output:") and str(block) in err
    assert "Traceback" not in err
    if blocker == "file":
        assert block.read_text() == "keep\n"
    elif blocker == "dir":
        assert not any(block.iterdir())
    else:
        assert not block.exists()
