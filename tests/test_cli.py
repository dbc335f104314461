from __future__ import annotations

import filecmp
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ebg.cli import default_config, load_config, main, validate_config
from ebg.engine import load_lineage, load_run

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
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["population_size"] == 10


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


def test_generate_missing_transcript_fails_before_creating_run_dir(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["generate", "--out", str(out), "--replay", str(tmp_path / "missing.jsonl")])
    assert code == 1
    assert "cannot read transcript" in capsys.readouterr().err
    assert not out.exists()


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


def test_lineage_corrupt_line_reports_position(smoke_run, capsys):
    path = smoke_run / "lineage.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["lineage", "--run", str(smoke_run)])
    assert code == 1
    assert ":3:" in capsys.readouterr().err


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
def test_run_directory_with_stale_snapshots(smoke_run, capsys, command):
    # best.json of a run that stopped after generation 0, beside the
    # snapshots of generations 1 and 2 from an earlier run
    path = smoke_run / "best.json"
    summary = json.loads(path.read_text())
    path.write_text(json.dumps({**summary, "generations_completed": 1}))
    capsys.readouterr()
    code = main([command, "--run", str(smoke_run), "--out", str(smoke_run / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "cannot load run" in err and "3 population snapshots" in err


def test_lineage_missing_run_directory(tmp_path, capsys):
    code = main(["lineage", "--run", str(tmp_path / "nope")])
    assert code == 1
    assert "cannot load run" in capsys.readouterr().err
