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
from ebg.cli import build_configs, default_config, load_config, main
from ebg.config import ConfigError
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


def test_build_configs_lists_every_violated_field():
    data = default_config()
    data["population_size"] = 1
    data["crossover_rate"] = 2.0
    data["analysis"]["sobol_base_samples"] = 0
    with pytest.raises(ConfigError) as caught:
        build_configs(data, generate=True)
    problems = caught.value.problems
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
    build_configs(load_config(str(path)), generate=True)


def test_no_command_prints_help(capsys):
    assert main([]) == 1


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"not_a_key": 1}))
    code = main(["generate", "--config", str(path), "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: not_a_key: unknown key",
        "config error: backend.endpoint_url: required when mode is live or record",
    ]


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
    # a block that is not an object is not also checked for a response source
    "backend-generate": ("generate", {"backend": 3}, ["backend: must be an object"]),
    # --out sets it
    "output-dir": (
        "generate", {"output_dir": "x", "backend": {"mode": "replay", "transcript": "t.jsonl"}},
        ["output_dir: unknown key"],
    ),
    "float-trials": ("analyze", {"fitness": {"trials": 2.5}}, ["fitness.trials: must be an integer"]),
    "float-dimension": ("analyze", {"dimension": 2.5}, ["dimension: must be an integer"]),
    "bool-dimension": ("analyze", {"dimension": True}, ["dimension: must be an integer"]),
    "bool-float": ("analyze", {"crossover_rate": True}, ["crossover_rate: must be a finite number"]),
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
    # commands that never ask for responses still check the backend block's types
    "number-transcript-analyze": ("analyze", {"backend": {"transcript": 3}}, ["backend.transcript: must be a string"]),
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
            "ga.crossover_rate: must be a finite number",
        ],
    ),
    "all-at-once": (
        "generate",
        {"dimension": True, "fitness": {"trials": 2.5}, "ga": {"mutation_rate": False}},
        [
            "dimension: must be an integer",
            "fitness.trials: must be an integer",
            "ga.mutation_rate: must be a finite number",
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
        "config error: dimension: must be an integer",
        "config error: fitness.trials: must be an integer",
        "config error: nope: unknown key",
        "config error: analysis: must be an object",
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["evaluate", "generate"])
def test_non_finite_config_number_fails_cleanly(tmp_path, capsys, command, literal):
    # json.loads reads these literals, and a NaN passes the range check
    path = tmp_path / "config.json"
    path.write_text(Path(SMOKE_CONFIG).read_text().replace('"alpha": 10.0', f'"alpha": {literal}'))
    target = ["--expr", "x[0]**2 + x[1]"] if command == "evaluate" else ["--replay", SMOKE_TRANSCRIPT]
    code = main([command, *target, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["config error: fitness.alpha: must be a finite number"]
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


def test_environment_overrides_the_backend_block(tmp_path, monkeypatch):
    seen = []

    class DeadEndpoint:
        name = "dead"

        def complete(self, prompt: str) -> str:
            raise TransportError("refused")

    def capture(config, out_dir):
        seen.append(config)
        return DeadEndpoint()

    monkeypatch.setattr(cli, "build_backend", capture)
    monkeypatch.setenv("EBG_API_URL", "http://127.0.0.1:9/chat")
    monkeypatch.setenv("EBG_MODEL", "env-model")
    monkeypatch.delenv("EBG_API_KEY", raising=False)
    path = _write_config(tmp_path, backend={"model": "file-model", "temperature": 0.5})
    assert main(["generate", "--config", path, "--out", str(tmp_path / "run")]) == 2
    [config] = seen
    assert (config.endpoint_url, config.model, config.temperature) == ("http://127.0.0.1:9/chat", "env-model", 0.5)


def test_environment_leaves_a_backend_that_is_not_an_object(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EBG_API_URL", "http://127.0.0.1:9/chat")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"backend": 3}))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: backend: must be an object"]


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


def test_generate_transcript_line_that_is_not_an_object(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("3\n")
    out = tmp_path / "run"
    code = main(["generate", "--config", SMOKE_CONFIG, "--out", str(out), "--replay", str(bad)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"cannot read transcript: {bad}:1: bad transcript record: must be an object"
    ]
    assert not out.exists()


def test_generate_transcript_response_that_is_not_a_string(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"digest": "d", "prompt": "p", "response": 3}\n')
    out = tmp_path / "run"
    code = main(["generate", "--config", SMOKE_CONFIG, "--out", str(out), "--replay", str(bad)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"cannot read transcript: {bad}:1: bad transcript record: response: must be a string"
    ]
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


def test_evaluate_report_writes_invalid_trials_as_null(tmp_path, capsys):
    # defined on the pre-validation sample, but DE's trials leave the domain
    report = tmp_path / "evaluation.json"
    code = main(["evaluate", "--expr", "sqrt(x[0] + 0.99999)", "--config", SMOKE_CONFIG, "--out", str(report)])
    assert code == 0, capsys.readouterr().err

    def refuse(literal):
        raise AssertionError(f"{literal} is not JSON")

    payload = json.loads(report.read_text(), parse_constant=refuse)
    assert payload["any_invalid"] is True
    assert payload["rank_term"] is None and payload["penalty_term"] is None
    assert None in payload["DE"]


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


@pytest.mark.parametrize("command", ["evaluate", "analyze"])
def test_number_that_overflows_a_float_is_a_bad_expression(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([command, "--expr", "x[0] + 1e999", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["bad expression: number 1e999 is out of range (at position 7)"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, problem",
    [
        (["generate", "--replay", SMOKE_TRANSCRIPT, "--seed", "-1"], {}, "seed: must be >= 0"),
        (
            ["generate", "--replay", SMOKE_TRANSCRIPT],
            {"fitness": {"base_seed": -1}},
            "fitness.base_seed: must be >= 0",
        ),
        (["evaluate", "--expr", "x[0]", "--seed", "-1"], {}, "fitness.base_seed: must be >= 0"),
        (["analyze", "--expr", "x[0]"], {"analysis": {"seed": -1}}, "analysis.seed: must be >= 0"),
    ],
)
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, config, problem):
    out = tmp_path / "out"
    code = main([*command, "--config", _write_config(tmp_path, **config), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {problem}"]
    assert not out.exists()


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

    def rewrite_mid_run(expr, *args, **kwargs):
        scored.append(str(expr))
        source.write_text("x[1]**4\n", encoding="utf-8")
        return evaluate_benchmark(expr, *args, **kwargs)

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
    assert sobol["expression"] == record.best.expression
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
    crossover_edges = sum(2 for e in events if e.origin == "crossover")
    mutation_edges = sum(1 for e in events if e.origin == "mutation")
    init_edges = sum(len(e.parent_ids) for e in events if e.origin == "init_llm")
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
    texts = {b.id: b.expression for pop in load_run(smoke_run).populations for b in pop}
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


@pytest.mark.parametrize("text", ["x[0] +* 2", "x[9]**2"])
def test_snapshot_expression_that_does_not_parse_reports_position(smoke_run, capsys, text):
    path = smoke_run / "population.gen1.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "expression": text})
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["lineage", "--run", str(smoke_run)]) == 1
    assert "population.gen1.jsonl:3: bad benchmark record" in capsys.readouterr().err


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


def _commit_only(run_dir: Path, completed: int) -> None:
    """Rewrite ``best.json`` as the run wrote it after committing its
    first ``completed`` generations: its counts are those of their
    ledger lines."""
    path = run_dir / "best.json"
    summary = json.loads(path.read_text())
    written = load_lineage(run_dir / "lineage.jsonl")
    texts = {event.expression for event in written if event.generation_created < completed}
    counts = {"evaluated_benchmarks": len(texts), "inner_trials_total": 2 * 3 * len(texts)}
    path.write_text(json.dumps({**summary, "generations_completed": completed, **counts}))


def test_lineage_holds_only_committed_generations(smoke_run):
    _commit_only(smoke_run, 2)
    written = load_lineage(smoke_run / "lineage.jsonl")
    assert {event.generation_created for event in written} == {0, 1, 2}
    assert load_run(smoke_run).lineage == [event for event in written if event.generation_created < 2]


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
    _commit_only(smoke_run, 1)
    record = load_run(smoke_run)
    assert len(record.populations) == 1
    # the best and its trace come from the committed snapshots only
    assert len(record.best_per_generation) == len(record.populations)
    code = main([command, "--run", str(smoke_run), "--out", str(smoke_run / "out")])
    assert code == 0


@pytest.mark.parametrize(
    "completed, cause",
    [
        (4, "population.gen3.jsonl"),
        (0, "generations_completed: must be >= 1"),
        ("2", "generations_completed: must be an integer"),
        (True, "generations_completed: must be an integer"),
    ],
    # each case is named for the count of completed generations it claims
    ids=["4-population.gen3.jsonl", "0-0 completed", "2-'2' completed", "True-True completed"],
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


@pytest.mark.parametrize(
    "value, problem", [(None, "missing"), ("3", "must be an integer"), (True, "must be an integer")]
)
@pytest.mark.parametrize("key", ["evaluated_benchmarks", "inner_trials_total", "generations_completed"])
def test_run_summary_count_problem_names_the_file(smoke_run, capsys, key, value, problem):
    path = smoke_run / "best.json"
    summary = json.loads(path.read_text())
    if value is None:
        del summary[key]
    else:
        summary[key] = value
    path.write_text(json.dumps(summary))
    _assert_load_refused(smoke_run, capsys, f"{path}: {key}: {problem}")


def test_run_summary_problems_are_one_line_each(smoke_run, capsys):
    path = smoke_run / "best.json"
    summary = json.loads(path.read_text())
    del summary["evaluated_benchmarks"]
    path.write_text(json.dumps({**summary, "inner_trials_total": "3"}))
    _assert_load_refused(
        smoke_run, capsys, f"{path}: inner_trials_total: must be an integer", f"{path}: evaluated_benchmarks: missing"
    )


def test_run_summary_count_that_disagrees_with_the_ledger(smoke_run, capsys):
    path = smoke_run / "best.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "evaluated_benchmarks": 11}))
    _assert_load_refused(smoke_run, capsys, f"{path}: evaluated_benchmarks: is 11; lineage.jsonl gives 12")


@pytest.mark.parametrize(
    "key, value, problem",
    [("fitness", 0.5, "member {id} differs from its record in"), ("id", 99, "member 99 has no record in")],
    ids=["fitness", "id"],
)
def test_snapshot_member_that_disagrees_with_the_ledger(smoke_run, capsys, key, value, problem):
    path = smoke_run / "population.gen2.jsonl"
    lines = path.read_text().splitlines()
    member = json.loads(lines[2])
    lines[2] = json.dumps({**member, key: value})
    path.write_text("\n".join(lines) + "\n")
    _assert_load_refused(smoke_run, capsys, f"{path}: {problem.format(id=member['id'])} lineage.jsonl")


def test_run_config_problems_name_the_file_one_line_each(smoke_run, capsys):
    path = smoke_run / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "population_size": 1, "foo": 1}))
    _assert_load_refused(
        smoke_run, capsys, f"{path}: population_size: must be >= 2", f"{path}: foo: unknown key"
    )


def test_run_record_missing_field_is_named(smoke_run, capsys):
    path = smoke_run / "population.gen1.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    del record["id"]
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    _assert_load_refused(smoke_run, capsys, f"{path}:3: bad benchmark record: id: missing")


def test_run_record_line_that_is_not_an_object(smoke_run, capsys):
    path = smoke_run / "lineage.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = "[1, 2]"
    path.write_text("\n".join(lines) + "\n")
    _assert_load_refused(smoke_run, capsys, f"{path}:3: bad lineage record: must be an object")


@pytest.mark.parametrize("kept", [0, 2])
def test_run_directory_short_committed_snapshot(smoke_run, capsys, kept):
    path = smoke_run / "population.gen2.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:kept]))
    _assert_load_refused(smoke_run, capsys, f"{path}: holds {kept} benchmarks; population_size is 4")


def _assert_load_refused(run_dir, capsys, *problems):
    # neither command writes anything before it has loaded the run
    for command in ("lineage", "analyze"):
        capsys.readouterr()
        code = main([command, "--run", str(run_dir), "--out", str(run_dir / "out")])
        assert code == 1, command
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"cannot load run: {problem}" for problem in problems], command


# a run-directory field of the wrong JSON type: (file, line, record, field, value, expected type)
WRONG_TYPED_FIELD = {
    "fitness-string": ("population.gen2.jsonl", 3, "benchmark", "fitness", "abc", "a finite number"),
    "fitness-null": ("population.gen2.jsonl", 3, "benchmark", "fitness", None, "a finite number"),
    "id-string": ("population.gen2.jsonl", 3, "benchmark", "id", "2", "an integer"),
    "expression-number": ("population.gen2.jsonl", 3, "benchmark", "expression", 5, "a string"),
    "generation-string": ("lineage.jsonl", 3, "lineage", "generation_created", "0", "an integer"),
    "identical-string": ("lineage.jsonl", 3, "lineage", "identical", "no", "a boolean"),
    "generation-created-bool": ("population.gen2.jsonl", 3, "benchmark", "generation_created", True, "an integer"),
    "rank-term-bool": ("population.gen2.jsonl", 3, "benchmark", "rank_term", False, "a finite number or null"),
    "parent-ids-floats": ("lineage.jsonl", 3, "lineage", "parent_ids", [1.0], "a list of integers"),
}


@pytest.mark.parametrize("name, line, what, key, value, kind", WRONG_TYPED_FIELD.values(), ids=WRONG_TYPED_FIELD)
def test_run_record_field_of_the_wrong_type_names_file_line_and_field(
    smoke_run, capsys, name, line, what, key, value, kind
):
    path = smoke_run / name
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line - 1] = json.dumps({**json.loads(lines[line - 1]), key: value})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_load_refused(smoke_run, capsys, f"{path}:{line}: bad {what} record: {key}: must be {kind}")


def test_unknown_parent_on_the_best_ancestry_fails_lineage(smoke_run, capsys):
    # the best member becomes a mutation of an id that no ledger line
    # holds, in the ledger and in every snapshot, which still agree
    best = load_run(smoke_run).best.id
    for path in [smoke_run / "lineage.jsonl", *smoke_run.glob("population.gen*.jsonl")]:
        events = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        events = [{**e, "origin": "mutation", "parent_ids": [99]} if e["id"] == best else e for e in events]
        path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
    capsys.readouterr()
    assert main(["lineage", "--run", str(smoke_run), "--out", str(smoke_run / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == ["lineage analysis failed: unknown benchmark id 99"]


@pytest.mark.parametrize("name", ["config.json", "best.json"])
@pytest.mark.parametrize("command", ["lineage", "analyze"])
def test_run_directory_file_that_is_not_an_object(smoke_run, capsys, command, name):
    path = smoke_run / name
    path.write_text("[1]\n")
    capsys.readouterr()
    code = main([command, "--run", str(smoke_run), "--out", str(smoke_run / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"cannot load run: {path}: must be an object"]


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
