"""The three workloads: ``evaluate``, ``generate`` and ``analyze``.

Each is a closed loop with one caller: an operation starts when the
previous one returns.  An operation is one ``evaluate_benchmark`` call,
one CLI invocation through ``ebg.cli.main`` with user argv, or one
analysis call.  It fails if it raises, exits non-zero or fails an
output check; a penalty fitness or an LLM rejection is a result.

Why these three:

* ``evaluate`` is the unit of cost with many trials per evaluation
  (T=20), where batching trials and faster kernels do most of their work.
* ``generate`` is the whole outer loop a user runs offline (prompt,
  replay, sanitize, prevalidate, cache, snapshots) with only T=3 trials
  per evaluation, where engine and LLM-operator changes show.
* ``analyze`` never calls the optimizers, so it is the no-change control
  for optimizer work; it covers Sobol, curvature, the kernel's
  invalid-point path and the pure-Python edit distance.

Only inner generations are scaled down from the paper's defaults (D=5,
population 50, 1000 generations), to 20, because the cost per generation
is flat; that keeps a pass near ten seconds.
"""

from __future__ import annotations

import io
import json
import shutil
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs

SPHERE = "x[0]**2 + x[1]**2 + x[2]**2 + x[3]**2 + x[4]**2"
EVALUATE_TRIALS = 20
EVALUATE_GENERATIONS = 20

# postfix lengths of the seeded formulas analyzed on ``analyze``
ANALYZE_OPS = (50, 70, 90, 110, 130, 150)

# outer population 10 for 4 generations, T=3, GA/DE at 20 generations;
# prevalidation keeps its default of 1000 samples
GENERATE_CONFIG = {
    "population_size": 10,
    "max_generations": 4,
    "dimension": inputs.DIMENSION,
    "fitness": {"trials": 3},
    "ga": {"generations": 20},
    "de": {"generations": 20},
}
# the run ``ebg lineage`` reads on analyze: see inputs.LINEAGE_MIX
LINEAGE_CONFIG = {**GENERATE_CONFIG, "population_size": 20, "max_generations": 1}


@dataclass
class PassResult:
    seconds: float = 0.0  # wall seconds of the pass's operations, less calibration
    attempted: int = 0
    failed_ops: set[str] = field(default_factory=set)
    work: int = 0  # evaluate_benchmark calls, or analysis calls on analyze
    outputs: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    run_dir_bytes: int = 0

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


class _Ops:
    """Counts and times the operations of one pass and opens a trace per
    operation.  Time the sampler spends calibrating during an operation
    is not part of its time (see ``calibration``)."""

    def __init__(self, result: PassResult, tracer, sampler):
        self.result = result
        self.tracer = tracer
        self.sampler = sampler

    def __call__(self, name: str, fn, *args):
        self.result.attempted += 1
        value = None
        spent = self.sampler.spent if self.sampler else 0.0
        started = time.perf_counter()
        with self.tracer.operation(name) if self.tracer else nullcontext():
            try:
                value = fn(*args)
            except Exception as err:  # a failed operation is counted, not fatal
                self.failed(name, f"{type(err).__name__}: {err}")
        elapsed = time.perf_counter() - started
        self.result.seconds += elapsed - ((self.sampler.spent - spent) if self.sampler else 0.0)
        return value

    def failed(self, name: str, problem: str) -> None:
        self.result.failed_ops.add(name)
        self.result.problems.append(f"{name}: {problem}")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    import ebg.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ebg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _cli_op(ops: _Ops, name: str, argv: list[str]) -> str | None:
    result = ops(name, run_cli, argv)
    if result is None:
        return None
    code, out, err = result
    if code != 0:
        ops.failed(name, f"exit {code}: {err.strip()[-300:]}")
        return None
    return out


def _parse(text: str):
    from ebg.expressions import parse

    return parse(text, inputs.DIMENSION)


# ------------------------------------------------------------- evaluate


class Evaluate:
    name = "evaluate"
    layers = ("kernels", "optimizers", "fitness")

    def __init__(self, seed: int, work: Path):
        from ebg.expressions import DE_ADVANTAGE_EXAMPLE, GA_ADVANTAGE_EXAMPLE
        from ebg.fitness import FitnessConfig
        from ebg.optimizers import DeConfig, GaConfig

        rng = np.random.default_rng([seed, 1])
        self.panel = [
            ("sphere", SPHERE),  # 19 ops: operator-bound
            ("ga_showcase", GA_ADVANTAGE_EXAMPLE),  # 141 ops: kernel-bound
            ("de_showcase", DE_ADVANTAGE_EXAMPLE),
            ("early_invalid", inputs.early_invalid(rng)),  # trials abort part-way
            ("seeded", inputs.formula(rng, 100)),
        ]
        self.exprs = [_parse(text) for _, text in self.panel]
        self.config = FitnessConfig(trials=EVALUATE_TRIALS)
        self.ga = GaConfig(generations=EVALUATE_GENERATIONS)
        self.de = DeConfig(generations=EVALUATE_GENERATIONS)
        self.points = checks.sample_points(rng, 200, inputs.DIMENSION)

    def run_pass(self, index: int, tracer, sampler) -> PassResult:
        from ebg import fitness

        result = PassResult()
        ops = _Ops(result, tracer, sampler)
        evaluations = []
        for (label, _), expr in zip(self.panel, self.exprs):
            evaluations.append(ops(label, fitness.evaluate_benchmark, expr, self.config, None,
                                   self.ga, self.de))
        for (label, _), ev in zip(self.panel, evaluations):
            if ev is None:
                continue
            result.work += 1
            problems = checks.fitness_in_range(ev.fitness, ev.rank_term, ev.penalty_term,
                                               ev.any_invalid, self.config.trials,
                                               self.config.invalid_penalty)
            if ev.any_invalid != (label == "early_invalid"):
                problems.append(f"any_invalid is {ev.any_invalid}")
            for p in problems:
                ops.failed(label, p)
            result.outputs[label] = repr((ev.fitness, ev.a1_best, ev.a2_best, ev.any_invalid))
        return result

    def check(self) -> list[str]:
        problems = []
        for expr in self.exprs:
            problems += checks.kernel_matches_reference(expr, self.points)
        return problems

    def check_trace(self, metrics: dict) -> list[str]:
        return []


# ------------------------------------------------------------- generate


class Recording:
    """A generate run recorded from the scripted backend while the
    benchmark builds its inputs.  Recording with the code under test keeps
    the transcript valid when the program's random streams change."""

    def __init__(self, seed: int, work: Path, config: dict, mix: inputs.Mix):
        from ebg import engine
        from ebg.cli import engine_config_from, load_config
        from ebg.llm import RecordingBackend

        work.mkdir(parents=True, exist_ok=True)
        self.config = work / "generate.json"
        self.config.write_text(json.dumps({**config, "seed": seed}), encoding="utf-8")
        self.transcript = work / "transcript.jsonl"
        self.run_dir = work / "recorded"
        self.scripted = inputs.ScriptedBackend(seed, mix)
        data = load_config(str(self.config))
        engine.run(engine_config_from(data, str(self.run_dir)),
                   RecordingBackend(self.scripted, self.transcript))
        if self.scripted.calls != len(self.scripted.schedule):
            raise RuntimeError(f"recording used {self.scripted.calls} of "
                               f"{len(self.scripted.schedule)} scripted responses")
        self.digest = checks.tree_digest(self.run_dir, skip=("config.json",))
        self.records = [
            json.loads(line)
            for p in sorted(self.run_dir.glob("population.gen*.jsonl"))
            for line in p.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        self.texts = {r["id"]: r["expression"] for r in self.records}


class Generate:
    name = "generate"
    layers = ("expressions", "kernels", "optimizers", "fitness", "llm", "engine", "cli")

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.rec = Recording(seed, work, GENERATE_CONFIG, inputs.GENERATE_MIX)
        rng = np.random.default_rng([seed, 3])
        final = [r["expression"] for r in self.rec.records[-GENERATE_CONFIG["population_size"]:]]
        self.check_exprs = [_parse(t) for t in final]
        self.points = checks.sample_points(rng, 64, inputs.DIMENSION)

    def run_pass(self, index: int, tracer, sampler) -> PassResult:
        result = PassResult()
        ops = _Ops(result, tracer, sampler)
        out = self.work / f"pass{index}" / "run"
        argv = ["generate", "--config", str(self.rec.config), "--out", str(out),
                "--replay", str(self.rec.transcript)]
        stdout = _cli_op(ops, "generate", argv)
        if stdout is None:
            return result
        best = json.loads((out / "best.json").read_text(encoding="utf-8"))
        result.work = best["evaluated_benchmarks"]
        result.run_dir_bytes = checks.tree_bytes(out)
        result.outputs = checks.tree_digest(out, skip=("config.json",))
        problems = []
        if best["aborted"] or best["generations_completed"] != GENERATE_CONFIG["max_generations"]:
            problems.append(f"run incomplete: {best['generations_completed']} generations, "
                            f"aborted={best['aborted']}")
        if result.outputs != self.rec.digest:
            problems.append("replayed run directory differs from the recorded one")
        if f"best fitness: {best['best']['fitness']:.10g}" not in stdout:
            problems.append("printed best fitness disagrees with best.json")
        for p in problems:
            ops.failed("generate", p)
        shutil.rmtree(out.parent)
        return result

    def check(self) -> list[str]:
        from ebg.fitness import FitnessConfig

        problems = []
        penalty = FitnessConfig().invalid_penalty
        for r in self.rec.records:
            problems += checks.fitness_in_range(r["fitness"], r["rank_term"], r["penalty_term"],
                                                r["any_invalid"],
                                                GENERATE_CONFIG["fitness"]["trials"], penalty)
        for expr in self.check_exprs:
            problems += checks.kernel_matches_reference(expr, self.points)
        return problems

    def check_trace(self, m: dict) -> list[str]:
        """Exact LLM and cache counts follow from the scripted schedule."""
        sched = self.rec.scripted.schedule
        expected = {
            "llm.complete_calls": len(sched),
            "llm.rejections.unparseable": sched.count(inputs.REJECT_PROSE),
            "llm.rejections.non-whitelisted-symbol": sched.count(inputs.REJECT_SYMBOL),
            "llm.rejections.bad-index": sched.count(inputs.REJECT_INDEX),
            "llm.rejections.prevalidation": sched.count(inputs.REJECT_PREVALIDATION),
            "llm.rejections.empty": 0,
            "engine.admitted": inputs.GENERATE_MIX.accepted + 1,
        }
        problems = [f"{k} is {m[k][0]}, expected {v}" for k, v in expected.items() if m[k][0] != v]
        # the seed member and every fresh formula are evaluated once
        hit = 1.0 - (sched.count(inputs.FRESH) + 1) / (inputs.GENERATE_MIX.accepted + 1)
        if abs(m["engine.cache_hit_ratio"][0] - hit) > 1e-12:
            problems.append(f"engine.cache_hit_ratio is {m['engine.cache_hit_ratio'][0]}, expected {hit}")
        return problems


# -------------------------------------------------------------- analyze


class Analyze:
    name = "analyze"
    layers = ("expressions", "kernels", "engine", "analysis", "cli")

    def __init__(self, seed: int, work: Path):
        from ebg.expressions import DE_ADVANTAGE_EXAMPLE, GA_ADVANTAGE_EXAMPLE

        self.work = work
        self.rec = Recording(seed, work, LINEAGE_CONFIG, inputs.LINEAGE_MIX)
        rng = np.random.default_rng([seed, 4])
        # seeded members use every variable in a square, so curvature
        # finds usable points instead of skipping nearly all of them
        self.panel = [GA_ADVANTAGE_EXAMPLE, DE_ADVANTAGE_EXAMPLE] + [
            inputs.formula(rng, ops, every_variable=True) for ops in ANALYZE_OPS
        ]
        i = int(rng.integers(inputs.DIMENSION))
        # invalid below x[i] = -0.95: Sobol must stop at the first such
        # sample and curvature must skip the stencils that reach it
        self.probe = _parse(f"sqrt(x[{i}] + 0.95) + {inputs.formula(rng, 40, every_variable=True)}")
        self.exprs = [_parse(t) for t in self.panel]
        self.sobol_checks = [checks.sobol_tolerance(e) for e in self.exprs]
        self.points = checks.sample_points(rng, 200, inputs.DIMENSION)
        self.seed = seed

    def run_pass(self, index: int, tracer, sampler) -> PassResult:
        from ebg import analysis

        result = PassResult()
        ops = _Ops(result, tracer, sampler)
        out = self.work / f"pass{index}"
        for j, text in enumerate(self.panel):
            _cli_op(ops, f"analyze{j}", ["analyze", "--expr", text, "--what", "both",
                                         "--out", str(out / f"analyze{j}")])
        _cli_op(ops, "lineage", ["lineage", "--run", str(self.rec.run_dir),
                                 "--out", str(out / "lineage")])
        sobol = ops("sobol_probe", _expect_invalid, analysis.sobol_indices, self.probe)
        curvature = ops("curvature_probe", analysis.curvature_features, self.probe)
        result.work = result.attempted
        if sobol is not None:
            if not isinstance(sobol, analysis.InvalidSamplePoint):
                ops.failed("sobol_probe", "did not stop at an invalid sample")
            else:
                for p in _cause_matches(self.probe, sobol):
                    ops.failed("sobol_probe", p)
                result.outputs["sobol_probe"] = repr((sobol.point.tolist(), sobol.cause))
        if curvature is not None:
            if curvature.skipped_count == 0:
                ops.failed("curvature_probe", "skipped no point")
            result.outputs["curvature_probe"] = repr(curvature)
        if out.exists():
            result.outputs.update(checks.tree_digest(out))
            for j in range(len(self.panel)):
                d = out / f"analyze{j}"
                if (d / "sobol.json").exists():
                    for p in checks.sobol_ordered(d / "sobol.json", self.sobol_checks[j][0]):
                        ops.failed(f"analyze{j}", p)
                if (d / "curvature.json").exists():
                    c = json.loads((d / "curvature.json").read_text(encoding="utf-8"))
                    if c["sample_count"] + c["skipped_count"] != 100:
                        ops.failed(f"analyze{j}", "curvature counts do not add to 100")
            if (out / "lineage" / "distances.csv").exists():
                for p in checks.distances_match(out / "lineage" / "distances.csv", self.rec.texts,
                                                np.random.default_rng([self.seed, index])):
                    ops.failed("lineage", p)
            shutil.rmtree(out)
        return result

    def check(self) -> list[str]:
        problems = [p for _, found in self.sobol_checks for p in found]
        for expr in self.exprs + [self.probe]:
            problems += checks.kernel_matches_reference(expr, self.points)
        return problems

    def check_trace(self, metrics: dict) -> list[str]:
        return []


def _expect_invalid(fn, expr):
    """The InvalidSamplePoint that ``fn`` must raise, or the result it
    returned instead."""
    from ebg.analysis import InvalidSamplePoint

    try:
        return fn(expr)
    except InvalidSamplePoint as err:
        return err


def _cause_matches(expr, err) -> list[str]:
    """The cause on the analysis error path is the reference cause."""
    from ebg.expressions import evaluate

    ref = evaluate(expr, list(err.point))
    if ref.ok or ref.cause != err.cause:
        return [f"sobol probe cause {err.cause!r}, reference says {ref.cause!r}"]
    return []


WORKLOADS = {w.name: w for w in (Evaluate, Generate, Analyze)}
