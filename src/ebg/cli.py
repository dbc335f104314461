"""Command-line interface: generate runs, score and analyze benchmarks.

One JSON config file carries every knob: the engine block at the top
level (EngineConfig), plus ``backend`` (BackendConfig: chat endpoint or
transcript replay) and ``analysis`` (AnalysisConfig: sample counts and
finite-difference steps) blocks.  Those frozen dataclasses hold every
default and every range check; ``--print-default-config`` emits their
defaults.  Each command builds every block once, with ``config.build``,
from the file's object with the environment and flag overrides laid
over it; a key the dataclasses do not know, at any level, is an error,
and every problem of every block is listed together.  Only ``generate``
also asks the backend block for a source of responses.

Exit codes: 0 success, 1 for validation problems (every violated field
is listed), 2 for runtime aborts such as replay misses, a failed chat
endpoint, exhausted retry budgets, or invalid analysis samples.  There is
one exit path: where a command reads an outside input (config, output
path, transcript, expression, run directory) or runs its work, it turns
that step's errors into a ``Refused``, and ``main`` alone prints its
lines to stderr and returns its code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .analysis import (
    AnalysisConfig,
    curvature_features,
    mds_embed,
    operator_stats,
    pairwise_levenshtein,
    sobol_indices,
)
from .config import ConfigError, build, build_block, nan_as_null, problems_of, raise_problems, read_object
from .engine import (
    ORIGIN_CROSSOVER,
    ORIGIN_INIT,
    ORIGIN_MUTATION,
    EngineAbort,
    EngineConfig,
    RunRecord,
    load_run,
    run,
)
from .expressions import DimensionError, Expression, ParseError, SymbolError, parse
from .fitness import evaluate_benchmark, prevalidate
from .llm import (
    BackendConfig,
    LiveBackend,
    RecordingBackend,
    ReplayBackend,
    TranscriptMissError,
    TransportError,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# environment variables laid over the backend block's fields
ENV_BACKEND = {"EBG_API_URL": "endpoint_url", "EBG_API_KEY": "api_key", "EBG_MODEL": "model"}


# ------------------------------------------------------------------ config

# the blocks of a config file; the engine's fields sit at its top level
BLOCKS = {"backend": BackendConfig, "analysis": AnalysisConfig}


def default_config() -> dict:
    """The full config schema with every default filled in."""
    engine = dataclasses.asdict(EngineConfig())
    del engine["output_dir"]
    return {**engine, **{name: dataclasses.asdict(cls()) for name, cls in BLOCKS.items()}}


def load_config(path: str | None) -> dict:
    """The object of a JSON config file; no path is an empty one, which
    keeps every default.  Raises ValueError for a file that is not a
    JSON object."""
    return {} if path is None else read_object(path)


def override(data: dict, block: str, values: dict) -> dict:
    """``data`` with ``values`` laid over its ``block``; a block that is
    not an object is left for :func:`build_configs` to report."""
    current = data.get(block, {})
    if not values or not isinstance(current, dict):
        return data
    return {**data, block: {**current, **values}}


def build_configs(
    data: dict, output_dir: str | None = None, generate: bool = False
) -> tuple[EngineConfig, BackendConfig, AnalysisConfig]:
    """The engine, backend and analysis configs of a config file's object.

    Each block is built once by ``config.build``, and every problem of
    every block is raised in one ConfigError, prefixed with the block's
    name.  ``output_dir`` is no key of the file, because ``--out`` sets
    it.  With ``generate``, a backend block that built must also name a
    source of responses.
    """
    problems = ["output_dir: unknown key"] if "output_dir" in data else []

    def collect(make, *args):
        try:
            return make(*args)
        except ConfigError as err:
            problems.extend(err.problems)
            return None

    engine = {key: value for key, value in data.items() if key not in BLOCKS}
    config = collect(build, EngineConfig, {**engine, "output_dir": output_dir})
    backend = collect(build_block, "backend", BackendConfig, data.get("backend", {}))
    analysis = collect(build_block, "analysis", AnalysisConfig, data.get("analysis", {}))
    if generate and backend is not None:
        problems += [f"backend.{problem}" for problem in backend.source_problems()]
    raise_problems(problems)
    return config, backend, analysis


def engine_config_from(data: dict, output_dir: str | None) -> EngineConfig:
    return build_configs(data, output_dir)[0]


def build_backend(config: BackendConfig, out_dir: Path):
    if config.mode == "replay":
        return ReplayBackend.from_path(config.transcript)
    live = LiveBackend(config)
    if config.mode == "record":
        return RecordingBackend(live, out_dir / "transcript.jsonl")
    return live


# ------------------------------------------------------------ subcommands


class Refused(Exception):
    """A command's refusal: ``main`` prints its lines to stderr and
    returns its exit code.  No library ``except ValueError`` catches it."""

    def __init__(self, code: int, *lines: str):
        super().__init__(*lines)
        self.code = code
        self.lines = lines


@contextmanager
def refusing(code: int, prefix: str, *errors: type[Exception]):
    """Turn any of ``errors`` raised in the block into a refusal of one
    ``prefix: problem`` line per problem: each of a ConfigError's, or
    the error's text."""
    try:
        yield
    except errors as err:
        raise Refused(code, *(f"{prefix}: {problem}" for problem in problems_of(err))) from err


def check_output(path: Path, directory: bool) -> None:
    """Refuse an output ``path`` that cannot take a command's output.

    A directory output is created with its parents, so its nearest
    existing ancestor must be a directory.  A file output needs an
    existing parent directory and must not be a directory itself.
    """
    problem = None
    if directory:
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            problem = f"{existing} exists and is not a directory"
    elif path.is_dir():
        problem = f"{path} is a directory"
    elif not path.parent.is_dir():
        problem = f"no directory {path.parent}"
    if problem:
        raise Refused(EXIT_VALIDATION, f"cannot write output: {problem}")


def read_expression(text: str | None, file: str | None, dimension: int) -> tuple[str, Expression]:
    """The text of ``--expr``, or else of ``--file``, and its parse."""
    with refusing(EXIT_VALIDATION, "bad expression", OSError, ParseError, SymbolError, DimensionError):
        # read once: the report names the text that was scored
        if text is None:
            text = Path(file).read_text(encoding="utf-8").strip()
        return text, parse(text, dimension)


def read_run(directory: str) -> RunRecord:
    with refusing(EXIT_VALIDATION, "cannot load run", OSError, ValueError):
        return load_run(directory)


def write_json(path: Path, payload: dict) -> None:
    # a NaN or an infinity raises ValueError rather than write a literal that is not JSON
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def cmd_generate(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    with refusing(EXIT_VALIDATION, "config error", OSError, ValueError):
        env = {field: os.environ[name] for name, field in ENV_BACKEND.items() if os.environ.get(name)}
        data = override(load_config(args.config), "backend", env)
        if args.replay is not None:
            data = override(data, "backend", {"mode": "replay", "transcript": args.replay})
        if args.seed is not None:
            data = {**data, "seed": args.seed}
        config, backend_config, _ = build_configs(data, str(out_dir), generate=True)
    check_output(out_dir, directory=True)
    with refusing(EXIT_VALIDATION, "cannot read transcript", OSError, ValueError):
        backend = build_backend(backend_config, out_dir)
    with refusing(EXIT_RUNTIME, "run aborted", EngineAbort, TranscriptMissError, TransportError):
        record = run(config, backend)
    print(f"best expression: {record.best.expression}")
    print(f"best fitness: {record.best.fitness:.10g}")
    print(f"run directory: {out_dir}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    with refusing(EXIT_VALIDATION, "config error", OSError, ValueError):
        data = load_config(args.config)
        if args.seed is not None:
            data = override(data, "fitness", {"base_seed": args.seed})
        config, _, _ = build_configs(data)
    out = Path(args.out)
    check_output(out, directory=False)
    text, expr = read_expression(args.expr, args.file, config.dimension)
    fitness_config = config.fitness
    if not prevalidate(expr, fitness_config):
        raise Refused(EXIT_VALIDATION, "expression failed pre-validation: invalid values on the search box")
    evaluation = evaluate_benchmark(expr, fitness_config, ga_config=config.ga, de_config=config.de)
    a1, a2 = fitness_config.a1, fitness_config.a2
    print(f"fitness: {evaluation.fitness:.10g}")
    print(f"rank term: {evaluation.rank_term:.10g}")
    print(f"penalty term: {evaluation.penalty_term:.10g}")
    print(f"trial  {a1:>12}  {a2:>12}")
    for i, (va, vb) in enumerate(zip(evaluation.a1_best, evaluation.a2_best)):
        print(f"{i:5d}  {va:12.5g}  {vb:12.5g}")
    payload = {
        "expression": text,
        "fitness": evaluation.fitness,
        "rank_term": evaluation.rank_term,
        "penalty_term": evaluation.penalty_term,
        "any_invalid": evaluation.any_invalid,
        "trials": fitness_config.trials,
        # an invalid trial's best is NaN, written as null like the terms
        a1: [None if math.isnan(v) else v for v in evaluation.a1_best],
        a2: [None if math.isnan(v) else v for v in evaluation.a2_best],
    }
    write_json(out, nan_as_null(payload.items()))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    with refusing(EXIT_VALIDATION, "config error", OSError, ValueError):
        config, _, analysis = build_configs(load_config(args.config))
    out_dir = Path(args.out)
    check_output(out_dir, directory=True)
    if args.run is not None:
        record = read_run(args.run)
        text = record.best.expression
        expr = parse(text, record.config.dimension)
    else:
        text, expr = read_expression(args.expr, None, config.dimension)
    out_dir.mkdir(parents=True, exist_ok=True)
    with refusing(EXIT_RUNTIME, "analysis aborted", ValueError):  # InvalidSamplePoint is a ValueError
        if args.what in ("sobol", "both"):
            result = sobol_indices(expr, base_samples=analysis.sobol_base_samples, seed=analysis.seed)
            write_json(out_dir / "sobol.json", {"expression": text, **dataclasses.asdict(result)})
        if args.what in ("curvature", "both"):
            features = curvature_features(
                expr,
                sample_points=analysis.curvature_points,
                fd_step_gradient=analysis.fd_step_gradient,
                fd_step_hessian=analysis.fd_step_hessian,
                seed=analysis.seed,
            )
            write_json(out_dir / "curvature.json", {"expression": text, **dataclasses.asdict(features)})
    return EXIT_OK


def write_lineage_outputs(record: RunRecord, out_dir: Path) -> None:
    survivors = {benchmark.id for population in record.populations for benchmark in population}
    members = [child for child in record.lineage if child.id in survivors]
    ids = [child.id for child in members]
    texts = [child.expression for child in members]

    distances = pairwise_levenshtein(texts)
    with open(out_dir / "distances.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id_a", "id_b", "distance"])
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                writer.writerow([ids[i], ids[j], int(distances[i, j])])

    coords = mds_embed(distances, 2)
    with open(out_dir / "embedding.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "x", "y"])
        for i, benchmark_id in enumerate(ids):
            writer.writerow([benchmark_id, f"{coords[i, 0]:.6f}", f"{coords[i, 1]:.6f}"])

    stats = operator_stats(record.lineage, record.best.id)
    payload = {"best_id": record.best.id, **dataclasses.asdict(stats)}
    (out_dir / "operator_stats.json").write_text(json.dumps(payload, indent=2) + "\n")

    styles = {ORIGIN_CROSSOVER: "solid", ORIGIN_MUTATION: "dashed", ORIGIN_INIT: "dotted"}
    lines = ["digraph lineage {", "  node [shape=box];"]
    # a child that never survived is labelled by its id alone
    for child in record.lineage:
        label = f"{child.id}\\n{child.fitness:.4g}" if child.id in survivors else str(child.id)
        lines.append(f'  b{child.id} [label="{label}"];')
    for child in record.lineage:
        style = styles.get(child.origin)
        if style is None:
            continue
        for parent in child.parent_ids:
            lines.append(f"  b{parent} -> b{child.id} [style={style}];")
    lines.append("}")
    (out_dir / "lineage.dot").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_lineage(args: argparse.Namespace) -> int:
    out_dir = Path(args.out if args.out is not None else args.run)
    check_output(out_dir, directory=True)
    record = read_run(args.run)
    out_dir.mkdir(parents=True, exist_ok=True)
    with refusing(EXIT_RUNTIME, "lineage analysis failed", ValueError):
        write_lineage_outputs(record, out_dir)
    for name in ("distances.csv", "embedding.csv", "operator_stats.json", "lineage.dot"):
        print(f"wrote {out_dir / name}")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebg",
        description="Evolve optimizer-discriminating benchmark functions and analyze them.",
    )
    parser.add_argument(
        "--print-default-config",
        action="store_true",
        help="print the full default config as JSON and exit",
    )
    sub = parser.add_subparsers(dest="command")

    generate = sub.add_parser("generate", help="run the evolutionary loop")
    generate.add_argument("--config", default=None, help="JSON config file")
    generate.add_argument("--out", required=True, help="run directory to create")
    generate.add_argument("--seed", type=int, default=None, help="override the run seed")
    generate.add_argument("--replay", default=None, help="transcript to replay instead of a live endpoint")
    generate.set_defaults(func=cmd_generate)

    evaluate = sub.add_parser("evaluate", help="score one expression")
    target = evaluate.add_mutually_exclusive_group(required=True)
    target.add_argument("--expr", default=None, help="expression text")
    target.add_argument("--file", default=None, help="file holding the expression")
    evaluate.add_argument("--config", default=None, help="JSON config file")
    evaluate.add_argument("--seed", type=int, default=None, help="override the trial base seed")
    evaluate.add_argument("--out", default="evaluation.json", help="where to write the report")
    evaluate.set_defaults(func=cmd_evaluate)

    analyze = sub.add_parser("analyze", help="sensitivity and curvature analysis")
    target = analyze.add_mutually_exclusive_group(required=True)
    target.add_argument("--expr", default=None, help="expression text")
    target.add_argument("--run", default=None, help="run directory; analyzes its best benchmark")
    analyze.add_argument("--what", choices=("sobol", "curvature", "both"), default="both")
    analyze.add_argument("--config", default=None, help="JSON config file")
    analyze.add_argument("--out", default=".", help="directory for analysis files")
    analyze.set_defaults(func=cmd_analyze)

    lineage = sub.add_parser("lineage", help="distances, embedding, operator stats, DOT graph")
    lineage.add_argument("--run", required=True, help="run directory")
    lineage.add_argument("--out", default=None, help="output directory (default: the run directory)")
    lineage.set_defaults(func=cmd_lineage)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_default_config:
        print(json.dumps(default_config(), indent=2))
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except Refused as refusal:
        for line in refusal.lines:
            print(line, file=sys.stderr)
        return refusal.code


if __name__ == "__main__":
    sys.exit(main())
