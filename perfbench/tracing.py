"""Spans recorded around the program's public functions, from outside it.

:func:`install` wraps one boundary function per layer concern and
rebinds every ``ebg.*`` module attribute that *is* that function, so a
caller holding its own ``from .kernels import eval_program`` binding is
traced too.  Spans stay in memory (name, layer, start, end, parent span,
trace id, counts) and are written out once, when the run ends.
:func:`layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NAME, LAYER, START, END, PARENT, TRACE, COUNTS = range(7)

# rejection causes named by ebg.llm.REJECT_*, spelled out so that the
# metric names stay fixed
LLM_CAUSES = ("empty", "unparseable", "non-whitelisted-symbol", "bad-index")

LAYERS = ("expressions", "kernels", "optimizers", "fitness", "llm", "engine", "analysis", "cli")


class LayerLost(RuntimeError):
    """A boundary the benchmark must trace is missing from the program."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trace = 0

    def operation(self, name: str) -> "_Operation":
        """Root span of one benchmark operation; starts a new trace id."""
        return _Operation(self, name)

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, layer, 0.0, 0.0, parent, self._trace, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self._close(span)
                span[COUNTS] = {"error": type(err).__name__}
                raise
            self._close(span)
            if count is not None:
                span[COUNTS] = count(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        names = ("name", "layer", "start", "end", "parent", "trace", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(names, span))) + "\n")


class _Operation:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.tracer._trace += 1
        self.span = self.tracer._open(self.name, "bench")

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.span)


# ------------------------------------------------------------- boundaries


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_kernel(args, kwargs, result):
    program, X = _arg(args, kwargs, 0, "program"), _arg(args, kwargs, 1, "X")
    points = int(X.shape[0])
    # the second result is a cause code per point, or an invalid mask
    return {
        "points": points,
        "ops": points * int(len(program.codes)),
        "invalid": int(np.count_nonzero(result[1])),
    }


def _count_trials(args, kwargs, result):
    trials = steps = invalid = 0
    for outcomes in result.values():
        for outcome in outcomes:
            trials += 1
            # best_trace holds the value after initialization and after
            # each completed generation; an invalid trial also ran the
            # generation that failed
            done = len(outcome.best_trace)
            steps += done if not outcome.valid else done - 1
            invalid += not outcome.valid
    return {"trials": trials, "steps": steps, "invalid": invalid}


def _count_sanitize(args, kwargs, result):
    cause = getattr(result, "cause", None)
    return {"rejected": cause} if isinstance(cause, str) else {}


def _count_levenshtein(args, kwargs, result):
    lengths = [len(t) for t in _arg(args, kwargs, 0, "texts")]
    total = sum(lengths)
    cells = (total * total - sum(n * n for n in lengths)) // 2
    return {"cells": cells}


@dataclass(frozen=True)
class Boundary:
    layer: str
    module: str
    attr: str
    owner: str | None = None  # class holding ``attr`` as a method
    count: Callable | None = None
    optional: bool = False

    @property
    def name(self) -> str:
        short = self.module.rsplit(".", 1)[-1]
        return ".".join(p for p in (short, self.owner, self.attr) if p)


BOUNDARIES = (
    Boundary("expressions", "ebg.expressions", "parse"),
    Boundary("kernels", "ebg.kernels", "eval_program", count=_count_kernel),
    # the optimizer layer starts at run_trials, which stays the entry
    # point when trials are batched; run_ga/run_de are optional children
    Boundary("optimizers", "ebg.fitness", "run_trials", count=_count_trials),
    Boundary("optimizers", "ebg.optimizers", "run_ga", optional=True),
    Boundary("optimizers", "ebg.optimizers", "run_de", optional=True),
    Boundary("fitness", "ebg.fitness", "evaluate_benchmark",
             count=lambda a, k, r: {"invalid": int(r.any_invalid)}),
    Boundary("fitness", "ebg.fitness", "prevalidate", count=lambda a, k, r: {"rejected": int(not r)}),
    Boundary("llm", "ebg.llm", "complete", owner="ReplayBackend"),
    Boundary("llm", "ebg.llm", "sanitize_response", count=_count_sanitize),
    Boundary("llm", "ebg.llm", "generate_offspring", count=lambda a, k, r: {"accepted": 1}),
    Boundary("engine", "ebg.engine", "run",
             count=lambda a, k, r: {"admitted": len(r.lineage), "evaluations": r.evaluated_benchmarks}),
    Boundary("engine", "ebg.engine", "initialize_population"),
    Boundary("engine", "ebg.engine", "step_generation"),
    Boundary("engine", "ebg.engine", "load_run"),
    Boundary("analysis", "ebg.analysis", "sobol_indices"),
    Boundary("analysis", "ebg.analysis", "curvature_features",
             count=lambda a, k, r: {"samples": r.sample_count, "skipped": r.skipped_count}),
    Boundary("analysis", "ebg.analysis", "pairwise_levenshtein", count=_count_levenshtein),
    Boundary("analysis", "ebg.analysis", "mds_embed"),
    Boundary("cli", "ebg.cli", "main"),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every boundary; returns the function that undoes it."""
    restore: list[tuple[object, str, object]] = []

    def uninstall() -> None:
        for target, attr, original in reversed(restore):
            setattr(target, attr, original)

    for b in BOUNDARIES:
        module = importlib.import_module(b.module)
        owner = getattr(module, b.owner) if b.owner else module
        original = getattr(owner, b.attr, None)
        if original is None:
            if b.optional:
                continue
            uninstall()
            raise LayerLost(f"{b.name} is gone; the {b.layer} layer would go untraced")
        wrapped = tracer.wrap(original, b.name, b.layer, b.count)
        targets = [owner] if b.owner else [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ebg" or name.startswith("ebg."))
        ]
        for target in targets:
            for attr, value in list(vars(target).items()):
                if value is original:
                    restore.append((target, attr, original))
                    setattr(target, attr, wrapped)
    return uninstall


# ---------------------------------------------------------------- metrics


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer counts and times; every metric is present, zero when idle."""
    n = len(spans)
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * n
    for s, d in zip(spans, duration):
        if s[PARENT] is not None:
            child_time[s[PARENT]] += d
    self_time = [d - c for d, c in zip(duration, child_time)]

    def named(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def total(indices, values=duration):
        return float(sum(values[i] for i in indices))

    def counted(indices, key):
        return sum((spans[i][COUNTS] or {}).get(key, 0) for i in indices)

    def ok(indices):
        return [i for i in indices if "error" not in (spans[i][COUNTS] or {})]

    def layer_spans(layer):
        return [i for i, s in enumerate(spans) if s[LAYER] == layer]

    def outermost(layer):
        return [i for i in layer_spans(layer)
                if spans[i][PARENT] is None or spans[spans[i][PARENT]][LAYER] != layer]

    def under(i, names):
        p = spans[i][PARENT]
        while p is not None:
            if spans[p][NAME] in names:
                return True
            p = spans[p][PARENT]
        return False

    def ratio(a, b):
        return float(a) / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}

    kernel = named("kernels.eval_program")
    k_busy, k_points, k_ops = total(kernel), counted(kernel, "points"), counted(kernel, "ops")
    m["kernels.calls"] = (len(kernel), "count")
    m["kernels.points"] = (k_points, "count")
    m["kernels.ops"] = (k_ops, "count")
    m["kernels.busy_s"] = (k_busy, "s")
    m["kernels.ns_per_op"] = (ratio(k_busy * 1e9, k_ops), "ns")
    m["kernels.points_per_call"] = (ratio(k_points, len(kernel)), "count")
    m["kernels.invalid_points"] = (counted(kernel, "invalid"), "count")

    trials = ok(named("fitness.run_trials"))
    steps = counted(trials, "steps")
    opt_self = total(layer_spans("optimizers"), self_time)
    m["optimizers.trials"] = (counted(trials, "trials"), "count")
    m["optimizers.steps"] = (steps, "count")
    m["optimizers.busy_s"] = (total(outermost("optimizers")), "s")
    m["optimizers.self_s"] = (opt_self, "s")
    m["optimizers.self_us_per_step"] = (ratio(opt_self * 1e6, steps), "us")
    m["optimizers.invalid_trials"] = (counted(trials, "invalid"), "count")

    evals = named("fitness.evaluate_benchmark")
    preval = named("fitness.prevalidate")
    m["fitness.evaluate_calls"] = (len(evals), "count")
    m["fitness.evaluate_busy_s"] = (total(evals), "s")
    m["fitness.self_s"] = (total(layer_spans("fitness"), self_time), "s")
    m["fitness.prevalidate_calls"] = (len(preval), "count")
    m["fitness.prevalidate_busy_s"] = (total(preval), "s")
    m["fitness.prevalidate_reject_ratio"] = (ratio(counted(preval, "rejected"), len(preval)), "ratio")
    m["fitness.invalid_benchmarks"] = (counted(evals, "invalid"), "count")

    complete = named("llm.ReplayBackend.complete")
    sanitize = named("llm.sanitize_response")
    offspring = named("llm.generate_offspring")
    m["llm.complete_calls"] = (len(complete), "count")
    m["llm.complete_busy_s"] = (total(complete), "s")
    m["llm.sanitize_busy_s"] = (total(sanitize), "s")
    m["llm.offspring_busy_s"] = (total(offspring), "s")
    m["llm.accept_ratio"] = (ratio(counted(offspring, "accepted"), len(complete)), "ratio")
    causes = [(spans[i][COUNTS] or {}).get("rejected") for i in sanitize]
    for cause in LLM_CAUSES:
        m[f"llm.rejections.{cause}"] = (sum(c == cause for c in causes), "count")
    m["llm.rejections.prevalidation"] = (
        sum(1 for i in preval
            if (spans[i][COUNTS] or {}).get("rejected") and under(i, {"llm.generate_offspring"})),
        "count",
    )

    runs = ok(named("engine.run"))
    admitted, evaluated = counted(runs, "admitted"), counted(runs, "evaluations")
    m["engine.generations"] = (
        len(ok(named("engine.initialize_population"))) + len(ok(named("engine.step_generation"))),
        "count",
    )
    m["engine.admitted"] = (admitted, "count")
    m["engine.cache_hit_ratio"] = (1.0 - ratio(evaluated, admitted) if admitted else 0.0, "ratio")
    m["engine.busy_s"] = (total(outermost("engine")), "s")
    m["engine.self_s"] = (total(layer_spans("engine"), self_time), "s")

    sobol = named("analysis.sobol_indices")
    curv = named("analysis.curvature_features")
    lev = named("analysis.pairwise_levenshtein")
    curv_ok = ok(curv)
    skipped = counted(curv_ok, "skipped")
    cells = counted(lev, "cells")
    analysis_busy = total(outermost("analysis"))
    analysis_names = {"analysis.sobol_indices", "analysis.curvature_features",
                      "analysis.pairwise_levenshtein", "analysis.mds_embed"}
    m["analysis.sobol_busy_s"] = (total(sobol), "s")
    m["analysis.curvature_busy_s"] = (total(curv), "s")
    m["analysis.curvature_skipped_ratio"] = (
        ratio(skipped, skipped + counted(curv_ok, "samples")), "ratio")
    m["analysis.levenshtein_busy_s"] = (total(lev), "s")
    m["analysis.levenshtein_cells"] = (cells, "count")
    m["analysis.ns_per_cell"] = (ratio(total(lev) * 1e9, cells), "ns")
    m["analysis.mds_busy_s"] = (total(named("analysis.mds_embed")), "s")
    m["analysis.kernel_share"] = (
        ratio(total([i for i in kernel if under(i, analysis_names)]), analysis_busy), "ratio")

    parse_spans = named("expressions.parse")
    m["expressions.parse_calls"] = (len(parse_spans), "count")
    m["expressions.parse_busy_s"] = (total(parse_spans), "s")
    m["cli.self_s"] = (total(layer_spans("cli"), self_time), "s")
    return m


def layer_calls(spans: list[list]) -> dict[str, int]:
    calls = dict.fromkeys(LAYERS, 0)
    for s in spans:
        if s[LAYER] in calls:
            calls[s[LAYER]] += 1
    return calls
