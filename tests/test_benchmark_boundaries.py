"""The benchmark in perfbench/ traces the program from outside by
rebinding named module functions; renaming or inlining one of them
makes every benchmark run fail with LayerLost.  This keeps them named,
and runs one untimed and one traced pass of every workload so that a
name the benchmark reads from ebg cannot go missing unnoticed."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

# every ebg module is imported before any tracer is installed: a module
# first imported under one keeps that tracer's wrappers after uninstall,
# so a later tracer would not see its calls
import ebg.analysis  # noqa: F401
import ebg.cli  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _boundary_function(boundary):
    owner = importlib.import_module(boundary.module)
    if boundary.owner:
        owner = getattr(owner, boundary.owner)
    return getattr(owner, boundary.attr)


def test_benchmark_tracer_finds_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    uninstall = tracing.install(tracing.Tracer())  # raises LayerLost on a missing name
    try:
        for boundary in tracing.BOUNDARIES:
            assert hasattr(_boundary_function(boundary), "__wrapped__"), boundary.name
    finally:
        uninstall()
    for boundary in tracing.BOUNDARIES:
        assert not hasattr(_boundary_function(boundary), "__wrapped__"), boundary.name


def test_every_benchmark_workload_runs_one_pass(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(1, tmp_path / name)
        result = workload.run_pass(0, tracer=None, sampler=None)
        assert result.attempted > 0, name
        assert result.failed == 0, (name, result.problems)
        assert result.problems == [], name
        assert workload.check() == [], name
        # a traced pass runs the counters that read the program's results
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            traced = workload.run_pass(1, tracer, None)
        finally:
            uninstall()
        assert traced.failed == 0, (name, traced.problems)
        assert workload.check_trace(tracing.layer_metrics(tracer.spans)) == [], name
        calls = tracing.layer_calls(tracer.spans)
        assert [layer for layer in workload.layers if calls[layer] == 0] == [], name
    pytest.importorskip("scipy")  # perfbench/run.py records its version; ebg does not need it
    run = importlib.import_module("run")
    assert run.provenance(ROOT, "evaluate", 1, 0)["workload"] == "evaluate"
