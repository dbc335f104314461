"""The benchmark in perfbench/ traces the program from outside by
rebinding named module functions; renaming or inlining one of them
makes every benchmark run fail with LayerLost.  This keeps them named."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
