"""Benchmark of the ebg package: three closed-loop workloads in one process.

Run from the root of a checkout that holds ``src/ebg``:

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 20 --trace 0

``--trace 0`` times passes over the workload's fixed inputs with tracing
off and prints the end-to-end metrics.  Times are scaled to the
calibration's reference speed, pass times by the calibration samples
taken during the untraced passes and set-up times by those taken between
set-ups (see ``calibration.py``); raw wall times are printed and
recorded beside them.  ``--trace 1`` alternates
untraced and traced passes, at least two of each, and prints the
per-layer metrics of the first traced pass together with the tracing
overhead (median traced minus median untraced pass time).  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and
spans are written to ``perfbench/_out``, never into a run directory.
The exit code is 0 when every output check passes, 1 when one fails and
2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

SETUP_RUNS = 5
SETUP_SAMPLES = 3  # calibration samples before and after each set-up

# Set-up as a user pays it: a fresh interpreter imports ebg and ebg.cli
# and evaluates once, which is where a jit would compile or load its cache.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import ebg, ebg.cli
t1 = time.perf_counter()
import numpy as np
from ebg import expressions, kernels
program = kernels.compile_program(expressions.parse(expressions.GA_ADVANTAGE_EXAMPLE, 5))
kernels.eval_program(program, np.zeros((50, 5)))
t2 = time.perf_counter()
print(ebg.__file__, t1 - t0, t2 - t0)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program(root: Path):
    """Import ebg from this checkout's sources and nowhere else."""
    src = root / "src"
    if not (src / "ebg" / "__init__.py").is_file():
        fail(f"no program to measure: {src / 'ebg'} is missing")
    sys.path.insert(0, str(src))
    import ebg

    if Path(ebg.__file__).resolve().parent != (src / "ebg").resolve():
        fail(f"imported ebg from {ebg.__file__}, not from {src}")
    return ebg


def measure_setup(root: Path) -> tuple[list[float], list[float], list[float]]:
    """(import seconds, set-up seconds, calibration samples) from fresh
    interpreters, with calibration samples before and after each."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    imports, setups = [], []
    samples = [calibration.sample() for _ in range(SETUP_SAMPLES)]
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        path, import_s, setup_s = done.stdout.split()
        if Path(path).resolve().parent != (root / "src" / "ebg").resolve():
            fail(f"set-up interpreter imported ebg from {path}")
        samples += [calibration.sample() for _ in range(SETUP_SAMPLES)]
        imports.append(float(import_s))
        setups.append(float(setup_s))
    return imports, setups, samples


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy
    from ebg import kernels

    source = hashlib.sha256()
    for path in sorted((root / "src" / "ebg").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(root),
        "source_sha256": source.hexdigest(),
        "kernel_backend": kernels.backend_name(),
        "numba_imported": "numba" in sys.modules,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(passes, setups: list[float], scale: float, setup_scale: float) -> dict:
    run_s = [p.seconds * scale for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "run_s": (statistics.median(run_s), "s", len(run_s)),
        "ops_per_min": (statistics.median(60.0 * p.work / (p.seconds * scale) for p in passes),
                        "1/min", len(passes)),
        "setup_s": (statistics.median(setups) * setup_scale, "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "success_ratio": ((attempted - failed) / attempted if attempted else 0.0,
                          "ratio", attempted),
    }


TIME_UNITS = ("s", "ns", "us")
TIME_RATIOS = ("analysis.kernel_share",)


def traced_metrics(spans, traced_pass, imports: list[float]) -> dict:
    import tracing

    layer = tracing.layer_metrics(spans)
    layer["cli.import_s"] = (statistics.median(imports), "s")
    layer["engine.run_dir_bytes"] = (traced_pass.run_dir_bytes, "bytes")
    return layer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    load_program(root)
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = root / "perfbench" / "_out"
    work = root / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        imports, setups, setup_samples = measure_setup(root)
        workload = WORKLOADS[args.workload](args.seed, work)
        problems: list[str] = []
        passes, tracers = [], []
        sampler = calibration.Sampler()
        started = time.perf_counter()
        # a traced run alternates untraced and traced passes, so that the
        # overhead compares passes made under the same conditions
        while (len(passes) < (4 if args.trace else 2) or len(passes) % (1 + args.trace)
               or time.perf_counter() - started < args.seconds):
            if args.trace and len(passes) % 2:
                tracers.append(tracing.Tracer())
                uninstall = tracing.install(tracers[-1])
                try:
                    passes.append(workload.run_pass(len(passes), tracers[-1], None))
                finally:
                    uninstall()
            else:
                with sampler:
                    passes.append(workload.run_pass(len(passes), None, sampler))
        for p in passes:
            problems += p.problems
        if any(p.outputs != passes[0].outputs for p in passes):
            problems.append("passes over the same inputs gave different outputs")
        problems += workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    untraced, traced = passes[::2] if args.trace else passes, passes[1::2]
    scale = calibration.scale(sampler.samples)
    setup_scale = calibration.scale(setup_samples)
    e2e = end_to_end(untraced, setups, scale, setup_scale)
    if args.trace:
        layer = traced_metrics(tracers[0].spans, traced[0], imports)
        again = traced_metrics(tracers[1].spans, traced[1], imports)
        problems += [f"{name} changed between traced passes: {v} then {again[name][0]}"
                     for name, (v, unit) in layer.items()
                     if unit not in TIME_UNITS and name not in TIME_RATIOS and again[name][0] != v]
        layer["trace.overhead_s"] = ((statistics.median(p.seconds for p in traced)
                                      - statistics.median(p.seconds for p in untraced)) * scale,
                                     "s")
        calls = tracing.layer_calls(tracers[0].spans)
        problems += [f"traced run recorded no {name} calls" for name in workload.layers
                     if calls[name] == 0]
        problems += workload.check_trace(layer)
        from ebg import llm

        causes = {v for k, v in vars(llm).items() if k.startswith("REJECT_")}
        if causes != set(tracing.LLM_CAUSES):
            problems.append(f"llm rejection causes are now {sorted(causes)}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(layer.items())}
        tracers[0].write(out_dir / f"{tag}.spans.jsonl")
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in e2e.items()}

    prov = provenance(root, args.workload, args.seed, args.trace)
    correct = not problems
    record = {"provenance": prov, "correct": correct, "problems": problems,
              "scale": scale, "calibration_samples": sampler.samples,
              "setup_scale": setup_scale, "setup_calibration_samples": setup_samples,
              "wall_run_s_samples": [p.seconds for p in passes], "wall_setup_s_samples": setups,
              "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
              "metrics": metrics}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"provenance: {json.dumps(prov)}")
    if prov["kernel_backend"] == "numpy":
        print("note: numba is not importable here, so only the numpy kernel is measured")
    for name, (value, unit, n) in e2e.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} ({n} samples)")
    print(f"{args.workload} unscaled: run_s = {statistics.median(p.seconds for p in untraced):.6g} s, "
          f"setup_s = {statistics.median(setups):.6g} s; scale = {scale:.6g} "
          f"from {len(sampler.samples)} calibration samples, {setup_scale:.6g} at set-up")
    print(f"{args.workload} error_rate = {failed / attempted if attempted else 0:.6g} "
          f"({failed} failed of {attempted})")
    if args.workload in ("evaluate", "generate"):
        print(f"{args.workload} benchmark_evals_per_min = {e2e['ops_per_min'][0]:.6g} 1/min "
              f"({e2e['ops_per_min'][2]} samples)")
    if args.trace:
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
