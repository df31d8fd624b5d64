#!/usr/bin/env python3
"""Benchmark of the safuzz pipeline: dataset generation, training and fuzzing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It imports the package from ./src, sets up the
workload (timed several times, median reported), then repeats a fixed pass
of work derived from --seed until --seconds are used, at least twice,
and reports the pass time with each unit of the pass at its fastest repeat.
Every time is scaled by a reference loop timed next to it on the same core
(workloads.UnitTimer), so it reads as seconds on an idle core; the raw
seconds are in the report line. With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates traced and untraced passes and
holds the per-layer metrics instead. The line before it, prefixed
``report``, holds every metric, the environment and the pass times.

A run fails (exit 1, empty metrics) when a correctness check or the
determinism guard fails: every pass at one seed, and every earlier run at
that seed of the same code, must give the same outputs and counts.
"""

from __future__ import annotations

import os

# One thread in every numeric pool; must precede the first numpy import.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import safuzz.cli, safuzz.corpus; "
                "print(time.perf_counter() - t)")


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import safuzz
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import safuzz from {SRC}: {exc}") from None
    if Path(safuzz.__file__).resolve().parent != SRC / "safuzz":
        raise SystemExit(f"perfbench: safuzz imported from {safuzz.__file__}, not {SRC}")


def _import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def _fingerprint() -> str:
    """Digest of the package and benchmark sources the outputs depend on."""
    h = hashlib.sha256()
    for base in (SRC, BENCH):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts and WORK not in path.parents:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _guard_across_runs(key: str, record: dict) -> list[str]:
    """Compare with the record an earlier run of the same code at this seed left."""
    path = WORK / "determinism.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    record = json.loads(json.dumps(record))
    if key in seen:
        return [] if seen[key] == record else [f"counts differ from an earlier run ({key})"]
    seen[key] = record
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True))
    os.replace(tmp, path)
    return []


def environment() -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "thread_pin": {v: os.environ[v] for v in THREAD_VARS}}


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload and return the full report (see the module docstring)."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    sizes = sizes or workloads.FULL
    WORK.mkdir(exist_ok=True)
    # the reference loop and the work it scales must share a core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setups = []
    for _ in range(SETUP_REPEATS):
        timer = workloads.UnitTimer()
        with timer.unit():
            imports = _import_seconds()
            t0 = time.perf_counter()
            state = workload.setup(seed, sizes)
            in_process = time.perf_counter() - t0
        setups.append(workloads.REFERENCE_S * (imports + in_process) / timer.ref_s[0])

    passes = []  # (seconds, traced, PassResult, per-layer values or None, UnitTimer)
    start = time.perf_counter()
    min_passes = 3 if trace else 2  # two traced passes, to compare their counts
    while True:
        traced = trace and len(passes) % 2 == 0
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        timer = workloads.UnitTimer()
        try:
            t0 = time.perf_counter()
            result = workload.run_pass(state, timer)
            dt = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        layers = None
        if tracer:
            layers = tracing.layer_metrics(tracing.SpanStats(tracer), dt,
                                           workloads.DATAGEN_KERNELS,
                                           workload.layer_facts(state, result))
            if not any(p[1] for p in passes):
                tracer.save(WORK / f"trace-{workload_name}-{seed}.npz")
        passes.append((dt, traced, result, layers, timer))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p[0] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            break

    first = passes[0][2]
    errors = [f"pass {i}: outputs differ from pass 0" for i, p in enumerate(passes)
              if p[2].signature != first.signature]
    traced_layers = [p[3] for p in passes if p[1]]
    calls = {}
    if traced_layers:
        calls = {k: v for k, v in traced_layers[0].items() if k.endswith(".calls")}
        errors += [f"traced pass {i}: layer call counts differ" for i, lay in
                   enumerate(traced_layers) if {k: lay[k] for k in calls} != calls]
    errors += workload.check(state, first, WORK)

    run_s = workloads.pass_seconds([p[4] for p in passes if not p[1]])
    quality, named = workload.metrics(state, first, run_s)
    errors += _guard_across_runs(
        f"{workload_name}|{seed}|{sizes}|{_fingerprint()}|{int(trace)}",
        {"outputs": first.signature, "named": {k: v["value"] for k, v in named.items()
                                               if v["unit"] in ("count", "ratio", "iterations")},
         "calls": calls})

    attempted = sum(p[2].attempted for p in passes)
    failed = sum(p[2].failed for p in passes)
    m = workloads.metric
    end_to_end = {
        "setup_s": m(statistics.median(setups), "s"),
        "throughput": m(first.work / run_s, "1/s"),
        "quality": m(quality, "ratio"),
        "peak_rss_mb": m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "run_s": m(run_s, "s"),
        "error_rate": m(failed / attempted, "ratio"),
        **named,
    }
    per_layer = {}
    if traced_layers:
        for key in traced_layers[0]:
            per_layer[key] = m(statistics.median(lay[key] for lay in traced_layers),
                               tracing.layer_unit(key))
        traced_s = workloads.pass_seconds([p[4] for p in passes if p[1]])
        per_layer["trace_overhead_ratio"] = m(traced_s / run_s, "ratio")
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "stresses": workload.stresses, "bypasses": workload.bypasses,
        "environment": environment(),
        "setup_runs_s": setups,
        "passes": [{"s": p[0], "traced": p[1], "unit_s": p[4].unit_s, "ref_s": p[4].ref_s}
                   for p in passes],
        "work_per_pass": first.work, "attempted": attempted, "failed": failed,
        "errors": errors,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    import_package()
    sys.path.insert(0, str(BENCH))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    report = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    shown = report["per_layer"] if args.trace else report["end_to_end"]
    for name, mv in shown.items():
        print(f"{name:42s} {mv['value']:>16.6g} {mv['unit']}")
    for error in report["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print("report " + json.dumps(report, sort_keys=True))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [d["name"] for d in declared["per_layer" if args.trace else "end_to_end"]]
    ok = not report["errors"]
    print(json.dumps({
        "correct": ok,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: shown[n] for n in names} if ok else {},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
