#!/usr/bin/env python3
"""Tiny-size run of every workload, traced and untraced (about a minute).

    python3 perfbench/smoke.py

Checks the shape of the output, not the speed: the last line is the result
object of BENCHMARK.json's contract with every declared metric in its
declared unit, and the report line carries every named end-to-end metric of
its workload. At this size `remainder` fails its class floor, so the smoke
run also covers the failed-operation path. Exits 1 on the first mismatch.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()
import workloads  # noqa: E402

COMMON = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB", "error_rate": "ratio",
          "throughput": "1/s", "quality": "ratio"}
FUZZ = {"fuzz_iters_per_s": "iter/s", "bugs_found": "count", "bugs_found_by_search": "count",
        "iters_to_bug_p50": "iterations", "false_alarms": "count"}
NAMED = {
    "datagen": {"gen_samples_per_s": "samples/s", "gen_delivered_ratio": "ratio"},
    "train": {"macro_f1_mean": "ratio"},
    "fuzz_guided": FUZZ,
    "fuzz_random": FUZZ,
}


def check(workload: str, trace: int, declared: dict) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", str(trace)], sizes=workloads.TINY)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))[7:])
    problems = []
    if code != 0 or not result["correct"]:
        problems.append(f"exit {code}, errors {report['errors']}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    want = {d["name"]: d["unit"] for d in declared["per_layer" if trace else "end_to_end"]}
    if trace == 0:
        for name, unit in {**COMMON, **NAMED[workload]}.items():
            got = report["end_to_end"].get(name)
            if got is None or got["unit"] != unit:
                problems.append(f"report metric {name}: {got}, want unit {unit}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)} "
                        f"or units {[k for k in want if got.get(k) != want[k]]}")
    for name, mv in result["metrics"].items():
        if not isinstance(mv["value"], (int, float)):
            problems.append(f"{name} value {mv['value']!r} is not a number")
    return problems


def main() -> int:
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    failures = 0
    for spec in declared["workloads"]:
        for trace in (0, 1):
            problems = check(spec["name"], trace, declared)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{spec['name']:12s} trace={trace} {status}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
