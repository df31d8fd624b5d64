#!/usr/bin/env python3
"""Run the benchmark over many seeds and record medians, quartiles and spreads.

    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 1 \
        --held-out-seeds 101-103 --out perfbench/baseline.json

For every workload of BENCHMARK.json it runs ``run.py`` once per seed with
tracing off, then once per traced seed with tracing on, one process per run.
Per metric it records the median, the quartiles (statistics.quantiles, n=4)
and the spread, (q3 - q1) / median, which BENCHMARK.json's bound must exceed.
Held-out seeds are run and recorded apart, for claims made on seeds no
change was tuned on.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))[len("report "):])
    report["result"] = json.loads(lines[-1])
    report["wall_s"] = time.perf_counter() - t0
    return report


def summarize(reports: list[dict], section: str) -> dict:
    out = {}
    for name, first in reports[0][section].items():
        values = [r[section][name]["value"] for r in reports]
        median = statistics.median(values)
        row = {"unit": first["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        out[name] = row
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="1")
    parser.add_argument("--held-out-seeds", default="")
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    doc = {"run_seconds": seconds, "seeds": parse_seeds(args.seeds),
           "held_out_seeds": parse_seeds(args.held_out_seeds), "workloads": {}}
    for name in names:
        plain = [run_once(name, s, seconds, 0) for s in doc["seeds"]]
        traced = [run_once(name, s, seconds, 1) for s in parse_seeds(args.traced_seeds)]
        held = [run_once(name, s, seconds, 0) for s in doc["held_out_seeds"]]
        first = plain[0]
        doc["environment"] = first["environment"]
        doc["workloads"][name] = {
            "why": next(w["why"] for w in bench["workloads"] if w["name"] == name),
            "stresses": first["stresses"], "bypasses": first["bypasses"],
            "end_to_end": summarize(plain, "end_to_end"),
            "per_layer": summarize(traced, "per_layer") if traced else {},
            "held_out": summarize(held, "end_to_end") if held else {},
            "passes_per_run": [len(r["passes"]) for r in plain],
            "wall_s_per_run": [r["wall_s"] for r in plain + traced + held],
        }
        for metric, row in doc["workloads"][name]["end_to_end"].items():
            print(f"{name:12s} {metric:24s} median={row['median']:<12.6g} "
                  f"spread={row.get('spread')}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
