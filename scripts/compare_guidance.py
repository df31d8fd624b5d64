#!/usr/bin/env python3
"""Compare assertion-guided search with the random-mutation baseline.

Runs every corpus program under fuzz_program ("guided") and
random_fuzz_program ("random") through the loop `safuzz bench` uses, so both
searches of a site start from the same input. Prints one JSON list, a row a
line, one row per (program, node, strategy), sorted: runs; found;
found_at_init, the finds whose initial input already fails; failed_at_init,
the runs whose initial input fails, found or not; iterations_to_found, the
found runs' iterations, sorted; and their median_iterations_to_found, null
when no run found one. A site with no model has no guided row, and its skip
diagnostic goes to stderr. A models directory that is missing or holds no
model, a malformed seed list and an out-of-range value exit with 2 and an
error line, and print no table. At the defaults, with the fixture models,
the output is the committed search-quality golden:

    python3 scripts/compare_guidance.py --models perfbench/fixtures/models > BENCH_quality.json
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from safuzz.cli import _guided, _runs, parse_ints
from safuzz.corpus import corpus_manifest
from safuzz.errors import SafuzzError
from safuzz.fuzzer import random_fuzz_program
from safuzz.registry import default_registry
from safuzz.report import quality_table


def compare(args) -> list[dict]:
    reg = default_registry()
    strategies = {"guided": _guided(reg, args.models),
                  "random": lambda graph, config: random_fuzz_program(graph, reg, config)}
    seeds = parse_ints(args.seeds, ",", "seed list", "0,1,2")
    runs = {name: list(_runs(reg, strategy, corpus_manifest(reg), seeds, args))
            for name, strategy in strategies.items()}
    # a diagnostic depends on the models, not the seed: each is printed once
    for line in dict.fromkeys(f"{run.program:28s} {line}" for reports in runs.values()
                              for run in reports for line in run.diagnostics):
        print(line, file=sys.stderr)
    return quality_table(runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", default="build/models")
    parser.add_argument("--seeds", default=",".join(map(str, range(30))))
    parser.add_argument("--max-iters", type=int, default=2000)
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args()
    try:
        table = compare(args)
    except SafuzzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("[\n" + ",\n".join(json.dumps(row) for row in table) + "\n]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
