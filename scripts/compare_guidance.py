#!/usr/bin/env python3
"""Compare assertion-guided search with the random-mutation baseline.

Runs every buggy corpus program under both whole-program drivers,
fuzz_program and random_fuzz_program, for a set of seeds, with the seeding
`safuzz bench` uses: each site's generator comes from the seed and the
site's index, so both searches of a site start from the same input. Prints
per program the median iterations-to-first-find of each strategy over every
(seed, site) pair the guided driver ran; an exhausted run counts as the
iteration budget. A site with no model is skipped with the driver's
diagnostic line, and a program with no modelled site is not compared. A
models directory that is missing or holds no model, a malformed seed list
and an out-of-range value exit with 2 and an error line.
"""

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from safuzz.cli import load_models, parse_ints
from safuzz.corpus import corpus_manifest
from safuzz.errors import SafuzzError
from safuzz.fuzzer import FuzzConfig, fuzz_program, random_fuzz_program
from safuzz.registry import default_registry


def compare(args) -> None:
    reg = default_registry()
    models = load_models(args.models)
    seeds = parse_ints(args.seeds, ",", "seed list", "0,1,2")

    def iterations(result) -> int:
        return result.iterations if result.found else args.max_iters

    wins = compared = 0
    programs = [p for p in corpus_manifest(reg) if p.expected_failure_class]
    for spec in programs:
        graph = spec.to_graph(reg)
        guided, baseline = [], []
        for seed in seeds:
            config = FuzzConfig(timeout=args.timeout, rate=spec.rate,
                                seed=seed, max_iters=args.max_iters)
            results, diagnostics = fuzz_program(graph, reg, models, config)
            if not results:
                continue  # no guided search to compare the baseline with
            baseline_at = {r.site: r for r in random_fuzz_program(graph, reg, config)}
            for r in results:
                guided.append(iterations(r))
                baseline.append(iterations(baseline_at[r.site]))
        for line in diagnostics:  # they depend on the models, not the seed
            print(f"{spec.name:28s} {line}")
        if not guided:
            continue
        g, b = statistics.median(guided), statistics.median(baseline)
        wins += int(g <= b)
        compared += 1
        print(f"{spec.name:28s} guided={g:7.1f} random={b:7.1f} "
              f"{'<=' if g <= b else '>'}")
    print(f"guided wins or ties on {wins}/{compared} programs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", default="build/models")
    parser.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    parser.add_argument("--max-iters", type=int, default=5000)
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args()
    try:
        compare(args)
    except SafuzzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
