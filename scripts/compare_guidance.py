#!/usr/bin/env python3
"""Compare assertion-guided search with the random-mutation baseline.

Runs every buggy corpus program under both strategies for a set of seeds and
prints median iterations-to-found per program (exhausted runs count as the
iteration budget). A program whose site has no model is skipped with one
line. A models directory that is missing or holds no model, a malformed
seed list and an out-of-range value exit with 2 and an error line.
"""

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from safuzz.cli import load_models, parse_ints
from safuzz.corpus import corpus_manifest
from safuzz.errors import SafuzzError
from safuzz.fuzzer import (
    FuzzConfig,
    fuzz_site,
    random_fuzz_site,
    scan_for_unstable,
    select_forest,
)
from safuzz.registry import default_registry


def compare(args) -> None:
    reg = default_registry()
    models = load_models(args.models)
    seeds = parse_ints(args.seeds, ",", "seed list", "0,1,2")

    wins = compared = 0
    programs = [p for p in corpus_manifest(reg) if p.expected_failure_class]
    for spec in programs:
        graph = spec.to_graph(reg)
        site = scan_for_unstable(graph, reg).sites[0]
        forest = select_forest(models, site)
        if forest is None:
            print(f"{spec.name:28s} site '{site.node_id}' ({site.kernel}): "
                  "no trained model; skipped")
            continue
        guided, baseline = [], []
        for seed in seeds:
            config = FuzzConfig(timeout=args.timeout, rate=spec.rate or 1.0,
                                seed=seed, max_iters=args.max_iters)
            res = fuzz_site(graph, site, forest, config,
                            np.random.default_rng(seed), reg)
            guided.append(res.iterations if res.found else args.max_iters)
            res = random_fuzz_site(graph, site, config,
                                   np.random.default_rng(seed), reg)
            baseline.append(res.iterations if res.found else args.max_iters)
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
