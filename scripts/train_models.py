#!/usr/bin/env python3
"""Generate datasets and train soft assertions for every corpus kernel.

Writes <out>/datasets/<kernel>.csv and <out>/models/<kernel>.json plus a
summary table (macro-F1 over all and over present classes, per-class F1 and
training time per kernel). Intended as the one-shot preparation step before
`safuzz fuzz` / `safuzz bench`. An out-of-range value, an unknown kernel or
an --out directory that cannot be created exits with 2 and an error line.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from safuzz.corpus import corpus_kernels
from safuzz.datagen import GenerationConfig, build_dataset, dataset_save
from safuzz.errors import FileFormatError, SafuzzError
from safuzz.forest import describe_scores, model_save, train_forest


def train(args) -> None:
    kernels = (args.kernels.split(",") if args.kernels else corpus_kernels())
    out = Path(args.out)
    try:
        (out / "datasets").mkdir(parents=True, exist_ok=True)
        (out / "models").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FileFormatError(f"cannot create {out}: {exc}") from exc

    rows = []
    for kernel in kernels:
        t0 = time.perf_counter()
        dataset = build_dataset(
            kernel, GenerationConfig(seed=args.data_seed, target_size=args.samples)
        )
        gen_time = time.perf_counter() - t0
        dataset_save(dataset, out / "datasets" / f"{kernel}.csv")
        forest, metrics = train_forest(dataset, tree_count=args.trees,
                                       seed=args.train_seed)
        model_save(forest, out / "models" / f"{kernel}.json")
        rows.append((metrics["macro_f1"], metrics["macro_f1_present"]))
        print(f"{kernel:18s} samples={len(dataset):6d} "
              f"train={metrics['train_time_seconds']:6.1f}s gen={gen_time:6.1f}s "
              f"{describe_scores(metrics)}")

    avg, avg_present = (sum(col) / len(rows) for col in zip(*rows))
    print(f"{'average':18s} macro-F1={avg:.4f} over present classes={avg_present:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="build", help="output root directory")
    parser.add_argument("--kernels", default=None,
                        help="comma-separated kernel names (default: corpus kernels)")
    parser.add_argument("--samples", type=int, default=40_000)
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--train-seed", type=int, default=42)
    args = parser.parse_args()
    try:
        train(args)
    except SafuzzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
