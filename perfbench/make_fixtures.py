#!/usr/bin/env python3
"""Rebuild the benchmark's fixtures from fixed seeds (about 90 s on 2 cores).

    python3 perfbench/make_fixtures.py

fixtures/models: one forest per corpus kernel, 4000 samples, 20 trees; the
fuzz_guided workload queries them. fixtures/datasets: the train workload's
inputs, 2000 samples each. Fixtures keep those workloads' inputs fixed when a
change to dataset generation alters what build_dataset produces; rebuild
them only in a change that re-measures the baseline.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from safuzz.corpus import corpus_kernels  # noqa: E402
from safuzz.datagen import GenerationConfig, build_dataset, dataset_save  # noqa: E402
from safuzz.forest import model_save, train_forest  # noqa: E402

DATA_SEED = 7
TRAIN_SEED = 42
MODEL_SAMPLES, MODEL_TREES = 4000, 20
TRAIN_SAMPLES = 2000
TRAIN_KERNELS = ("Softmax", "square", "CosineSimilarity")


def main() -> int:
    models = BENCH / "fixtures" / "models"
    datasets = BENCH / "fixtures" / "datasets"
    models.mkdir(parents=True, exist_ok=True)
    datasets.mkdir(parents=True, exist_ok=True)
    for kernel in corpus_kernels():
        ds = build_dataset(kernel, GenerationConfig(seed=DATA_SEED, target_size=MODEL_SAMPLES))
        model, scores = train_forest(ds, tree_count=MODEL_TREES, seed=TRAIN_SEED)
        model_save(model, models / f"{kernel}.json")
        print(f"model {kernel:18s} samples={len(ds):5d} macro-F1={scores['macro_f1']:.4f}")
    for kernel in TRAIN_KERNELS:
        ds = build_dataset(kernel, GenerationConfig(seed=DATA_SEED, target_size=TRAIN_SAMPLES))
        dataset_save(ds, datasets / f"{kernel}.csv")
        print(f"dataset {kernel:16s} samples={len(ds):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
