"""With fixed seeds, datasets, models and reports stay byte-identical.

Fixture datasets and models are regenerated at perfbench/make_fixtures.py's
seeds and sizes and compared byte for byte with the committed fixtures. The
bench report over the corpus with the fixture models is compared with a
committed golden report once its time fields are stripped, and the random
baseline's outcome at every corpus site at full budget with a committed
golden of its own. A change that alters any of these on purpose rebuilds the
fixtures or the golden, and says why.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from safuzz.cli import cli_dispatch
from safuzz.corpus import corpus_manifest
from safuzz.datagen import GenerationConfig, build_dataset, dataset_save
from safuzz.forest import model_save, train_forest
from safuzz.fuzzer import FuzzConfig, random_fuzz_program
from safuzz.registry import default_registry
from safuzz.report import strip_time_fields

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "perfbench" / "fixtures"
DATA = Path(__file__).resolve().parent / "data"
GOLDEN_REPORT = DATA / "bench_report_fixture_models.json"
GOLDEN_RANDOM = DATA / "random_baseline_corpus.json"

# one model kernel per oracle type the fixtures cover: 1, 2, 5 and 6
MODEL_KERNELS = ("exp", "Softmax", "CosineSimilarity", "remainder")


def _load_fixture_settings():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "perfbench" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIX = _load_fixture_settings()


@pytest.mark.parametrize("kernel", FIX.TRAIN_KERNELS)
def test_fixture_dataset_regenerates_byte_identical(kernel, tmp_path):
    dataset = build_dataset(kernel, GenerationConfig(seed=FIX.DATA_SEED,
                                                     target_size=FIX.TRAIN_SAMPLES))
    dataset_save(dataset, tmp_path / "dataset.csv")
    want = (FIXTURES / "datasets" / f"{kernel}.csv").read_bytes()
    assert (tmp_path / "dataset.csv").read_bytes() == want


@pytest.mark.parametrize("kernel", MODEL_KERNELS)
def test_fixture_model_regenerates_byte_identical(kernel, tmp_path):
    dataset = build_dataset(kernel, GenerationConfig(seed=FIX.DATA_SEED,
                                                     target_size=FIX.MODEL_SAMPLES))
    model, _ = train_forest(dataset, tree_count=FIX.MODEL_TREES, seed=FIX.TRAIN_SEED)
    model_save(model, tmp_path / "model.json")
    want = (FIXTURES / "models" / f"{kernel}.json").read_bytes()
    assert (tmp_path / "model.json").read_bytes() == want


def test_bench_report_matches_golden(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["bench", "--models", str(FIXTURES / "models"), "--seeds", "0,1,2",
            "--max-iters", "2000", "--out", str(out)]
    assert cli_dispatch(argv) == 0
    assert "total bugs: 35 (16 by search)" in capsys.readouterr().out
    got = strip_time_fields(json.loads(out.read_text()))
    # compared as text: the report holds NaN inputs, which never compare equal
    assert json.dumps(got, indent=1, sort_keys=True) + "\n" == GOLDEN_REPORT.read_text()


def random_baseline_outcomes(seeds=(0, 1, 2), max_iters=2000) -> dict:
    """random_fuzz_program on every corpus program, keyed by program@seed."""
    reg = default_registry()
    outcomes = {}
    for spec in corpus_manifest(reg):
        graph = spec.to_graph(reg)
        for seed in seeds:
            config = FuzzConfig(rate=spec.rate, seed=seed, max_iters=max_iters)
            outcomes[f"{spec.name}@{seed}"] = [{
                "node": r.site.node_id, "status": r.status, "iterations": r.iterations,
                "failure_class": r.verdict.failure_class.value if r.found else None,
                "detail": r.verdict.detail if r.found else "",
                "failing_input": r.failing_input, "diagnostics": r.diagnostics,
            } for r in random_fuzz_program(graph, reg, config)]
    return outcomes


def test_random_baseline_matches_golden():
    got = json.dumps(random_baseline_outcomes(), indent=1, sort_keys=True) + "\n"
    # compared as text for the same reason as the bench report
    assert got == GOLDEN_RANDOM.read_text()
