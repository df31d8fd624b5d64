"""With fixed seeds, datasets, models and reports stay byte-identical.

Fixture datasets and models are regenerated at perfbench/make_fixtures.py's
seeds and sizes and compared byte for byte with the committed fixtures. The
bench report over the corpus with the fixture models is compared with a
committed golden report once its time fields are stripped, and the random
baseline's outcome at every corpus site at full budget with a committed
golden of its own. scripts/compare_guidance.py's table of both strategies'
outcomes at its defaults is compared with BENCH_quality.json; on a mismatch
the failure names each row that moved significantly. A change that alters any
of these on purpose rebuilds the fixtures or the golden, and says why.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from safuzz import cli
from safuzz.cli import cli_dispatch
from safuzz.corpus import corpus_manifest
from safuzz.datagen import GenerationConfig, build_dataset, dataset_save
from safuzz.forest import model_save, train_forest
from safuzz.fuzzer import random_fuzz_program
from safuzz.registry import default_registry
from safuzz.report import strip_time_fields

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "perfbench" / "fixtures"
DATA = Path(__file__).resolve().parent / "data"
GOLDEN_REPORT = DATA / "bench_report_fixture_models.json"
GOLDEN_RANDOM = DATA / "random_baseline_corpus.json"
GOLDEN_QUALITY = ROOT / "BENCH_quality.json"

# one model kernel per oracle type the fixtures cover: 1, 2, 5 and 6
MODEL_KERNELS = ("exp", "Softmax", "CosineSimilarity", "remainder")


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIX = _load(ROOT / "perfbench" / "make_fixtures.py")


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
    args = SimpleNamespace(timeout=1800.0, max_iters=max_iters)
    runs = cli._runs(reg, lambda graph, config: random_fuzz_program(graph, reg, config),
                     corpus_manifest(reg), seeds, args)
    return {f"{run.program}@{run.seed}": [{
        "node": r.site.node_id, "status": r.status, "iterations": r.iterations,
        "failure_class": r.verdict.failure_class.value if r.found else None,
        "detail": r.verdict.detail if r.found else "",
        "failing_input": r.failing_input, "diagnostics": r.diagnostics,
    } for r in run.results] for run in runs}


def test_random_baseline_matches_golden():
    got = json.dumps(random_baseline_outcomes(), indent=1, sort_keys=True) + "\n"
    # compared as text for the same reason as the bench report
    assert got == GOLDEN_RANDOM.read_text()


# ---------------------------------------------------------------------------
# search quality: the golden table, and which of its rows moved
# ---------------------------------------------------------------------------

def fisher_exact(found: int, runs: int, other_found: int, other_runs: int) -> float:
    """Two-sided Fisher exact test of found/runs against other_found/other_runs:
    the chance, with the margins fixed, of a split no likelier than this one."""
    total = found + other_found
    # each split's count of ways; exact ints, so equally likely splits tie exactly
    ways = [math.comb(runs, x) * math.comb(other_runs, total - x)
            for x in range(max(0, total - other_runs), min(runs, total) + 1)]
    seen = math.comb(runs, found) * math.comb(other_runs, other_found)
    return sum(w for w in ways if w <= seen) / math.comb(runs + other_runs, total)


def a12(xs: list, ys: list) -> float:
    """Vargha-Delaney effect size: the chance that a draw from xs exceeds one
    from ys, a tie counting half; 0.5 is no effect."""
    wins = sum((x > y) + 0.5 * (x == y) for x in xs for y in ys)
    return wins / (len(xs) * len(ys))


def moved_rows(got: list[dict], want: list[dict]) -> list[str]:
    """The rows of got that differ significantly from want's: a found count
    at Fisher p < 0.05, iterations-to-found at an A12 outside [0.36, 0.64],
    or a row that only one table has."""
    def keyed(table):
        return {(r["program"], r["node"], r["strategy"]): r for r in table}

    got_at, want_at = keyed(got), keyed(want)
    lines = []
    for key in sorted(got_at.keys() | want_at.keys()):
        name = "/".join(key)
        if key not in got_at or key not in want_at:
            lines.append(f"{name}: only in the {'golden' if key in want_at else 'new'} table")
            continue
        g, w = got_at[key], want_at[key]
        p = fisher_exact(g["found"], g["runs"], w["found"], w["runs"])
        if p < 0.05:
            lines.append(f"{name}: found {w['found']}/{w['runs']} -> "
                         f"{g['found']}/{g['runs']} (Fisher p = {p:.3g})")
        if g["iterations_to_found"] and w["iterations_to_found"]:
            effect = a12(g["iterations_to_found"], w["iterations_to_found"])
            if not 0.36 <= effect <= 0.64:
                lines.append(f"{name}: median iterations to found "
                             f"{w['median_iterations_to_found']} -> "
                             f"{g['median_iterations_to_found']} (A12 = {effect:.2f})")
    return lines


# computed with scipy.stats.fisher_exact(..., alternative="two-sided")
@pytest.mark.parametrize("found, other_found, p", [
    (17, 30, 4.6356886214671344e-05),
    (25, 2, 1.4275657324116609e-09),
    (28, 30, 0.4915254237288136),
    (29, 30, 1.0),
    (0, 30, 1.6911233892144735e-17),
])
def test_fisher_exact_matches_scipy(found, other_found, p):
    assert fisher_exact(found, 30, other_found, 30) == pytest.approx(p, rel=1e-12)
    assert fisher_exact(other_found, 30, found, 30) == pytest.approx(p, rel=1e-12)


def test_a12():
    assert a12([1, 2, 3], [1, 2, 3]) == 0.5
    assert a12([4, 5], [1, 2]) == 1.0
    assert a12([1, 2], [4, 5]) == 0.0


def test_moved_rows_names_only_what_moved():
    want = json.loads(GOLDEN_QUALITY.read_text())
    got = [dict(row) for row in want]
    assert moved_rows(got, want) == []
    exp, = [r for r in got if r["program"] == "exp_overflow" and r["strategy"] == "guided"]
    exp.update(found=30, iterations_to_found=[1] * 30, median_iterations_to_found=1.0)
    log, = [r for r in got if r["program"] == "log_tiny_probability" and r["strategy"] == "guided"]
    log.update(found=29)  # 29/30 against 30/30 is within seed noise
    moved = moved_rows(got[1:], want)
    assert moved == [
        "bounded_sigmoid_clean/y/guided: only in the golden table",
        "exp_overflow/y/guided: found 17/30 -> 30/30 (Fisher p = 4.64e-05)",
        "exp_overflow/y/guided: median iterations to found 82.0 -> 1.0 (A12 = 0.00)",
    ]


def test_search_quality_matches_golden(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["compare_guidance.py",
                                      "--models", str(FIXTURES / "models")])
    assert _load(ROOT / "scripts" / "compare_guidance.py").main() == 0
    got = capsys.readouterr().out
    want = GOLDEN_QUALITY.read_text()
    assert got == want, (
        "the search-quality table differs from BENCH_quality.json; rows that moved "
        "significantly:\n" + ("\n".join(moved_rows(json.loads(got), json.loads(want)))
                              or "none"))
