"""The four workloads: what one pass does, what it must produce, and its metrics.

Every workload is a closed loop in one thread: a pass makes its next call
only after the previous one returned. A pass is a fixed amount of work that
depends only on the benchmark seed, so every pass of a run must produce the
same outputs. A pass is split into units (one kernel, or one fuzz seed over
every corpus program), each timed by a UnitTimer.

Calls into the package go through module attributes (``datagen.build_dataset``
rather than an imported name) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from safuzz import corpus, datagen, forest, fuzzer, registry
from safuzz.errors import GenerationFailure, TrainingError
from safuzz.tensor import Tensor

FIXTURES = Path(__file__).resolve().parent / "fixtures"
DATAGEN_KERNELS = ("square", "Softmax", "CosineSimilarity", "remainder")
TRAIN_KERNELS = ("Softmax", "square", "CosineSimilarity")
# fuzz_site diagnostics that mean the search broke rather than ran out of budget
FAILED_DIAGNOSTICS = ("evaluation failed", "validation failed", "wall-clock timeout")


@dataclass(frozen=True)
class Sizes:
    datagen_target: int = 1000
    datagen_n_base: int = 100
    train_trees: int = 100
    fuzz_seeds: int = 6  # fuzz seeds per pass; bench seed s covers [s*n, s*n + n)
    max_iters: int = 2000


FULL = Sizes()
# For the smoke run only: at this size `remainder` fails its class floor, so
# the smoke run also covers the failed-operation path.
TINY = Sizes(datagen_target=400, datagen_n_base=10, train_trees=5, fuzz_seeds=1,
             max_iters=50)


# the reference loop's seconds on an idle core of the 2-core machine the
# baseline came from; scaled times read as seconds on that idle core
REFERENCE_S = 0.0085


def reference_seconds() -> float:
    """Seconds of a fixed pure-Python loop; it does not touch the package."""
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    return time.perf_counter() - t0


class UnitTimer:
    """Wall time of each unit of a pass, and of the reference loop around it.

    Other tenants of the machine switch this core between speeds up to 1.7x
    apart for tens of seconds at a time; the reference loop slows by about
    the same factor, so a unit's seconds divided by the loop's seconds next
    to it measure the program rather than the core's current speed.
    """

    def __init__(self):
        self.unit_s: list[float] = []
        self.ref_s: list[float] = []

    @contextmanager
    def unit(self):
        before = reference_seconds()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.unit_s.append(time.perf_counter() - t0)
            self.ref_s.append(0.5 * (before + reference_seconds()))


def pass_seconds(timers: list[UnitTimer]) -> float:
    """Seconds of one pass at the reference speed, each unit at its fastest repeat.

    What the reference loop does not absorb only ever slows a unit down, so
    the fastest of identical repeats is the closest estimate of its cost.
    """
    per_unit = zip(*([t / r for t, r in zip(tm.unit_s, tm.ref_s)] for tm in timers))
    return REFERENCE_S * sum(min(u) for u in per_unit)


@dataclass
class PassResult:
    work: int  # delivered samples, sample-trees grown, or fuzz iterations
    attempted: int
    failed: int
    signature: dict  # outputs that must repeat exactly at one seed
    outputs: list = field(default_factory=list)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _fresh_registry() -> registry.Registry:
    registry.default_registry.cache_clear()
    return registry.default_registry()


def _roundtrip_dataset(ds: datagen.Dataset, workdir: Path) -> list[str]:
    path = workdir / f"{ds.kernel}.csv"
    datagen.dataset_save(ds, path)
    back = datagen.dataset_load(path)
    path.unlink()
    if (back.labels.tolist() != ds.labels.tolist()
            or not np.array_equal(back.features, ds.features, equal_nan=True)):
        return [f"{ds.kernel}: dataset_save/dataset_load changed features or labels"]
    return []


class Workload:
    name = ""
    stresses = ""
    bypasses = ""

    def setup(self, seed: int, sizes: Sizes):
        raise NotImplementedError

    def run_pass(self, state, timer: UnitTimer) -> PassResult:
        raise NotImplementedError

    def check(self, state, result: PassResult, workdir: Path) -> list[str]:
        raise NotImplementedError

    def metrics(self, state, result: PassResult, run_s: float) -> tuple[float, dict]:
        """The workload's quality ratio and its named end-to-end metrics."""
        raise NotImplementedError

    def layer_facts(self, state, result: PassResult) -> dict:
        """Per-layer values read from a pass's outputs rather than from spans."""
        return {"forest.nodes_per_tree_mean": 0.0, "fuzzer.resets": 0}


def _nodes_per_tree(forests) -> float:
    sizes = [len(t.feature) for f in forests for t in f.trees]
    return statistics.fmean(sizes) if sizes else 0.0


class Datagen(Workload):
    name = "datagen"
    stresses = "datagen.run_trajectory and oracles.run_oracles (kernels inside)"
    bypasses = "forest, autodiff, fuzzer"

    def setup(self, seed, sizes):
        config = datagen.GenerationConfig(seed=seed, target_size=sizes.datagen_target,
                                          n_base=sizes.datagen_n_base)
        return {"reg": _fresh_registry(), "config": config}

    def run_pass(self, state, timer):
        datasets, failed = [], 0
        for kernel in DATAGEN_KERNELS:
            with timer.unit():
                try:
                    datasets.append(datagen.build_dataset(kernel, state["config"],
                                                          registry=state["reg"]))
                except GenerationFailure:
                    failed += 1
        signature = {ds.kernel: [len(ds), ds.class_counts(), _digest(ds.features, ds.labels)]
                     for ds in datasets}
        return PassResult(work=sum(len(ds) for ds in datasets),
                          attempted=len(DATAGEN_KERNELS), failed=failed,
                          signature=signature, outputs=datasets)

    def check(self, state, result, workdir):
        errors = []
        for ds in result.outputs:
            if ds.features.shape != (len(ds.labels), 9) or not set(np.unique(ds.labels)) <= {0, 1, 2}:
                errors.append(f"{ds.kernel}: malformed dataset {ds.features.shape}")
            errors += _roundtrip_dataset(ds, workdir)
        return errors

    def metrics(self, state, result, run_s):
        target = state["config"].target_size * len(DATAGEN_KERNELS)
        ratio = result.work / target
        return ratio, {
            "gen_samples_per_s": metric(result.work / run_s, "samples/s"),
            "gen_delivered_ratio": metric(ratio, "ratio"),
        }


class Train(Workload):
    name = "train"
    stresses = "forest._grow_tree via train_forest, forest.predict_batch"
    bypasses = "oracles, autodiff, fuzzer (datasets are fixtures loaded in setup)"

    def setup(self, seed, sizes):
        datasets = [datagen.dataset_load(FIXTURES / "datasets" / f"{k}.csv")
                    for k in TRAIN_KERNELS]
        return {"datasets": datasets, "seed": seed, "trees": sizes.train_trees}

    def run_pass(self, state, timer):
        trained, failed, work = [], 0, 0
        for ds in state["datasets"]:
            try:
                with timer.unit():
                    model, scores = forest.train_forest(ds, tree_count=state["trees"],
                                                        seed=state["seed"])
            except TrainingError:
                failed += 1
                continue
            trained.append((ds, model, scores))
            work += scores["train_size"] * len(model.trees)
        signature = {ds.kernel: [scores["macro_f1"], sum(len(t.feature) for t in model.trees)]
                     for ds, model, scores in trained}
        return PassResult(work=work, attempted=len(state["datasets"]), failed=failed,
                          signature=signature, outputs=trained)

    def check(self, state, result, workdir):
        errors = []
        for ds in state["datasets"]:
            errors += _roundtrip_dataset(ds, workdir)
        for ds, model, scores in result.outputs:
            if not 0.0 <= scores["macro_f1"] <= 1.0:
                errors.append(f"{ds.kernel}: macro_f1 {scores['macro_f1']} outside [0, 1]")
            path = workdir / f"{ds.kernel}.json"
            forest.model_save(model, path)
            back = forest.model_load(path)
            path.unlink()
            if not np.array_equal(forest.predict_batch(back, ds.features),
                                  forest.predict_batch(model, ds.features)):
                errors.append(f"{ds.kernel}: model_save/model_load changed predict_batch")
        return errors

    def metrics(self, state, result, run_s):
        f1 = statistics.fmean(s["macro_f1"] for _, _, s in result.outputs) if result.outputs else 0.0
        return f1, {"macro_f1_mean": metric(f1, "ratio")}

    def layer_facts(self, state, result):
        return {"forest.nodes_per_tree_mean": _nodes_per_tree(m for _, m, _ in result.outputs),
                "fuzzer.resets": 0}


@dataclass
class Pair:
    """One (program, fuzz seed) search and the results of its sites."""

    program: int  # index into the setup's program list
    seed: int
    results: list
    skipped: int = 0

    def first_find(self) -> Optional[int]:
        found = [r.iterations for r in self.results if r.found]
        return min(found) if found else None


class Fuzz(Workload):
    def __init__(self, guided: bool):
        self.guided = guided
        if guided:
            self.name = "fuzz_guided"
            self.stresses = "forest.predict, datagen.featurize, fuzzer.propagate_signal"
            self.bypasses = "datagen trajectories; oracles run only on NoChange verdicts"
        else:
            self.name = "fuzz_random"
            self.stresses = "fuzzer.validate_failure, autodiff.forward_eval, oracles.run_oracles"
            self.bypasses = "forest (a forest change should show no effect here)"

    def setup(self, seed, sizes):
        reg = _fresh_registry()
        programs = []
        for spec in corpus.corpus_manifest(reg):
            graph = spec.to_graph(reg)
            programs.append((spec, graph, fuzzer.scan_for_unstable(graph, reg).sites))
        models = []
        if self.guided:
            for path in sorted((FIXTURES / "models").glob("*.json")):
                model = forest.model_load(path)
                if model.kernel != path.stem:
                    raise ValueError(f"fixture {path.name} holds a model for {model.kernel}")
                models.append(model)
        n = sizes.fuzz_seeds
        return {"reg": reg, "programs": programs, "models": models,
                "seeds": [seed * n + j for j in range(n)], "max_iters": sizes.max_iters}

    def _search(self, state, graph, sites, config) -> tuple[list, int]:
        reg = state["reg"]
        if self.guided:
            results, _ = fuzzer.fuzz_program(graph, reg, state["models"], config)
            return results, len(sites) - len(results)
        results = []
        for index, site in enumerate(sites):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, index]))
            results.append(fuzzer.random_fuzz_site(graph, site, config, rng, reg))
        return results, 0

    def run_pass(self, state, timer):
        pairs = []
        for seed in state["seeds"]:
            with timer.unit():
                for index, (spec, graph, sites) in enumerate(state["programs"]):
                    # a timeout this large leaves max_iters as the only budget that binds
                    config = fuzzer.FuzzConfig(timeout=1e9, rate=spec.rate or 1.0,
                                               seed=seed, max_iters=state["max_iters"])
                    results, skipped = self._search(state, graph, sites, config)
                    pairs.append(Pair(index, seed, results, skipped))
        results = [r for p in pairs for r in p.results]
        broken = sum(any(d.startswith(FAILED_DIAGNOSTICS) for d in r.diagnostics)
                     for r in results)
        signature = {
            f"{state['programs'][p.program][0].name}@{p.seed}": [
                [r.site.node_id, r.status, r.iterations, r.resets,
                 r.verdict.failure_class.value if r.found else None] for r in p.results]
            for p in pairs
        }
        return PassResult(work=sum(r.iterations for r in results),
                          attempted=len(results) + sum(p.skipped for p in pairs),
                          failed=broken + sum(p.skipped for p in pairs),
                          signature=signature, outputs=pairs)

    def check(self, state, result, workdir):
        errors = []
        for pair in result.outputs:
            spec, graph, _ = state["programs"][pair.program]
            for r in pair.results:
                if not r.found:
                    continue
                inputs = [Tensor(np.asarray(r.failing_input[d.id], dtype=np.float64))
                          for d in graph.inputs]
                again = fuzzer.validate_failure(graph, r.site, inputs, state["reg"])
                if again.passed or again.failure_class != r.verdict.failure_class:
                    errors.append(f"{spec.name}@{pair.seed} {r.site.node_id}: failing input "
                                  f"re-validates as {again.status} {again.failure_class}")
        return errors

    def layer_facts(self, state, result):
        return {"forest.nodes_per_tree_mean": _nodes_per_tree(state["models"]),
                "fuzzer.resets": sum(r.resets for p in result.outputs for r in p.results)}

    def metrics(self, state, result, run_s):
        cap = state["max_iters"]
        buggy = [p for p in result.outputs
                 if state["programs"][p.program][0].expected_failure_class]
        clean = [p for p in result.outputs
                 if not state["programs"][p.program][0].expected_failure_class]
        firsts = [p.first_find() for p in buggy]
        found = sum(f is not None for f in firsts)
        p50 = statistics.median(cap if f is None else f for f in firsts)
        return found / len(buggy), {
            "fuzz_iters_per_s": metric(result.work / run_s, "iter/s"),
            "bugs_found": metric(found, "count"),
            "bugs_found_by_search": metric(sum(f is not None and f > 1 for f in firsts), "count"),
            "iters_to_bug_p50": metric(p50, "iterations"),
            "false_alarms": metric(sum(r.found for p in clean for r in p.results), "count"),
        }


WORKLOADS = {w.name: w for w in (Datagen(), Train(), Fuzz(guided=True), Fuzz(guided=False))}
