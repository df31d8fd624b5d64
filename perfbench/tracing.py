"""Spans around the package's public functions, recorded from outside it.

A Tracer replaces each traced function with a wrapper at the name its caller
looks it up by (``safuzz.fuzzer.predict``, not ``safuzz.forest.predict``), so
the package itself is unchanged. Each call records one span: name, start,
end, parent span and group. All spans under one ``build_dataset``,
``train_forest``, ``fuzz_site`` or ``random_fuzz_site`` call share its group
id. Spans live in flat arrays in memory and are written out once, at the end.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Hook:
    module: str  # where the caller looks the name up
    attr: str
    span: str  # layer.function
    group_root: bool = False
    observe: Optional[Callable] = None  # observe(tracer, result)


def _observe_verdict(key: str):
    def observe(tracer, verdict):
        tracer.count(key, int(not verdict.passed))
    return observe


def _observe_labels(tracer, samples):
    tracer.count("datagen.labelled", len(samples))
    tracer.count("datagen.flipped", int(bool(samples)))


def _observe_dataset(tracer, dataset):
    tracer.count("datagen.delivered", len(dataset))


def _observe_training(tracer, result):
    forest, metrics = result
    tracer.count("forest.sample_trees", metrics["train_size"] * len(forest.trees))


HOOKS = (
    Hook("safuzz.datagen", "build_dataset", "datagen.build_dataset", True, _observe_dataset),
    Hook("safuzz.datagen", "run_trajectory", "datagen.run_trajectory"),
    Hook("safuzz.datagen", "derive_labels", "datagen.derive_labels", observe=_observe_labels),
    Hook("safuzz.datagen", "run_oracles", "oracles.run_oracles",
         observe=_observe_verdict("oracles.fail")),
    Hook("safuzz.forest", "train_forest", "forest.train_forest", True, _observe_training),
    Hook("safuzz.forest", "predict_batch", "forest.predict_batch"),
    Hook("safuzz.fuzzer", "fuzz_site", "fuzzer.fuzz_site", True),
    Hook("safuzz.fuzzer", "random_fuzz_site", "fuzzer.random_fuzz_site", True),
    Hook("safuzz.fuzzer", "predict", "forest.predict"),
    Hook("safuzz.fuzzer", "featurize", "datagen.featurize"),
    Hook("safuzz.fuzzer", "forward_eval", "autodiff.forward_eval"),
    Hook("safuzz.fuzzer", "backward", "autodiff.backward"),
    Hook("safuzz.fuzzer", "propagate_signal", "fuzzer.propagate_signal"),
    Hook("safuzz.fuzzer", "constrain_update", "fuzzer.constrain_update"),
    Hook("safuzz.fuzzer", "validate_failure", "fuzzer.validate_failure",
         observe=_observe_verdict("fuzzer.validate_fail")),
    Hook("safuzz.fuzzer", "run_oracles", "oracles.run_oracles",
         observe=_observe_verdict("oracles.fail")),
)


class Tracer:
    """Records spans while installed; `install` and `uninstall` bracket a pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.group = array("i")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._group = -1
        self._groups = 0
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        name_id = self._name_ids.setdefault(hook.span, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(hook.span)
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            outer_group = self._group
            if hook.group_root:
                self._group = self._groups
                self._groups += 1
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.group.append(self._group)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
                self._group = outer_group
            if hook.observe is not None:
                hook.observe(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            fn = getattr(module, hook.attr, None)
            if fn is None:
                print(f"trace: {hook.module}.{hook.attr} not found; "
                      f"{hook.span} is not measured", file=sys.stderr)
                continue
            self._saved.append((module, hook.attr, fn))
            setattr(module, hook.attr, self._wrap(hook, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "group": np.frombuffer(self.group, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


class SpanStats:
    """Per-name durations, self times and call counts of one tracer."""

    def __init__(self, tracer: Tracer):
        spans = tracer.arrays()
        self.names = tracer.names
        self.counters = dict(tracer.counters)
        duration = spans["end"] - spans["start"]
        child = np.zeros_like(duration)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], duration[has_parent])
        self._name = spans["name"]
        self._duration = duration
        self._self = duration - child
        # a span nested in a span of its own name is already inside that one
        parent_name = np.where(has_parent, self._name[np.maximum(spans["parent"], 0)], -1)
        self._outermost = parent_name != self._name

    def _mask(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(self._name.shape, dtype=bool)
        return self._name == self.names.index(span)

    def calls(self, span: str) -> int:
        return int(self._mask(span).sum())

    def durations(self, span: str) -> np.ndarray:
        return self._duration[self._mask(span)]

    def total(self, span: str) -> float:
        mask = self._mask(span) & self._outermost
        return float(self._duration[mask].sum())

    def self_total(self, span: str) -> float:
        return float(self._self[self._mask(span)].sum())

    def percentile_us(self, span: str, q: float) -> float:
        d = self.durations(span)
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0


LAYERS = ("datagen", "oracles", "forest", "autodiff", "fuzzer")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: SpanStats, wall: float, kernels, facts: dict) -> dict:
    """Per-layer values of one traced pass that took `wall` seconds.

    `kernels` is the order of the pass's build_dataset calls; `facts` holds
    the values read from the pass's outputs rather than from spans
    (forest.nodes_per_tree_mean, fuzzer.resets). Layers a workload does not
    reach read 0.
    """
    c = stats.counters
    out = {}
    for span in ("forest.predict", "datagen.run_trajectory", "datagen.featurize",
                 "oracles.run_oracles", "autodiff.forward_eval", "autodiff.backward",
                 "fuzzer.validate_failure"):
        out[f"{span}.calls"] = stats.calls(span)
        out[f"{span}.us_p50"] = stats.percentile_us(span, 50)
    for span in ("fuzzer.constrain_update", "fuzzer.propagate_signal"):
        out[f"{span}.us_p50"] = stats.percentile_us(span, 50)
    out["forest.predict.us_p99"] = stats.percentile_us("forest.predict", 99)
    for span in ("forest.predict", "oracles.run_oracles"):
        out[f"{span}.share"] = _ratio(stats.total(span), wall)
    for span in ("fuzzer.fuzz_site", "fuzzer.random_fuzz_site"):
        out[f"{span}.self_share"] = _ratio(stats.self_total(span), wall)
    for layer in LAYERS:
        own = sum(stats.self_total(n) for n in stats.names if n.startswith(layer + "."))
        out[f"{layer}.self_share"] = _ratio(own, wall)
    # train_forest's own time, without the held-out predict_batch inside it
    grow = stats.total("forest.train_forest") - stats.total("forest.predict_batch")
    out["forest.train_forest.us_per_sample_tree"] = _ratio(
        max(grow, 0.0) * 1e6, c.get("forest.sample_trees", 0))
    out["forest.predict_batch.s"] = stats.total("forest.predict_batch")
    builds = stats.durations("datagen.build_dataset")
    for i, kernel in enumerate(kernels):
        out[f"datagen.build_dataset.{kernel}.s"] = float(builds[i]) if i < builds.size else 0.0
    out["datagen.flip_ratio"] = _ratio(c.get("datagen.flipped", 0),
                                       stats.calls("datagen.run_trajectory"))
    out["datagen.kept_ratio"] = _ratio(c.get("datagen.delivered", 0),
                                       c.get("datagen.labelled", 0))
    out["oracles.fail_ratio"] = _ratio(c.get("oracles.fail", 0),
                                       stats.calls("oracles.run_oracles"))
    out["fuzzer.validate_hit_ratio"] = _ratio(c.get("fuzzer.validate_fail", 0),
                                              stats.calls("fuzzer.validate_failure"))
    out.update(facts)
    return out


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("forest.nodes_per_tree_mean", "fuzzer.resets"):
        return "count"
    if ".us_" in name:
        return "us"
    if name.endswith(".s"):
        return "s"
    return "ratio"
