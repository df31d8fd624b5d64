"""Labeled-dataset generation by unit-testing unstable kernels.

Base inputs are sampled round-robin across the kernel's registry regions,
then mutated step-wise (exponential, random, or sinusoidal step schedules at
each of BASE_RATES, in both directions, MAX_STEPS steps each) until the
oracle outcome flips. Only default_mutation_configs builds a schedule, so
every step is finite: the largest, exp(2.5 * MAX_STEPS), is far below a
double's largest value, about exp(709.8). A sinusoidal step is scaled by the
base's largest magnitude. Each flip labels the trajectory's points up to it:
passing points with the direction that led to failure, failing points with
"no change". The features are scaled once by the kernel's zero_epsilon hint
(exact zeros become it), which the dataset records for fuzz time, and
classes are balanced by down-sampling before a dataset ships; running out
of the generation budget short of the target size is logged as a warning.

A base's trajectories are judged in stacks. Each schedule's step budget is
built at once (a running sum of the signed steps), one oracle call judges
every row of a stack, and each trajectory is cut at its first flip. The
points and verdicts equal those of mutating and judging one step at a time.
The random schedule draws its whole budget from the generator up front;
after a flip the generator is rewound and redraws only the steps taken, so
every later draw is unchanged. That makes the next random schedule's steps
known only once the last one is judged, so a stack closes before a second
random schedule: the default schedules take four oracle calls per base.
"""

from __future__ import annotations

import enum
import json
import logging
import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from safuzz.errors import FileFormatError, GenerationFailure, UsageError
from safuzz.jsonfields import FORMAT_VERSION, dimensions, document, positive, typed
from safuzz.kernels import default_params, op_def, unit_operand_rows
from safuzz.oracles import oracle_rows
from safuzz.registry import Registry, default_registry

log = logging.getLogger(__name__)

BASE_RATES = (1.0, 2.5)  # the rates of the default mutation schedules
MAX_STEPS = 100  # mutation steps a trajectory takes at most
MAX_WAVES = 300  # rounds of base inputs build_dataset draws before it stops
CLASS_NAMES = ("NoChange", "Decrease", "Increase")  # by Signal value, in every file


class Signal(enum.IntEnum):
    """Soft-assertion output classes. Enum order is the vote tie-break order."""

    NO_CHANGE = 0
    DECREASE = 1
    INCREASE = 2

    @property
    def label(self) -> str:
        return CLASS_NAMES[self]


@dataclass(frozen=True)
class MutationConfig:
    method: str  # exponential | random | sinusoidal
    rate: float  # one of BASE_RATES
    direction: str  # up | down


@dataclass(frozen=True)
class GenerationConfig:
    n_base: int = 100
    shape: tuple[int, ...] = (3, 3)
    seed: int = 0
    target_size: int = 40_000

    def __post_init__(self):
        if min(self.n_base, self.target_size) < 1 or self.seed < 0:
            raise UsageError("n_base and target_size must be >= 1, and seed >= 0")
        if min(self.shape, default=1) < 1:
            raise UsageError(f"shape {self.shape} has a dimension below 1")


@dataclass
class Dataset:
    kernel: str
    shape: tuple[int, ...]
    features: np.ndarray  # (n, feature_len) float64
    labels: np.ndarray  # (n,) int8 Signal values
    config: dict = field(default_factory=dict)
    zero_epsilon: Optional[float] = None  # the shift apply_scaling gave exact zeros

    @property
    def feature_len(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def class_counts(self) -> dict[str, int]:
        counts = np.bincount(self.labels, minlength=3)
        return {s.label: int(counts[s]) for s in Signal if counts[s] > 0}


# ---------------------------------------------------------------------------
# base inputs and mutation steps
# ---------------------------------------------------------------------------

def generate_base_inputs(config: GenerationConfig, rng: np.random.Generator,
                         regions: tuple[tuple[float, float], ...]) -> list[np.ndarray]:
    """config.n_base uniform bases, base i drawn from region i mod len(regions)."""
    return [rng.uniform(*regions[i % len(regions)], size=config.shape)
            for i in range(config.n_base)]


@lru_cache(maxsize=64)
def _schedule(method: str, rate: float, count: int) -> np.ndarray:
    """exp(rate * k), or |sin(rate * k)|, for k = 1, 2, ..., count.
    Shared between calls, so read-only."""
    ks = range(1, count + 1)
    if method == "exponential":
        sizes = [math.exp(rate * k) for k in ks]
    else:
        sizes = [abs(math.sin(rate * k)) for k in ks]
    out = np.array(sizes, dtype=np.float64)
    out.flags.writeable = False
    return out


def step_sizes(mconfig: MutationConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """Sizes of mutation steps 1, 2, ..., count. The random schedule draws
    one uniform [0, 1) sample per step from rng."""
    if mconfig.method == "random":
        return rng.uniform(0.0, 1.0, size=count) * mconfig.rate
    return _schedule(mconfig.method, mconfig.rate, count)


# ---------------------------------------------------------------------------
# trajectories and labels
# ---------------------------------------------------------------------------

def _stacks(mconfigs: Sequence[MutationConfig]) -> list[list[MutationConfig]]:
    """The schedules in order, split before each random schedule that would
    be its stack's second: it draws where the first is cut, which is known
    only once that one is judged."""
    stacks: list[list[MutationConfig]] = []
    for mc in mconfigs:
        if not stacks or (mc.method == "random"
                          and any(m.method == "random" for m in stacks[-1])):
            stacks.append([])
        stacks[-1].append(mc)
    return stacks


def run_trajectories(kernel: str, base: np.ndarray, mconfigs: Sequence[MutationConfig],
                     rng: np.random.Generator,
                     registry: Optional[Registry] = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mutate base under each schedule until the oracle outcome flips or the
    step budget runs out, judging the trajectories in stacks (see _stacks)
    with one oracle call per stack.

    A sinusoidal step is scaled by the base's largest |value| (1.0 for an
    all-zero base). Returns, per schedule in order, the points visited, base
    first, stacked as (n, *shape) float64, and whether each passed the
    kernel's oracles; when the outcome flips, the last point is the first
    whose outcome differs from the base's.
    """
    reg = registry or default_registry()
    start = np.asarray(base, dtype=np.float64)
    params = default_params(kernel, start.shape)
    amplitude = float(np.max(np.abs(start))) or 1.0
    trajectories = []
    for stack in _stacks(mconfigs):
        points = np.empty((len(stack), MAX_STEPS + 1) + start.shape)
        points[:, 0] = start
        for walk, mc in zip(points, stack):
            if mc.method == "random":
                rewind = rng.bit_generator.state
            steps = step_sizes(mc, rng, MAX_STEPS)
            if mc.method == "sinusoidal":
                steps = steps * amplitude
            if mc.direction == "down":
                steps = -steps
            walk[1:] = steps.reshape((-1,) + (1,) * start.ndim)
        with np.errstate(over="ignore"):  # a sum past float64's range is data, as in the fuzzer
            points = np.cumsum(points, axis=1)  # sequential adds: x_k = x_{k-1} + step_k
        rows = points.reshape((-1,) + start.shape)
        passed = oracle_rows(kernel, params, unit_operand_rows(kernel, rows), reg).passed
        for mc, walk, walk_passed in zip(stack, points, passed.reshape(len(stack), -1)):
            flip = int((walk_passed != walk_passed[0]).argmax())  # 0: no flip
            end = flip + 1 if flip else len(walk_passed)
            if mc.method == "random" and end < len(walk_passed):
                # the schedules after it in its stack draw nothing
                rng.bit_generator.state = rewind
                rng.uniform(0.0, 1.0, size=end - 1)
            trajectories.append((walk[:end], walk_passed[:end]))
    return trajectories


def derive_labels(passed: np.ndarray, direction: str) -> list[Signal]:
    """Label a trajectory, cut at its first flip as run_trajectories cuts it,
    by its MutationConfig.direction: one label per point if it flipped, none
    if it did not (the caller retries).

    Passing points are labeled with the mutation direction that triggered the
    failure; failing points are labeled no-change. When the mutation moved
    fail -> success, the successful endpoint gets the reverse direction.
    """
    if passed[-1] == passed[0]:
        return []
    # toward the failure: the mutation's direction from a passing start, else its reverse
    ok_label = Signal.INCREASE if bool(passed[0]) == (direction == "up") else Signal.DECREASE
    return [ok_label if ok else Signal.NO_CHANGE for ok in passed.tolist()]


# ---------------------------------------------------------------------------
# featurization and scaling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _quantile_plan(size: int, feature_len: int) -> tuple:
    """numpy's linear-quantile plan for `size` values and `feature_len`
    equally spaced quantiles: partition points, the index pairs (a, b),
    gamma, 1 - gamma, and where the lerp counts back from b."""
    virtual = (size - 1) * np.linspace(0.0, 1.0, feature_len)
    below = np.floor(virtual)
    top = virtual >= size - 1  # both neighbours are the largest value
    below[top] = -1
    above = below + 1
    above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    gamma = virtual - below
    # sorted by hand: np.unique would import numpy.ma on the fuzz path
    kth = np.array(sorted({0, -1, *below.tolist(), *above.tolist()}), dtype=np.intp)
    plan = (kth, below, above, gamma, 1 - gamma, gamma >= 0.5)
    for column in plan:
        column.flags.writeable = False  # one plan serves every call
    return plan


def featurize(x: np.ndarray, feature_len: int) -> np.ndarray:
    """Flatten to a new float64 vector when sizes match, otherwise emit
    feature_len equally spaced quantiles, byte for byte those of
    np.quantile(values, np.linspace(0, 1, feature_len)).

    That is numpy's linear method (Hyndman and Fan's type 7). Quantile q of
    n sorted values sits at virtual index h = (n - 1) q; with a and b the
    values at floor(h) and floor(h) + 1 and gamma = h - floor(h), it is
    a + (b - a) gamma, or b - (b - a)(1 - gamma) where gamma >= 0.5. Where
    h = n - 1, a and b are both the largest value and gamma is h + 1. A NaN
    sorts last and makes every quantile that NaN. An infinite value also
    gives NaN quantiles at and beside it (inf * 0, inf - inf). The values
    are partitioned at numpy's own points, so equal values such as 0.0 and
    -0.0 land where numpy puts them.
    """
    values = np.array(x, dtype=np.float64).reshape(-1)
    if values.size == feature_len:
        return values
    kth, below, above, gamma, cogamma, from_b = _quantile_plan(values.size, feature_len)
    values.partition(kth)
    if math.isnan(values[-1]):
        return np.full(feature_len, values[-1])
    a, b = values[below], values[above]
    with np.errstate(all="ignore"):  # interpolation next to inf values
        diff = b - a
        out = a + diff * gamma
        np.subtract(b, diff * cogamma, out=out, where=from_b)
    return out


def apply_scaling(features: np.ndarray, zero_epsilon: Optional[float]) -> np.ndarray:
    """Replay a dataset's recorded preprocessing on a feature vector/matrix:
    exact zeros become zero_epsilon; without one, features come back as is."""
    if zero_epsilon is None:
        return features
    return np.where(features == 0.0, zero_epsilon, features)


def scaling_field(zero_epsilon: Optional[float]) -> dict:
    """A file's "scaling" record: a retired identity scale and offset, and the zero shift."""
    return {"offset": 0.0, "scale": 1.0, "zero_epsilon": zero_epsilon}


def read_fixed_fields(doc: dict) -> tuple[str, tuple[int, ...], int, Optional[float]]:
    """The kernel, shape, feature_len and zero_epsilon of a dataset header or
    model file; a ValueError names a field that differs from what every file
    writes."""
    feature_len, scaling = typed(doc["feature_len"], int, "feature_len"), doc["scaling"]
    if feature_len < 1:
        raise ValueError(f"feature_len must be at least 1, not {feature_len}")
    eps = typed(scaling, dict, "scaling").get("zero_epsilon")
    eps = None if eps is None else positive(eps, "scaling zero_epsilon")
    if scaling != scaling_field(eps):
        raise ValueError(f"scaling {scaling!r} is not an identity scale and offset "
                         "and a zero_epsilon")
    kernel, shape = typed(doc["kernel"], str, "kernel"), dimensions(doc["shape"], "shape")
    if feature_len != math.prod(shape):  # every file's rows are a sample's raw entries
        raise ValueError(f"feature_len {feature_len} is not the size of shape {list(shape)}")
    return kernel, shape, feature_len, eps


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def default_mutation_configs() -> list[MutationConfig]:
    configs = []
    for method in ("exponential", "random", "sinusoidal"):
        for direction in ("up", "down"):
            for rate in BASE_RATES:
                configs.append(MutationConfig(method=method, rate=rate, direction=direction))
    return configs


def _capped(counts: dict[int, int]) -> dict[int, int]:
    """Each class's count, capped at 1.5x the minority class's."""
    cap = int(min(counts.values()) * 1.5)
    return {c: min(n, cap) for c, n in counts.items()}


def _balance(features: np.ndarray, labels: np.ndarray, target: int,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Down-sample over-represented classes to at most 1.5x the minority.

    Classes are drawn in ascending order; the order of the draws fixes which
    rows a dataset keeps."""
    takes = _capped({int(c): int((labels == c).sum()) for c in np.unique(labels)})
    total = sum(takes.values())
    if total > target:
        shrink = target / total
        takes = {c: max(1, int(n * shrink)) for c, n in takes.items()}
    keep_idx = []
    for c, n in takes.items():
        idx = np.flatnonzero(labels == c)
        keep_idx.append(rng.choice(idx, size=n, replace=False))
    keep = np.concatenate(keep_idx)
    keep = rng.permutation(keep)
    return features[keep], labels[keep]


def _balanced_total(counts: dict[int, int]) -> int:
    return sum(_capped(counts).values()) if counts else 0


def build_dataset(kernel: str, gconfig: GenerationConfig,
                  registry: Optional[Registry] = None) -> Dataset:
    """Generate, label, scale and balance a dataset for one kernel."""
    reg = registry or default_registry()
    spec = reg.get(kernel)
    if not spec.implemented:
        raise GenerationFailure(f"kernel '{kernel}': kernel is not implemented")
    shape = tuple(gconfig.shape)
    try:  # the unit-test operands must fit the kernel's shape rule
        op_def(kernel).shape_rule(default_params(kernel, shape), *(
            x.shape[1:] for x in unit_operand_rows(kernel, np.zeros((1,) + shape))))
    except (ValueError, IndexError) as exc:  # IndexError: no last axis to size params by
        raise UsageError(f"kernel '{kernel}' does not take shape {shape}: {exc}") from None
    rng = np.random.default_rng(gconfig.seed)
    hints = spec.generation  # the registry gives every executable kernel hints
    mconfigs = default_mutation_configs()

    feats_acc: list[np.ndarray] = []
    labels_acc: list[Signal] = []
    counts: dict[int, int] = {}

    def run_base(base: np.ndarray):
        for mc, (points, passed) in zip(mconfigs, run_trajectories(kernel, base, mconfigs,
                                                                    rng, reg)):
            labels = derive_labels(passed, mc.direction)
            if not labels:
                continue
            # a copy per trajectory: a view would keep its whole step budget alive
            feats_acc.append(points.reshape(len(points), -1).copy())
            labels_acc.extend(labels)
            for label in labels:
                counts[label] = counts.get(label, 0) + 1

    for seed_value in hints.failure_seeds:
        run_base(np.full(shape, seed_value, dtype=np.float64))
    for wave in range(MAX_WAVES):
        for base in generate_base_inputs(gconfig, rng, hints.regions):
            run_base(base)
        if wave >= 2 and not labels_acc:  # only a flipped trajectory adds labels
            raise GenerationFailure(
                f"kernel '{kernel}': oracle outcome never flipped on the configured regions")
        if _balanced_total(counts) >= gconfig.target_size:
            break
        if len(labels_acc) > 12 * gconfig.target_size:
            break

    features = np.concatenate(feats_acc)
    feats_acc.clear()  # peak memory stays a few copies of the features
    # the kernel's zero shift, recorded for fuzz time; the unshifted copy dies here
    features = apply_scaling(features, hints.zero_epsilon)
    features, labels = _balance(features, np.asarray(labels_acc, dtype=np.int8),
                                gconfig.target_size, rng)
    dataset = Dataset(
        kernel=kernel,
        shape=shape,
        features=features,
        labels=labels,
        # "mutations_per_base" and "pixel_bounds" record retired settings at
        # their one value, so dataset files stay byte-identical
        config={
            "n_base": gconfig.n_base,
            "regions": [list(r) for r in hints.regions],
            "shape": list(shape),
            "mutations_per_base": MAX_STEPS,
            "seed": gconfig.seed,
            "pixel_bounds": None,
            "target_size": gconfig.target_size,
        },
        zero_epsilon=hints.zero_epsilon,
    )

    final_counts = dataset.class_counts()
    if min(final_counts.values()) < 100:
        raise GenerationFailure(
            f"kernel '{kernel}': class counts {final_counts} below the 100-sample floor "
            "after exhausting the generation budget")
    if _balanced_total(counts) < gconfig.target_size:
        # the budget ran out; balancing's rounding alone loses < 1 sample per class
        log.warning("%s: generation budget exhausted at %d of the %d samples targeted",
                    kernel, len(dataset), gconfig.target_size)
    return dataset


# ---------------------------------------------------------------------------
# persistence: JSON header line + exactly one CSV record per sample
# ---------------------------------------------------------------------------

def dataset_save(dataset: Dataset, path) -> None:
    path = Path(path)
    header = {
        "format_version": FORMAT_VERSION,
        "kernel": dataset.kernel,
        "shape": list(dataset.shape),
        "feature_len": dataset.feature_len,
        "n_samples": len(dataset),
        "config": dataset.config,
        "scaling": scaling_field(dataset.zero_epsilon),
        "class_counts": dataset.class_counts(),
    }
    try:
        with path.open("w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for row, lab in zip(dataset.features, dataset.labels):
                fh.write(CLASS_NAMES[lab] + "," +
                         ",".join(repr(float(v)) for v in row) + "\n")
    except OSError as exc:
        raise FileFormatError(f"cannot write dataset {path}: {exc}") from exc


def dataset_load(path) -> Dataset:
    path = Path(path)
    signal_of = {name: value for value, name in enumerate(CLASS_NAMES)}
    try:
        with path.open() as fh:
            header = document(json.loads(fh.readline()), "dataset")
            n = typed(header["n_samples"], int, "n_samples")
            if n < 0:
                raise ValueError(f"n_samples must be at least 0, not {n}")
            kernel, shape, d, zero_epsilon = read_fixed_fields(header)
            # sized by the records read, never by the header's counts
            labels, values = array("b"), array("d")
            for i in range(n):
                line = fh.readline()
                if not line:
                    raise ValueError(f"dataset truncated at record {i} of {n}")
                parts = line.rstrip("\n").split(",")
                if len(parts) != d + 1:
                    raise ValueError(f"record {i} has {len(parts) - 1} features, expected {d}")
                if parts[0] not in signal_of:
                    raise ValueError(f"record {i} has unknown label {parts[0]!r}")
                labels.append(signal_of[parts[0]])
                try:
                    values.extend(map(float, parts[1:]))
                except ValueError as exc:
                    raise ValueError(f"record {i}: {exc}") from None
            if fh.read().strip():
                raise ValueError(f"dataset has records past its {n} samples")
        dataset = Dataset(kernel=kernel, shape=shape, features=np.reshape(values, (n, d)),
                          labels=np.asarray(labels, dtype=np.int8),
                          config=typed(header.get("config", {}), dict, "config"),
                          zero_epsilon=zero_epsilon)
        if header["class_counts"] != dataset.class_counts():
            raise ValueError(f"header class_counts {header['class_counts']} differ from "
                             f"the records' {dataset.class_counts()}")
        return dataset
    # JSONDecodeError is a ValueError; KeyError and TypeError: a header field missing or mistyped
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"cannot load dataset {path}: {exc}") from exc
