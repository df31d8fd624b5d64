"""Labeled-dataset generation by unit-testing unstable kernels.

Base inputs are sampled across configured regions of the input space, then
mutated step-wise (exponential, random, or sinusoidal step schedules, in both
directions) until the oracle outcome flips. Each flip turns the trajectory
into labeled samples: passing points are labeled with the direction that led
to failure, failing points with "no change". Classes are balanced by
down-sampling before a dataset ships; running out of the generation budget
short of the target size is logged as a warning.

A trajectory is judged as one stack: all of its step budget's points are
built at once (a running sum of the signed steps, or a clipped step per row
under pixel bounds), one oracle call judges every row, and the trajectory is
cut at its first flip. The points and verdicts equal those of mutating and
judging one step at a time. The random schedule draws its whole budget from
the generator up front; after a flip the generator is rewound and redraws
only the steps taken, so every later draw is unchanged.
"""

from __future__ import annotations

import enum
import json
import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from safuzz.errors import (
    FileFormatError,
    GenerationFailure,
    UsageError,
)
from safuzz.kernels import default_params, op_def, unit_operand_rows
from safuzz.oracles import oracle_rows
from safuzz.registry import Registry, default_registry

log = logging.getLogger(__name__)

FEATURE_LENGTHS = (9, 196, 784)

BASE_RATES = (1.0, 2.5)  # the rates of the default mutation schedules
MAX_WAVES = 300  # rounds of base inputs build_dataset draws before it stops


class Signal(enum.IntEnum):
    """Soft-assertion output classes. Enum order is the vote tie-break order."""

    NO_CHANGE = 0
    DECREASE = 1
    INCREASE = 2

    @property
    def label(self) -> str:
        return {0: "NoChange", 1: "Decrease", 2: "Increase"}[int(self)]

    @staticmethod
    def from_label(label: str) -> "Signal":
        try:
            return {"NoChange": Signal.NO_CHANGE,
                    "Decrease": Signal.DECREASE,
                    "Increase": Signal.INCREASE}[label]
        except KeyError:
            raise UsageError(f"unknown signal label {label!r}") from None


@dataclass(frozen=True)
class MutationConfig:
    method: str  # exponential | random | sinusoidal
    rate: float = 1.0
    max_steps: int = 100
    direction: str = "up"  # up | down
    scale: Optional[float] = None  # sinusoidal step amplitude

    def __post_init__(self):
        if self.method not in ("exponential", "random", "sinusoidal"):
            raise UsageError(f"unknown mutation method {self.method!r}")
        if self.direction not in ("up", "down"):
            raise UsageError(f"unknown direction {self.direction!r}")
        if not self.rate > 0 or self.max_steps < 1:
            raise UsageError("rate must be positive and max_steps >= 1")


@dataclass(frozen=True)
class GenerationConfig:
    n_base: int = 100
    regions: Optional[tuple[tuple[float, float], ...]] = None  # None: registry hints
    shape: tuple[int, ...] = (3, 3)
    mutations_per_base: int = 100
    seed: int = 0
    pixel_bounds: Optional[tuple[float, float]] = None
    target_size: int = 40_000

    def __post_init__(self):
        if min(self.n_base, self.mutations_per_base, self.target_size) < 1:
            raise UsageError("n_base, mutations_per_base and target_size must be >= 1")
        if min(self.shape, default=1) < 1:
            raise UsageError(f"shape {self.shape} has a dimension below 1")
        if self.regions is not None and len(self.regions) == 0:
            raise UsageError("regions must be non-empty")
        if self.pixel_bounds is not None and not self.pixel_bounds[0] < self.pixel_bounds[1]:
            raise UsageError(f"pixel_bounds {self.pixel_bounds} must satisfy lo < hi")


@dataclass(frozen=True)
class LabeledSample:
    features: np.ndarray
    label: Signal


@dataclass
class Dataset:
    kernel: str
    shape: tuple[int, ...]
    features: np.ndarray  # (n, feature_len) float64
    labels: np.ndarray  # (n,) int8 Signal values
    config: dict = field(default_factory=dict)
    scaling: dict = field(default_factory=lambda: {"scale": 1.0, "offset": 0.0,
                                                   "zero_epsilon": None})

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
                         regions: Optional[Sequence[tuple[float, float]]] = None,
                         ) -> list[np.ndarray]:
    regions = tuple(regions if regions is not None else (config.regions or ((-100.0, 100.0),)))
    out = []
    for i in range(config.n_base):
        lo, hi = regions[i % len(regions)]
        values = rng.uniform(lo, hi, size=config.shape)
        if config.pixel_bounds is not None:
            values = np.clip(values, *config.pixel_bounds)
        out.append(values)
    return out


@lru_cache(maxsize=64)
def _schedule(method: str, rate: float, count: int) -> np.ndarray:
    """exp(rate * k), or |sin(rate * k)|, for k = 1, 2, ..., count.

    Shared between calls, so read-only. An exponential schedule ends before
    its first step that overflows a double.
    """
    ks = range(1, count + 1)
    if method == "exponential":
        sizes = []
        try:
            for k in ks:
                sizes.append(math.exp(rate * k))
        except OverflowError:
            pass
    else:
        sizes = [abs(math.sin(rate * k)) for k in ks]
    out = np.array(sizes, dtype=np.float64)
    out.flags.writeable = False
    return out


def step_sizes(mconfig: MutationConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """Sizes of mutation steps 1, 2, ..., count.

    The random schedule draws one uniform [0, 1) sample per step from rng.
    An exponential schedule ends before its first step that overflows a
    double, so fewer than count sizes can come back.
    """
    if mconfig.method == "random":
        return rng.uniform(0.0, 1.0, size=count) * mconfig.rate
    sizes = _schedule(mconfig.method, mconfig.rate, count)
    if mconfig.method == "exponential":
        return sizes
    return sizes * (mconfig.scale if mconfig.scale is not None else 1.0)


def _overflow(step_index: int) -> OverflowError:
    return OverflowError(f"exponential mutation step {step_index} overflows a double")


# ---------------------------------------------------------------------------
# trajectories and labels
# ---------------------------------------------------------------------------

def run_trajectory(kernel: str, base: np.ndarray, mconfig: MutationConfig,
                   rng: np.random.Generator,
                   registry: Optional[Registry] = None,
                   pixel_bounds: Optional[tuple[float, float]] = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Mutate until the oracle outcome flips or the step budget runs out.

    Returns the points visited, base first, stacked as (n, *shape) float64,
    and whether each passed the kernel's oracles; when the outcome flips,
    the last point is the first whose outcome differs from the base's.
    """
    reg = registry or default_registry()
    rewind = rng.bit_generator.state if mconfig.method == "random" else None
    steps = step_sizes(mconfig, rng, mconfig.max_steps)
    if mconfig.direction == "down":
        steps = -steps

    start = np.asarray(base, dtype=np.float64)
    points = np.empty((len(steps) + 1,) + start.shape)
    points[0] = start
    if pixel_bounds is None:
        points[1:] = steps.reshape((-1,) + (1,) * start.ndim)
        points = np.cumsum(points, axis=0)  # sequential adds: x_k = x_{k-1} + step_k
    else:
        for k, step in enumerate(steps, 1):
            points[k] = np.clip(points[k - 1] + step, *pixel_bounds)

    params = default_params(kernel, start.shape)
    passed = oracle_rows(kernel, params, unit_operand_rows(kernel, points), reg).passed
    flips = np.flatnonzero(passed != passed[0])
    end = int(flips[0]) + 1 if flips.size else len(points)
    if end == len(points) and len(steps) < mconfig.max_steps:
        raise _overflow(end)  # the walk reached the overflowing step
    if rewind is not None and end < len(points):
        rng.bit_generator.state = rewind
        rng.uniform(0.0, 1.0, size=end - 1)
    return points[:end], passed[:end]


def _infer_direction(points: np.ndarray) -> Optional[str]:
    rows = points.reshape(len(points), -1)
    deltas = (rows[1:] - rows[0]).sum(axis=1)
    moved = np.flatnonzero((deltas > 0) | (deltas < 0))  # a NaN delta moves nowhere
    if not moved.size:
        return None
    return "up" if deltas[moved[0]] > 0 else "down"


def derive_labels(points: np.ndarray, passed: np.ndarray) -> list[LabeledSample]:
    """Turn a flipped trajectory, given as run_trajectory returns it, into
    labeled samples.

    Passing points are labeled with the mutation direction that triggered the
    failure; failing points are labeled no-change. When the mutation moved
    fail -> success, the successful endpoint gets the reverse direction.
    An unflipped trajectory produces no samples (the caller retries).
    """
    if len(points) < 2:
        raise UsageError("a trajectory needs at least two points")
    flips = np.flatnonzero(passed != passed[0])
    if not flips.size:
        return []
    flip = int(flips[0])
    direction = _infer_direction(points[: flip + 1])
    if direction is None:
        return []
    base_passed = bool(passed[0])
    toward = Signal.INCREASE if direction == "up" else Signal.DECREASE
    reverse = Signal.DECREASE if direction == "up" else Signal.INCREASE
    feats = points[: flip + 1].reshape(flip + 1, -1).astype(np.float64)
    samples = []
    for row, ok in zip(feats, passed[: flip + 1].tolist()):
        if not ok:
            samples.append(LabeledSample(row, Signal.NO_CHANGE))
        elif base_passed:
            samples.append(LabeledSample(row, toward))
        else:
            # the flip: the input that escaped the failure region
            samples.append(LabeledSample(row, reverse))
    return samples


# ---------------------------------------------------------------------------
# featurization and preprocessing
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
    if feature_len not in FEATURE_LENGTHS:
        raise UsageError(f"feature_len must be one of {FEATURE_LENGTHS}")
    values = np.array(x, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise UsageError("cannot featurize an empty tensor")
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


def apply_scaling(features: np.ndarray, scaling: dict) -> np.ndarray:
    """Replay a dataset's recorded preprocessing on a feature vector/matrix."""
    out = features * float(scaling.get("scale", 1.0))
    out += float(scaling.get("offset", 0.0))  # in place: one array the size of features
    zero_eps = scaling.get("zero_epsilon")
    if zero_eps:
        out = np.where(out == 0.0, float(zero_eps), out)
    return out


def preprocess_scale(dataset: Dataset, epsilon: Optional[float] = None) -> Dataset:
    """Replace exact zeros by epsilon (kernels undefined at zero; None: no shift).

    The scaling, an identity affine scale plus that shift, is recorded in the
    dataset metadata so fuzz-time featurization can replay it bit-identically.
    """
    scaling = {"scale": 1.0, "offset": 0.0, "zero_epsilon": epsilon}
    features = apply_scaling(dataset.features, scaling)
    return Dataset(kernel=dataset.kernel, shape=dataset.shape, features=features,
                   labels=dataset.labels.copy(), config=dict(dataset.config),
                   scaling=scaling)


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def default_mutation_configs(max_steps: int) -> list[MutationConfig]:
    configs = []
    for method in ("exponential", "random", "sinusoidal"):
        for direction in ("up", "down"):
            for rate in BASE_RATES:
                configs.append(MutationConfig(method=method, rate=rate,
                                              max_steps=max_steps, direction=direction))
    return configs


def _balance(features: np.ndarray, labels: np.ndarray, target: int,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Down-sample over-represented classes to at most 1.5x the minority."""
    present = np.unique(labels)
    counts = {int(c): int((labels == c).sum()) for c in present}
    minority = min(counts.values())
    cap = max(1, int(minority * 1.5))
    takes = {c: min(n, cap) for c, n in counts.items()}
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
    if not counts:
        return 0
    minority = min(counts.values())
    cap = int(minority * 1.5)
    return sum(min(n, cap) for n in counts.values())


def build_dataset(kernel: str, gconfig: GenerationConfig,
                  mconfigs: Optional[Sequence[MutationConfig]] = None,
                  rng: Optional[np.random.Generator] = None,
                  registry: Optional[Registry] = None) -> Dataset:
    """Generate, label, preprocess and balance a dataset for one kernel."""
    reg = registry or default_registry()
    spec = reg.get(kernel)
    if not spec.implemented:
        raise GenerationFailure(kernel, "kernel is not implemented")
    shape = tuple(gconfig.shape)
    try:  # the unit-test operands must fit the kernel's shape rule
        op_def(kernel).shape_rule(default_params(kernel, shape), *(
            x.shape[1:] for x in unit_operand_rows(kernel, np.zeros((1,) + shape))))
    except (ValueError, IndexError) as exc:  # IndexError: no last axis to size params by
        raise UsageError(f"kernel '{kernel}' does not take shape {shape}: {exc}") from None
    rng = rng if rng is not None else np.random.default_rng(gconfig.seed)
    regions = gconfig.regions
    if regions is None and spec.generation is not None:
        regions = spec.generation.regions
    if regions is None:
        regions = ((-100.0, 100.0),)
    base_configs = mconfigs
    if base_configs is None:
        base_configs = default_mutation_configs(gconfig.mutations_per_base)

    feats_acc: list[np.ndarray] = []
    labels_acc: list[int] = []
    counts: dict[int, int] = {}
    flips_seen = 0

    def run_base(base: np.ndarray):
        nonlocal flips_seen
        for mc in base_configs:
            if mc.method == "sinusoidal" and mc.scale is None:
                amp = float(np.max(np.abs(base))) or 1.0
                mc = MutationConfig(mc.method, mc.rate, mc.max_steps, mc.direction, amp)
            points, passed = run_trajectory(kernel, base, mc, rng, reg, gconfig.pixel_bounds)
            samples = derive_labels(points, passed)
            if not samples:
                continue
            flips_seen += 1
            # one block per trajectory: a view per sample would cost more than its row
            feats_acc.append(np.stack([s.features for s in samples]))
            for s in samples:
                labels_acc.append(int(s.label))
                counts[int(s.label)] = counts.get(int(s.label), 0) + 1

    seeds_injected = False
    for wave in range(MAX_WAVES):
        if not seeds_injected and spec.generation is not None:
            for seed_value in spec.generation.failure_seeds:
                run_base(np.full(gconfig.shape, seed_value, dtype=np.float64))
            seeds_injected = True
        for base in generate_base_inputs(gconfig, rng, regions):
            run_base(base)
        if wave >= 2 and flips_seen == 0:
            raise GenerationFailure(
                kernel, "oracle outcome never flipped on the configured regions"
            )
        if _balanced_total(counts) >= gconfig.target_size:
            break
        if len(labels_acc) > 12 * gconfig.target_size:
            break

    if not labels_acc:
        raise GenerationFailure(kernel, "no labeled samples produced")
    dataset = Dataset(
        kernel=kernel,
        shape=tuple(gconfig.shape),
        features=np.concatenate(feats_acc),
        labels=np.asarray(labels_acc, dtype=np.int8),
        config={
            "n_base": gconfig.n_base,
            "regions": [list(r) for r in regions],
            "shape": list(gconfig.shape),
            "mutations_per_base": gconfig.mutations_per_base,
            "seed": gconfig.seed,
            "pixel_bounds": list(gconfig.pixel_bounds) if gconfig.pixel_bounds else None,
            "target_size": gconfig.target_size,
        },
    )
    feats_acc.clear()  # copied into the dataset; peak memory is a few copies of it
    zero_eps = spec.generation.zero_epsilon if spec.generation else None
    dataset = preprocess_scale(dataset, epsilon=zero_eps)
    balanced_feats, balanced_labels = _balance(dataset.features, dataset.labels,
                                               gconfig.target_size, rng)
    dataset.features, dataset.labels = balanced_feats, balanced_labels

    final_counts = dataset.class_counts()
    if min(final_counts.values()) < 100:
        raise GenerationFailure(
            kernel,
            f"class counts {final_counts} below the 100-sample floor after "
            f"exhausting the generation budget",
        )
    if _balanced_total(counts) < gconfig.target_size:
        # the budget ran out; balancing's rounding alone loses < 1 sample per class
        log.warning("%s: generation budget exhausted at %d of the %d samples targeted",
                    kernel, len(dataset), gconfig.target_size)
    return dataset


# ---------------------------------------------------------------------------
# persistence: JSON header line + one CSV record per sample
# ---------------------------------------------------------------------------

DATASET_FORMAT_VERSION = 1


def dataset_save(dataset: Dataset, path) -> None:
    path = Path(path)
    header = {
        "format_version": DATASET_FORMAT_VERSION,
        "kernel": dataset.kernel,
        "shape": list(dataset.shape),
        "feature_len": dataset.feature_len,
        "n_samples": len(dataset),
        "config": dataset.config,
        "scaling": dataset.scaling,
        "class_counts": dataset.class_counts(),
    }
    with path.open("w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row, lab in zip(dataset.features, dataset.labels):
            fh.write(Signal(int(lab)).label + "," +
                     ",".join(repr(float(v)) for v in row) + "\n")


def dataset_load(path) -> Dataset:
    path = Path(path)
    try:
        with path.open() as fh:
            header_line = fh.readline()
            header = json.loads(header_line)
            if header.get("format_version") != DATASET_FORMAT_VERSION:
                raise FileFormatError(
                    f"dataset format_version {header.get('format_version')!r} "
                    f"unsupported (expected {DATASET_FORMAT_VERSION})"
                )
            n = int(header["n_samples"])
            d = int(header["feature_len"])
            features = np.empty((n, d), dtype=np.float64)
            labels = np.empty(n, dtype=np.int8)
            for i in range(n):
                line = fh.readline()
                if not line:
                    raise FileFormatError(f"dataset truncated at record {i} of {n}")
                parts = line.rstrip("\n").split(",")
                if len(parts) != d + 1:
                    raise FileFormatError(f"record {i} has {len(parts) - 1} features, expected {d}")
                labels[i] = int(Signal.from_label(parts[0]))
                features[i] = [float(v) for v in parts[1:]]
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise FileFormatError(f"cannot load dataset {path}: {exc}") from exc
    return Dataset(
        kernel=header["kernel"],
        shape=tuple(header["shape"]),
        features=features,
        labels=labels,
        config=header.get("config", {}),
        scaling=header.get("scaling", {"scale": 1.0, "offset": 0.0, "zero_epsilon": None}),
    )
