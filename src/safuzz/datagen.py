"""Labeled-dataset generation by unit-testing unstable kernels.

Base inputs are sampled round-robin across the kernel's registry regions (or
[-100, 100] for a kernel without generation hints), then mutated step-wise
(exponential, random, or sinusoidal step schedules at each of BASE_RATES, in
both directions, MAX_STEPS steps each) until the oracle outcome flips; an
exponential rate whose last step overflows a double is rejected up front. A
sinusoidal step is scaled by the base's largest magnitude. Each flip labels
the trajectory's points up to it: passing points with the direction that led
to failure, failing points with "no change". The features are scaled once by
the kernel's zero_epsilon hint, which the dataset records for fuzz time, and
classes are balanced by down-sampling before a dataset ships; running out of
the generation budget short of the target size is logged as a warning.

A trajectory is judged as one stack: all of its step budget's points are
built at once (a running sum of the signed steps), one oracle call judges
every row, and the trajectory is cut at its first flip. The points and
verdicts equal those of mutating and judging one step at a time. The random
schedule draws its whole budget from the generator up front; after a flip
the generator is rewound and redraws only the steps taken, so every later
draw is unchanged.
"""

from __future__ import annotations

import enum
import json
import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

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

BASE_RATES = (1.0, 2.5)  # the rates of the default mutation schedules
MAX_STEPS = 100  # mutation steps a trajectory takes at most
_LOG_DOUBLE_MAX = math.log(np.finfo(np.float64).max)  # exp of more overflows a double
MAX_WAVES = 300  # rounds of base inputs build_dataset draws before it stops
DEFAULT_REGIONS = ((-100.0, 100.0),)  # base-input regions without registry hints


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
    direction: str = "up"  # up | down

    def __post_init__(self):
        if self.method not in ("exponential", "random", "sinusoidal"):
            raise UsageError(f"unknown mutation method {self.method!r}")
        if self.direction not in ("up", "down"):
            raise UsageError(f"unknown direction {self.direction!r}")
        if not 0 < self.rate < math.inf:  # sin(inf) raises a bare ValueError
            raise UsageError("rate must be positive and finite")
        if self.method == "exponential" and self.rate * MAX_STEPS > _LOG_DOUBLE_MAX:
            raise UsageError(f"exponential rate {self.rate} overflows a double "
                             f"within {MAX_STEPS} steps")


@dataclass(frozen=True)
class GenerationConfig:
    n_base: int = 100
    shape: tuple[int, ...] = (3, 3)
    seed: int = 0
    target_size: int = 40_000

    def __post_init__(self):
        if min(self.n_base, self.target_size) < 1:
            raise UsageError("n_base and target_size must be >= 1")
        if min(self.shape, default=1) < 1:
            raise UsageError(f"shape {self.shape} has a dimension below 1")


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

def run_trajectory(kernel: str, base: np.ndarray, mconfig: MutationConfig,
                   rng: np.random.Generator,
                   registry: Optional[Registry] = None) -> tuple[np.ndarray, np.ndarray]:
    """Mutate until the oracle outcome flips or the step budget runs out.

    A sinusoidal step is scaled by the base's largest |value| (1.0 for an
    all-zero base). Returns the points visited, base first, stacked as
    (n, *shape) float64, and whether each passed the kernel's oracles; when
    the outcome flips, the last point is the first whose outcome differs
    from the base's.
    """
    reg = registry or default_registry()
    start = np.asarray(base, dtype=np.float64)
    rewind = rng.bit_generator.state if mconfig.method == "random" else None
    steps = step_sizes(mconfig, rng, MAX_STEPS)
    if mconfig.method == "sinusoidal":
        steps = steps * (float(np.max(np.abs(start))) or 1.0)
    if mconfig.direction == "down":
        steps = -steps

    points = np.empty((len(steps) + 1,) + start.shape)
    points[0] = start
    points[1:] = steps.reshape((-1,) + (1,) * start.ndim)
    with np.errstate(over="ignore"):  # a sum past float64's range is data, as in the fuzzer
        points = np.cumsum(points, axis=0)  # sequential adds: x_k = x_{k-1} + step_k

    params = default_params(kernel, start.shape)
    passed = oracle_rows(kernel, params, unit_operand_rows(kernel, points), reg).passed
    flips = np.flatnonzero(passed != passed[0])
    end = int(flips[0]) + 1 if flips.size else len(points)
    if rewind is not None and end < len(points):
        rng.bit_generator.state = rewind
        rng.uniform(0.0, 1.0, size=end - 1)
    return points[:end], passed[:end]


def derive_labels(passed: np.ndarray, direction: str) -> list[Signal]:
    """Label a trajectory, cut at its first flip as run_trajectory cuts it,
    by its MutationConfig.direction: one label per point if it flipped, none
    if it did not (the caller retries).

    Passing points are labeled with the mutation direction that triggered the
    failure; failing points are labeled no-change. When the mutation moved
    fail -> success, the successful endpoint gets the reverse direction.
    """
    if len(passed) < 2:
        raise UsageError("a trajectory needs at least two points")
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
    if feature_len < 1:
        raise UsageError(f"feature_len must be at least 1, not {feature_len}")
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
        raise GenerationFailure(kernel, "kernel is not implemented")
    shape = tuple(gconfig.shape)
    try:  # the unit-test operands must fit the kernel's shape rule
        op_def(kernel).shape_rule(default_params(kernel, shape), *(
            x.shape[1:] for x in unit_operand_rows(kernel, np.zeros((1,) + shape))))
    except (ValueError, IndexError) as exc:  # IndexError: no last axis to size params by
        raise UsageError(f"kernel '{kernel}' does not take shape {shape}: {exc}") from None
    rng = np.random.default_rng(gconfig.seed)
    hints = spec.generation
    regions = hints.regions if hints is not None else DEFAULT_REGIONS
    mconfigs = default_mutation_configs()

    feats_acc: list[np.ndarray] = []
    labels_acc: list[Signal] = []
    counts: dict[int, int] = {}

    def run_base(base: np.ndarray):
        for mc in mconfigs:
            points, passed = run_trajectory(kernel, base, mc, rng, reg)
            labels = derive_labels(passed, mc.direction)
            if not labels:
                continue
            # a copy per trajectory: a view would keep its whole step budget alive
            feats_acc.append(points.reshape(len(points), -1).copy())
            labels_acc.extend(labels)
            for label in labels:
                counts[label] = counts.get(label, 0) + 1

    if hints is not None:
        for seed_value in hints.failure_seeds:
            run_base(np.full(shape, seed_value, dtype=np.float64))
    for wave in range(MAX_WAVES):
        for base in generate_base_inputs(gconfig, rng, regions):
            run_base(base)
        if wave >= 2 and not labels_acc:  # only a flipped trajectory adds labels
            raise GenerationFailure(
                kernel, "oracle outcome never flipped on the configured regions"
            )
        if _balanced_total(counts) >= gconfig.target_size:
            break
        if len(labels_acc) > 12 * gconfig.target_size:
            break

    if not labels_acc:
        raise GenerationFailure(kernel, "no labeled samples produced")
    # an identity scale plus the kernel's zero shift, recorded for fuzz time to replay
    scaling = {"scale": 1.0, "offset": 0.0,
               "zero_epsilon": hints.zero_epsilon if hints is not None else None}
    features = np.concatenate(feats_acc)
    feats_acc.clear()  # peak memory stays a few copies of the features
    features = apply_scaling(features, scaling)  # the unscaled copy dies here, before balancing
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
            "regions": [list(r) for r in regions],
            "shape": list(shape),
            "mutations_per_base": MAX_STEPS,
            "seed": gconfig.seed,
            "pixel_bounds": None,
            "target_size": gconfig.target_size,
        },
        scaling=scaling,
    )

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
