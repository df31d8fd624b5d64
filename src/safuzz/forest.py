"""The soft assertion: a decision forest over featurized kernel inputs.

Trees are explicit (feature index / threshold / child arrays, class-count
histograms at the leaves) so models serialize to a documented JSON layout and
reload bit-identically. Training is deterministic under a fixed seed:
bootstrap samples and per-split feature subsets come from per-tree RNG
streams spawned from the master seed.

Each Forest compiles its trees once, at construction, into one flat view that
every prediction walks. It holds internal nodes only, as typed columns
`feature`, `threshold`, `left` and `right` indexed by a forest-wide node
number. A child `< 0` is a leaf and encodes its majority class k as `~k`;
`roots` holds each tree's root, itself `~k` for a single-leaf tree. The walk
compares Python floats, whose `<=` matches numpy float64 exactly (NaN goes
right).
"""

from __future__ import annotations

import json
import math
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from safuzz.datagen import Dataset, LabeledSample, Signal
from safuzz.errors import FileFormatError, TrainingError, UsageError

N_CLASSES = 3
MODEL_FORMAT_VERSION = 1
TREE_COLUMNS = (("feature", np.int32), ("threshold", np.float64), ("left", np.int32),
                ("right", np.int32), ("counts", np.int64))


@dataclass
class DecisionTree:
    """Flattened binary tree; node 0 is the root.

    feature[i] == -1 marks a leaf; counts[i] is its class histogram.
    """

    feature: np.ndarray  # int32, -1 for leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    counts: np.ndarray  # (n_nodes, N_CLASSES) int64


def _compile(trees: Sequence[DecisionTree]) -> tuple:
    """(feature, threshold, left, right, roots); index columns are int32 "i"."""
    if not trees:
        return array("i"), array("d"), array("i"), array("i"), []
    col = {name: np.concatenate([getattr(t, name) for t in trees]) for name, _ in TREE_COLUMNS}
    internal = col["feature"] >= 0
    # forest-wide number of each internal node, ~majority class of each leaf
    slot = np.where(internal, np.cumsum(internal) - 1,
                    ~np.argmax(col["counts"], axis=1)).astype(np.int32)
    sizes = [len(t.feature) for t in trees]
    starts = np.cumsum(sizes) - sizes  # each tree's node 0 in the concatenated columns
    base = np.repeat(starts, sizes)[internal]
    return (array("i", col["feature"][internal].astype(np.int32).tobytes()),
            array("d", col["threshold"][internal].astype(np.float64).tobytes()),
            array("i", slot[col["left"][internal] + base].tobytes()),
            array("i", slot[col["right"][internal] + base].tobytes()),
            slot[starts].tolist())


@dataclass
class Forest:
    trees: list[DecisionTree]
    kernel: str
    shape: tuple[int, ...]
    feature_len: int
    seed: int
    scaling: dict = field(default_factory=lambda: {"scale": 1.0, "offset": 0.0,
                                                   "zero_epsilon": None})
    classes: tuple[str, ...] = ("NoChange", "Decrease", "Increase")
    flat: tuple = field(init=False, repr=False, compare=False)  # see the module docstring

    def __post_init__(self):
        self.flat = _compile(self.trees)


def _gini_children(prefix: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Weighted Gini impurity of each candidate split position.

    prefix[i] holds left-side class counts when splitting after sorted row i.
    """
    n = total.sum()
    n_left = prefix.sum(axis=1)
    n_right = n - n_left
    with np.errstate(invalid="ignore", divide="ignore"):
        gini_l = 1.0 - ((prefix / np.maximum(n_left, 1)[:, None]) ** 2).sum(axis=1)
        right = total[None, :] - prefix
        gini_r = 1.0 - ((right / np.maximum(n_right, 1)[:, None]) ** 2).sum(axis=1)
    return (n_left * gini_l + n_right * gini_r) / n


def _grow_tree(xs: np.ndarray, ys: np.ndarray, rng: np.random.Generator,
               n_candidates: int) -> DecisionTree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(np.zeros(N_CLASSES, dtype=np.int64))
        return len(feature) - 1

    root = new_node()
    stack: list[tuple[int, np.ndarray]] = [(root, np.arange(xs.shape[0]))]
    n_features = xs.shape[1]

    while stack:
        node, idx = stack.pop()
        y_node = ys[idx]
        hist = np.bincount(y_node, minlength=N_CLASSES).astype(np.int64)
        counts[node] = hist
        if idx.size < 2 or (hist > 0).sum() < 2:
            continue
        node_gini = 1.0 - ((hist / idx.size) ** 2).sum()
        cand = rng.choice(n_features, size=min(n_candidates, n_features), replace=False)
        best = (node_gini - 1e-12, -1, 0.0)  # (gini, feature, threshold)
        for f in cand:
            vals = xs[idx, f]
            order = np.argsort(vals, kind="stable")
            vs = vals[order]
            # candidate cuts only between distinct neighbours
            cuts = np.flatnonzero(vs[:-1] < vs[1:])
            if cuts.size == 0:
                continue
            onehot = np.zeros((idx.size, N_CLASSES), dtype=np.int64)
            onehot[np.arange(idx.size), y_node[order]] = 1
            prefix = np.cumsum(onehot, axis=0)[cuts]
            weighted = _gini_children(prefix, hist)
            j = int(np.argmin(weighted))
            if weighted[j] < best[0]:
                cut = cuts[j]
                thr = 0.5 * (vs[cut] + vs[cut + 1])
                if not np.isfinite(thr):  # midpoint of huge magnitudes can overflow
                    thr = vs[cut]
                best = (float(weighted[j]), int(f), float(thr))
        if best[1] < 0:
            continue
        f, thr = best[1], best[2]
        go_left = xs[idx, f] <= thr
        if not go_left.any() or go_left.all():
            continue
        feature[node] = f
        threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, idx[~go_left]))
        stack.append((left_id, idx[go_left]))

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        counts=np.asarray(counts, dtype=np.int64),
    )


def train_forest(
    dataset: Dataset,
    tree_count: int = 100,
    seed: int = 42,
    test_split: float = 0.3,
) -> tuple[Forest, dict]:
    """Train bootstrap-sampled Gini trees; report held-out macro-F1 and time.

    Hyperparameters beyond count/seed are pinned: sqrt(feature_len) candidate
    features per split, unlimited depth, minimum leaf size 1.
    """
    if len(dataset) == 0:
        raise TrainingError("dataset is empty")
    labels_present = np.unique(dataset.labels)
    if labels_present.size < 2:
        raise TrainingError("training requires at least two classes")
    xs = np.ascontiguousarray(dataset.features, dtype=np.float64)
    ys = dataset.labels.astype(np.int64)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ys))
    n_test = int(round(len(ys) * test_split))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if train_idx.size == 0:
        train_idx = order
    x_train, y_train = xs[train_idx], ys[train_idx]

    n_candidates = max(1, int(math.sqrt(dataset.feature_len)))
    t0 = time.perf_counter()
    trees = []
    for t in range(tree_count):
        tree_rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        boot = tree_rng.integers(0, x_train.shape[0], size=x_train.shape[0])
        trees.append(_grow_tree(x_train[boot], y_train[boot], tree_rng, n_candidates))
    train_time = time.perf_counter() - t0

    forest = Forest(
        trees=trees,
        kernel=dataset.kernel,
        shape=tuple(dataset.shape),
        feature_len=dataset.feature_len,
        seed=seed,
        scaling=dict(dataset.scaling),
    )
    metrics: dict = {"train_time_seconds": train_time, "train_size": int(train_idx.size),
                     "test_size": int(test_idx.size)}
    if test_idx.size:
        scores = evaluate_f1_arrays(forest, xs[test_idx], ys[test_idx])
        metrics.update(scores)
    return forest, metrics


def _vote(forest: Forest, x: list) -> int:
    """Majority vote of the trees' leaf classes; the first maximum wins."""
    feature, threshold, left, right, roots = forest.flat
    votes = [0] * N_CLASSES
    for i in roots:
        while i >= 0:
            i = left[i] if x[feature[i]] <= threshold[i] else right[i]
        votes[~i] += 1
    return votes.index(max(votes))


def predict(forest: Forest, features: np.ndarray) -> Signal:
    """Majority vote over tree leaf-histogram argmaxes.

    Ties break by the fixed class order NoChange > Decrease > Increase
    (the first maximum wins, and Signal values are ordered so).
    """
    features = np.asarray(features, dtype=np.float64).reshape(-1)
    if features.size != forest.feature_len:
        raise UsageError(
            f"feature length {features.size} does not match forest ({forest.feature_len})"
        )
    return Signal(_vote(forest, features.tolist()))


def predict_batch(forest: Forest, features: np.ndarray) -> np.ndarray:
    rows = np.asarray(features, dtype=np.float64).tolist()
    return np.fromiter((_vote(forest, x) for x in rows), dtype=np.int64, count=len(rows))


def evaluate_f1_arrays(forest: Forest, xs: np.ndarray, ys: np.ndarray) -> dict:
    preds = predict_batch(forest, xs)
    per_class = {}
    f1s = []
    for cls in Signal:
        tp = int(((preds == cls) & (ys == cls)).sum())
        fp = int(((preds == cls) & (ys != cls)).sum())
        fn = int(((preds != cls) & (ys == cls)).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[cls.label] = {"precision": precision, "recall": recall, "f1": f1}
        f1s.append(f1)  # absent classes contribute 0
    return {"per_class": per_class, "macro_f1": float(np.mean(f1s))}


def evaluate_f1(forest: Forest, samples: Sequence[LabeledSample]) -> dict:
    """Per-class precision/recall/F1 plus macro average over all classes."""
    samples = list(samples)
    if not samples:
        raise UsageError("evaluate_f1 requires at least one sample")
    xs = np.asarray([s.features for s in samples], dtype=np.float64)
    ys = np.asarray([int(s.label) for s in samples], dtype=np.int64)
    return evaluate_f1_arrays(forest, xs, ys)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def model_save(forest: Forest, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kernel": forest.kernel,
        "shape": list(forest.shape),
        "feature_len": forest.feature_len,
        "seed": forest.seed,
        "classes": list(forest.classes),
        "scaling": forest.scaling,
        "trees": [{name: getattr(tree, name).tolist() for name, _ in TREE_COLUMNS}
                  for tree in forest.trees],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def model_load(path) -> Forest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot load model {path}: {exc}") from exc
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise FileFormatError(
            f"model format_version {doc.get('format_version')!r} unsupported"
        )
    try:
        trees = [DecisionTree(**{name: np.asarray(t[name], dtype=dtype)
                                 for name, dtype in TREE_COLUMNS})
                 for t in doc["trees"]]
        forest = Forest(
            trees=trees,
            kernel=doc["kernel"],
            shape=tuple(doc["shape"]),
            feature_len=int(doc["feature_len"]),
            seed=int(doc["seed"]),
            scaling=doc["scaling"],
            classes=tuple(doc["classes"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"model file {path} is corrupt: {exc}") from exc
    return forest
