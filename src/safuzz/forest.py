"""The soft assertion: a decision forest over featurized kernel inputs.

Trees are explicit (feature index / threshold / child arrays, class-count
histograms at the leaves) so models serialize to a documented JSON layout and
reload bit-identically. Training is deterministic under a fixed seed:
bootstrap samples and per-split feature subsets come from per-tree RNG
streams spawned from the master seed.

Growth is presorted CART (as in SLIQ): train_forest ranks every feature once
(`_ranks`), and a stable argsort of its bootstrap rows' ranks, numpy's radix
sort, gives each tree the order of a stable float argsort. Each node carries
an (F, m) int32 block of its row ids in (value, row id) order per feature. A
split marks its left rows in one boolean array and gathers both children's
blocks through it, which keeps that order, so every block equals a stable
argsort of the node's rows. A node scores its k candidate features as one
(k, m - 1) array of weighted Gini impurities with the float64 operations of a
per-feature loop, class sums added left to right as numpy sums three values.
Trees are therefore bit-identical to sorting at every node: the first best
position wins per feature, and the first drawn feature wins a tie between
features. The candidates are those `rng.choice` would draw: `_candidate_draws`
makes them in blocks from the tree's own generator, which nothing reads after
the tree is grown.

Each Forest compiles its trees once, at construction, into one flat view,
`Forest.flat`. It holds internal nodes only, as compact typed columns
(`array` "i" and "d") `feature`, `threshold`, `left` and `right` indexed by a
forest-wide node number. A child `< 0` is a leaf and encodes its majority
class k as `~k`; `roots` holds each tree's root, itself `~k` for a single-leaf
tree. One walk, `_vote`, serves every prediction: `predict` and
`predict_batch` both run it over these compact columns. It compares Python
floats, whose `<=` matches numpy float64 exactly (NaN goes right). It walks
the trees in order and stops once the trees still to walk cannot change the
winner, even if every one of them voted for the same other class; the tie
order (NoChange, then Decrease, then Increase) is part of that test, so the
answer is exactly that of walking every tree.

A model file records "classes" (Signal order) and "scaling" (an identity
scale and offset, and the dataset's zero_epsilon) as every model has them.
model_load refuses others, and a model with no feature or no tree; the
readers of safuzz.jsonfields decide every field's JSON type.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from safuzz.datagen import CLASS_NAMES, Dataset, Signal, read_fixed_fields, scaling_field
from safuzz.errors import FileFormatError, TrainingError, UsageError
from safuzz.jsonfields import FORMAT_VERSION, document, numeric_array, typed

N_CLASSES = 3
SIGNALS = tuple(Signal)  # by vote index; indexing is cheaper than calling the enum
TREE_COLUMNS = (("feature", np.int32), ("threshold", np.float64), ("left", np.int32),
                ("right", np.int32), ("counts", np.int32))
TREE_KEYS = frozenset(name for name, _ in TREE_COLUMNS)


@dataclass
class DecisionTree:
    """Flattened binary tree; node 0 is the root.

    feature[i] == -1 marks a leaf; counts[i] is its class histogram.
    """

    feature: np.ndarray  # int32, -1 for leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    counts: np.ndarray  # (n_nodes, N_CLASSES) int32


def _compile(trees: Sequence[DecisionTree], feature_len: int) -> tuple:
    """(feature, threshold, left, right, roots); index columns are int32 "i".

    Raises ValueError for a tree the walk could not finish or would index
    past: each internal node's children must come after it in its tree (so
    no cycle), and its feature must lie inside the feature vector.
    """
    sizes = [len(t.feature) for t in trees]
    if min(sizes) < 1 or any(len(getattr(t, name)) != n
                             for t, n in zip(trees, sizes) for name in TREE_KEYS):
        raise ValueError("tree columns must be non-empty and of equal length")
    col = {name: np.concatenate([getattr(t, name) for t in trees]) for name, _ in TREE_COLUMNS}
    if col["counts"].shape[1:] != (N_CLASSES,):
        raise ValueError(f"every node needs {N_CLASSES} class counts")
    internal = col["feature"] >= 0
    starts = np.cumsum(sizes) - sizes  # each tree's node 0 in the concatenated columns
    base = np.repeat(starts, sizes)[internal]
    node, size = np.flatnonzero(internal) - base, np.repeat(sizes, sizes)[internal]
    for child in (col["left"][internal], col["right"][internal]):
        if not ((node < child) & (child < size)).all():
            raise ValueError("a child index precedes its node or lies outside its tree")
    if not (col["feature"][internal] < feature_len).all():
        raise ValueError(f"a split feature lies outside the {feature_len} features")
    # forest-wide number of each internal node, ~majority class of each leaf
    slot = np.where(internal, np.cumsum(internal) - 1,
                    ~np.argmax(col["counts"], axis=1)).astype(np.int32)
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
    zero_epsilon: Optional[float] = None  # the dataset's zero shift, replayed at fuzz time
    flat: tuple = field(init=False, repr=False, compare=False)  # see the module docstring

    def __post_init__(self):
        self.flat = _compile(self.trees, self.feature_len)


def _ranks(xs: np.ndarray) -> np.ndarray:
    """Dense per-column ranks of xs, ordered as a stable float argsort orders
    its values: equal values (-0.0 and 0.0 too) share a rank, and every NaN
    shares the highest. uint16 up to 65,536 rows, so sorts take numpy's radix sort."""
    order = np.argsort(xs, axis=0, kind="stable")
    vs = np.take_along_axis(xs, order, axis=0)
    ranks = np.zeros(xs.shape, dtype=np.uint16 if len(xs) <= 1 << 16 else np.uint32)
    ranks[1:] = (vs[:-1] != vs[1:]) & ~np.isnan(vs[:-1])  # a NaN is followed by NaNs only
    np.put_along_axis(ranks, order, ranks.cumsum(axis=0, dtype=ranks.dtype), axis=0)
    return ranks


def _candidate_draws(rng: np.random.Generator, n: int, k: int):
    """Yields what successive `rng.choice(n, k, replace=False)` calls return. Each
    runs Floyd's sampling: k draws with highs n - k + 1 .. n (a value drawn before
    becomes high - 1), then a shuffle swapping position i with a draw of high i + 1,
    i = k - 1 .. 1. One `rng.integers` call draws 16, 32, 64, ... calls' worth, so
    rng ends after the whole last block, not after the last call yielded."""
    highs = np.concatenate((np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)))
    size = 16
    while True:
        draws = rng.integers(0, np.tile(highs, size)).reshape(size, len(highs))
        cand, rows = draws[:, :k].copy(), np.arange(size)
        for i in range(1, k):
            cand[(cand[:, :i] == cand[:, i:i + 1]).any(axis=1), i] = n - k + i
        for i, j in zip(range(k - 1, 0, -1), draws[:, k:].T):
            cand[rows, j], cand[:, i] = cand[:, i], cand[rows, j]
        yield from cand
        size *= 2


def _grow_tree(xs: np.ndarray, ys: np.ndarray, ranks: np.ndarray, rng: np.random.Generator,
               n_candidates: int) -> DecisionTree:
    """Grow one tree depth first (left child first); see the module docstring.
    ranks orders each column of xs as `_ranks` does."""
    n, n_features = xs.shape
    k = min(n_candidates, n_features)
    xt = np.ascontiguousarray(xs.T).ravel()  # feature f, row r at f * n + r
    onehot = (ys == np.arange(N_CLASSES)[:, None]).astype(np.float64)  # (3, n)
    steps = np.arange(1.0, n)  # rows left of each split position
    go_left = np.zeros(n, dtype=bool)  # set at a node's rows before each read
    columns = feature, threshold, left, right, counts = [-1], [0.0], [-1], [-1], [None]
    draws = _candidate_draws(rng, n_features, k)

    # (node, (F, m) row ids sorted per feature, class histogram)
    stack = [(0, np.ascontiguousarray(np.argsort(ranks, axis=0, kind="stable").T, dtype=np.int32),
              np.bincount(ys, minlength=N_CLASSES).tolist())]
    while stack:
        node, s, hist = stack.pop()
        counts[node] = hist
        m = s.shape[1]
        if m < 2 or hist.count(0) >= N_CLASSES - 1:  # one class or none
            continue
        node_gini = 1.0 - sum(h / m * (h / m) for h in hist)
        cand = next(draws)
        rows = s[cand]
        vs = xt.take(rows + (cand * n)[:, None])  # (k, m) sorted values
        # class counts left (sides[0]) and right (sides[1]) of each position
        n_left, n_right = steps[:m - 1], steps[m - 2::-1]
        sides = np.empty((2, N_CLASSES, k, m - 1))
        np.cumsum(onehot.take(rows[:, :-1], axis=1), axis=2, out=sides[0])
        np.subtract(np.array(hist, dtype=np.float64)[:, None, None], sides[0], out=sides[1])
        sides[0] /= n_left
        sides[1] /= n_right
        sides *= sides
        gini = 1.0 - sides.sum(axis=1)
        weighted = (n_left * gini[0] + n_right * gini[1]) / m
        # cut only between distinct neighbours; `>=` would let a NaN neighbour in
        np.copyto(weighted, np.inf, where=~(vs[:, :-1] < vs[:, 1:]))
        at = weighted.argmin(axis=1)
        best, c, cut = node_gini - 1e-12, -1, 0
        for i, (w, j) in enumerate(zip(weighted[np.arange(k), at].tolist(), at.tolist())):
            if w < best:  # strict: the earliest drawn candidate wins a tie
                best, c, cut = w, i, j
        if c < 0:
            continue
        lo, hi = float(vs[c, cut]), float(vs[c, cut + 1])
        thr = 0.5 * (lo + hi)
        if not math.isfinite(thr):  # midpoint of huge magnitudes can overflow
            thr = lo
        go_left[rows[c]] = vs[c] <= thr
        mask = go_left[s]
        n_go = int(np.count_nonzero(mask[0]))
        if n_go == 0 or n_go == m:
            continue
        feature[node] = int(cand[c])
        threshold[node] = thr
        left[node], right[node] = len(feature), len(feature) + 1
        for column, blank in zip(columns, (-1, 0.0, -1, -1, None)):
            column += [blank, blank]  # the children, leaves until they split
        s_left = s[mask].reshape(n_features, n_go)
        hist_left = np.bincount(ys.take(s_left[0]), minlength=N_CLASSES).tolist()
        stack.append((right[node], s[~mask].reshape(n_features, m - n_go),
                      [h - hl for h, hl in zip(hist, hist_left)]))
        stack.append((left[node], s_left, hist_left))

    return DecisionTree(*(np.asarray(column, dtype=dtype)
                          for column, (_, dtype) in zip(columns, TREE_COLUMNS)))


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
    if not 0 <= test_split < 1 or tree_count < 1 or seed < 0:
        raise UsageError("test_split must lie in [0, 1), tree_count be at least 1 "
                         "and seed at least 0")
    if len(dataset) == 0:
        raise TrainingError("dataset is empty")
    labels_present = np.unique(dataset.labels)
    if labels_present.size < 2:
        raise TrainingError("training requires at least two classes")
    xs = np.ascontiguousarray(dataset.features, dtype=np.float64)
    ys = dataset.labels.astype(np.int64)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ys))
    n_test = min(int(round(len(ys) * test_split)), len(ys) - 1)  # keep a training row
    test_idx, train_idx = order[:n_test], order[n_test:]
    x_train, y_train = xs[train_idx], ys[train_idx]
    ranks = _ranks(x_train)

    n_candidates = max(1, int(math.sqrt(dataset.feature_len)))
    t0 = time.perf_counter()
    trees = []
    for t in range(tree_count):
        tree_rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        boot = tree_rng.integers(0, x_train.shape[0], size=x_train.shape[0])
        trees.append(_grow_tree(x_train[boot], y_train[boot], ranks[boot], tree_rng,
                                n_candidates))
    train_time = time.perf_counter() - t0

    forest = Forest(
        trees=trees,
        kernel=dataset.kernel,
        shape=tuple(dataset.shape),
        feature_len=dataset.feature_len,
        seed=seed,
        zero_epsilon=dataset.zero_epsilon,
    )
    metrics: dict = {"train_time_seconds": train_time, "train_size": int(train_idx.size),
                     "test_size": int(test_idx.size)}
    if test_idx.size:
        scores = evaluate_f1_arrays(forest, xs[test_idx], ys[test_idx])
        metrics.update(scores)
    return forest, metrics


def _vote(walk: tuple, x: list) -> int:
    """Majority vote of the trees' leaf classes; the first maximum wins.

    The walk stops after the first tree at which one class leads so far that
    the trees still to walk, all voting for any one other class, could not
    take the win from it: it leads an earlier class (which wins a tie) by
    more than their number, and a later class by at least it. Spread over
    both other classes those trees catch up less, so the class returned is
    the full vote's. After the last tree the first maximum passes the test,
    so a forest, which has a tree, always returns from the loop.
    """
    feature, threshold, left, right, roots = walk
    votes = [0] * N_CLASSES
    to_walk = len(roots)
    for i in roots:
        while i >= 0:
            i = left[i] if x[feature[i]] <= threshold[i] else right[i]
        votes[~i] += 1
        to_walk -= 1
        no_change, decrease, increase = votes  # in Signal order
        if no_change >= decrease + to_walk and no_change >= increase + to_walk:
            return 0
        if decrease > no_change + to_walk and decrease >= increase + to_walk:
            return 1
        if increase > no_change + to_walk and increase > decrease + to_walk:
            return 2


def predict(forest: Forest, features: np.ndarray) -> Signal:
    """Majority vote over tree leaf-histogram argmaxes.

    Ties break by the fixed class order NoChange > Decrease > Increase
    (the first maximum wins, and Signal values are ordered so). features
    is a float64 vector of forest.feature_len values, as featurize makes.
    """
    return SIGNALS[_vote(forest.flat, features.tolist())]


def predict_batch(forest: Forest, features: np.ndarray) -> np.ndarray:
    rows = np.asarray(features, dtype=np.float64).tolist()
    return np.fromiter((_vote(forest.flat, x) for x in rows), dtype=np.int64,
                       count=len(rows))


def evaluate_f1_arrays(forest: Forest, xs: np.ndarray, ys: np.ndarray) -> dict:
    """Per-class scores, macro_f1 over all three classes (an absent class
    scores 0) and macro_f1_present over the classes present in ys."""
    preds = predict_batch(forest, xs)
    per_class = {}
    f1s = []
    present = []
    for cls in Signal:
        tp = int(((preds == cls) & (ys == cls)).sum())
        fp = int(((preds == cls) & (ys != cls)).sum())
        fn = int(((preds != cls) & (ys == cls)).sum())
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[cls.label] = {"precision": precision, "recall": recall, "f1": f1}
        f1s.append(f1)
        if tp + fn:
            present.append(f1)
    return {"per_class": per_class, "macro_f1": float(np.mean(f1s)),
            "macro_f1_present": float(np.mean(present)) if present else 0.0}


def describe_scores(scores: dict) -> str:
    """One line of held-out scores, e.g. for the `train` command's output."""
    if "macro_f1" not in scores:
        return "no held-out samples"
    per_class = ", ".join(f"{label} {s['f1']:.4f}" for label, s in scores["per_class"].items())
    return (f"macro-F1 {scores['macro_f1']:.4f}, over present classes "
            f"{scores['macro_f1_present']:.4f} (F1 {per_class})")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _tree_from_json(obj: dict):
    """json.loads `object_hook`: a tree's lists become arrays once it is parsed."""
    if not TREE_KEYS <= obj.keys():
        return obj
    return DecisionTree(**{name: numeric_array(obj[name], dtype, f"tree {name}")
                           for name, dtype in TREE_COLUMNS})


def model_save(forest: Forest, path) -> None:
    """Write the model as sorted-key JSON. Trees are encoded one at a time, so
    only one tree's columns exist as Python lists at once."""
    head = json.dumps({
        "format_version": FORMAT_VERSION,
        "kernel": forest.kernel,
        "shape": list(forest.shape),
        "feature_len": forest.feature_len,
        "seed": forest.seed,
        "classes": list(CLASS_NAMES),
        "scaling": scaling_field(forest.zero_epsilon),
        "trees": [],
    }, sort_keys=True)
    assert head.endswith('"trees": []}')  # "trees" sorts last
    try:
        with open(path, "w") as out:
            out.write(head[:-2])
            for i, tree in enumerate(forest.trees):
                out.write(", " if i else "")
                out.write(json.dumps({name: getattr(tree, name).tolist() for name in TREE_KEYS},
                                     sort_keys=True))
            out.write("]}")
    except OSError as exc:
        raise FileFormatError(f"cannot write model {path}: {exc}") from exc


def model_load(path) -> Forest:
    path = Path(path)
    try:
        doc = document(json.loads(path.read_text(), object_hook=_tree_from_json), "model")
        trees = typed(doc["trees"], list, "trees")
        if not trees:
            raise ValueError("a model needs at least one tree")
        if not all(isinstance(t, DecisionTree) for t in trees):
            raise ValueError("every tree needs the columns " + ", ".join(sorted(TREE_KEYS)))
        if doc["classes"] != list(CLASS_NAMES):
            raise ValueError(f"classes {doc['classes']!r} are not {list(CLASS_NAMES)!r}")
        kernel, shape, feature_len, zero_epsilon = read_fixed_fields(doc)
        return Forest(trees=trees, kernel=kernel, shape=shape, feature_len=feature_len,
                      seed=typed(doc["seed"], int, "seed"), zero_epsilon=zero_epsilon)
    # JSONDecodeError is a ValueError; TypeError: a tree column that is one number, no list
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"cannot load model {path}: {exc}") from exc
