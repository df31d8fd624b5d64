"""Decision-forest soft assertions: training, prediction, persistence."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safuzz import forest as forest_module
from safuzz.datagen import Dataset, Signal
from safuzz.errors import FileFormatError, TrainingError, UsageError
from safuzz.forest import (
    N_CLASSES,
    TREE_COLUMNS,
    DecisionTree,
    Forest,
    _candidate_draws,
    _grow_tree,
    _ranks,
    evaluate_f1_arrays,
    model_load,
    model_save,
    predict,
    predict_batch,
    train_forest,
)
from test_datagen import BAD_SCALINGS, BAD_SHAPES

FIXTURE_MODELS = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "models"


def make_dataset(features, labels, kernel="exp"):
    return Dataset(kernel=kernel, shape=(3, 3),
                   features=np.asarray(features, dtype=np.float64),
                   labels=np.asarray(labels, dtype=np.int8))


def threshold_dataset(n=600, seed=0):
    """Three classes split by thresholds at -1 and +1 on every feature."""
    rng = np.random.default_rng(seed)
    centers = rng.choice([-3.0, 0.0, 3.0], size=n)
    features = centers[:, None] + rng.uniform(-0.8, 0.8, size=(n, 9))
    labels = np.select(
        [centers < -1, centers > 1], [int(Signal.DECREASE), int(Signal.INCREASE)],
        default=int(Signal.NO_CHANGE),
    )
    return make_dataset(features, labels)


def leaf_tree(counts):
    return DecisionTree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        counts=np.array([counts], dtype=np.int64),
    )


def forest_of(trees):
    return Forest(trees=trees, kernel="exp", shape=(3, 3), feature_len=9, seed=0)


def split_tree(threshold):
    """Root tests feature 0 against threshold: Decrease at left, Increase at right."""
    return DecisionTree(
        feature=np.array([0, -1, -1], dtype=np.int32),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        counts=np.array([[0, 5, 5], [0, 5, 0], [0, 0, 5]], dtype=np.int64),
    )


def reference_vote(forest, x):
    """Walk each DecisionTree's own arrays; first maximum of the votes wins."""
    votes = np.zeros(3, dtype=np.int64)
    for tree in forest.trees:
        i = 0
        while tree.feature[i] >= 0:
            i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
        votes[np.argmax(tree.counts[i])] += 1
    return int(np.argmax(votes))


def list_columns(forest):
    """Python lists of floats among the forest's attributes, as a list view
    of the threshold column would be."""
    return [col for value in vars(forest).values() if isinstance(value, tuple)
            for col in value if isinstance(col, list) and col and isinstance(col[0], float)]


def _reference_gini_children(prefix, total):
    n = total.sum()
    n_left = prefix.sum(axis=1)
    n_right = n - n_left
    with np.errstate(invalid="ignore", divide="ignore"):
        gini_l = 1.0 - ((prefix / np.maximum(n_left, 1)[:, None]) ** 2).sum(axis=1)
        right = total[None, :] - prefix
        gini_r = 1.0 - ((right / np.maximum(n_right, 1)[:, None]) ** 2).sum(axis=1)
    return (n_left * gini_l + n_right * gini_r) / n


def _reference_grow_tree(xs, ys, rng, n_candidates):
    """Per-node CART growth: one stable argsort and one one-hot cumulative sum
    per node and candidate feature. `_grow_tree` must give the same tree."""
    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(np.zeros(N_CLASSES, dtype=np.int64))
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(xs.shape[0]))]
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
        best = (node_gini - 1e-12, -1, 0.0)
        for f in cand:
            vals = xs[idx, f]
            order = np.argsort(vals, kind="stable")
            vs = vals[order]
            cuts = np.flatnonzero(vs[:-1] < vs[1:])
            if cuts.size == 0:
                continue
            onehot = np.zeros((idx.size, N_CLASSES), dtype=np.int64)
            onehot[np.arange(idx.size), y_node[order]] = 1
            prefix = np.cumsum(onehot, axis=0)[cuts]
            weighted = _reference_gini_children(prefix, hist)
            j = int(np.argmin(weighted))
            if weighted[j] < best[0]:
                cut = cuts[j]
                thr = 0.5 * (vs[cut] + vs[cut + 1])
                if not np.isfinite(thr):
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
        counts=np.asarray(counts, dtype=np.int32),
    )


def assert_same_tree(tree, want):
    for name, dtype in TREE_COLUMNS:
        column = getattr(tree, name)
        assert column.dtype == dtype, name
        assert column.tobytes() == getattr(want, name).tobytes(), name


def grow_both(xs, ys, n_candidates, seed):
    """Grow with `_grow_tree` and the reference from equal generators."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_grow_tree(xs, ys, ref_rng, n_candidates)
    tree = _grow_tree(xs, ys, _ranks(xs), rng, n_candidates)
    assert_same_tree(tree, want)
    return tree


SPECIAL_VALUES = (np.nan, np.inf, -np.inf, 1e308, -1e308, 1.5e308, -1.5e308, -0.0)


@st.composite
def growth_cases(draw):
    """(xs, ys, n_candidates, seed): grid values with ties, special values,
    constant features and one to three classes."""
    n = draw(st.integers(2, 200))
    n_features = draw(st.integers(1, 6))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 8))
    xs = (data.integers(0, levels, size=(n, n_features)) - levels // 2).astype(np.float64)
    special = data.random((n, n_features)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    xs[special] = data.choice(SPECIAL_VALUES, size=int(special.sum()))
    for f in np.flatnonzero(data.random(n_features) < 0.2):
        xs[:, f] = xs[0, f]
    classes = data.choice(N_CLASSES, size=draw(st.integers(1, N_CLASSES)), replace=False)
    ys = data.choice(classes, size=n).astype(np.int64)
    return xs, ys, draw(st.integers(1, n_features)), draw(st.integers(0, 1000))


class TestTraining:
    def test_separable_three_class_dataset_is_perfect(self):
        forest, metrics = train_forest(threshold_dataset(), tree_count=20, seed=42)
        assert metrics["macro_f1"] == pytest.approx(1.0)

    def test_one_sample_per_class_memorized(self):
        ds = make_dataset(
            [np.full(9, -5.0), np.zeros(9), np.full(9, 5.0)],
            [int(Signal.DECREASE), int(Signal.NO_CHANGE), int(Signal.INCREASE)],
        )
        forest, _ = train_forest(ds, tree_count=30, seed=1, test_split=0.0)
        assert predict(forest, np.full(9, -5.0)) is Signal.DECREASE
        assert predict(forest, np.zeros(9)) is Signal.NO_CHANGE
        assert predict(forest, np.full(9, 5.0)) is Signal.INCREASE

    def test_single_class_rejected(self):
        ds = make_dataset([np.zeros(9)] * 10, [0] * 10)
        with pytest.raises(TrainingError):
            train_forest(ds)

    def test_deterministic_under_seed(self, tmp_path):
        ds = threshold_dataset()
        f1, _ = train_forest(ds, tree_count=10, seed=42)
        f2, _ = train_forest(ds, tree_count=10, seed=42)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        model_save(f1, p1)
        model_save(f2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_metrics_report_time_and_split(self):
        _, metrics = train_forest(threshold_dataset(), tree_count=5, seed=42,
                                  test_split=0.3)
        assert metrics["train_time_seconds"] > 0
        assert metrics["test_size"] == 180

    @pytest.mark.parametrize("bad", [{"test_split": -0.1}, {"test_split": 1.0},
                                     {"test_split": 1.5}, {"tree_count": 0}],
                             ids=["negative_split", "split_of_one", "split_above_one",
                                  "no_trees"])
    def test_bad_split_or_tree_count_rejected(self, bad):
        with pytest.raises(UsageError):
            train_forest(threshold_dataset(n=60), **bad)

    def test_split_rounding_to_every_row_still_holds_rows_out(self):
        # 0.999 of 60 rows rounds to all 60; scoring must not reuse training rows
        _, metrics = train_forest(threshold_dataset(n=60), tree_count=2, test_split=0.999)
        assert (metrics["train_size"], metrics["test_size"]) == (1, 59)


class TestPresortedGrowth:
    """`_grow_tree` against the per-node reference, column bytes and RNG state."""

    @given(growth_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, case):
        grow_both(*case)

    def test_nan_neighbour_is_no_cut(self):
        # a `>=` cut mask would cut between 2.0 and NaN and split off the NaN rows
        xs = np.array([[1.0], [2.0], [np.nan], [np.nan], [2.0], [1.0]])
        ys = np.array([0, 0, 2, 2, 0, 1])
        tree = grow_both(xs, ys, 1, 0)
        assert tree.threshold[0] == 1.5

    def test_signed_zero_order_sets_overflowed_threshold(self):
        # zeros and +inf: the midpoint overflows, so the threshold is the last
        # zero in (value, row id) order, here -0.0; an unstable sort may pick +0.0
        for seed in range(20):
            xs = np.random.default_rng(seed).choice([0.0, -0.0, np.inf], size=300)
            xs[np.flatnonzero(xs == 0)[-1]] = -0.0
            ys = np.where(np.isinf(xs), 2, 0)
            tree = grow_both(xs[:, None], ys, 1, seed)
            assert np.signbit(tree.threshold[0])

    def test_equal_candidates_keep_the_first_drawn(self):
        # identical columns score alike: the first drawn candidate must win
        xs = np.repeat(np.arange(12.0)[:, None], 3, axis=1)
        ys = np.array([0] * 5 + [1] * 7)
        for seed in range(6):
            tree = grow_both(xs, ys, 3, seed)
            first = np.random.default_rng(seed).choice(3, size=3, replace=False)[0]
            assert tree.feature[0] == first

    @pytest.mark.parametrize("n", [*range(1, 41), 900])
    def test_block_draws_are_generator_choice(self, n):
        # 100 to 154 draws span the blocks of 16, 32 and 64 rows; 112 ends one exactly
        for k in sorted({int(math.sqrt(n)), 1, n}):
            for seed in range(10):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                draws = _candidate_draws(rng, n, k)
                for _ in range(100 + 6 * seed):
                    assert next(draws).tolist() == ref.choice(n, size=k, replace=False).tolist()

    def test_ranks_order_like_the_floats(self):
        data = np.random.default_rng(0)
        values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.7e308, -1.7e308, 1.0, -1.0, 2.5]
        xs = data.choice(values, size=(300, 4))
        xs[:, 3] = data.integers(-2, 3, size=300)  # ties only
        ranks = _ranks(xs)
        for x, r in zip(xs.T, ranks.T):
            # dense: one rank per value, -0.0 and 0.0 alike, every NaN at the top
            assert sorted(set(r.tolist())) == list(range(len(np.unique(x))))
            assert len(set(r[x == 0].tolist())) <= 1
            assert (r[np.isnan(x)] == r.max()).all()
        for _ in range(100):
            boot = data.integers(0, len(xs), size=len(xs))
            assert np.array_equal(np.argsort(ranks[boot], axis=0, kind="stable"),
                                  np.argsort(xs[boot], axis=0, kind="stable"))

    @pytest.mark.parametrize("rows, dtype", [(65_536, np.uint16), (65_537, np.uint32)])
    def test_rank_dtype_holds_every_row(self, rows, dtype):
        ranks = _ranks(np.arange(rows, 0, -1, dtype=np.float64)[:, None])
        assert ranks.dtype == dtype
        assert ranks[:, 0].tolist() == list(range(rows - 1, -1, -1))

    def test_train_forest_matches_reference(self, monkeypatch):
        ds = threshold_dataset(n=300)
        ds.features[::7, 2] = np.nan
        forest, _ = train_forest(ds, tree_count=8, seed=11)
        monkeypatch.setattr(forest_module, "_grow_tree",
                            lambda xs, ys, ranks, rng, k: _reference_grow_tree(xs, ys, rng, k))
        want, _ = train_forest(ds, tree_count=8, seed=11)
        assert len(forest.trees) == len(want.trees) == 8
        for tree, ref in zip(forest.trees, want.trees):
            assert_same_tree(tree, ref)


class TestPredict:
    def test_single_tree_histogram(self):
        forest = forest_of([leaf_tree([0, 0, 5])])
        assert predict(forest, np.zeros(9)) is Signal.INCREASE

    def test_majority_vote(self):
        trees = [leaf_tree([0, 0, 5]), leaf_tree([0, 5, 0]), leaf_tree([0, 5, 0])]
        assert predict(forest_of(trees), np.zeros(9)) is Signal.DECREASE

    def test_tie_breaks_by_fixed_class_order(self):
        # one increase vote, one decrease vote: decrease wins the tie
        trees = [leaf_tree([0, 0, 5]), leaf_tree([0, 5, 0])]
        assert predict(forest_of(trees), np.zeros(9)) is Signal.DECREASE

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308])
    @pytest.mark.parametrize("threshold", [0.0, np.inf, -np.inf, 1e308])
    def test_non_finite_features_route_like_numpy(self, value, threshold):
        forest = forest_of([split_tree(threshold)])
        x = np.full(9, value)
        expected = Signal.DECREASE if np.float64(value) <= threshold else Signal.INCREASE
        assert predict(forest, x) is expected
        assert predict_batch(forest, x[None, :]).tolist() == [int(expected)]

    def test_single_leaf_tree_batch(self):
        forest = forest_of([leaf_tree([0, 3, 1])])
        assert predict_batch(forest, np.zeros((4, 9))).tolist() == [1] * 4

    def test_right_child_not_next_to_left(self):
        # root -> left 3, right 1; node 1 splits again into 4 (left) and 2
        tree = DecisionTree(
            feature=np.array([0, 1, -1, -1, -1], dtype=np.int32),
            threshold=np.array([0.0, 5.0, 0.0, 0.0, 0.0]),
            left=np.array([3, 4, -1, -1, -1], dtype=np.int32),
            right=np.array([1, 2, -1, -1, -1], dtype=np.int32),
            counts=np.array([[1, 1, 1], [1, 1, 0], [0, 4, 0], [0, 0, 4], [4, 0, 0]],
                            dtype=np.int64),
        )
        forest = forest_of([leaf_tree([0, 1, 0]), tree, tree])
        xs = np.zeros((3, 9))
        xs[0, 0] = -1.0  # node 3: Increase
        xs[1, :2] = [1.0, 5.0]  # node 4: NoChange
        xs[2, :2] = [1.0, 6.0]  # node 2: Decrease
        want = [Signal.INCREASE, Signal.NO_CHANGE, Signal.DECREASE]
        assert [predict(forest, x) for x in xs] == want
        assert predict_batch(forest, xs).tolist() == [int(s) for s in want]

    @pytest.mark.parametrize("classes, winner", [
        ((0, 1), Signal.NO_CHANGE),
        ((0, 2), Signal.NO_CHANGE),
        ((1, 2), Signal.DECREASE),
        ((0, 1, 2), Signal.NO_CHANGE),
        ((2, 1, 0), Signal.NO_CHANGE),
        ((2, 2, 1, 1, 0), Signal.DECREASE),
    ])
    def test_ties_break_nochange_decrease_increase(self, classes, winner):
        forest = forest_of([leaf_tree(np.eye(3, dtype=int)[c] * 5) for c in classes])
        assert predict(forest, np.zeros(9)) is winner
        assert predict_batch(forest, np.zeros((1, 9))).tolist() == [int(winner)]

    def test_single_batch_and_reference_walk_agree(self, tmp_path):
        forest, _ = train_forest(threshold_dataset(), tree_count=20, seed=42)
        path = tmp_path / "model.json"
        model_save(forest, path)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-4, 4, size=(200, 9))
        xs[:5] = np.array([np.nan, np.inf, -np.inf, 1e30, -1e30])[:, None]
        xs[5:10, ::2] = np.nan
        for model in (forest, model_load(path)):
            batch = predict_batch(model, xs)
            for x, b in zip(xs, batch):
                assert int(predict(model, x)) == b == reference_vote(model, x)

    def test_batch_only_forest_holds_no_list_view(self):
        # a list view costs about 80 bytes per internal node, and training
        # keeps every forest it evaluates: neither predict nor predict_batch
        # may leave one on the forest
        forest = model_load(FIXTURE_MODELS / "Softmax.json")
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(60, forest.feature_len)) * 10.0 ** rng.integers(-3, 4, size=(60, 1))
        xs[:3] = np.array([np.nan, np.inf, -np.inf])[:, None]
        batch = predict_batch(forest, xs)
        assert list_columns(forest) == []
        for x, b in zip(xs, batch):
            assert int(predict(forest, x)) == b == reference_vote(forest, x)
        assert list_columns(forest) == []

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=9, max_size=9))
    @settings(max_examples=50, deadline=None)
    def test_predict_is_pure(self, values):
        forest, _ = train_forest(threshold_dataset(n=120), tree_count=5, seed=7)
        x = np.asarray(values)
        assert predict(forest, x) is predict(forest, x)


class TestEvaluateF1:
    def test_perfect_predictions(self):
        forest, _ = train_forest(threshold_dataset(), tree_count=20, seed=42)
        fresh = threshold_dataset(seed=3)
        scores = evaluate_f1_arrays(forest, fresh.features, fresh.labels)
        assert scores["macro_f1"] == pytest.approx(1.0)

    def test_single_class_predictor_on_balanced_data(self):
        # all predictions one class on balanced 3-class data:
        # that class scores F1 = 2*(1/3)/(1 + 1/3) = 0.5, others 0
        forest = forest_of([leaf_tree([5, 0, 0])])
        ys = np.repeat([int(s) for s in Signal], 10)
        scores = evaluate_f1_arrays(forest, np.zeros((len(ys), 9)), ys)
        assert scores["macro_f1"] == pytest.approx(1 / 6, abs=1e-9)

    def test_absent_class_contributes_zero(self):
        forest, _ = train_forest(threshold_dataset(), tree_count=10, seed=42)
        ys = np.full(5, int(Signal.DECREASE))
        scores = evaluate_f1_arrays(forest, np.full((5, 9), -3.0), ys)
        assert scores["per_class"]["Increase"]["f1"] == 0.0
        assert scores["macro_f1"] <= 1 / 3 + 1e-9

    def test_present_classes_ignore_an_absent_class(self):
        # no Decrease rows: the absent class holds macro_f1 at or below 2/3
        ds = threshold_dataset()
        keep = ds.labels != int(Signal.DECREASE)
        ds = make_dataset(ds.features[keep], ds.labels[keep])
        _, metrics = train_forest(ds, tree_count=10, seed=42)
        assert metrics["per_class"]["Decrease"]["f1"] == 0.0
        assert metrics["macro_f1"] <= 2 / 3 + 1e-9
        assert metrics["macro_f1_present"] == pytest.approx(1.0)


class TestPersistence:
    def test_round_trip_predictions_bit_identical(self, tmp_path):
        forest, _ = train_forest(threshold_dataset(), tree_count=10, seed=42)
        path = tmp_path / "model.json"
        model_save(forest, path)
        back = model_load(path)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-5, 5, size=9)
            assert predict(forest, x) is predict(back, x)

    def test_model_self_describes(self, tmp_path):
        forest, _ = train_forest(threshold_dataset(), tree_count=3, seed=42)
        path = tmp_path / "model.json"
        model_save(forest, path)
        back = model_load(path)
        assert back.kernel == "exp"
        assert back.shape == (3, 3)
        assert back.feature_len == 9

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 1, "trees": "nope"}')
        with pytest.raises(FileFormatError):
            model_load(path)

    @pytest.mark.parametrize("tree", [
        '{"feature": [-1]}',  # columns missing
        '{"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], '
        '"counts": [[1, 2], [3]]}',  # ragged counts
    ])
    def test_corrupt_tree_rejected(self, tmp_path, tree):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 1, "trees": [%s]}' % tree)
        with pytest.raises(FileFormatError):
            model_load(path)

    @pytest.mark.parametrize("case, message", [
        ("cycle", "child"),
        ("child_outside_tree", "child"),
        ("child_beyond_int32", "cannot load"),
        ("feature_outside_vector", "feature"),
        ("short_column", "equal length"),
    ])
    def test_structurally_invalid_tree_rejected(self, tmp_path, case, message):
        # a copy of a fixture model with one internal node of its first tree
        # broken: loading refuses it, where predicting would hang or crash
        doc = json.loads((FIXTURE_MODELS / "exp.json").read_text())
        assert doc["feature_len"] == 9
        tree = doc["trees"][0]
        i = next(i for i, f in enumerate(tree["feature"]) if f >= 0)
        if case == "cycle":  # the node is its own child: the walk never ends
            tree["left"][i] = tree["right"][i] = i
        elif case == "child_outside_tree":
            tree["left"][i] = 10 ** 6
        elif case == "child_beyond_int32":
            tree["left"][i] = 10 ** 10
        elif case == "feature_outside_vector":
            tree["feature"][i] = 50
        else:
            del tree["threshold"][i]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=message):
            model_load(path)

    # true and 1.0 used to pass the != 1 test
    @pytest.mark.parametrize("version", ["42", "true", "1.0", '"1"'])
    def test_version_mismatch_rejected(self, tmp_path, version):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": %s}' % version)
        with pytest.raises(FileFormatError, match="format_version"):
            model_load(path)


    @pytest.mark.parametrize("path", sorted(FIXTURE_MODELS.glob("*.json")), ids=lambda p: p.stem)
    def test_fixture_model_round_trip_is_byte_identical(self, path, tmp_path):
        model = model_load(path)
        assert all(tree.counts.dtype == np.int32 for tree in model.trees)
        out = tmp_path / path.name
        model_save(model, out)
        assert out.read_bytes() == path.read_bytes()


class TestModelFileChecks:
    """model_load refuses a model file whose fixed fields differ from what
    every model file writes; each of these loaded, or failed untyped, before
    the checks."""

    def _write(self, tmp_path, **changes):
        doc = {**json.loads((FIXTURE_MODELS / "exp.json").read_text()), **changes}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        return path

    def test_reordered_classes_rejected(self, tmp_path):
        # a reversed list used to load and be ignored: votes read Signal order
        path = self._write(tmp_path, classes=["Increase", "Decrease", "NoChange"])
        with pytest.raises(FileFormatError, match="classes"):
            model_load(path)

    @pytest.mark.parametrize("scaling", BAD_SCALINGS.values(), ids=BAD_SCALINGS.keys())
    def test_scaling_rejected(self, tmp_path, scaling):
        with pytest.raises(FileFormatError, match="scaling|zero_epsilon"):
            model_load(self._write(tmp_path, scaling=scaling))

    def test_recorded_epsilon_loads(self, tmp_path):
        scaling = {"offset": 0.0, "scale": 1.0, "zero_epsilon": 1e-8}
        assert model_load(self._write(tmp_path, scaling=scaling)).zero_epsilon == 1e-8

    def test_no_trees_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="at least one tree"):
            model_load(self._write(tmp_path, trees=[]))

    @pytest.mark.parametrize("feature_len", [0, -1])
    def test_feature_len_below_one_rejected(self, tmp_path, feature_len):
        # a single-leaf tree reads no feature, so nothing else refused these;
        # moved from featurize, whose callers now only hold checked lengths
        leaf = {name: getattr(leaf_tree([1, 0, 0]), name).tolist() for name, _ in TREE_COLUMNS}
        path = self._write(tmp_path, trees=[leaf], feature_len=feature_len)
        with pytest.raises(FileFormatError, match="feature_len must be at least 1"):
            model_load(path)

    def test_feature_len_other_than_the_size_of_shape_rejected(self, tmp_path):
        # it used to load, and fuzz then asked _quantile_plan for terabytes: exit 3
        message = f"feature_len {10**12} is not the size of shape [3, 3]"
        with pytest.raises(FileFormatError, match=re.escape(message)):
            model_load(self._write(tmp_path, feature_len=10**12))

    @pytest.mark.parametrize("field,value", [("seed", "7"), ("seed", 7.9), ("seed", True),
                                             ("feature_len", "9"), ("feature_len", 9.0)])
    def test_int_field_that_is_no_int_rejected(self, tmp_path, field, value):
        # int() used to load these as seed 7, 7 and 1, and feature_len 9
        with pytest.raises(FileFormatError, match=re.escape(f"{field} {value!r} is not an int")):
            model_load(self._write(tmp_path, **{field: value}))

    def test_top_level_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        with pytest.raises(FileFormatError, match="not a JSON object"):
            model_load(path)

    @pytest.mark.parametrize("kernel", [["exp"], 5, None], ids=["list", "number", "null"])
    def test_kernel_that_is_no_string_rejected(self, tmp_path, kernel):
        # a list used to load and crash fuzz with an unhashable-type error;
        # a number loaded and its site was skipped
        with pytest.raises(FileFormatError, match=re.escape(f"kernel {kernel!r} is not a string")):
            model_load(self._write(tmp_path, kernel=kernel))

    @pytest.mark.parametrize("column, value, message", [
        ("threshold", lambda t: str(t), "tree threshold"),
        ("feature", lambda f: True if f >= 0 else f, "tree feature"),
        ("counts", lambda c: [float(n) for n in c], "tree counts"),
        ("feature", lambda f: f + 0.7 if f >= 0 else f, "tree feature"),
    ], ids=["text_thresholds", "boolean_features", "float_counts", "float_feature"])
    def test_tree_column_of_other_numbers_rejected(self, tmp_path, column, value, message):
        # np.asarray cast each to the column's type: "0.5" read as 0.5, true
        # as feature 1, and a feature 5.7 was truncated to 5
        doc = json.loads((FIXTURE_MODELS / "exp.json").read_text())
        tree = doc["trees"][0]
        tree[column] = [value(v) for v in tree[column]]
        with pytest.raises(FileFormatError, match=message):
            model_load(self._write(tmp_path, trees=doc["trees"]))

    @pytest.mark.parametrize("shape", BAD_SHAPES.values(), ids=BAD_SHAPES.keys())
    def test_shape_that_is_no_list_of_sizes_rejected(self, tmp_path, shape):
        with pytest.raises(FileFormatError, match="is not a list of ints of at least 1"):
            model_load(self._write(tmp_path, shape=shape))
