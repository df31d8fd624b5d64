"""Decision-forest soft assertions: training, prediction, persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safuzz.datagen import Dataset, LabeledSample, Signal
from safuzz.errors import FileFormatError, TrainingError, UsageError
from safuzz.forest import (
    DecisionTree,
    Forest,
    evaluate_f1,
    model_load,
    model_save,
    predict,
    predict_batch,
    train_forest,
)


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

    def test_feature_length_checked(self):
        forest = forest_of([leaf_tree([1, 0, 0])])
        with pytest.raises(UsageError):
            predict(forest, np.zeros(4))

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
        samples = [LabeledSample(f, Signal(int(l)))
                   for f, l in zip(fresh.features, fresh.labels)]
        assert evaluate_f1(forest, samples)["macro_f1"] == pytest.approx(1.0)

    def test_single_class_predictor_on_balanced_data(self):
        # all predictions one class on balanced 3-class data:
        # that class scores F1 = 2*(1/3)/(1 + 1/3) = 0.5, others 0
        forest = forest_of([leaf_tree([5, 0, 0])])
        samples = [LabeledSample(np.zeros(9), s) for s in Signal for _ in range(10)]
        scores = evaluate_f1(forest, samples)
        assert scores["macro_f1"] == pytest.approx(1 / 6, abs=1e-9)

    def test_absent_class_contributes_zero(self):
        forest, _ = train_forest(threshold_dataset(), tree_count=10, seed=42)
        samples = [LabeledSample(np.full(9, -3.0), Signal.DECREASE)
                   for _ in range(5)]
        scores = evaluate_f1(forest, samples)
        assert scores["per_class"]["Increase"]["f1"] == 0.0
        assert scores["macro_f1"] <= 1 / 3 + 1e-9

    def test_empty_samples_rejected(self):
        with pytest.raises(UsageError):
            evaluate_f1(forest_of([leaf_tree([1, 0, 0])]), [])


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

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 42}')
        with pytest.raises(FileFormatError, match="format_version"):
            model_load(path)
