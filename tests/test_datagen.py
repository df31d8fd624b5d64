"""Training-data generation: trajectories, labels, balancing, persistence."""

import dataclasses
import json
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safuzz import datagen
from safuzz.datagen import (
    BASE_RATES,
    MAX_STEPS,
    GenerationConfig,
    MutationConfig,
    Signal,
    apply_scaling,
    build_dataset,
    dataset_load,
    dataset_save,
    derive_labels,
    featurize,
    generate_base_inputs,
    run_trajectories,
    step_sizes,
)
from safuzz.errors import FileFormatError, GenerationFailure, UsageError
from safuzz.kernels import default_params, unit_operand_rows
from safuzz.oracles import oracle_rows
from safuzz.registry import Registry, default_registry
from test_oracles import IMPLEMENTED, judge_one

FIXTURE_DATASET = Path(__file__).resolve().parents[1] / "perfbench/fixtures/datasets/square.csv"
# "scaling" records that dataset and model files must not carry: a scale or
# offset no program writes, or a zero_epsilon that is not null or positive and finite
BAD_SCALINGS = {
    "scale": {"offset": 0.0, "scale": 2.0, "zero_epsilon": None},
    "offset": {"offset": -1.0, "scale": 1.0, "zero_epsilon": None},
    "nan_epsilon": {"offset": 0.0, "scale": 1.0, "zero_epsilon": math.nan},
    "zero_epsilon": {"offset": 0.0, "scale": 1.0, "zero_epsilon": 0.0},
    "negative_epsilon": {"offset": 0.0, "scale": 1.0, "zero_epsilon": -1e-8},
    "infinite_epsilon": {"offset": 0.0, "scale": 1.0, "zero_epsilon": math.inf},
    "no_epsilon": {"offset": 0.0, "scale": 1.0},
    # float() used to read these as 0.001 and 1.0
    "string_epsilon": {"offset": 0.0, "scale": 1.0, "zero_epsilon": "0.001"},
    "bool_epsilon": {"offset": 0.0, "scale": 1.0, "zero_epsilon": True},
    # float() of it used to raise a raw OverflowError
    "epsilon_past_double": {"offset": 0.0, "scale": 1.0, "zero_epsilon": 10 ** 400},
}
# "shape" records that dataset and model files must not carry; each used to load
BAD_SHAPES = {"string": "abc", "zero": [3, 0], "negative": [-3], "float": [3.0, 3],
              "bool": [True, 3]}


def trajectory(*points):
    """(value, passed) pairs as the arrays run_trajectories returns per schedule."""
    values, passed = zip(*points)
    return np.array(values, dtype=np.float64).reshape(-1, 1), np.array(passed)


def labelled(points, passed, direction="up"):
    """(value, label) for each point derive_labels labels."""
    labels = derive_labels(passed, direction)
    return [(float(v), label) for v, label in zip(points[:len(labels), 0], labels)]


def run_one(kernel, base, mc, rng):
    """The trajectory of a single schedule: a stack of one walk."""
    return run_trajectories(kernel, base, [mc], rng)[0]


def with_hints(kernel, hints):
    """The shipped registry with the kernel's generation hints replaced."""
    reg = default_registry()
    entries = {**reg.entries, kernel: dataclasses.replace(reg.get(kernel), generation=hints)}
    return Registry(entries=entries, version=reg.version)


def hints_of(kernel, **changes):
    """The kernel's shipped generation hints with some fields changed."""
    return dataclasses.replace(default_registry().get(kernel).generation, **changes)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(n_base=0), dict(shape=(3, 0)), dict(shape=(-1,)), dict(target_size=0),
    ], ids=["n_base", "zero_dim", "negative_dim", "target_size"])
    def test_out_of_range_generation_config_rejected(self, kwargs):
        with pytest.raises(UsageError):
            GenerationConfig(**kwargs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_accepted_exponential_rate_walks_its_whole_budget(self):
        # the largest rate whose last step fits a double: far above
        # BASE_RATES, the only rates a schedule is built with
        largest = math.log(np.finfo(np.float64).max) / MAX_STEPS
        assert max(BASE_RATES) < largest
        # exp never fails going down, so the walk takes every step. At the
        # largest rate the running sum leaves float64's range: inf is data
        for rate, finite in ((7.0, True), (largest, False)):
            mc = MutationConfig("exponential", rate=rate, direction="down")
            points, passed = run_one("exp", np.full((3, 3), -80.0), mc,
                                     np.random.default_rng(0))
            assert len(points) == MAX_STEPS + 1 and passed.all()
            assert np.isfinite(points).all() == finite

    def test_default_schedules_are_every_method_direction_and_base_rate(self):
        # MutationConfig checks nothing itself: these are the only schedules built
        configs = datagen.default_mutation_configs()
        assert sorted((c.method, c.direction, c.rate) for c in configs) == sorted(
            (m, d, r) for m in ("exponential", "random", "sinusoidal")
            for d in ("up", "down") for r in BASE_RATES)
        assert all(math.isfinite(r) and r > 0 for r in BASE_RATES)


class TestBaseInputs:
    def test_round_robin_regions(self):
        config = GenerationConfig(n_base=3, shape=(2,))
        rng = np.random.default_rng(0)
        bases = generate_base_inputs(config, rng, ((-100, 0), (0, 100), (100, 1e6)))
        assert len(bases) == 3
        assert (bases[0] < 0).all()
        assert ((bases[1] >= 0) & (bases[1] < 100)).all()
        assert (bases[2] >= 100).all()

    def test_default_count_is_100(self):
        config = GenerationConfig(shape=(1,))
        assert len(generate_base_inputs(config, np.random.default_rng(0), ((-1, 1),))) == 100


class TestMutateStep:
    """Step sizes, and the steps run_trajectories takes with them."""

    def test_exponential_formula(self):
        mc = MutationConfig("exponential", rate=1.0, direction="up")
        sizes = step_sizes(mc, np.random.default_rng(0), 1)
        assert sizes.tolist() == pytest.approx([math.e])

    def test_sinusoidal_unit_peak(self):
        mc = MutationConfig("sinusoidal", rate=math.pi / 2, direction="up")
        sizes = step_sizes(mc, np.random.default_rng(0), 1)
        assert sizes.tolist() == pytest.approx([1.0])

    def test_random_step_bounded_by_rate(self):
        mc = MutationConfig("random", rate=2.0, direction="up")
        sizes = step_sizes(mc, np.random.default_rng(0), 19)
        assert len(sizes) == 19
        assert ((sizes >= 0.0) & (sizes <= 2.0)).all()

    @pytest.mark.parametrize("base,amplitude", [(np.array([95.0, -120.0]), 120.0),
                                                (np.zeros(2), 1.0)])
    def test_sinusoidal_steps_scale_with_the_base(self, base, amplitude):
        # exp never flips on these walks (it fails above 88.7 and passes below),
        # so every step is taken
        direction = "up" if base.any() else "down"
        mc = MutationConfig("sinusoidal", rate=1.0, direction=direction)
        points, _ = run_one("exp", base, mc, np.random.default_rng(0))
        sizes = np.abs(np.sin(np.arange(1.0, MAX_STEPS + 1.0))) * amplitude
        assert len(points) == MAX_STEPS + 1
        np.testing.assert_allclose(np.abs(np.diff(points[:, 0])), sizes, rtol=1e-12)


class TestDeriveLabels:
    def test_fail_to_success_reverses_direction(self):
        # base 10 fails, one up-step to 30 passes -> (10, NoChange), (30, Decrease)
        got = labelled(*trajectory((10, False), (30, True)))
        assert got == [(10.0, Signal.NO_CHANGE), (30.0, Signal.DECREASE)]

    def test_success_to_fail_keeps_direction(self):
        got = labelled(*trajectory((-1, True), (5, False)))
        assert got == [(-1.0, Signal.INCREASE), (5.0, Signal.NO_CHANGE)]

    def test_multi_step_trajectory(self):
        # every passing point carries the mutation direction
        got = labelled(*trajectory((10, True), (20, True), (30, True), (40, False)))
        assert got == [(10.0, Signal.INCREASE), (20.0, Signal.INCREASE),
                       (30.0, Signal.INCREASE), (40.0, Signal.NO_CHANGE)]

    def test_fail_to_success_multi_step(self):
        got = labelled(*trajectory((100, False), (130, False), (160, True)))
        assert got == [(100.0, Signal.NO_CHANGE), (130.0, Signal.NO_CHANGE),
                       (160.0, Signal.DECREASE)]

    def test_down_trajectory_takes_its_configured_direction(self):
        got = labelled(*trajectory((5, True), (-1, False)), "down")
        assert got == [(5.0, Signal.DECREASE), (-1.0, Signal.NO_CHANGE)]
        got = labelled(*trajectory((30, False), (10, True)), "down")
        assert got == [(30.0, Signal.NO_CHANGE), (10.0, Signal.INCREASE)]

    def test_no_flip_is_empty(self):
        assert derive_labels(np.array([True, True]), "up") == []

    @given(st.lists(st.booleans(), min_size=2, max_size=12),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_never_both_directions_for_one_value(self, outcomes, up):
        step = 1.0 if up else -1.0
        flips = [i for i, passed in enumerate(outcomes) if passed != outcomes[0]]
        if flips:  # cut at the first flip, as run_trajectories cuts
            outcomes = outcomes[:flips[0] + 1]
        got = labelled(*trajectory(*[(i * step, passed) for i, passed in enumerate(outcomes)]),
                       "up" if up else "down")
        by_value = {}
        for value, label in got:
            by_value.setdefault(value, set()).add(label)
        for labels in by_value.values():
            assert not ({Signal.INCREASE, Signal.DECREASE} <= labels)


class TestFeaturize:
    def test_flatten_when_sizes_match(self):
        t = np.arange(9.0, dtype=np.float32).reshape(3, 3)
        feats = featurize(t, 9)
        assert feats.dtype == np.float64 and feats.tolist() == list(np.arange(9.0))
        feats[0] = -1.0  # a new vector, not a view of the input
        assert t[0, 0] == 0.0

    def test_quantiles_for_larger_tensors(self):
        t = np.arange(784.0).reshape(28, 28)
        feats = featurize(t, 9)
        assert feats[0] == 0.0 and feats[-1] == 783.0
        assert len(feats) == 9

    def test_constant_tensor_constant_vector(self):
        t = np.full((28, 28), 3.5)
        assert (featurize(t, 9) == 3.5).all()

    def test_any_positive_feature_len(self):
        # a forest trained at any shape serves its own feature length
        np.testing.assert_array_equal(featurize(np.arange(4.0).reshape(2, 2), 4), [0, 1, 2, 3])
        np.testing.assert_array_equal(featurize(np.arange(7.0), 4), [0, 2, 4, 6])
        np.testing.assert_array_equal(featurize(np.arange(3.0), 1), [0])

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=2,
                    max_size=30).filter(lambda v: len(v) != 9))
    @settings(max_examples=80, deadline=None)
    def test_quantile_endpoints_are_min_max(self, values):
        # applies to the quantile path only; matching sizes flatten unsorted
        feats = featurize(np.array(values), 9)
        assert feats[0] == min(values)
        assert feats[-1] == max(values)
        assert (np.diff(feats) >= 0).all()

    @pytest.mark.parametrize("feature_len", [1, 4, 9, 196, 784])
    def test_matches_numpy_quantile_bit_for_bit(self, feature_len):
        rng = np.random.default_rng(feature_len)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
        for size in [*range(1, 101), 784]:
            finite = rng.normal(size=size) * 10.0 ** rng.integers(-30, 30, size=size)
            sprinkled = finite.copy()
            hit = rng.random(size) < 0.2
            sprinkled[hit] = rng.choice(special, size=int(hit.sum()))
            for values in (finite, finite.astype(np.float32), sprinkled,
                           sprinkled.astype(np.float32),
                           rng.choice([-0.0, 0.0, -1.0, 1.0], size=size),
                           rng.choice([-0.0, 0.0, np.inf, -np.inf], size=size)):
                want = _reference_featurize(values, feature_len)
                assert featurize(values, feature_len).tobytes() == want.tobytes(), (size, values)

    def test_overflowed_top_features_read_nan(self):
        # numpy's linear interpolation computes inf * 0 and inf - inf: the
        # median is exactly the element 2, yet it reads NaN
        feats = featurize(np.array([1.0, 2.0, np.inf]), 9)
        np.testing.assert_array_equal(
            feats, [1.0, 1.25, 1.5, 1.75, np.nan, np.inf, np.nan, np.nan, np.nan])

    def test_nan_makes_every_feature_nan(self):
        assert np.isnan(featurize(np.array([1.0, np.nan, -np.inf, 2.0]), 9)).all()

    @pytest.mark.parametrize("feature_len", [1, 4, 9])
    def test_always_feature_len_float64_values(self, feature_len):
        # predict takes the vector as it comes, without a length check
        for size in range(1, 3 * feature_len + 2):
            for dtype in (np.float32, np.float64, np.int64):
                feats = featurize(np.arange(size).astype(dtype), feature_len)
                assert feats.shape == (feature_len,) and feats.dtype == np.float64


def _reference_featurize(values, feature_len):
    """featurize as numpy's own linear quantiles."""
    values = np.array(values, dtype=np.float64).reshape(-1)
    if values.size == feature_len:
        return values
    with np.errstate(all="ignore"):
        return np.quantile(values, np.linspace(0.0, 1.0, feature_len))


class TestPreprocessScale:
    """The scaling build_dataset applies once and records for fuzz time."""

    RAW = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 5.0]])

    def test_epsilon_removes_zeros(self):
        out = apply_scaling(self.RAW, 1e-8)
        assert (out != 0.0).all()
        assert (out == np.where(self.RAW == 0.0, 1e-8, self.RAW)).all()

    def test_identity_scale_keeps_values(self):
        # without an epsilon (a kernel defined at zero) no shift applies
        out = apply_scaling(self.RAW, None)
        assert out.tobytes() == self.RAW.tobytes()

    def test_replay_is_bit_identical(self):
        # log's hint shifts its zeros (the failure seed 0.0 is a base); without
        # the hint the same rows come out unshifted, and replaying the recorded
        # zero_epsilon on them gives the shipped dataset's bytes
        config = GenerationConfig(seed=5, n_base=20, target_size=1500)
        ds = build_dataset("log", config)
        unshifted = with_hints("log", hints_of("log", zero_epsilon=None))
        raw = build_dataset("log", config, registry=unshifted)
        assert ds.zero_epsilon == 1e-8 and raw.zero_epsilon is None
        assert (raw.features == 0.0).any()
        assert raw.labels.tobytes() == ds.labels.tobytes()
        assert apply_scaling(raw.features, ds.zero_epsilon).tobytes() == ds.features.tobytes()


class TestBuildDataset:
    SMALL = dict(n_base=30, target_size=3000)

    def test_exp_dataset_balanced(self):
        ds = build_dataset("exp", GenerationConfig(seed=3, **self.SMALL))
        counts = ds.class_counts()
        # exp's failure region is one-sided: increase and no-change only
        assert set(counts) == {"NoChange", "Increase"}
        assert ds.zero_epsilon is None  # exp is defined at zero
        assert min(counts.values()) / max(counts.values()) >= 0.5
        assert min(counts.values()) / len(ds) >= 0.2

    @pytest.mark.parametrize("kernel,shape", [("inverse", (3, 4)), ("linear", ()),
                                              ("Conv2d", (3,)), ("matmul", (3,))])
    def test_shape_the_kernel_does_not_take_is_usage_error(self, kernel, shape):
        with pytest.raises(UsageError, match=f"kernel '{kernel}' does not take shape"):
            build_dataset(kernel, GenerationConfig(shape=shape, **self.SMALL))

    def test_never_failing_kernel_reports_generation_failure(self, monkeypatch):
        config = GenerationConfig(n_base=5, shape=(2,), seed=0, target_size=500)
        monkeypatch.setattr(datagen, "default_mutation_configs", lambda: [
            MutationConfig("random", rate=0.01, direction=d)
            for d in ("up", "down")])
        reg = with_hints("sigmoid", hints_of("sigmoid", regions=((0.4, 0.6),)))
        with pytest.raises(GenerationFailure, match="sigmoid"):
            build_dataset("sigmoid", config, registry=reg)

    def test_regions_from_hints(self):
        hinted = build_dataset("exp", GenerationConfig(seed=3, **self.SMALL))
        assert hinted.config["regions"] == [
            list(r) for r in default_registry().get("exp").generation.regions]
        # retired settings stay in the header at their one value
        assert hinted.config["mutations_per_base"] == 100
        assert hinted.config["pixel_bounds"] is None

    def test_deterministic_under_seed(self):
        a = build_dataset("log", GenerationConfig(seed=5, **self.SMALL))
        b = build_dataset("log", GenerationConfig(seed=5, **self.SMALL))
        assert a.zero_epsilon == 1e-8  # the registry's hint for log
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_shortfall_logged_as_warning(self, caplog):
        # remainder's rare flips exhaust the label budget at 395 samples
        config = GenerationConfig(seed=1, n_base=100, target_size=600)
        with caplog.at_level(logging.WARNING, logger="safuzz.datagen"):
            ds = build_dataset("remainder", config)
        assert len(ds) == 395
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage() for r in warnings] == [
            "remainder: generation budget exhausted at 395 of the 600 samples targeted"]

    @pytest.mark.parametrize("kernel", IMPLEMENTED)
    def test_flipped_trajectories_first_move_in_their_configured_direction(
            self, kernel, monkeypatch):
        # derive_labels labels by the configured direction, not by the points;
        # and a base's twelve trajectories take at most four oracle calls
        seen, judged, calls_per_base = [], [], []

        def recording(kernel, base, mconfigs, rng, registry=None):
            before = len(judged)
            trajectories = run_trajectories(kernel, base, mconfigs, rng, registry)
            calls_per_base.append(len(judged) - before)
            seen.extend((mc.direction, points, passed)
                        for mc, (points, passed) in zip(mconfigs, trajectories))
            return trajectories

        def counting(*args, **kwargs):
            judged.append(args[0])
            return oracle_rows(*args, **kwargs)

        monkeypatch.setattr(datagen, "run_trajectories", recording)
        monkeypatch.setattr(datagen, "oracle_rows", counting)
        build_dataset(kernel, GenerationConfig(n_base=10, seed=1, target_size=1000))
        assert calls_per_base and max(calls_per_base) <= 4
        assert len(seen) == 12 * len(calls_per_base)
        flipped = [(d, points) for d, points, passed in seen if passed[-1] != passed[0]]
        assert flipped
        for direction, points in flipped:
            rows = points.reshape(len(points), -1)
            moves = (rows[1:] - rows[0]).sum(axis=1)
            moved = moves[(moves > 0) | (moves < 0)]  # a NaN sum moves nowhere
            assert moved.size and (moved[0] > 0) == (direction == "up")

    def test_no_warning_when_target_reached(self, caplog):
        with caplog.at_level(logging.WARNING, logger="safuzz.datagen"):
            build_dataset("exp", GenerationConfig(seed=3, **self.SMALL))
        assert not caplog.records

    def test_nochange_labels_replay_as_failures(self):
        ds = build_dataset("exp", GenerationConfig(seed=3, **self.SMALL))
        rows = ds.features[ds.labels == int(Signal.NO_CHANGE)][:50]
        for row in rows:
            x = row.reshape(ds.shape)  # exp records no zero shift to undo
            assert not judge_one("exp", {}, [x]).passed


def walk_step_by_step(kernel, base, mc, rng):
    """Reference trajectory: one mutation step at a time, each point judged
    alone, stopping at the first flip. A sinusoidal step is scaled by the
    base's largest |value|, or 1.0 for an all-zero base."""
    sign = 1.0 if mc.direction == "up" else -1.0
    amplitude = float(np.max(np.abs(base))) or 1.0
    x = base

    def judge(values):
        operands = [a[0] for a in unit_operand_rows(kernel, values[None])]
        return judge_one(kernel, default_params(kernel, values.shape), operands).passed

    points, passed = [x], [judge(x)]
    for k in range(1, MAX_STEPS + 1):
        if mc.method == "exponential":
            step = math.exp(mc.rate * k)
        elif mc.method == "random":
            step = float(rng.uniform(0.0, 1.0)) * mc.rate
        else:
            step = abs(math.sin(mc.rate * k)) * amplitude
        x = x + sign * step
        points.append(x)
        passed.append(judge(x))
        if passed[-1] != passed[0]:
            break
    return np.stack(points), np.array(passed)


def trajectory_bases(kernel):
    spec = default_registry().get(kernel)
    rng = np.random.default_rng(11)
    bases = [rng.uniform(lo, hi, size=(3, 3)) for lo, hi in spec.generation.regions]
    bases += [np.full((3, 3), s) for s in spec.generation.failure_seeds]
    return bases


def assert_walked_step_by_step(kernel, base, mconfigs, rng, ref_rng):
    """run_trajectories gives each schedule the points and verdicts of
    walking it alone, one step at a time, and leaves the generator where
    those walks leave it."""
    trajectories = run_trajectories(kernel, base, mconfigs, rng)
    assert len(trajectories) == len(mconfigs)
    for mc, (points, passed) in zip(mconfigs, trajectories):
        ref_points, ref_passed = walk_step_by_step(kernel, base, mc, ref_rng)
        assert points.shape == ref_points.shape
        assert points.tobytes() == ref_points.tobytes()
        assert passed.tolist() == ref_passed.tolist()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestTrajectories:
    def test_trajectory_stops_at_flip(self):
        mc = MutationConfig("exponential", rate=1.0, direction="up")
        _, passed = run_one("exp", np.full((3, 3), 80.0), mc, np.random.default_rng(0))
        assert passed[0]
        assert not passed[-1]
        assert passed[:-1].all()

    # pixel_bounds: bases as drawn, or clipped into image bounds first, which
    # saturates some at 255 and zeroes others (an all-zero base steps at amplitude 1)
    @pytest.mark.parametrize("pixel_bounds", [None, (0.0, 255.0)])
    @pytest.mark.parametrize("direction", ["up", "down"])
    @pytest.mark.parametrize("method", ["exponential", "random", "sinusoidal"])
    @pytest.mark.parametrize("kernel", ["exp", "Softmax", "CosineSimilarity", "remainder",
                                        "logSoftmax", "inverse", "Div"])
    def test_matches_step_by_step_walk(self, kernel, method, direction, pixel_bounds):
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for base in trajectory_bases(kernel):
            if pixel_bounds is not None:
                base = np.clip(base, *pixel_bounds)
            mconfigs = [MutationConfig(method, rate, direction) for rate in BASE_RATES]
            assert_walked_step_by_step(kernel, base, mconfigs, rng, ref_rng)

    @pytest.mark.parametrize("kernel", ["exp", "Softmax", "CosineSimilarity", "remainder",
                                        "logSoftmax", "inverse", "Div"])
    def test_default_schedules_match_step_by_step_walks(self, kernel):
        # all twelve schedules at once: four stacks, each random one cut
        # while the schedules stacked after it are judged with it
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for base in trajectory_bases(kernel):
            assert_walked_step_by_step(kernel, base, datagen.default_mutation_configs(),
                                       rng, ref_rng)

    def test_a_stack_holds_at_most_one_random_schedule(self):
        stacks = datagen._stacks(datagen.default_mutation_configs())
        assert [[mc.method for mc in stack] for stack in stacks] == [
            ["exponential"] * 4 + ["random"], ["random"], ["random"],
            ["random"] + ["sinusoidal"] * 4]

    @pytest.mark.parametrize("kernel", ["exp", "log", "Softmax", "remainder"])
    def test_every_trajectory_has_at_least_two_points(self, kernel):
        # derive_labels compares the first and last point without a length check
        rng = np.random.default_rng(6)
        for base in trajectory_bases(kernel):
            mconfigs = datagen.default_mutation_configs()
            for mc, (points, passed) in zip(mconfigs, run_trajectories(kernel, base, mconfigs,
                                                                        rng)):
                assert len(points) == len(passed) >= 2
                labels = derive_labels(passed, mc.direction)
                assert len(labels) in (0, len(passed))


def _reference_run_trajectory(kernel, base, mconfig, rng, registry=None):
    """One schedule judged with one oracle call, the loop run_trajectories
    replaced; build_dataset must give the same datasets either way."""
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
    with np.errstate(over="ignore"):
        points = np.cumsum(points, axis=0)
    params = default_params(kernel, start.shape)
    passed = oracle_rows(kernel, params, unit_operand_rows(kernel, points), reg).passed
    flips = np.flatnonzero(passed != passed[0])
    end = int(flips[0]) + 1 if flips.size else len(points)
    if rewind is not None and end < len(points):
        rng.bit_generator.state = rewind
        rng.uniform(0.0, 1.0, size=end - 1)
    return points[:end], passed[:end]


class TestStackedJudging:
    @pytest.mark.parametrize("kernel", IMPLEMENTED)
    def test_dataset_matches_one_oracle_call_per_trajectory(self, kernel, monkeypatch):
        # remainder's flips are rare: it needs a 100-base wave to reach the
        # 100-sample floor of every class
        config = GenerationConfig(n_base=100 if kernel == "remainder" else 20, seed=5,
                                  target_size=600)
        got = build_dataset(kernel, config)

        def one_call_per_trajectory(kernel, base, mconfigs, rng, registry=None):
            return [_reference_run_trajectory(kernel, base, mc, rng, registry)
                    for mc in mconfigs]

        monkeypatch.setattr(datagen, "run_trajectories", one_call_per_trajectory)
        want = build_dataset(kernel, config)
        assert len(got) == len(want) > 0
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()


class TestPersistence:
    def _small(self):
        return build_dataset("log", GenerationConfig(seed=5, n_base=20, target_size=1500))

    def test_round_trip(self, tmp_path):
        ds = self._small()
        path = tmp_path / "log.csv"
        dataset_save(ds, path)
        back = dataset_load(path)
        assert back.kernel == ds.kernel
        assert back.shape == ds.shape
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()
        assert back.zero_epsilon == ds.zero_epsilon == 1e-8

    def test_truncated_file_rejected(self, tmp_path):
        ds = self._small()
        path = tmp_path / "log.csv"
        dataset_save(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(FileFormatError, match="truncated"):
            dataset_load(path)

    # true and 1.0 used to pass the != 1 test
    @pytest.mark.parametrize("version", ["9", "true", "1.0", '"1"'])
    def test_version_mismatch_rejected(self, tmp_path, version):
        ds = self._small()
        path = tmp_path / "log.csv"
        dataset_save(ds, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"format_version": 1', '"format_version": ' + version)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="format_version"):
            dataset_load(path)


class TestLoadChecksFixedFields:
    """dataset_load refuses a header that differs from what every dataset file
    writes; each of these loaded, or failed untyped, before the checks."""

    def _write(self, tmp_path, records=None, drop=None, **changes):
        header, *rows = FIXTURE_DATASET.read_text().splitlines(keepends=True)
        doc = {**json.loads(header), **changes}
        doc.pop(drop, None)
        path = tmp_path / "square.csv"
        path.write_text(json.dumps(doc) + "\n" + "".join(rows if records is None else records))
        return path

    def test_unchanged_copy_loads(self, tmp_path):
        ds = dataset_load(self._write(tmp_path))
        assert ds.zero_epsilon is None and ds.features.shape == (1998, 9)

    @pytest.mark.parametrize("scaling", BAD_SCALINGS.values(), ids=BAD_SCALINGS.keys())
    def test_scaling_rejected(self, tmp_path, scaling):
        with pytest.raises(FileFormatError, match="scaling|zero_epsilon"):
            dataset_load(self._write(tmp_path, scaling=scaling))

    def test_missing_scaling_rejected(self, tmp_path):
        # it used to default to an identity scale with no zero shift
        with pytest.raises(FileFormatError, match="'scaling'"):
            dataset_load(self._write(tmp_path, drop="scaling"))

    def test_feature_len_below_one_rejected(self, tmp_path):
        # moved from featurize, whose callers now only hold checked lengths
        path = self._write(tmp_path, records=[], n_samples=0, feature_len=0)
        with pytest.raises(FileFormatError, match="feature_len must be at least 1, not 0"):
            dataset_load(path)

    def test_n_samples_past_any_address_space_is_read_not_allocated(self, tmp_path):
        # the arrays used to be sized from the header before a record was read,
        # and numpy's MemoryError escaped the loader: the CLI exited 3
        path = self._write(tmp_path, n_samples=10**15)
        with pytest.raises(FileFormatError, match=f"truncated at record 1998 of {10**15}"):
            dataset_load(path)

    def test_negative_n_samples_rejected(self, tmp_path):
        path = self._write(tmp_path, records=[], n_samples=-1)
        with pytest.raises(FileFormatError, match="n_samples must be at least 0, not -1"):
            dataset_load(path)

    @pytest.mark.parametrize("shape,feature_len", [([3, 4], 9), ([3, 3], 10**12)])
    def test_feature_len_other_than_the_size_of_shape_rejected(self, tmp_path, shape,
                                                               feature_len):
        # both loaded: the records of the first have 9 entries, as its feature_len
        # says, and the second asked for the header's 10**12 columns at once
        path = self._write(tmp_path, shape=shape, feature_len=feature_len)
        message = f"feature_len {feature_len} is not the size of shape {shape}"
        with pytest.raises(FileFormatError, match=re.escape(message)):
            dataset_load(path)

    @pytest.mark.parametrize("field,value", [("feature_len", "9"), ("feature_len", 9.7),
                                             ("feature_len", True), ("n_samples", 1998.9),
                                             ("n_samples", "1998")])
    def test_count_that_is_no_int_rejected(self, tmp_path, field, value):
        # int() used to convert or truncate each of these, and 1,998 rows loaded
        with pytest.raises(FileFormatError, match=re.escape(f"{field} {value!r} is not an int")):
            dataset_load(self._write(tmp_path, **{field: value}))

    def test_unknown_label_rejected(self, tmp_path):
        path = self._write(tmp_path, records=["Sideways" + ",1.0" * 9 + "\n"], n_samples=1)
        with pytest.raises(FileFormatError, match="record 0 has unknown label 'Sideways'"):
            dataset_load(path)

    def test_top_level_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "list.csv"
        path.write_text("[1]\n")
        with pytest.raises(FileFormatError, match="not a JSON object"):
            dataset_load(path)

    @pytest.mark.parametrize("kernel", [["square"], 5, None], ids=["list", "number", "null"])
    def test_kernel_that_is_no_string_rejected(self, tmp_path, kernel):
        # a list used to load and train a model that then crashed fuzz
        with pytest.raises(FileFormatError, match=re.escape(f"kernel {kernel!r} is not a string")):
            dataset_load(self._write(tmp_path, kernel=kernel))

    def test_records_past_n_samples_rejected(self, tmp_path):
        # they used to be ignored: the garbage line below loaded as 1,998 rows
        rows = FIXTURE_DATASET.read_text().splitlines(keepends=True)[1:]
        path = self._write(tmp_path, records=rows + [rows[0], "garbage,not,a,row\n"])
        with pytest.raises(FileFormatError, match="records past its 1998 samples"):
            dataset_load(path)

    @pytest.mark.parametrize("shape", BAD_SHAPES.values(), ids=BAD_SHAPES.keys())
    def test_shape_that_is_no_list_of_sizes_rejected(self, tmp_path, shape):
        # "abc" used to load as ('a', 'b', 'c'), and train wrote it into the model
        with pytest.raises(FileFormatError, match="is not a list of ints of at least 1"):
            dataset_load(self._write(tmp_path, shape=shape))

    def test_config_that_is_no_object_rejected(self, tmp_path):
        # it used to load as Dataset.config == 5
        with pytest.raises(FileFormatError, match="config 5 is not a JSON object"):
            dataset_load(self._write(tmp_path, config=5))

    @pytest.mark.parametrize("records, changes", [
        (["NoChange" + ",1.0" * 9 + "\n"], {"n_samples": 2}),
        (["NoChange" + ",1.0" * 8 + "\n"], {"n_samples": 1}),
        (["Sideways" + ",1.0" * 9 + "\n"], {"n_samples": 1}),
        (["NoChange" + ",1.0" * 9 + "\n"] * 2, {"n_samples": 1}),
        (None, {"class_counts": {"NoChange": 1}}),
    ], ids=["truncated", "feature_count", "unknown_label", "past_n_samples", "class_counts"])
    def test_record_errors_name_the_file(self, tmp_path, records, changes):
        # these five were raised past the clause that names the file, so
        # `safuzz train` printed e.g. "error: record 4 has unknown label 'Bogus'"
        path = self._write(tmp_path, records=records, **changes)
        with pytest.raises(FileFormatError, match=re.escape(f"cannot load dataset {path}: ")):
            dataset_load(path)

    def test_a_feature_that_is_no_number_names_its_record(self, tmp_path):
        # the message used to be "could not convert string to float: 'abc'" alone
        rows = FIXTURE_DATASET.read_text().splitlines(keepends=True)[1:]
        label, *features = rows[4].split(",")
        rows[4] = ",".join([label, features[0], "abc", *features[2:]])
        path = self._write(tmp_path, records=rows)
        with pytest.raises(FileFormatError, match=re.escape(
                f"cannot load dataset {path}: record 4: could not convert string to float: 'abc'")):
            dataset_load(path)

    def test_class_counts_that_differ_from_the_records_rejected(self, tmp_path):
        # the header was never read: the records still counted 500/749/749
        path = self._write(tmp_path, class_counts={"NoChange": 1})
        with pytest.raises(FileFormatError, match=re.escape(
                "class_counts {'NoChange': 1} differ from the records' "
                "{'NoChange': 500, 'Decrease': 749, 'Increase': 749}")):
            dataset_load(path)
