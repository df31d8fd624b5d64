"""Training-data generation: trajectories, labels, balancing, persistence."""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safuzz import datagen
from safuzz.datagen import (
    BASE_RATES,
    DEFAULT_REGIONS,
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
    run_trajectory,
    step_sizes,
)
from safuzz.errors import FileFormatError, GenerationFailure, UsageError
from safuzz.kernels import default_params, unit_operand_rows
from safuzz.registry import Registry, default_registry
from test_oracles import IMPLEMENTED, judge_one


def trajectory(*points):
    """(value, passed) pairs as the arrays run_trajectory returns."""
    values, passed = zip(*points)
    return np.array(values, dtype=np.float64).reshape(-1, 1), np.array(passed)


def labelled(points, passed, direction="up"):
    """(value, label) for each point derive_labels labels."""
    labels = derive_labels(passed, direction)
    return [(float(v), label) for v, label in zip(points[:len(labels), 0], labels)]


def with_hints(kernel, hints):
    """The shipped registry with the kernel's generation hints replaced (None: no hints)."""
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

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("method", ["random", "sinusoidal"])
    def test_mutation_rate_not_positive_and_finite_rejected(self, method, rate):
        # an infinite sinusoidal rate used to load, and its schedule raised a bare ValueError
        with pytest.raises(UsageError, match="rate must be positive and finite"):
            MutationConfig(method, rate=rate)

    def test_exponential_rate_whose_last_step_overflows_rejected(self):
        # exp(7.2 * MAX_STEPS) overflows a double; exp(7.0 * MAX_STEPS) does not.
        # It used to load, and a walk that reached the overflowing step raised
        # a bare OverflowError
        with pytest.raises(UsageError, match="exponential rate 7.2 overflows a double"):
            MutationConfig("exponential", rate=7.2)
        MutationConfig("exponential", rate=7.0)
        MutationConfig("random", rate=10.0)  # only the exponential schedule grows

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_accepted_exponential_rate_walks_its_whole_budget(self):
        # the largest rate whose last step fits a double, and the next one
        largest = math.log(np.finfo(np.float64).max) / MAX_STEPS
        with pytest.raises(UsageError):
            MutationConfig("exponential", rate=float(np.nextafter(largest, np.inf)))
        # exp never fails going down, so the walk takes every step. At the
        # largest rate the running sum leaves float64's range: inf is data
        for rate, finite in ((7.0, True), (largest, False)):
            mc = MutationConfig("exponential", rate=rate, direction="down")
            points, passed = run_trajectory("exp", np.full((3, 3), -80.0), mc,
                                            np.random.default_rng(0))
            assert len(points) == MAX_STEPS + 1 and passed.all()
            assert np.isfinite(points).all() == finite


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
    """Step sizes, and the steps run_trajectory takes with them."""

    def test_exponential_formula(self):
        mc = MutationConfig("exponential", rate=1.0, direction="up")
        sizes = step_sizes(mc, np.random.default_rng(0), 1)
        assert sizes.tolist() == pytest.approx([math.e])

    def test_sinusoidal_unit_peak(self):
        mc = MutationConfig("sinusoidal", rate=math.pi / 2, direction="up")
        sizes = step_sizes(mc, np.random.default_rng(0), 1)
        assert sizes.tolist() == pytest.approx([1.0])

    def test_random_step_bounded_by_rate(self):
        mc = MutationConfig("random", rate=2.0)
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
        points, _ = run_trajectory("exp", base, mc, np.random.default_rng(0))
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

    def test_short_trajectory_rejected(self):
        with pytest.raises(UsageError):
            derive_labels(np.array([True]), "up")

    @given(st.lists(st.booleans(), min_size=2, max_size=12),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_never_both_directions_for_one_value(self, outcomes, up):
        step = 1.0 if up else -1.0
        flips = [i for i, passed in enumerate(outcomes) if passed != outcomes[0]]
        if flips:  # cut at the first flip, as run_trajectory cuts
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

    def test_empty_tensor_rejected(self):
        with pytest.raises(UsageError):
            featurize(np.array([]), 9)

    def test_unknown_feature_len_rejected(self):
        # a feature length below 1 names no features; any other length is served
        for feature_len in (0, -1):
            with pytest.raises(UsageError):
                featurize(np.array([1.0]), feature_len)

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
        out = apply_scaling(self.RAW, {"scale": 1.0, "offset": 0.0, "zero_epsilon": 1e-8})
        assert (out != 0.0).all()
        assert (out == np.where(self.RAW == 0.0, 1e-8, self.RAW)).all()

    def test_identity_scale_keeps_values(self):
        # without an epsilon (a kernel defined at zero) no shift applies
        out = apply_scaling(self.RAW, {"scale": 1.0, "offset": 0.0, "zero_epsilon": None})
        assert out.tobytes() == self.RAW.tobytes()
        assert out is not self.RAW

    def test_replay_is_bit_identical(self):
        # log's hint shifts its zeros (the failure seed 0.0 is a base); without
        # the hint the same rows come out unscaled, and replaying the recorded
        # scaling on them gives the shipped dataset's bytes
        config = GenerationConfig(seed=5, n_base=20, target_size=1500)
        ds = build_dataset("log", config)
        unshifted = with_hints("log", hints_of("log", zero_epsilon=None))
        raw = build_dataset("log", config, registry=unshifted)
        assert ds.scaling == {"scale": 1.0, "offset": 0.0, "zero_epsilon": 1e-8}
        assert (raw.features == 0.0).any()
        assert raw.labels.tobytes() == ds.labels.tobytes()
        assert apply_scaling(raw.features, ds.scaling).tobytes() == ds.features.tobytes()

    def test_replay_applies_a_recorded_affine_scale(self):
        # a dataset or model file may record any scale and offset
        raw = self.RAW
        scaling = {"scale": 2.0, "offset": -2.0, "zero_epsilon": 1e-8}
        want = np.where(raw * 2.0 - 2.0 == 0.0, 1e-8, raw * 2.0 - 2.0)
        assert (want == 1e-8).any()
        assert apply_scaling(raw, scaling).tobytes() == want.tobytes()


class TestBuildDataset:
    SMALL = dict(n_base=30, target_size=3000)

    def test_exp_dataset_balanced(self):
        ds = build_dataset("exp", GenerationConfig(seed=3, **self.SMALL))
        counts = ds.class_counts()
        # exp's failure region is one-sided: increase and no-change only
        assert set(counts) == {"NoChange", "Increase"}
        assert ds.scaling["zero_epsilon"] is None  # exp is defined at zero
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

    def test_regions_from_hints_or_the_default(self):
        config = GenerationConfig(seed=3, **self.SMALL)
        hinted = build_dataset("exp", config)
        assert hinted.config["regions"] == [
            list(r) for r in default_registry().get("exp").generation.regions]
        plain = build_dataset("exp", config, registry=with_hints("exp", None))
        assert plain.config["regions"] == [list(r) for r in DEFAULT_REGIONS]
        assert plain.features.tobytes() != hinted.features.tobytes()
        # retired settings stay in the header at their one value
        assert plain.config["mutations_per_base"] == 100
        assert plain.config["pixel_bounds"] is None

    def test_deterministic_under_seed(self):
        a = build_dataset("log", GenerationConfig(seed=5, **self.SMALL))
        b = build_dataset("log", GenerationConfig(seed=5, **self.SMALL))
        assert a.scaling["zero_epsilon"] == 1e-8  # the registry's hint for log
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
        # derive_labels labels by the configured direction, not by the points
        seen = []

        def recording(kernel, base, mconfig, rng, registry=None):
            points, passed = run_trajectory(kernel, base, mconfig, rng, registry)
            seen.append((mconfig.direction, points, passed))
            return points, passed

        monkeypatch.setattr(datagen, "run_trajectory", recording)
        build_dataset(kernel, GenerationConfig(n_base=10, seed=1, target_size=1000))
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
        scaling = ds.scaling
        rows = ds.features[ds.labels == int(Signal.NO_CHANGE)][:50]
        for row in rows:
            raw = (row - scaling["offset"]) / scaling["scale"]
            x = raw.reshape(ds.shape)
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


class TestTrajectories:
    def test_trajectory_stops_at_flip(self):
        mc = MutationConfig("exponential", rate=1.0, direction="up")
        _, passed = run_trajectory("exp", np.full((3, 3), 80.0), mc,
                                   np.random.default_rng(0))
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
            for rate in BASE_RATES:
                mc = MutationConfig(method, rate, direction)
                points, passed = run_trajectory(kernel, base, mc, rng)
                ref_points, ref_passed = walk_step_by_step(kernel, base, mc, ref_rng)
                assert points.shape == ref_points.shape
                assert points.tobytes() == ref_points.tobytes()
                assert passed.tolist() == ref_passed.tolist()
                assert rng.bit_generator.state == ref_rng.bit_generator.state


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
        assert back.scaling == ds.scaling

    def test_truncated_file_rejected(self, tmp_path):
        ds = self._small()
        path = tmp_path / "log.csv"
        dataset_save(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(FileFormatError, match="truncated"):
            dataset_load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        ds = self._small()
        path = tmp_path / "log.csv"
        dataset_save(ds, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"format_version": 1', '"format_version": 9')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="format_version"):
            dataset_load(path)
