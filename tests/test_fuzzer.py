"""The guided search: scanning, signal propagation, constraints, site loops.

Unit tests steer fuzz_site with small direction functions of the entry row
(thresholds on one feature, as a one-tree forest cuts it) so no training is
needed; fuzz_program and the loops' reference checks use the fixture forests.
"""

import dataclasses
import logging
import time
from pathlib import Path

import numpy as np
import pytest

from safuzz import autodiff, fuzzer, kernels, oracles
from safuzz.autodiff import constant_gradient, forward_rows
from safuzz.corpus import corpus_manifest
from safuzz.datagen import Signal, apply_scaling, featurize
from safuzz.errors import UsageError
from safuzz.forest import model_load, predict
from safuzz.fuzzer import (
    CHUNK_CAP,
    Bounds,
    FuzzConfig,
    MAX_RESETS,
    GRAD_FLOOR,
    FuzzResult,
    _initial_inputs,
    constrain_update,
    fuzz_program,
    fuzz_site,
    propagate_signal,
    random_fuzz_program,
    random_fuzz_site,
    scan_for_unstable,
    soft_assertion,
    validate_failure,
)
from safuzz.graph import Graph, InputDecl, Node
from safuzz.oracles import FailureClass, oracle_rows
from safuzz.registry import default_registry

FIXTURE_MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "models"


def fixture_forest(kernel):
    return model_load(FIXTURE_MODELS / f"{kernel}.json")


def asking(direction):
    """direction, and the entry rows it is asked about."""
    entries = []

    def asked(entry):
        entries.append(entry)
        return direction(entry)

    return asked, entries


def exp_graph(shape=(3, 3)):
    return Graph([InputDecl("x", shape, bounds=(-10.0, 10.0))],
                 [Node("y", "exp", ("x",))], "y")


def first(entry):
    """Feature 0 of featurize(entry, 9): a 9-element entry's first element, else its minimum."""
    return float(entry.flat[0] if entry.size == 9 else entry.min())


def last(entry):
    """Feature 8: a 9-element entry's last element, else its maximum."""
    return float(entry.flat[-1] if entry.size == 9 else entry.max())


def piecewise(*pieces, otherwise=Signal.NO_CHANGE, feature=first):
    """The direction of a one-tree forest cut at ascending bounds: the signal
    of the first (bound, signal) piece whose bound the feature is at or
    under, else `otherwise` (past every bound, or NaN)."""
    def direction(entry):
        x = feature(entry)
        return next((signal for bound, signal in pieces if x <= bound), otherwise)
    return direction


# increase up to the exp overflow bound, no-change above
EXP = piecewise((88.7229, Signal.INCREASE))
LOG = piecewise((0.0, Signal.NO_CHANGE), otherwise=Signal.DECREASE, feature=last)


class TestScan:
    def test_single_site(self):
        scan = scan_for_unstable(exp_graph())
        assert len(scan.sites) == 1
        site = scan.sites[0]
        assert site.kernel == "exp" and site.node_id == "y"
        assert site.entry_node == "x"

    def test_stable_helpers_are_not_sites(self):
        g = Graph([InputDecl("x", (2,))],
                  [Node("a", "scale", ("x",), {"factor": 2.0}),
                   Node("b", "add", ("a", "a"))], "b")
        scan = scan_for_unstable(g)
        assert scan.sites == [] and scan.diagnostics == []

    def test_unimplemented_registry_op_is_diagnostic(self):
        reg = default_registry()
        g = Graph([InputDecl("x", (2, 2))], [Node("y", "SVD", ("x",))], "y",
                  extra_ops=frozenset(reg.entries))
        scan = scan_for_unstable(g, reg)
        assert scan.sites == []
        assert len(scan.diagnostics) == 1 and "SVD" in scan.diagnostics[0]

    def test_sites_in_topological_order(self):
        g = Graph([InputDecl("x", (3, 3))],
                  [Node("a", "square", ("x",)), Node("b", "sum", ("a",)),
                   Node("c", "sqrt", ("b",))], "c")
        scan = scan_for_unstable(g)
        assert [s.node_id for s in scan.sites] == ["a", "b", "c"]

    def test_div_entry_is_denominator(self):
        g = Graph([InputDecl("n", (2,)), InputDecl("d", (2,))],
                  [Node("y", "Div", ("n", "d"))], "y")
        assert scan_for_unstable(g).sites[0].entry_node == "d"

    def test_stop_is_the_last_operand_in_topological_order(self):
        # or the first operand, when every operand is a program input
        g = Graph([InputDecl("n", (2,)), InputDecl("d", (2,))],
                  [Node("y", "Div", ("n", "d")), Node("a", "square", ("n",)),
                   Node("z", "Div", ("a", "d"))], "z")
        assert [s.stop for s in scan_for_unstable(g).sites] == ["n", "n", "a"]
        # Div(one, a), where a comes before the constant one
        square_div = TestLoopsMatchReference.SQUARE_DIV
        assert [s.stop for s in scan_for_unstable(square_div).sites] == ["x", "one"]


class TestPropagateSignal:
    def _forward_and_site(self, factor):
        g = Graph([InputDecl("x", (1,))],
                  [Node("e", "scale", ("x",), {"factor": factor}),
                   Node("y", "exp", ("e",))], "y")
        site = scan_for_unstable(g).sites[0]
        evaluated = forward_rows(g, [np.array([[1.0]])], np.float32, site.entry_node)
        return g, site, evaluated

    def test_positive_gradient(self):
        g, site, evaluated = self._forward_and_site(2.0)
        step = propagate_signal(g, site, evaluated, rate=1.0)
        assert step["x"].tolist() == [0.5]

    def test_negative_gradient_flips_sign(self):
        # the Decrease delta is the step times -1.0
        g, site, evaluated = self._forward_and_site(-0.5)
        step = propagate_signal(g, site, evaluated, rate=1.0)
        assert step["x"].tolist() == [-2.0] and (step["x"] * -1.0).tolist() == [2.0]

    def test_zero_gradient_clamped(self):
        g, site, evaluated = self._forward_and_site(0.0)
        step = propagate_signal(g, site, evaluated, rate=1.0)
        assert step["x"].tolist() == [1e6]

    # the step times a sign has the bits of (sign * rate) / clamped, a NaN's sign bit
    # included: a negated step would flip it
    GRADS = (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-9, -1e-9, 2.5, -0.25, 1e-300,
             3e300)
    RATES = (1.0, 0.37, 1e37, 1e-300)

    def test_clamp_of_special_gradients_is_bit_identical(self, monkeypatch):
        n = len(self.GRADS)
        g = Graph([InputDecl("x", (n,))], [Node("y", "exp", ("x",))], "y")
        site = scan_for_unstable(g).sites[0]
        evaluated = forward_rows(g, [np.zeros((1, n))], np.float32, site.entry_node)
        grad = np.array(self.GRADS)
        monkeypatch.setattr(fuzzer, "backward", lambda *args: [grad.copy()])
        clamped = np.where(grad < 0, -1.0, 1.0) * np.maximum(np.abs(grad), GRAD_FLOOR)
        for rate in self.RATES:
            step = propagate_signal(g, site, evaluated, rate)["x"]
            for s in (1.0, -1.0):
                assert (step * s).tobytes() == ((s * rate) / clamped).tobytes()

    def test_clamp_at_rank_zero(self, monkeypatch):
        g = Graph([InputDecl("x", ())], [Node("y", "exp", ("x",))], "y")
        site = scan_for_unstable(g).sites[0]
        evaluated = forward_rows(g, [np.zeros(1)], np.float32, site.entry_node)
        for value in self.GRADS:
            grad = np.array([value])
            clamped = np.where(grad < 0, -1.0, 1.0) * np.maximum(np.abs(grad), GRAD_FLOOR)
            monkeypatch.setattr(fuzzer, "backward", lambda *args: [np.array(value)])
            for rate in self.RATES:
                step = propagate_signal(g, site, evaluated, rate)["x"]
                assert np.shape(step) == ()
                for s in (1.0, -1.0):
                    assert np.asarray(step * s).tobytes() == ((s * rate) / clamped).tobytes()


class TestConstrainUpdate:
    def test_interval_midpoint(self):
        # increase issued at 10, decrease at 100: constraint 10 < x < 100
        bounds = Bounds.unconstrained((1,))
        x = constrain_update(np.array([10.0]), np.array([5.0]), bounds,
                             Signal.INCREASE)
        x = constrain_update(np.array([100.0]), np.array([-5.0]), bounds,
                             Signal.DECREASE)
        assert bounds.lower.tolist() == [10.0]
        assert bounds.upper.tolist() == [100.0]
        assert x.tolist() == [55.0]

    def test_plain_step_without_history(self):
        bounds = Bounds.unconstrained((1,))
        x = constrain_update(np.array([1.0]), np.array([0.5]), bounds,
                             Signal.INCREASE)
        assert x.tolist() == [1.5]

    def test_contradictory_bounds_reset(self):
        bounds = Bounds(lower=np.array([50.0]), upper=np.array([40.0]))
        x = constrain_update(np.array([0.0]), np.array([0.5]), bounds,
                             Signal.NO_CHANGE)
        assert np.isneginf(bounds.lower[0]) and np.isposinf(bounds.upper[0])
        assert x.tolist() == [0.5]

    def test_one_sided_clamp_stays_inside(self):
        bounds = Bounds(lower=np.array([2.0]), upper=np.array([np.inf]))
        x = constrain_update(np.array([3.0]), np.array([-10.0]), bounds,
                             Signal.NO_CHANGE)
        assert x[0] > 2.0

    def test_bounds_monotone_between_resets(self):
        rng = np.random.default_rng(0)
        bounds = Bounds.unconstrained((3,))
        x = rng.uniform(-5, 5, size=3)
        prev_lo, prev_hi = bounds.lower.copy(), bounds.upper.copy()
        for _ in range(50):
            signal = Signal.INCREASE if rng.uniform() < 0.5 else Signal.DECREASE
            x = constrain_update(x, rng.uniform(-1, 1, size=3), bounds, signal)
            widened = (bounds.lower < prev_lo) | (bounds.upper > prev_hi)
            was_reset = np.isneginf(bounds.lower) & np.isposinf(bounds.upper)
            assert (~widened | was_reset).all()
            prev_lo, prev_hi = bounds.lower.copy(), bounds.upper.copy()


    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 3))))
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])

        def draw(p_special=0.15):
            v = rng.uniform(-5, 5, size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
            hit = rng.random(shape) < p_special
            v[hit] = rng.choice(special, size=int(hit.sum()))
            return v

        lower, upper = draw(), draw()  # about half the elements contradict
        lower[rng.random(shape) < 0.3] = -np.inf
        upper[rng.random(shape) < 0.3] = np.inf
        got_bounds = Bounds(lower.copy(), upper.copy())
        want_bounds = Bounds(lower.copy(), upper.copy())
        x = draw(0.05)
        for _ in range(30):
            signal = Signal(int(rng.integers(0, 3)))
            delta = draw(0.05)
            x_before = x.copy()
            got = constrain_update(x, delta, got_bounds, signal)
            want = _reference_constrain_update(x.copy(), delta.copy(), want_bounds, signal)
            assert x.tobytes() == x_before.tobytes()
            assert got.tobytes() == want.tobytes()
            assert got_bounds.lower.tobytes() == want_bounds.lower.tobytes()
            assert got_bounds.upper.tobytes() == want_bounds.upper.tobytes()
            x = got

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_zero_matches_one_element_reference(self, seed):
        rng = np.random.default_rng(seed)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0]

        def draw(p_special=0.15):
            if rng.random() < p_special:
                return rng.choice(special)
            return rng.uniform(-5, 5) * 10.0 ** rng.integers(-12, 12)

        lower, upper = draw(), draw()
        got_bounds = Bounds(np.array(lower), np.array(upper))
        want_bounds = Bounds(np.array([lower]), np.array([upper]))
        x = np.array(draw(0.05))
        for _ in range(60):
            signal = Signal(int(rng.integers(0, 3)))
            delta = np.array(draw(0.05))
            got = constrain_update(x, delta, got_bounds, signal)
            want = _reference_constrain_update(x.reshape(1), delta.reshape(1),
                                               want_bounds, signal)
            assert got.shape == got_bounds.lower.shape == got_bounds.upper.shape == ()
            assert got.tobytes() == want.tobytes()
            assert got_bounds.lower.tobytes() == want_bounds.lower.tobytes()
            assert got_bounds.upper.tobytes() == want_bounds.upper.tobytes()
            x = got


def _reference_constrain_update(x, delta, bounds, signal):
    """constrain_update as first written: every candidate rebuilt with np.where."""
    if signal is Signal.INCREASE:
        bounds.lower = np.maximum(bounds.lower, x)
    elif signal is Signal.DECREASE:
        bounds.upper = np.minimum(bounds.upper, x)
    violated = bounds.lower > bounds.upper
    if violated.any():
        bounds.lower[violated] = -np.inf
        bounds.upper[violated] = np.inf
    with np.errstate(invalid="ignore"):
        candidate = x + delta
        lo_fin = np.isfinite(bounds.lower)
        hi_fin = np.isfinite(bounds.upper)
        both = lo_fin & hi_fin
        candidate = np.where(both, 0.5 * (bounds.lower + bounds.upper), candidate)
        lo_only = lo_fin & ~hi_fin
        margin_lo = 1e-9 * np.maximum(1.0, np.abs(bounds.lower))
        candidate = np.where(
            lo_only & (candidate <= bounds.lower), bounds.lower + margin_lo, candidate
        )
        hi_only = hi_fin & ~lo_fin
        margin_hi = 1e-9 * np.maximum(1.0, np.abs(bounds.upper))
        candidate = np.where(
            hi_only & (candidate >= bounds.upper), bounds.upper - margin_hi, candidate
        )
    return candidate


class TestValidateFailure:
    def test_exp_entry_89(self):
        g = exp_graph()
        site = scan_for_unstable(g).sites[0]
        verdict = validate_failure(g, site, [np.full((3, 3), 89.0)])
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.NAN_OR_INF

    def test_log_entry_one_passes(self):
        g = Graph([InputDecl("x", (1,))], [Node("y", "log", ("x",))], "y")
        site = scan_for_unstable(g).sites[0]
        assert validate_failure(g, site, [np.array([1.0])]).passed

    def test_cosine_fig1_values(self):
        g = Graph(
            [InputDecl("y", (3,))],
            [Node("c", "constant", (), {"value": [2606.66824394, 2477.72226966,
                                                  3251.84008903]}),
             Node("sim", "CosineSimilarity", ("y", "c"))],
            "sim",
        )
        site = scan_for_unstable(g).sites[0]
        fig1_y = [2.39482538431398614e-09, 7.39647891389834008e-09,
                  4.96805019548943425e-09]
        verdict = validate_failure(g, site, [np.array(fig1_y)])
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.REFERENCE_MISMATCH

    def test_pow_judged_with_its_own_exponent(self):
        # x ** 2 at 1e13 is a finite 1e26 in single precision; x ** 3 would overflow
        g = Graph([InputDecl("x", (1,))], [Node("y", "pow", ("x",), {"exponent": 2.0})], "y")
        x = [np.array([1e13])]
        assert np.isfinite(forward_rows(g, [x[0][None]], np.float32, "y")["y"]).all()
        assert validate_failure(g, scan_for_unstable(g).sites[0], x).passed

    def test_linear_judged_with_its_own_weight(self):
        # the node maps 3e38 to a finite 3e8; the seeded default weight overflows
        params = {"weight": (1e-30 * np.eye(3)).tolist(), "bias": [0.0, 0.0, 0.0]}
        g = Graph([InputDecl("x", (3,))], [Node("y", "linear", ("x",), params)], "y")
        x = [np.full(3, 3e38)]
        assert np.isfinite(forward_rows(g, [x[0][None]], np.float32, "y")["y"]).all()
        assert validate_failure(g, scan_for_unstable(g).sites[0], x).passed


class TestFuzzSite:
    def test_exp_found_with_overflowing_entry(self):
        g = exp_graph()
        site = scan_for_unstable(g).sites[0]
        config = FuzzConfig(seed=0, timeout=30.0)
        result = fuzz_site(g, site, EXP, config, np.random.default_rng(0))
        assert result.found
        entry = np.asarray(result.failing_input["x"])
        assert entry.max() > 88.72
        out = forward_rows(g, [entry[None]], np.float32, "y")["y"]
        assert np.isposinf(out).any()

    def test_log_found_below_zero(self):
        g = Graph([InputDecl("x", (3, 3), bounds=(4.0, 6.0))],
                  [Node("y", "log", ("x",))], "y")
        site = scan_for_unstable(g).sites[0]
        result = fuzz_site(g, site, LOG, FuzzConfig(seed=1, timeout=30.0),
                           np.random.default_rng(1))
        assert result.found
        assert result.verdict.failure_class is FailureClass.NAN_OR_INF
        # replaying the stored input reproduces the verdict
        replay = validate_failure(g, site, [np.array(result.failing_input["x"])])
        assert replay.failure_class is result.verdict.failure_class

    def test_clamped_safe_program_exhausts(self):
        g = Graph([InputDecl("x", (3, 3), bounds=(0.0, 1.0), clamp=True)],
                  [Node("y", "sigmoid", ("x",))], "y")
        site = scan_for_unstable(g).sites[0]
        # the clamp keeps the entry under 88.7229, where EXP says increase
        config = FuzzConfig(seed=0, timeout=30.0, max_iters=200)
        result = fuzz_site(g, site, EXP, config, np.random.default_rng(0))
        assert result.status == "Exhausted" and result.iterations == 200

    @pytest.mark.parametrize("field", [{"rate": 0.0}, {"rate": -1.0},
                                       {"rate": float("nan")}, {"max_iters": 0},
                                       {"timeout": 0.0}, {"timeout": float("nan")},
                                       {"rate": float("inf")}],
                             ids=["zero_rate", "negative_rate", "nan_rate", "no_iterations",
                                  "zero_timeout", "nan_timeout", "inf_rate"])
    def test_config_rejects_steps_that_cannot_search(self, field):
        # a negative rate inverts every signal, a zero rate never moves the
        # input, and an infinite one sends it to infinity in one step
        with pytest.raises(UsageError):
            FuzzConfig(**field)

    def test_config_accepts_an_infinite_timeout(self):
        assert FuzzConfig(timeout=float("inf")).timeout == float("inf")

    def test_reproducible_iteration_counts(self):
        g = exp_graph()
        site = scan_for_unstable(g).sites[0]
        config = FuzzConfig(seed=7, timeout=30.0)
        runs = [fuzz_site(g, site, EXP, config, rng) for rng in TestLoopsMatchReference._rngs(7, 0)]
        assert runs[0].iterations == runs[1].iterations
        assert runs[0].failing_input == runs[1].failing_input
        assert runs[0].resets == runs[1].resets


class TestDirection:
    """fuzz_site asks its direction once per step it runs; soft_assertion,
    the paper's direction, is the forest's vote on the entry's features."""

    @pytest.mark.parametrize("kernel", sorted(path.stem for path in FIXTURE_MODELS.glob("*.json")))
    def test_soft_assertion_is_the_vote_on_the_scaled_features(self, kernel):
        forest, rng, votes = fixture_forest(kernel), np.random.default_rng(0), set()
        for size in ((1, *forest.shape), (1, 1), (1, 4), (1, 30)):
            for k in range(20):  # about k / 20 of entry k's values are 0.0, -0.0, inf or NaN
                entry = rng.uniform(-5, 5, size) * 10.0 ** rng.integers(-30, 31, size)
                hit = rng.random(size) < k / 20
                entry[hit] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], np.count_nonzero(hit))
                entry = entry.astype(np.float32)
                want = predict(forest, apply_scaling(featurize(entry, forest.feature_len),
                                                     forest.zero_epsilon))
                assert soft_assertion(forest)(entry) is want, (size, k)
                votes.add(want)
        assert len(votes) > 1

    @pytest.mark.parametrize("name, model, seed, tail", [
        ("bounded_sigmoid_clean", "sigmoid", 0, True),  # a fixed point: the tail is not run
        ("exp_overflow", "exp", 3, False),  # 51 resets
    ])
    def test_asked_once_per_step_run(self, monkeypatch, name, model, seed, tail):
        # about the float32 entry row the step's forward computed
        _, graph, site = _corpus_program(name)
        forwards = []  # the steps' forward of the first input, then one per step run

        def forward(*args):
            forwards.append(autodiff.forward_rows(*args))
            return forwards[-1]

        monkeypatch.setattr(fuzzer, "forward_rows", forward)
        asked, entries = asking(soft_assertion(fixture_forest(model)))
        result = fuzz_site(graph, site, asked, FuzzConfig(seed=seed, max_iters=2000),
                           np.random.default_rng(seed))
        assert all(entry is rows[site.entry_node]
                   for entry, rows in zip(entries, forwards[1:], strict=True))
        assert {(e.dtype, e.shape) for e in entries} == {(np.dtype(np.float32), (1, 3, 3))}
        assert (len(entries) < result.iterations) is tail


class TestRandomBaseline:
    def test_finds_log_quickly(self):
        g = Graph([InputDecl("x", (1,), bounds=(0.1, 1.0))],
                  [Node("y", "log", ("x",))], "y")
        site = scan_for_unstable(g).sites[0]
        result = random_fuzz_site(g, site, FuzzConfig(seed=3, timeout=30.0),
                                  np.random.default_rng(3))
        assert result.found

    def test_exhausts_on_clamped_program(self):
        g = Graph([InputDecl("x", (3, 3), bounds=(0.0, 1.0), clamp=True)],
                  [Node("y", "sigmoid", ("x",))], "y")
        site = scan_for_unstable(g).sites[0]
        result = random_fuzz_site(g, site, FuzzConfig(seed=0, max_iters=100),
                                  np.random.default_rng(0))
        assert result.status == "Exhausted"


class TestFuzzProgram:
    def test_one_site_program(self):
        results, diags = fuzz_program(exp_graph(), None, [fixture_forest("exp")],
                                      FuzzConfig(seed=0, timeout=30.0))
        assert len(results) == 1 and results[0].found

    def test_three_sites_in_order(self):
        g = Graph([InputDecl("x", (3, 3), bounds=(0.5, 2.0))],
                  [Node("a", "square", ("x",)), Node("b", "sum", ("a",)),
                   Node("c", "sqrt", ("b",))], "c")
        forests = [fixture_forest(kernel) for kernel in ("sqrt", "square", "sum")]
        config = FuzzConfig(seed=0, timeout=5.0, max_iters=50)
        results, _ = fuzz_program(g, None, forests, config)
        assert [r.site.node_id for r in results] == ["a", "b", "c"]

    def test_missing_model_is_diagnostic(self):
        results, diags = fuzz_program(exp_graph(), None, [fixture_forest("log")],
                                      FuzzConfig(seed=0, max_iters=10))
        assert results == []
        assert any("no trained model" in d for d in diags)

    def test_two_models_of_one_kernel_is_usage_error(self):
        # one forest serves every entry size; a second one used to be picked
        # silently by its feature length
        exp, log = fixture_forest("exp"), fixture_forest("log")
        wide = dataclasses.replace(exp, shape=(4, 4), feature_len=16)
        for models in ([exp, wide], [log, exp, exp]):
            with pytest.raises(UsageError, match="more than one model for kernel 'exp'"):
                fuzz_program(exp_graph(), None, models, FuzzConfig(seed=0, max_iters=10))

    def test_a_forward_skips_a_registry_only_op(self, monkeypatch):
        # sin is in the database with no executable implementation, so the exp
        # it feeds is no site; every forward to the other exp's stop, scale,
        # passes both of them by
        reg = default_registry()
        g = Graph([InputDecl("x", (3, 3))],
                  [Node("s", "sin", ("x",)), Node("t", "exp", ("s",)),
                   Node("a", "scale", ("x",), {"factor": 4.0}), Node("y", "exp", ("a",))],
                  "y", extra_ops=frozenset(reg.entries))
        evaluated = []

        def forward(*args):
            rows = autodiff.forward_rows(*args)
            evaluated.append(set(rows))
            return rows

        monkeypatch.setattr(fuzzer, "forward_rows", forward)
        results, diags = fuzz_program(g, reg, [fixture_forest("exp")],
                                      FuzzConfig(seed=0, max_iters=2000))
        assert [(r.site.node_id, r.site.stop) for r in results] == [("y", "a")]
        assert results[0].found and not results[0].found_at_init
        assert results[0].verdict.failure_class is FailureClass.NAN_OR_INF
        assert diags == ["node 's': unstable function 'sin' is in the database but has no "
                         "soft assertion available",
                         "node 't': an operand needs an op with no implementation"]
        assert evaluated and all(keys == {"x", "a"} for keys in evaluated)
        # the random baseline reports the same scan diagnostics
        assert random_fuzz_program(g, reg, FuzzConfig(seed=0, max_iters=10))[1] == diags


class TestRandomFuzzProgram:
    def test_every_site_seeded_as_the_guided_driver_seeds_it(self):
        g = Graph([InputDecl("x", (3, 3))],
                  [Node("a", "exp", ("x",)), Node("b", "sinh", ("x",))], "b")
        config = FuzzConfig(seed=1, rate=5.0, max_iters=2000)
        guided, diags = fuzz_program(g, None, [fixture_forest("exp")], config)
        assert [r.site.node_id for r in guided] == ["a"]
        assert diags == ["site 'b' (sinh): no trained model; skipped"]

        results, diags = random_fuzz_program(g, None, config)
        assert diags == []  # it skips no site
        sites = scan_for_unstable(g).sites
        assert [r.site for r in results] == sites
        assert all(r.found for r in results)  # the site with no model included
        for index, (site, got) in enumerate(zip(sites, results)):
            rng = np.random.default_rng(np.random.SeedSequence([1, index]))
            want = random_fuzz_site(g, site, config, rng)
            # repr: a failing input may hold NaN, which never compares equal
            assert repr(dataclasses.replace(got, wall_time=0.0)) == \
                repr(dataclasses.replace(want, wall_time=0.0))


# ---------------------------------------------------------------------------
# one judge: validation's verdict, and the double-shadow rule
# ---------------------------------------------------------------------------

def _corpus_sites():
    reg = default_registry()
    for spec in corpus_manifest(reg):
        graph = spec.to_graph(reg)
        for site in scan_for_unstable(graph, reg).sites:
            yield pytest.param(spec, graph, site, id=f"{spec.name}-{site.node_id}")


def _corpus_program(name):
    """The spec, graph and first site of the corpus program of that name."""
    reg = default_registry()
    spec = next(s for s in corpus_manifest(reg) if s.name == name)
    graph = spec.to_graph(reg)
    return spec, graph, scan_for_unstable(graph, reg).sites[0]


def _inputs(graph, values):
    return [values[d.id] for d in graph.inputs]


def _failing_inputs(graph, site):
    """The first of a few extreme inputs that fails validation at the site."""
    for value in (1.0, 0.0, 1e30, -1e30, 1e-30, 3e38):
        inputs = [np.full(d.shape, value) for d in graph.inputs]
        if not validate_failure(graph, site, inputs).passed:
            return inputs
    raise AssertionError(f"no extreme input fails at {site.node_id}")


class TestTapeReuse:
    @pytest.mark.parametrize("spec,graph,site", list(_corpus_sites()))
    def test_tape_gives_the_verdict_of_a_fresh_evaluation(self, spec, graph, site):
        # validate_failure, and the judge on a guided step's one forward to the
        # operand stop, give the verdict of evaluating through the site
        node = graph.node(site.node_id)
        cases = [_inputs(graph, _initial_inputs(graph, np.random.default_rng(seed)))
                 for seed in range(5)]
        cases.append(_failing_inputs(graph, site))
        for inputs in cases:
            # verdicts compare passed, failure_class and detail
            fresh = validate_failure(graph, site, inputs)
            assert fresh == _reference_validate_failure(graph, site, inputs)
            stacks = [x[None] for x in inputs]
            evaluated = forward_rows(graph, stacks, np.float32, site.stop)
            judged = fuzzer._judge(graph, site, node, [evaluated[ref] for ref in node.inputs],
                                   stacks, default_registry())
            assert judged.verdict(0) == fresh, spec.name
        assert not fresh.passed  # the last case fails at every site

    def test_remainder_needs_the_double_shadow(self):
        reg = default_registry()
        _, g, site = _corpus_program("remainder_width_loss")
        inputs = [np.array([1234.5678901, 1234.5678901, 1234.5678901])]
        # judged on the single-precision operands alone the input passes
        evaluated = forward_rows(g, [inputs[0][None]], np.float32, site.node_id)
        assert oracle_rows(site.kernel, g.node(site.node_id).params, [evaluated["x"]],
                           reg).passed.all()
        verdict = validate_failure(g, site, inputs, reg)
        assert verdict.failure_class is FailureClass.WIDTH_MISMATCH


# The search loops as they were before validation reused the iteration's
# forward: three forwards per random iteration, a fresh prefix per validation.
# The loops under test must reproduce them exactly.

def _reference_validate_failure(graph, site, inputs, registry=None):
    reg = registry or default_registry()
    node = graph.node(site.node_id)
    stacks = [np.asarray(x)[None] for x in inputs]
    operands = forward_rows(graph, stacks, np.float32, site.node_id)
    wide = forward_rows(graph, stacks, np.float64, site.node_id)
    return oracle_rows(site.kernel, node.params, [operands[ref] for ref in node.inputs], reg,
                       lambda: [wide[ref] for ref in node.inputs]).verdict(0)


def _reference_fuzz_site(graph, site, direction, config, rng, registry=None):
    reg = registry or default_registry()
    result = FuzzResult(site=site)
    start = time.perf_counter()

    values = _initial_inputs(graph, rng)
    bounds = {d.id: Bounds.unconstrained(tuple(d.shape)) for d in graph.inputs}

    while True:
        if result.iterations >= config.max_iters:
            result.diagnostics.append("iteration budget exhausted")
            break
        if time.perf_counter() - start > config.timeout:
            result.diagnostics.append("wall-clock timeout")
            break
        result.iterations += 1
        if result.iterations == 1:  # the initial input, judged whatever the vote
            result.failed_at_init = not _reference_validate_failure(
                graph, site, _inputs(graph, values), reg).passed
        evaluated = forward_rows(graph, [x[None] for x in _inputs(graph, values)], np.float32,
                                 site.entry_node)
        signal = direction(evaluated[site.entry_node])

        if signal is Signal.NO_CHANGE:
            verdict = _reference_validate_failure(graph, site, _inputs(graph, values), reg)
            if not verdict.passed:
                result.verdict = verdict
                result.failing_input = {k: v.tolist() for k, v in values.items()}
                break
            result.resets += 1
            if result.resets > MAX_RESETS:
                result.diagnostics.append("reset budget exhausted")
                break
            values = _initial_inputs(graph, rng)
            continue

        sign = 1.0 if signal is Signal.INCREASE else -1.0
        steps = propagate_signal(graph, site, evaluated, config.rate)
        for decl in graph.inputs:
            values[decl.id] = constrain_update(
                values[decl.id], steps[decl.id] * sign, bounds[decl.id], signal
            )
        for decl in graph.inputs:
            if decl.clamp:
                values[decl.id] = np.clip(values[decl.id], *decl.bounds)

    result.wall_time = time.perf_counter() - start
    return result


def _reference_random_fuzz_site(graph, site, config, rng, registry=None):
    reg = registry or default_registry()
    result = FuzzResult(site=site)
    start = time.perf_counter()
    values = _initial_inputs(graph, rng)
    while True:
        if result.iterations >= config.max_iters:
            result.diagnostics.append("iteration budget exhausted")
            break
        if time.perf_counter() - start > config.timeout:
            result.diagnostics.append("wall-clock timeout")
            break
        result.iterations += 1
        verdict = _reference_validate_failure(graph, site, _inputs(graph, values), reg)
        if result.iterations == 1:
            result.failed_at_init = not verdict.passed
        if not verdict.passed:
            result.verdict = verdict
            result.failing_input = {k: v.tolist() for k, v in values.items()}
            break
        evaluated = forward_rows(graph, [x[None] for x in _inputs(graph, values)], np.float32,
                                 site.entry_node)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        steps = propagate_signal(graph, site, evaluated, config.rate)
        for decl in graph.inputs:
            values[decl.id] = values[decl.id] + steps[decl.id] * sign
        for decl in graph.inputs:
            if decl.clamp:
                values[decl.id] = np.clip(values[decl.id], *decl.bounds)
    result.wall_time = time.perf_counter() - start
    return result


def _outcome(result):
    """Every FuzzResult field but wall_time; repr keeps NaN inputs comparable."""
    return repr({k: v for k, v in vars(result).items() if k != "wall_time"})


def _ran_out(result):
    """Whether a search ended at its iteration budget: only then has the
    random loop drawn the directions of exactly the steps it judged."""
    return result.diagnostics == ["iteration budget exhausted"]


class TestLoopsMatchReference:
    SEEDS = (0, 1, 2)

    # the corpus sites mostly sit on a program input or a linear prefix, where
    # the gradient does not depend on the input; here the exp entry is x * x
    SQUARE_EXP = Graph([InputDecl("x", (3, 3), bounds=(-3.0, 3.0))],
                       [Node("a", "square", ("x",)), Node("y", "exp", ("a",))], "y")
    # a value-reading site whose last operand, a constant, comes after its entry
    SQUARE_DIV = Graph([InputDecl("x", (1,), bounds=(-3.0, 3.0))],
                       [Node("a", "square", ("x",)),
                        Node("one", "constant", (), {"value": [1.0]}),
                        Node("y", "Div", ("one", "a"))], "y")

    def _runs(self):
        reg = default_registry()
        programs = [(spec.name, spec.to_graph(reg), spec.rate)
                    for spec in corpus_manifest(reg)]
        programs.append(("square_exp", self.SQUARE_EXP, 1.0))
        programs.append(("square_div", self.SQUARE_DIV, 1.0))
        for name, graph, rate in programs:
            for seed in self.SEEDS:
                config = FuzzConfig(rate=rate, seed=seed, max_iters=300)
                for index, site in enumerate(scan_for_unstable(graph, reg).sites):
                    yield name, graph, site, config, index, reg

    @staticmethod
    def _rngs(seed, index):
        return [np.random.default_rng(np.random.SeedSequence([seed, index]))
                for _ in range(2)]

    def test_random_fuzz_site(self):
        found = 0
        for name, graph, site, config, index, reg in self._runs():
            rng, ref_rng = self._rngs(config.seed, index)
            result = random_fuzz_site(graph, site, config, rng, reg)
            expected = _reference_random_fuzz_site(graph, site, config, ref_rng, reg)
            assert _outcome(result) == _outcome(expected), (name, config.seed)
            if _ran_out(result):
                assert rng.bit_generator.state == ref_rng.bit_generator.state
            found += result.found
        assert found > 0

    def test_fuzz_site(self):
        directions = {f.kernel: soft_assertion(f)
                      for f in map(model_load, FIXTURE_MODELS.glob("*.json"))}
        found = 0
        for name, graph, site, config, index, reg in self._runs():
            direction = directions[site.kernel]
            rng, ref_rng = self._rngs(config.seed, index)
            result = fuzz_site(graph, site, direction, config, rng, reg)
            expected = _reference_fuzz_site(graph, site, direction, config, ref_rng, reg)
            assert _outcome(result) == _outcome(expected), (name, config.seed)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            found += result.found
        assert found > 0


class TestConstantGradient:
    """Where the entry's gradient is the same at every input, the loops
    compute the step once per search; elsewhere they back-propagate at
    every step. Outcomes are pinned by TestLoopsMatchReference."""

    def test_corpus_sites(self):
        answers = {(spec.name, site.node_id): constant_gradient(graph, site.entry_node)
                   for spec, graph, site in (p.values for p in _corpus_sites())}
        assert sum(answers.values()) == 11
        assert {k for k, constant in answers.items() if not constant} == {
            ("l2_norm_overflow", "s"), ("l2_norm_overflow", "y")}
        square_exp = TestLoopsMatchReference.SQUARE_EXP
        assert not constant_gradient(square_exp, "a")  # the exp site's entry, x * x

    def test_deltas_are_the_same_at_every_input(self):
        for spec, graph, site in (p.values for p in _corpus_sites()):
            if not constant_gradient(graph, site.entry_node):
                continue
            cases = [_inputs(graph, _initial_inputs(graph, np.random.default_rng(seed)))
                     for seed in range(3)]
            cases.append(_failing_inputs(graph, site))
            forwards = [forward_rows(graph, [x[None] for x in inputs], np.float32,
                                     site.entry_node) for inputs in cases]
            steps = [{k: v.tobytes() for k, v in
                      propagate_signal(graph, site, evaluated, 0.5).items()}
                     for evaluated in forwards]
            assert all(d == steps[0] for d in steps), (spec.name, site.node_id)

    @staticmethod
    def _spies(monkeypatch):
        """Record the loops' forwards (dtype, rows, stop) and backward calls."""
        calls = {"backward": 0, "forward_rows": []}

        def backward(*args):
            calls["backward"] += 1
            return autodiff.backward(*args)

        def rows(graph, inputs, dtype, stop_at):
            calls["forward_rows"].append((dtype, len(inputs[0]), stop_at))
            return autodiff.forward_rows(graph, inputs, dtype, stop_at)

        monkeypatch.setattr(fuzzer, "backward", backward)
        monkeypatch.setattr(fuzzer, "forward_rows", rows)
        return calls

    CHUNKS = [1, 2, 4, 8, 16, 32] + [64] * 30 + [17]  # 2,000 iterations

    @pytest.mark.parametrize("name", ["exp_overflow", "division_by_cancellation"])
    def test_random_steps_make_no_forward_or_backward(self, monkeypatch, name):
        _, graph, site = _corpus_program(name)
        calls = self._spies(monkeypatch)
        result = random_fuzz_site(graph, site, FuzzConfig(seed=0, max_iters=2000),
                                  np.random.default_rng(0))
        assert result.status == "Exhausted" and result.iterations == 2000
        # one forward of the first input for the steps, then one per chunk
        assert calls["forward_rows"] == [(np.float32, 1, site.entry_node)] + [
            (np.float32, n, site.stop) for n in self.CHUNKS]
        assert calls["backward"] == 1
        assert len(self.CHUNKS) == 37

    def test_value_reading_steps_back_propagate(self, monkeypatch):
        # each step's one forward reaches the entry for its backward, and each
        # chunk is judged through one stacked forward to the operand stop (the
        # entry at SQUARE_EXP, a later node at SQUARE_DIV)
        for graph in (TestLoopsMatchReference.SQUARE_EXP, TestLoopsMatchReference.SQUARE_DIV):
            site = scan_for_unstable(graph).sites[-1]
            calls = self._spies(monkeypatch)
            result = random_fuzz_site(graph, site, FuzzConfig(seed=2, max_iters=2000),
                                      np.random.default_rng(2))
            assert result.status == "Exhausted" and result.iterations == 2000
            assert calls["forward_rows"] == [
                call for n in self.CHUNKS
                for call in [(np.float32, 1, site.entry_node)] * n + [(np.float32, n, site.stop)]]
            assert calls["backward"] == 2000

    def test_guided_steps_reuse_the_deltas(self, monkeypatch):
        _, graph, site = _corpus_program("exp_overflow")
        direction = soft_assertion(fixture_forest("exp"))
        calls = self._spies(monkeypatch)
        result = fuzz_site(graph, site, direction, FuzzConfig(seed=0, max_iters=300),
                           np.random.default_rng(0))
        # one forward for the steps, then one per iteration for the features
        assert calls["forward_rows"] == [(np.float32, 1, site.entry_node)] + [
            (np.float32, 1, site.stop)] * result.iterations
        assert result.iterations > 2 and calls["backward"] == 1

    @pytest.mark.parametrize("name, model, seed", [
        ("exp_overflow", "exp", 3),  # 51 resets: 52 verdicts
        ("division_by_cancellation", "Div", 0),  # a constant operand after the entry
        ("cosine_feature_mismatch", "CosineSimilarity", 0),  # the same, with 6 resets
        ("remainder_width_loss", "remainder", 0),  # the width oracle's double shadow
    ])
    def test_guided_steps_make_one_forward(self, monkeypatch, name, model, seed):
        # an iteration makes one forward of one row, to the operand stop; a NoChange
        # verdict, and iteration 1 whatever its vote, judges that forward's operands,
        # so it makes no forward of its own in single precision, and one double
        # shadow where the width oracle reads it
        spec, graph, site = _corpus_program(name)
        calls = self._spies(monkeypatch)
        verdicts = []

        def judged(*args):
            verdicts.append(oracle_rows(*args))
            return verdicts[-1]

        monkeypatch.setattr(fuzzer, "oracle_rows", judged)
        direction = soft_assertion(fixture_forest(model))
        asked, entries = asking(direction)
        result = fuzz_site(graph, site, asked, FuzzConfig(rate=spec.rate, seed=seed, max_iters=300),
                           np.random.default_rng(seed))
        single, double = ([c for c in calls["forward_rows"] if c[0] == dtype]
                          for dtype in (np.float32, np.float64))
        assert single == [(np.float32, 1, site.entry_node)] + [
            (np.float32, 1, site.stop)] * result.iterations
        moved_first = direction(entries[0]) is not Signal.NO_CHANGE
        assert len(verdicts) == result.resets + result.found + moved_first > 0
        assert all(len(v.passed) == 1 for v in verdicts)
        shadow = [(np.float64, 1, site.stop)] if name == "remainder_width_loss" else []
        assert double == shadow * len(verdicts)


class TestFixedPoint:
    """Between resets a guided step is a pure function of the input values
    and the bounds, so fuzz_site stops at the first step that leaves their
    bytes unchanged. Outcome and generator state must not show it."""

    @pytest.mark.parametrize("seed", range(3))
    def test_stalled_budget_ends_at_the_fixed_point(self, caplog, seed):
        _, graph, site = _corpus_program("bounded_sigmoid_clean")
        direction = soft_assertion(fixture_forest("sigmoid"))
        config = FuzzConfig(seed=seed, max_iters=2000)
        rng, ref_rng = TestLoopsMatchReference._rngs(seed, 0)
        expected = _reference_fuzz_site(graph, site, direction, config, ref_rng)
        asked, calls = asking(direction)
        with caplog.at_level(logging.DEBUG, logger="safuzz.fuzzer"):
            result = fuzz_site(graph, site, asked, config, rng)
        assert _outcome(result) == _outcome(expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert result.iterations == 2000
        assert result.diagnostics == ["iteration budget exhausted"]
        assert len(calls) < 100
        assert [r.getMessage() for r in caplog.records] == [
            f"site 'y': fixed point at iteration {len(calls)}, "
            f"{2000 - len(calls)} iterations not run"]

    def test_bounds_that_move_under_a_repeated_value_are_no_fixed_point(self):
        # A step far below the input's float64 resolution (rate 1e-300)
        # leaves x + delta == x, so x moves only by the 1e-9 margin of a
        # one-sided bound. (A step that the declared clamp sends back cannot
        # meet a contradiction: every bound lies inside the declared range.)
        # f0 and f1 are the float32 entries at the first two draws. The
        # direction increases on (t2, f0], decreases on (t1, t2], with t1
        # just under f1, and mispredicts NoChange elsewhere.
        #   1. From the first draw, Increase steps push x up by margins until
        #      its float32 passes f0; the lower bound ends above f1.
        #   2. NoChange there passes the oracles: a reset draws the second.
        #   3. Decrease there sets the upper bound under the lower one: the
        #      contradiction resets both to (-inf, inf) and x stays. The
        #      values repeat, the bounds do not.
        #   4. Decrease again sets a one-sided upper bound at x, so the
        #      margin moves x below it, and the margins carry x under t1 to
        #      a second reset.
        # A check on the values alone stops at step 3 with one reset.
        graph = Graph([InputDecl("x", (1,), bounds=(0.0, 10.0))],
                      [Node("y", "sigmoid", ("x",))], "y")
        site = scan_for_unstable(graph).sites[0]
        seed = 0
        draws = np.random.default_rng(seed)
        f0, f1 = (float(np.float32(draws.uniform(0.0, 10.0, size=(1,))[0]))
                  for _ in range(2))
        assert f1 + 1.0 < f0
        t1 = (float(np.nextafter(np.float32(f1), np.float32(-np.inf))) + f1) / 2
        t2 = (f0 + f1) / 2
        direction = piecewise((t1, Signal.NO_CHANGE), (t2, Signal.DECREASE),
                              (f0, Signal.INCREASE))
        config = FuzzConfig(seed=seed, rate=1e-300, max_iters=1000)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = fuzz_site(graph, site, direction, config, rng)
        expected = _reference_fuzz_site(graph, site, direction, config, ref_rng)
        assert _outcome(result) == _outcome(expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert result.resets >= 2


class TestRankZeroInput:
    """A rank-0 input searches as its one-element vector does. Every ufunc
    of 0-d operands returns a numpy scalar, which no mask or out= can write,
    so the loops must keep each value and bound a real array."""

    # each entry is the input itself, so a step moves it by the rate. This
    # direction increases below 2, decreases above 3 and mispredicts between.
    BAND_LOG = piecewise((2.0, Signal.INCREASE), (3.0, Signal.NO_CHANGE),
                         otherwise=Signal.DECREASE)
    # this one decreases in (-5, 2] and increases in (2, 6], mispredicting
    # outside: a decrease run, a reset into (2, 6] and an increase there
    # leave lower > upper, and the bounds are reset
    CROSSED_SIGMOID = piecewise((-5.0, Signal.NO_CHANGE), (2.0, Signal.DECREASE),
                                (6.0, Signal.INCREASE))
    CASES = [("exp", EXP), ("log", LOG), ("log", BAND_LOG), ("sigmoid", CROSSED_SIGMOID)]

    @staticmethod
    def _graph(op, shape, clamp):
        return Graph([InputDecl("s", shape, bounds=(-10.0, 10.0), clamp=clamp)],
                     [Node("y", op, ("s",))], "y")

    @staticmethod
    def _outcome(result):
        fields = {k: v for k, v in vars(result).items()
                  if k not in ("wall_time", "site", "failing_input")}
        failing = result.failing_input
        if failing is not None:
            failing = {k: np.ravel(v).tolist() for k, v in failing.items()}
        return repr(fields), failing

    def _pairs(self):
        for op, direction in self.CASES:
            for clamp in (False, True):
                scalar, vector = self._graph(op, (), clamp), self._graph(op, (1,), clamp)
                yield (scalar, scan_for_unstable(scalar).sites[0],
                       vector, scan_for_unstable(vector).sites[0], direction)

    @pytest.mark.parametrize("seed", range(3))
    def test_fuzz_site(self, seed):
        config = FuzzConfig(seed=seed, max_iters=300)
        for scalar, site, vector, vsite, direction in self._pairs():
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            result = fuzz_site(scalar, site, direction, config, rng)
            expected = _reference_fuzz_site(vector, vsite, direction, config, ref_rng)
            assert self._outcome(result) == self._outcome(expected)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(3))
    def test_random_fuzz_site(self, seed):
        config = FuzzConfig(seed=seed, max_iters=300)
        for scalar, site, vector, vsite, _ in self._pairs():
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            result = random_fuzz_site(scalar, site, config, rng)
            expected = _reference_random_fuzz_site(vector, vsite, config, ref_rng)
            assert self._outcome(result) == self._outcome(expected)
            if _ran_out(result):
                assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestRandomChunks:
    """random_fuzz_site judges its iterations in chunks of 1, 2, 4, ... up to
    CHUNK_CAP rows: iterations 1 | 2-3 | 4-7 | 8-15 | 16-31 | 32-63 | 64-127
    | 128-191 | ... Outcome and generator state must not show the chunks."""

    # a walk of steps +-1 from x0 in (-1, 2); log fails once x drops below 0
    LOG_WALK = Graph([InputDecl("x", (1,), bounds=(-1.0, 2.0))],
                     [Node("y", "log", ("x",))], "y")
    CLEAN = Graph([InputDecl("x", (3, 3), bounds=(0.0, 1.0), clamp=True)],
                  [Node("y", "sigmoid", ("x",))], "y")

    @staticmethod
    def _both(graph, config):
        """The loop under test and the reference at the graph's last site,
        each from its own generator."""
        site = scan_for_unstable(graph).sites[-1]
        rng, ref_rng = (np.random.default_rng(config.seed) for _ in range(2))
        result = random_fuzz_site(graph, site, config, rng)
        expected = _reference_random_fuzz_site(graph, site, config, ref_rng)
        assert _outcome(result) == _outcome(expected), config.seed
        if _ran_out(result):
            assert rng.bit_generator.state == ref_rng.bit_generator.state, config.seed
        return result

    def test_finds_on_the_first_and_last_rows_of_chunks(self):
        assert CHUNK_CAP == 64  # the chunk layout below
        found_at = {self._both(self.LOG_WALK, FuzzConfig(seed=s, max_iters=200)).iterations
                    for s in range(200)}
        first_rows, last_rows = {1, 2, 4, 8, 16}, {1, 3, 7, 15, 31, 127}
        assert first_rows | last_rows <= found_at

    @pytest.mark.parametrize("max_iters", [1, 2, 5, 100, 130])
    def test_budget_ends_mid_chunk(self, max_iters):
        result = self._both(self.CLEAN, FuzzConfig(seed=0, max_iters=max_iters))
        assert result.status == "Exhausted" and result.iterations == max_iters
        for seed in range(20):
            self._both(self.LOG_WALK, FuzzConfig(seed=seed, max_iters=max_iters))

    @pytest.mark.parametrize("graph", [
        CLEAN,
        # the operand is a node here, so the forward goes one node past the input
        Graph([InputDecl("x", (3, 3), bounds=(0.0, 1.0), clamp=True)],
              [Node("s", "scale", ("x",), {"factor": 0.5}), Node("y", "sigmoid", ("s",))], "y"),
    ], ids=["input-operand", "node-operand"])
    def test_site_kernel_runs_once_per_chunk_in_the_oracles(self, monkeypatch, graph):
        site = scan_for_unstable(graph).sites[0]
        judging = False
        rows_run = []  # the stack height of each site-kernel forward, and where it ran
        sigmoid = kernels.op_def("sigmoid")

        def spy_forward(params, x):
            rows_run.append((len(x), judging))
            return sigmoid.forward(params, x)

        def spy_oracle_rows(*args, **kwargs):
            nonlocal judging
            judging = True
            try:
                return oracles.oracle_rows(*args, **kwargs)
            finally:
                judging = False

        monkeypatch.setitem(kernels.ALL_OPS, "sigmoid",
                            dataclasses.replace(sigmoid, forward=spy_forward))
        monkeypatch.setattr(fuzzer, "oracle_rows", spy_oracle_rows)
        result = random_fuzz_site(graph, site, FuzzConfig(seed=0, max_iters=200),
                                  np.random.default_rng(0))
        assert result.status == "Exhausted" and result.iterations == 200
        # sigmoid's oracles (NaN/inf, range) share one single-precision forward
        chunks = [1, 2, 4, 8, 16, 32, 64, 64, 9]
        assert rows_run == [(n, True) for n in chunks]


class TestStackedWalk:
    """random_fuzz_site walks a chunk as one running sum per input. Pinned
    against the step loop where the two could part: sums that leave the
    range of float32 or float64, a clamp that binds on some steps and not
    others, declared bounds without a clamp, and both in one program."""

    @staticmethod
    def _pinned(monkeypatch, graph, config, ref_graph=None):
        """The loop under test and the step loop at the graph's last site
        (the step loop on ref_graph, a rank-1 twin of a rank-0 graph, when
        given): equal outcome and generator state, and each step the step
        loop judged is the loop under test's row of that step, bit for bit.
        Returns the result and the step loop's judged inputs."""
        site = scan_for_unstable(graph).sites[-1]
        ref_graph = ref_graph or graph
        ref_site = scan_for_unstable(ref_graph).sites[-1]
        walked, stepped = [], []
        judge = fuzzer._judge

        def judged(g, s, node, operands, inputs, reg):
            walked.extend(b"".join(stack[i].tobytes() for stack in inputs)
                          for i in range(len(inputs[0])))
            return judge(g, s, node, operands, inputs, reg)

        def forward(g, inputs, dtype, stop_at):
            if dtype == np.float32 and stop_at == ref_site.node_id:
                stepped.append(b"".join(np.asarray(x).tobytes() for x in inputs))
            return autodiff.forward_rows(g, inputs, dtype, stop_at)

        rng, ref_rng = (np.random.default_rng(config.seed) for _ in range(2))
        with monkeypatch.context() as patch:
            patch.setattr(fuzzer, "_judge", judged)
            result = random_fuzz_site(graph, site, config, rng)
        with monkeypatch.context() as patch, np.errstate(over="ignore"):
            patch.setitem(globals(), "forward_rows", forward)
            expected = _reference_random_fuzz_site(ref_graph, ref_site, config, ref_rng)
        outcome = TestRankZeroInput._outcome
        assert outcome(result) == outcome(expected), config.seed
        if _ran_out(result):
            assert rng.bit_generator.state == ref_rng.bit_generator.state, config.seed
        assert len(stepped) == expected.iterations
        assert walked[:len(stepped)] == stepped, config.seed
        return result, np.frombuffer(b"".join(stepped))

    @staticmethod
    def _log(shape, clamp):
        return Graph([InputDecl("p", shape, bounds=(0.0, 1.0), clamp=clamp)],
                     [Node("y", "log", ("p",))], "y")

    @pytest.mark.parametrize("shape", [(), (3, 3)], ids=["rank-0", "3x3"])
    @pytest.mark.parametrize("clamp", [True, False], ids=["clamped", "declared-only"])
    def test_bounded_walks(self, monkeypatch, shape, clamp):
        # steps of 0.3 on [0, 1]: log fails once a value reaches 0 (clamped)
        # or drops below it (not clamped)
        # the step loop keeps a rank-0 sum a numpy scalar, which it cannot clip
        graph, ref_graph = self._log(shape, clamp), self._log(shape or (1,), clamp)
        judged, found = [], 0
        for seed in range(10):
            result, inputs = self._pinned(monkeypatch, graph,
                                          FuzzConfig(rate=0.3, seed=seed, max_iters=200),
                                          ref_graph)
            judged.append(inputs)
            found += result.found
        judged = np.concatenate(judged)
        assert found
        if clamp:  # the clamp binds at both bounds on some steps, and not on others
            assert judged.min() == 0.0 and judged.max() == 1.0
            assert np.count_nonzero((judged > 0.0) & (judged < 1.0))
        else:
            assert judged.min() < 0.0 and judged.max() > 1.0

    @staticmethod
    def _mixed(site_nodes):
        # p is clamped to [0, 1], q only declares [-1, 1]; the entry reads both
        return Graph([InputDecl("p", (3,), bounds=(0.0, 1.0), clamp=True),
                      InputDecl("q", (3,), bounds=(-1.0, 1.0))],
                     [Node("s", "add", ("p", "q")), *site_nodes], "y")

    @pytest.mark.parametrize("site_nodes, rate, constant", [
        ([Node("y", "log", ("s",))], 0.3, True),
        ([Node("a", "square", ("s",)), Node("y", "exp", ("a",))], 1.0, False),
    ], ids=["constant-gradient", "value-reading"])
    def test_clamped_beside_unclamped_input(self, monkeypatch, site_nodes, rate, constant):
        # both walk row by row, with fixed steps or not: the clamp binds on
        # some steps and not on others, and the unclamped input leaves its
        # declared bounds
        graph = self._mixed(site_nodes)
        site = scan_for_unstable(graph).sites[-1]
        assert constant_gradient(graph, site.entry_node) == constant
        judged = []
        for seed in range(10):
            _, inputs = self._pinned(monkeypatch, graph,
                                     FuzzConfig(rate=rate, seed=seed, max_iters=200))
            judged.append(inputs.reshape(-1, 6))
        p, q = np.split(np.concatenate(judged), 2, axis=1)
        assert p.min() == 0.0 and p.max() == 1.0
        assert np.count_nonzero((p > 0.0) & (p < 1.0))
        assert q.min() < -1.0 and q.max() > 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPastTheFloatRange:
    """Any positive rate is accepted, so the inputs can leave float32's
    range (rate 1e300, on the cast to single precision) or float64's (rate
    1e308, on the step's sum). Both loops take the inf as data: no
    RuntimeWarning escapes, and the outcome is the step loop's."""

    RATES = [pytest.param(1e300, np.finfo(np.float32).max, id="past-float32"),
             pytest.param(1e308, np.inf, id="past-float64")]

    @pytest.mark.parametrize("rate, past", RATES)
    def test_random_fuzz_site(self, monkeypatch, rate, past):
        _, graph, _ = _corpus_program("division_by_cancellation")
        for seed in range(3):
            _, judged = TestStackedWalk._pinned(monkeypatch, graph,
                                                FuzzConfig(rate=rate, seed=seed, max_iters=50))
            assert np.abs(judged).max() >= past

    @pytest.mark.parametrize("rate, past", RATES)
    def test_fuzz_site(self, monkeypatch, rate, past):
        _, graph, site = _corpus_program("division_by_cancellation")
        direction = soft_assertion(fixture_forest("Div"))
        reached = []  # the largest magnitude of each input the loop evaluates

        def forward(g, inputs, dtype, stop_at):
            reached.extend(np.abs(x).max() for x in inputs)
            return autodiff.forward_rows(g, inputs, dtype, stop_at)

        monkeypatch.setattr(fuzzer, "forward_rows", forward)
        for seed in range(3):
            config = FuzzConfig(rate=rate, seed=seed, max_iters=50)
            rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
            result = fuzz_site(graph, site, direction, config, rng)
            with np.errstate(over="ignore"):  # the step loop leaves faults to numpy's default
                expected = _reference_fuzz_site(graph, site, direction, config, ref_rng)
            assert _outcome(result) == _outcome(expected), seed
            assert rng.bit_generator.state == ref_rng.bit_generator.state, seed
        assert max(reached) >= past
