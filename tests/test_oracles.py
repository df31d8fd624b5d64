"""The six oracle families and the dispatcher.

Each family is reached through oracle_rows, on a stack of executions or,
through judge_one, on one: on a shipped kernel that binds it, or through a
test registry that binds it alone.
"""

import logging
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safuzz.datagen import MAX_STEPS, default_mutation_configs, step_sizes
from safuzz.errors import CapabilityError
from safuzz.kernels import apply_forward, default_params, op_def, unit_operand_rows
from safuzz.oracles import FailureClass, OracleVerdict, oracle_rows
from safuzz.registry import OracleBinding, Registry, default_registry

FIG1_X = [2606.66824394, 2477.72226966, 3251.84008903]
FIG1_Y = [2.39482538431398614e-09, 7.39647891389834008e-09, 4.96805019548943425e-09]
IMPLEMENTED = [n for n, e in default_registry().entries.items() if e.implemented]


def judge_one(name, params, inputs, registry=None, wide_inputs=None):
    """The verdict on one execution: oracle_rows over a stack of one."""
    wide = None if wide_inputs is None else lambda: [x[None] for x in wide_inputs]
    return oracle_rows(name, params, [x[None] for x in inputs], registry, wide).verdict(0)


def bound(kernel, *bindings):
    """A registry whose one entry binds a shipped kernel to the given oracles."""
    spec = replace(default_registry().get(kernel), oracle_bindings=tuple(bindings))
    return Registry({kernel: spec}, "test")


def unit_operands(kernel, x):
    """The unit-test operands of one tensor: unit_operand_rows on a stack of one."""
    return [a[0] for a in unit_operand_rows(kernel, x[None])]


def forward(kernel, x, dtype):
    params = default_params(kernel, x.shape)
    return apply_forward(op_def(kernel), params, [x.astype(dtype)[None]], dtype)[0]


class TestNanInf:
    def test_log_zero_fails(self):
        verdict = judge_one("log", {}, [np.array([0.0])])
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.NAN_OR_INF

    def test_softmax_passes(self):
        assert judge_one("Softmax", {}, [np.array([0.0, 0.0, 0.0])]).passed

    def test_subnormal_reciprocal_overflows_single(self):
        verdict = judge_one("Div", {}, [np.array([1.0]), np.array([1e-45])])
        assert not verdict.passed and verdict.failure_class is FailureClass.NAN_OR_INF


class TestRange:
    UNIT = bound("mean", OracleBinding(2, lo=-1.0, hi=1.0))

    def test_cosine_above_one_fails(self):
        verdict = judge_one("mean", {}, [np.array([1.0000002])], self.UNIT)
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.OUT_OF_RANGE

    def test_bounded_trig_value_passes(self):
        assert judge_one("mean", {}, [np.array([0.5])], self.UNIT).passed

    def test_closed_interval_boundary_passes(self):
        assert judge_one("mean", {}, [np.array([-1.0])], self.UNIT).passed

    def test_nan_counts_as_out_of_range(self):
        assert not judge_one("mean", {}, [np.array([np.nan])], self.UNIT).passed

    # a vector's float32 cosine similarity with itself can round above 1;
    # the shipped entry's NaN/inf oracle passes it, so its range oracle decides
    SELF_PAIR = np.array([0.06369616873214544, 0.026978671376387032, 0.004097352393619469])

    def test_cosine_self_similarity_rounds_out_of_range(self):
        verdict = judge_one("CosineSimilarity", {}, [self.SELF_PAIR, self.SELF_PAIR])
        assert verdict.failure_class is FailureClass.OUT_OF_RANGE
        assert verdict.detail.endswith("(1.0000001192092896) outside [-1.0, 1.0]")

    def test_cosine_self_similarity_out_of_range_in_a_stack(self):
        t = np.array([1.0, 2.0, 3.0])
        a = np.stack([t, self.SELF_PAIR, np.full(3, np.nan)])
        b = np.stack([t, self.SELF_PAIR, t])
        rows = oracle_rows("CosineSimilarity", {}, [a, b])
        alone = judge_one("CosineSimilarity", {}, [self.SELF_PAIR, self.SELF_PAIR])
        assert rows.verdict(1) == alone
        assert [rows.verdict(i).failure_class for i in range(3)] == [
            None, FailureClass.OUT_OF_RANGE, FailureClass.NAN_OR_INF]


class TestRewrite:
    def test_logsoftmax_overflow_fails(self):
        # the shipped entry's NaN/inf oracle would fail this row first
        verdict = judge_one("logSoftmax", {}, [np.array([1000.0, 0.0, 0.0])],
                              bound("logSoftmax", OracleBinding(3)))
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.REWRITE_MISMATCH


class TestStableAlgorithm:
    def test_identity_inverse_passes(self):
        assert judge_one("inverse", {}, [np.eye(3)]).passed

    def test_spd_diagonal_matches_cholesky(self):
        # both elimination orders are exact on a diagonal SPD matrix, so the
        # frozen expected verdict (computed in double on both paths) is Pass
        verdict = judge_one("inverse", {}, [np.diag([1.0, 1e-12, 1.0])])
        assert verdict.passed

    def test_non_spd_is_unavailable(self):
        # outside Cholesky's domain the row passes the stable-algorithm oracle
        checks = oracle_rows("inverse", {}, [np.array([[[0.0, 1.0], [1.0, 0.0]]])]).checks
        assert checks[1].failure_class is FailureClass.STABLE_ALGO_MISMATCH
        assert checks[1].passed.tolist() == [True]

    def test_determinant_pass_on_well_conditioned(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        spd = a @ a.T + 3 * np.eye(3)
        assert judge_one("determinant", {}, [spd]).passed


class TestReferenceConsistency:
    def test_fig1_vectors_fail(self):
        verdict = judge_one("CosineSimilarity", {}, [np.array(FIG1_Y), np.array(FIG1_X)],
                              bound("CosineSimilarity", OracleBinding(5)))
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.REFERENCE_MISMATCH

    def test_self_similarity_passes(self):
        t = np.array([1.0, 2.0, 3.0])
        assert judge_one("CosineSimilarity", {}, [t, t]).passed

    def test_unclamped_norms_always_agree(self):
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(1000):
            a = rng.standard_normal(9)
            a *= rng.uniform(1e-3, 10) / np.linalg.norm(a)
            b = rng.standard_normal(9)
            b *= rng.uniform(1e-3, 10) / np.linalg.norm(b)
            rows.append((a, b))
        a, b = (np.stack(side) for side in zip(*rows))
        checks = oracle_rows("CosineSimilarity", {}, [a, b]).checks
        assert checks[2].failure_class is FailureClass.REFERENCE_MISMATCH
        assert checks[2].passed.all()


class TestIncreasedWidth:
    def test_remainder_width_bug_exact(self):
        x = np.array([1933053808.0])
        verdict = judge_one("remainder", {}, [x])
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.WIDTH_MISMATCH
        # the exact single/double values behind the mismatch
        assert forward("remainder", x, np.float32)[0] == 35.0
        assert forward("remainder", x, np.float64)[0] == 19.0

    def test_small_remainder_agrees(self):
        assert judge_one("remainder", {}, [np.array([10.0])]).passed

    def test_wide_inputs_called_only_when_the_width_oracle_runs(self):
        # the oracle layer alone decides whether a caller's double shadow is made
        xs = np.full((4, 3), np.inf)  # inf mod 53 is NaN: every row fails type 1
        calls = []

        def wide():
            calls.append(len(calls))
            return [xs]

        narrow = [xs.astype(np.float32)]
        first = bound("remainder", OracleBinding(1), OracleBinding(6))
        assert not oracle_rows("remainder", {}, narrow, first, wide).passed.any()
        assert calls == []  # type 6 never ran: no row was left to judge
        oracle_rows("remainder", {}, narrow, bound("remainder", OracleBinding(6)), wide)
        assert calls == [0]

    def test_matmul_overflow_vs_finite_double(self):
        a = np.full((3, 3), 1.1e19)
        b = np.full((3, 3), 1.2e19)
        verdict = judge_one("matmul", {}, [a, b], bound("matmul", OracleBinding(6)))
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.WIDTH_MISMATCH

    @given(
        value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        t1=st.floats(min_value=1e-9, max_value=1e3),
        factor=st.floats(min_value=1.0, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_tolerance_monotonicity(self, value, t1, factor):
        # Pass at tolerance t implies Pass at every larger tolerance
        t2 = t1 * (1.0 + factor)
        x = [np.array([value])]
        at = {t: bound("remainder", OracleBinding(6, tolerance=t)) for t in (t1, t2)}
        if judge_one("remainder", {}, x, at[t1]).passed:
            assert judge_one("remainder", {}, x, at[t2]).passed


# input ranges known safe in single precision: exp up to log(FLT_MAX) ~ 88.72,
# ELU from -103.972, below which exp(x) rounds to zero
SAFE_REGIONS = {"exp": (-200.0, 88.72), "ELU": (-103.972, 3.4e38)}


class TestRunOracles:
    def test_exp_overflow(self):
        verdict = judge_one("exp", {}, [np.array([89.0])])
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.NAN_OR_INF

    def test_mean_passes(self):
        assert judge_one("mean", {}, [np.array([1.0, 2.0, 3.0])]).passed

    def test_cosine_fig1_reference_mismatch(self):
        verdict = judge_one("CosineSimilarity", {},
                              [np.array(FIG1_Y), np.array(FIG1_X)])
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.REFERENCE_MISMATCH

    def test_unimplemented_is_capability_error(self):
        with pytest.raises(CapabilityError):
            judge_one("SVD", {}, [np.array([[1.0]])])

    def test_inputs_never_mutated(self):
        t = np.array([1933053808.0])
        before = t.tobytes()
        judge_one("remainder", {}, [t])
        assert t.tobytes() == before

    def test_deterministic(self):
        t = [np.linspace(-5, 5, 9)]
        v1 = judge_one("Softmax", {}, t)
        v2 = judge_one("Softmax", {}, t)
        assert v1 == v2

    @pytest.mark.parametrize("kernel", ["exp", "ELU"])
    def test_safe_region_inputs_always_pass(self, kernel):
        lo, hi = SAFE_REGIONS[kernel]
        rng = np.random.default_rng(9)
        for _ in range(1000):
            x = rng.uniform(lo, hi, size=(3,))
            assert judge_one(kernel, {}, unit_operands(kernel, x)).passed


SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1e-310, 5e-324]


def row_stack(kernel):
    """Region samples, failure seeds and special-value rows for one kernel."""
    spec = default_registry().get(kernel)
    rng = np.random.default_rng(4)
    rows = [rng.uniform(lo, hi, size=(3, 3)) for lo, hi in spec.generation.regions * 4]
    rows += [np.full((3, 3), s) for s in spec.generation.failure_seeds]
    for v in SPECIAL_VALUES:
        rows.append(np.full((3, 3), v))
        one = rng.uniform(-2.0, 2.0, size=(3, 3))
        one[1, 2] = v
        rows.append(one)
    if kernel in ("inverse", "determinant"):
        for _ in range(12):  # SPD, singular PSD and asymmetric rows
            a = rng.standard_normal((3, 3))
            rows += [a @ a.T + np.eye(3), a @ a.T * 1e-8, a]
        rows += [np.diag([1.0, 1e-12, 1.0]), np.eye(3)]
    return np.stack(rows)


class TestOracleRows:
    @pytest.mark.parametrize("kernel", IMPLEMENTED)
    def test_rows_judged_as_each_row_alone(self, kernel):
        xs = row_stack(kernel)
        params = default_params(kernel, xs.shape[1:])
        stacked = oracle_rows(kernel, params, unit_operand_rows(kernel, xs))
        verdicts = [judge_one(kernel, params, unit_operands(kernel, x)) for x in xs]
        assert [stacked.verdict(i) for i in range(len(xs))] == verdicts
        assert stacked.passed.tolist() == [v.passed for v in verdicts]

    @pytest.mark.parametrize("kernel", ["remainder", "CosineSimilarity", "Softmax", "Div"])
    def test_wide_rows_judged_as_each_row_alone(self, kernel):
        # single-precision operands with a double shadow, as the fuzzer passes them
        wide = unit_operand_rows(kernel, row_stack(kernel))
        narrow = [x.astype(np.float32) for x in wide]
        stacked = oracle_rows(kernel, {}, narrow, wide_inputs=lambda: wide)
        n = max(len(x) for x in wide)
        for i in range(n):
            alone = [x[min(i, len(x) - 1)] for x in narrow]
            alone_wide = [x[min(i, len(x) - 1)] for x in wide]
            assert stacked.verdict(i) == judge_one(kernel, {}, alone, wide_inputs=alone_wide)

    def test_a_verdict_holds_its_failure_class_and_detail_only(self):
        assert [f.name for f in fields(OracleVerdict)] == ["failure_class", "detail"]
        assert (OracleVerdict().passed, OracleVerdict().status) == (True, "Pass")
        failed = OracleVerdict(FailureClass.NAN_OR_INF, "inf")
        assert (failed.passed, failed.status) == (False, "Fail")

    def test_a_verdict_names_a_failure_class_exactly_when_it_fails(self):
        # a verdict stores only its failure class, None for a pass, so "failed
        # with no class" cannot be built; OracleRows.verdict must agree with
        # the rows' mask and name a FailureClass for every failed row
        failed = 0
        for kernel in IMPLEMENTED:
            xs = row_stack(kernel)
            params = default_params(kernel, xs.shape[1:])
            rows = oracle_rows(kernel, params, unit_operand_rows(kernel, xs))
            for i in range(len(xs)):
                verdict = rows.verdict(i)
                assert verdict.passed == rows.passed[i]
                assert (verdict.failure_class is None) == verdict.passed
                assert isinstance(verdict.failure_class, (FailureClass, type(None)))
                failed += not verdict.passed
        assert failed > 0

    def test_spd_mix_skips_only_rows_outside_the_domain(self, caplog):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 1))
        # SPD, ill-conditioned SPD, then asymmetric: its Cholesky factor is NaN,
        # so comparing it would fail; outside the domain it passes
        xs = np.stack([a @ a.T + np.eye(3), b @ b.T + 1e-9 * np.eye(3), a])
        with caplog.at_level(logging.DEBUG, logger="safuzz.oracles"):
            checks = oracle_rows("inverse", {}, [xs]).checks
        assert checks[1].passed.tolist() == [True, False, True]
        assert [r.getMessage() for r in caplog.records] == [
            "oracle 4 unavailable for inverse on 1 of 3 rows"]


def walks(base):
    """One uncut walk of MAX_STEPS steps from base per default schedule, built
    as datagen builds its trajectories: (12, MAX_STEPS + 1, *base.shape)."""
    rng = np.random.default_rng(8)
    amplitude = float(np.max(np.abs(base))) or 1.0
    out = []
    for mc in default_mutation_configs():
        steps = step_sizes(mc, rng, MAX_STEPS) * (amplitude if mc.method == "sinusoidal" else 1.0)
        steps = (steps if mc.direction == "up" else -steps).reshape((-1,) + (1,) * base.ndim)
        rows = np.concatenate([base[None], np.broadcast_to(steps, (MAX_STEPS,) + base.shape)])
        with np.errstate(over="ignore"):
            out.append(np.cumsum(rows, axis=0))
    return np.stack(out)


def judge_stacked_and_alone(kernel, stack):
    """Judge a (walks, steps, *shape) stack in one oracle_rows call and each
    walk alone; every row must get the verdict its walk alone gives it."""
    params = default_params(kernel, stack.shape[2:])
    stacked = oracle_rows(kernel, params, unit_operand_rows(
        kernel, stack.reshape((-1,) + stack.shape[2:])))
    alone = [oracle_rows(kernel, params, unit_operand_rows(kernel, walk)) for walk in stack]
    n = stack.shape[1]
    for w, rows in enumerate(alone):
        assert stacked.passed[w * n:(w + 1) * n].tolist() == rows.passed.tolist()
        assert [stacked.verdict(w * n + i) for i in range(n)] == [
            rows.verdict(i) for i in range(n)]
    return stacked, alone


class TestStackedTrajectories:
    """datagen judges a base's trajectories in stacks: stacking must not
    change any row's verdict."""

    @pytest.mark.parametrize("kernel", IMPLEMENTED)
    def test_every_row_judged_as_its_walk_alone(self, kernel):
        # walks from every failure seed and a base in every region, in one stack
        hints = default_registry().get(kernel).generation
        rng = np.random.default_rng(4)
        bases = [np.full((3, 3), s) for s in hints.failure_seeds]
        bases += [rng.uniform(lo, hi, size=(3, 3)) for lo, hi in hints.regions]
        stacked, _ = judge_stacked_and_alone(kernel, np.concatenate([walks(b) for b in bases]))
        assert stacked.passed.any() and not stacked.passed.all()

    def test_walk_that_ends_the_oracles_early_alone(self):
        # alone, a walk up from 100 fails NaN/inf at every row, so the range
        # oracle never runs; stacked with a passing walk it runs for both
        failing = walks(np.full((3, 3), 100.0))[0]  # exponential, up
        passing = walks(np.zeros((3, 3)))[8]  # sinusoidal, up
        stacked, alone = judge_stacked_and_alone("Softmax", np.stack([failing, passing]))
        assert not alone[0].passed.any() and alone[1].passed.all()
        assert [len(rows.checks) for rows in alone] == [1, 2]
        assert len(stacked.checks) == 2

    @pytest.mark.parametrize("kernel", ["inverse", "determinant"])
    def test_walk_outside_the_cholesky_domain_alone(self, kernel, caplog):
        # alone, an asymmetric walk is outside the SPD domain at every row and
        # the kernel's forward is skipped; stacked with a walk from an
        # ill-conditioned SPD base, which fails the comparison at some rows,
        # its rows are masked out of the comparison instead
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 1))
        asymmetric = walks(a)[8]  # sinusoidal, up: finite and still asymmetric
        spd = walks(b @ b.T + 1e-9 * np.eye(3))[0]  # exponential, up
        with caplog.at_level(logging.DEBUG, logger="safuzz.oracles"):
            _, alone = judge_stacked_and_alone(kernel, np.stack([asymmetric, spd]))
        assert alone[0].checks[1].passed.all()
        assert f"oracle 4 unavailable for {kernel} on 101 of 101 rows" in [
            r.getMessage() for r in caplog.records]
        assert FailureClass.STABLE_ALGO_MISMATCH in [
            alone[1].verdict(i).failure_class for i in range(len(spd))]
