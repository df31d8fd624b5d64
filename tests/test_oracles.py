"""The six oracle families and the dispatcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safuzz.errors import CapabilityError, OracleUnavailable
from safuzz.kernels import unit_operand_rows, unit_operands
from safuzz.oracles import (
    FailureClass,
    OracleVerdict,
    check_increased_width,
    check_nan_inf,
    check_range,
    check_reference_consistency,
    check_rewrite,
    check_stable_algorithm,
    oracle_rows,
    run_oracles,
)
from safuzz.registry import default_registry, kernel_eval
from safuzz.tensor import Precision, Tensor

FIG1_X = [2606.66824394, 2477.72226966, 3251.84008903]
FIG1_Y = [2.39482538431398614e-09, 7.39647891389834008e-09, 4.96805019548943425e-09]


class TestVerdictInvariants:
    def test_fail_requires_class(self):
        with pytest.raises(ValueError):
            OracleVerdict(passed=False)

    def test_pass_forbids_class(self):
        with pytest.raises(ValueError):
            OracleVerdict(passed=True, failure_class=FailureClass.NAN_OR_INF)


class TestNanInf:
    def test_log_zero_fails(self):
        out = kernel_eval("log", [Tensor.of([0.0])], Precision.SINGLE)
        verdict = check_nan_inf(out)
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.NAN_OR_INF

    def test_softmax_passes(self):
        out = kernel_eval("Softmax", [Tensor.of([0.0, 0.0, 0.0])], Precision.SINGLE)
        assert check_nan_inf(out).passed

    def test_subnormal_reciprocal_overflows_single(self):
        out = kernel_eval("Div", [Tensor.of([1.0]), Tensor.of([1e-45])],
                          Precision.SINGLE)
        verdict = check_nan_inf(out)
        assert not verdict.passed and verdict.failure_class is FailureClass.NAN_OR_INF


class TestRange:
    def test_cosine_above_one_fails(self):
        verdict = check_range(Tensor.of([1.0000002]), -1.0, 1.0)
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.OUT_OF_RANGE

    def test_bounded_trig_value_passes(self):
        assert check_range(Tensor.of([0.5]), -1.0, 1.0).passed

    def test_closed_interval_boundary_passes(self):
        assert check_range(Tensor.of([-1.0]), -1.0, 1.0).passed

    def test_nan_counts_as_out_of_range(self):
        assert not check_range(Tensor.of([np.nan]), -1.0, 1.0).passed


class TestRewrite:
    def test_sqrt_ratio_exact_at_one(self):
        assert check_rewrite("sqrt_ratio", [Tensor.of([1.0])]).passed

    def test_shifted_log_large_magnitude_fails(self):
        # frozen sweep result: x = 1e9+100, shift 1e9, y = 1.001 loses the
        # log term entirely inside the absorbed sum (float32 spacing 64)
        verdict = check_rewrite("shifted_log_diff",
                                [Tensor.of([1e9 + 100.0, 1e9, 1.001])])
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.REWRITE_MISMATCH

    def test_logsoftmax_overflow_fails(self):
        verdict = check_rewrite("logSoftmax", [Tensor.of([1000.0, 0.0, 0.0])])
        assert not verdict.passed

    def test_missing_rewrite_is_capability_error(self):
        with pytest.raises(CapabilityError):
            check_rewrite("mean", [Tensor.of([1.0])])


class TestStableAlgorithm:
    def test_identity_inverse_passes(self):
        assert check_stable_algorithm("inverse", [Tensor.of(np.eye(3))]).passed

    def test_spd_diagonal_matches_cholesky(self):
        # both elimination orders are exact on a diagonal SPD matrix, so the
        # frozen expected verdict (computed in double on both paths) is Pass
        verdict = check_stable_algorithm(
            "inverse", [Tensor.of(np.diag([1.0, 1e-12, 1.0]))]
        )
        assert verdict.passed

    def test_non_spd_is_unavailable(self):
        with pytest.raises(OracleUnavailable):
            check_stable_algorithm("inverse", [Tensor.of([[0.0, 1.0], [1.0, 0.0]])])

    def test_non_square_is_unavailable(self):
        with pytest.raises(OracleUnavailable):
            check_stable_algorithm("inverse", [Tensor.of([[1.0, 2.0, 3.0]])])

    def test_determinant_pass_on_well_conditioned(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        spd = a @ a.T + 3 * np.eye(3)
        assert check_stable_algorithm("determinant", [Tensor.of(spd)]).passed


class TestReferenceConsistency:
    def test_fig1_vectors_fail(self):
        verdict = check_reference_consistency(
            "CosineSimilarity", [Tensor.of(FIG1_Y), Tensor.of(FIG1_X)]
        )
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.REFERENCE_MISMATCH

    def test_self_similarity_passes(self):
        t = Tensor.of([1.0, 2.0, 3.0])
        assert check_reference_consistency("CosineSimilarity", [t, t]).passed

    def test_unclamped_norms_always_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a = rng.standard_normal(9)
            a *= rng.uniform(1e-3, 10) / np.linalg.norm(a)
            b = rng.standard_normal(9)
            b *= rng.uniform(1e-3, 10) / np.linalg.norm(b)
            assert check_reference_consistency(
                "CosineSimilarity", [Tensor.of(a), Tensor.of(b)]
            ).passed

    def test_missing_reference_is_capability_error(self):
        with pytest.raises(CapabilityError):
            check_reference_consistency("mean", [Tensor.of([1.0])])


class TestIncreasedWidth:
    def test_remainder_width_bug_exact(self):
        verdict = check_increased_width("remainder", [Tensor.of([1933053808.0])])
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.WIDTH_MISMATCH
        # the exact single/double values behind the mismatch
        single = kernel_eval("remainder", [Tensor.of([1933053808.0])], Precision.SINGLE)
        double = kernel_eval("remainder", [Tensor.of([1933053808.0])], Precision.DOUBLE)
        assert single.elements[0] == 35.0
        assert double.elements[0] == 19.0

    def test_small_remainder_agrees(self):
        assert check_increased_width("remainder", [Tensor.of([10.0])]).passed

    def test_matmul_overflow_vs_finite_double(self):
        a = Tensor.of(np.full((3, 3), 1.1e19))
        b = Tensor.of(np.full((3, 3), 1.2e19))
        verdict = check_increased_width("matmul", [a, b])
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
        x = [Tensor.of([value])]
        if check_increased_width("remainder", x, tolerance=t1).passed:
            assert check_increased_width("remainder", x, tolerance=t2).passed


class TestRunOracles:
    def test_exp_overflow(self):
        verdict = run_oracles("exp", [Tensor.of([89.0])])
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.NAN_OR_INF

    def test_mean_passes(self):
        assert run_oracles("mean", [Tensor.of([1.0, 2.0, 3.0])]).passed

    def test_cosine_fig1_reference_mismatch(self):
        verdict = run_oracles("CosineSimilarity",
                              [Tensor.of(FIG1_Y), Tensor.of(FIG1_X)])
        assert not verdict.passed
        assert verdict.failure_class is FailureClass.REFERENCE_MISMATCH

    def test_unimplemented_is_capability_error(self):
        with pytest.raises(CapabilityError):
            run_oracles("SVD", [Tensor.of([[1.0]])])

    def test_inputs_never_mutated(self):
        t = Tensor.of([1933053808.0])
        before = t.data.tobytes()
        run_oracles("remainder", [t])
        assert t.data.tobytes() == before

    def test_deterministic(self):
        t = [Tensor.of(np.linspace(-5, 5, 9))]
        v1 = run_oracles("Softmax", t)
        v2 = run_oracles("Softmax", t)
        assert v1 == v2

    @pytest.mark.parametrize("kernel", ["exp", "ELU"])
    def test_safe_region_inputs_always_pass(self, kernel):
        reg = default_registry()
        cond = reg.get(kernel).safe_condition
        lo = cond.lo if cond.lo is not None else -200.0
        hi = min(cond.hi, 3.4e38)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            x = Tensor(rng.uniform(lo, hi, size=(3,)))
            assert run_oracles(kernel, unit_operands(kernel, x)).passed


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
    @pytest.mark.parametrize("kernel", default_registry().implemented_names())
    def test_rows_judged_as_each_row_alone(self, kernel):
        xs = row_stack(kernel)
        stacked = oracle_rows(kernel, unit_operand_rows(kernel, xs))
        verdicts = [run_oracles(kernel, unit_operands(kernel, Tensor(x))) for x in xs]
        assert [stacked.verdict(i) for i in range(len(xs))] == verdicts
        assert stacked.passed.tolist() == [v.passed for v in verdicts]

    @pytest.mark.parametrize("kernel", ["remainder", "CosineSimilarity", "Softmax", "Div"])
    def test_wide_rows_judged_as_each_row_alone(self, kernel):
        # single-precision operands with a double shadow, as the fuzzer passes them
        wide = unit_operand_rows(kernel, row_stack(kernel))
        narrow = [x.astype(np.float32) for x in wide]
        stacked = oracle_rows(kernel, narrow, wide_inputs=wide)
        n = max(len(x) for x in wide)
        for i in range(n):
            alone = [Tensor(x[min(i, len(x) - 1)]) for x in narrow]
            alone_wide = [Tensor(x[min(i, len(x) - 1)]) for x in wide]
            assert stacked.verdict(i) == run_oracles(kernel, alone, wide_inputs=alone_wide)

    def test_spd_mix_skips_only_rows_outside_the_domain(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        xs = np.stack([a @ a.T + np.eye(3), a])  # SPD, then asymmetric
        checks = oracle_rows("inverse", [xs]).checks
        assert checks[1].judged.tolist() == [True, False]
