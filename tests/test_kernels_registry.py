"""Kernel catalog and the unstable-function database."""

import json
import math

import numpy as np
import pytest

from safuzz.errors import CapabilityError, RegistryError
from safuzz.kernels import (
    ALL_OPS,
    KERNEL_OPS,
    apply_forward,
    cosine_reference,
    default_params,
    op_def,
    unit_operand_rows,
)
from safuzz.registry import DEFAULT_REGISTRY_PATH, default_registry, registry_load
from test_oracles import judge_one

TABLE_KERNELS = [
    "Softmax", "log", "sigmoid", "exp", "logSoftmax", "sqrt", "tanh", "ReLU",
    "ELU", "SoftPlus", "rSqrt", "Div", "linear", "matmul", "mean", "reciprocal",
    "CosineSimilarity", "acos", "cosh", "sinh", "square", "pow", "sum",
    "CrossEntropy", "Conv2d",
]

FIG1_X = [2606.66824394, 2477.72226966, 3251.84008903]
# the published y digits do not reproduce the published similarity values;
# this vector satisfies all stated facts: norm 9.2263e-9, reference cosine
# against x of 0.91036362, direction as close to the published digits as
# those constraints allow (see tests below)
FIG1_Y = [2.39482538431398614e-09, 7.39647891389834008e-09, 4.96805019548943425e-09]


def forward(name, operands, dtype=np.float32, params=None):
    """One execution of a kernel on unstacked operands, as a stack of one."""
    op = op_def(name)
    operands = [np.asarray(x, dtype=dtype) for x in operands]
    if params is None:
        params = default_params(name, operands[op.primary].shape)
    return apply_forward(op, params, [x[None] for x in operands], dtype)[0]


def implemented(reg):
    return {n for n, e in reg.entries.items() if e.implemented}


class TestShippedRegistry:
    def test_61_entries(self):
        reg = default_registry()
        assert len(reg.entries) == 61

    def test_core_25_match_published_list(self):
        reg = default_registry()
        assert sorted(reg.core_names()) == sorted(TABLE_KERNELS)

    def test_extended_kernels_also_implemented(self):
        reg = default_registry()
        assert {"inverse", "determinant", "remainder"} <= implemented(reg)
        assert len(implemented(reg)) >= 25

    def test_names_unique_by_construction(self):
        reg = default_registry()
        assert len(set(reg.names())) == 61

    def test_every_implemented_kernel_has_oracle_and_grad(self):
        # enforced at load time; re-assert on the shipped file
        reg = default_registry()
        for name in implemented(reg):
            assert reg.get(name).oracle_bindings


class TestRegistryLoad:
    def _write(self, tmp_path, entries):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(
            {"format_version": 1, "version": "t", "entries": entries}))
        return path

    def _entry(self, name="exp", **over):
        entry = {
            "name": name, "category": "elementwise", "tier": "core",
            "oracle_bindings": [{"type": 1}],
            "generation": {"regions": [[-1, 1]], "failure_seeds": []},
        }
        entry.update(over)
        return entry

    def test_duplicate_name_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._entry(), self._entry()])
        with pytest.raises(RegistryError, match="duplicate"):
            registry_load(path)

    def test_unknown_oracle_tag_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._entry(oracle_bindings=[{"type": 9}])])
        with pytest.raises(RegistryError, match="oracle type"):
            registry_load(path)

    def test_implemented_without_kernel_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._entry(name="NotAKernel")])
        with pytest.raises(RegistryError, match="NotAKernel"):
            registry_load(path)

    @pytest.mark.parametrize("name,tier", [("exp", "metadata"), ("NotAKernel", "extended"),
                                           ("exp", "experimental")])
    def test_tier_disagreeing_with_op_table_rejected(self, tmp_path, name, tier):
        path = self._write(tmp_path, [self._entry(name=name, tier=tier)])
        with pytest.raises(RegistryError, match=f"'{name}': tier '{tier}'"):
            registry_load(path)

    def test_metadata_entry_loads_and_is_not_implemented(self, tmp_path):
        path = self._write(tmp_path, [self._entry(name="SVD", tier="metadata",
                                                  oracle_bindings=[{"type": 5}])])
        assert not registry_load(path).get("SVD").implemented

    @pytest.mark.parametrize("otype", [3, 4, 5])
    def test_counterpart_oracle_without_counterpart_rejected(self, tmp_path, otype):
        path = self._write(tmp_path, [self._entry(oracle_bindings=[{"type": otype}])])
        with pytest.raises(RegistryError, match=f"'exp': oracle type {otype} needs a counterpart"):
            registry_load(path)

    def test_shipped_file_restates_no_op_table_fact(self):
        raw = json.loads(DEFAULT_REGISTRY_PATH.read_text())
        assert not any({"implemented", "params"} & set(e) for e in raw["entries"])

    def test_malformed_entry_cites_name(self, tmp_path):
        path = self._write(tmp_path, [self._entry(oracle_bindings="oops")])
        with pytest.raises(RegistryError, match="exp"):
            registry_load(path)

    @pytest.mark.parametrize("regions", [[], [[1.0, 1.0]], [[2.0, 1.0]],
                                         [[-1.0, 1.0], [0.0, math.inf]], [[-math.inf, 0.0]],
                                         [[math.nan, 1.0]]],
                             ids=["empty", "zero-width", "reversed", "inf-hi", "inf-lo", "nan"])
    def test_empty_or_degenerate_regions_rejected(self, tmp_path, regions):
        # an empty list used to load and then divide by zero in build_dataset
        path = self._write(tmp_path, [self._entry(generation={"regions": regions})])
        with pytest.raises(RegistryError, match="'exp': generation regions"):
            registry_load(path)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, math.nan, math.inf])
    def test_tolerance_not_positive_and_finite_rejected(self, tmp_path, tolerance):
        # NaN and inf used to load: NaN fails every inexact comparison, inf passes all
        path = self._write(tmp_path, [self._entry(
            oracle_bindings=[{"type": 1, "tolerance": tolerance}])])
        with pytest.raises(RegistryError, match="'exp': tolerance must be positive and finite"):
            registry_load(path)

    @pytest.mark.parametrize("eps", [0.0, -1e-8, math.nan, math.inf])
    def test_zero_epsilon_not_positive_and_finite_rejected(self, tmp_path, eps):
        # unchecked before: a NaN shift made every zero feature NaN in apply_scaling
        path = self._write(tmp_path, [self._entry(
            generation={"regions": [[-1, 1]], "zero_epsilon": eps})])
        with pytest.raises(RegistryError, match="'exp': zero_epsilon must be positive and finite"):
            registry_load(path)

    @pytest.mark.parametrize("eps", [None, 1e-8, 1e-6])
    def test_positive_finite_zero_epsilon_loads(self, tmp_path, eps):
        path = self._write(tmp_path, [self._entry(
            oracle_bindings=[{"type": 1, "tolerance": 1e-6}],
            generation={"regions": [[-1, 1]], "zero_epsilon": eps})])
        assert registry_load(path).get("exp").generation.zero_epsilon == eps

    def test_bad_format_version(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({"format_version": 99, "entries": []}))
        with pytest.raises(RegistryError, match="format_version"):
            registry_load(path)


class TestKernelEval:
    """Single kernel executions through apply_forward, the one forward path."""

    def test_softmax_uniform(self):
        out = forward("Softmax", [[0.0, 0.0, 0.0]])
        assert np.allclose(out, [1 / 3] * 3, atol=1e-6)

    def test_cosine_clamped_variant_fig1(self):
        out = forward("CosineSimilarity", [FIG1_Y, FIG1_X], np.float64)
        assert out.shape == ()
        assert float(out) == pytest.approx(0.8399, abs=1e-3)

    def test_cosine_reference_variant_fig1(self):
        ref = cosine_reference(np.asarray([FIG1_Y]), np.asarray([FIG1_X]))
        assert ref.shape == (1,)
        assert float(ref[0]) == pytest.approx(0.91036362, abs=5e-4)

    def test_fig1_y_matches_published_norm(self):
        assert np.linalg.norm(FIG1_Y) == pytest.approx(9.2263e-9, rel=1e-9)

    def test_unimplemented_kernel_is_capability_error(self):
        with pytest.raises(CapabilityError):
            forward("SVD", [[[1.0, 0.0], [0.0, 1.0]]])

    def test_nan_inf_allowed_in_output(self):
        out = forward("log", [[0.0]])
        assert np.isneginf(out[0])

    def test_reference_cosine_within_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.standard_normal(9) * rng.uniform(1e-3, 1e3)
            b = rng.standard_normal(9) * rng.uniform(1e-3, 1e3)
            val = float(cosine_reference(a[None], b[None])[0])
            assert -1 - 1e-6 <= val <= 1 + 1e-6


class TestForwardShapes:
    """The fuzz loops never evaluate a site node in a forward, so
    forward_rows's shape check does not see a kernel's output: each forward
    must give the shape its shape rule states, on every stack of samples,
    in both precisions."""

    SHAPES = [(), (1,), (4,), (3, 3), (2, 3), (2, 2, 2)]

    @pytest.mark.parametrize("name", sorted(KERNEL_OPS))
    def test_forward_shape_follows_the_shape_rule(self, name):
        op = op_def(name)
        checked = 0
        for shape in self.SHAPES:
            for batch in (1, 4):
                xs = np.random.default_rng(batch).uniform(0.5, 2.0, size=(batch,) + shape)
                try:
                    params = default_params(name, shape)
                    operands = unit_operand_rows(name, xs)
                    rule = op.shape_rule(params, *[x.shape[1:] for x in operands])
                except (ValueError, IndexError):  # the kernel does not take this shape
                    continue
                for dtype in (np.float32, np.float64):
                    out = apply_forward(op, params, [x.astype(dtype) for x in operands], dtype)
                    assert out.shape == (batch,) + tuple(rule), (shape, batch, dtype)
                checked += 1
        assert checked >= 2


class TestValueFreeVjp:
    """An op marked value_free_vjp lets the fuzz loops compute a gradient
    once per search: its VJP must not read an operand value."""

    SHAPES = [(), (3,), (2, 3), (4, 4), (2, 2, 2)]
    # params for the helper ops, whose nodes always state them
    PARAMS = {"scale": {"factor": -1.5}}

    @staticmethod
    def _draw(rng, shape):
        """Operand values, some of them non-finite: a VJP that reads none
        gives the same result on them."""
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, size=shape)
        special = rng.uniform(size=shape) < 0.2
        return np.where(special, rng.choice([np.nan, np.inf, -np.inf, 0.0], size=shape), x)

    def test_the_marked_ops(self):
        marked = {name for name, op in ALL_OPS.items() if op.value_free_vjp}
        assert marked == {"add", "sub", "scale", "reshape", "sum", "mean", "linear",
                          "Conv2d", "remainder"}

    @pytest.mark.parametrize("name", sorted(n for n, op in ALL_OPS.items() if op.value_free_vjp))
    def test_vjp_ignores_operand_values(self, name):
        op = op_def(name)
        rng = np.random.default_rng(7)
        checked = 0
        for shape in self.SHAPES:
            try:
                params = self.PARAMS.get(name) or dict(default_params(name, shape))
                if name == "reshape":
                    params = {"shape": [int(np.prod(shape))]}
                out_shape = op.shape_rule(params, *[shape] * op.arity)
            except (ValueError, IndexError):  # the op does not take this shape
                continue
            g = rng.standard_normal(out_shape)
            grads = [op.vjp(params, g.copy(), [self._draw(rng, shape) for _ in range(op.arity)])
                     for _ in range(2)]
            for first, second in zip(*grads):
                first, second = np.asarray(first), np.asarray(second)
                assert first.shape == second.shape == shape, (name, shape)
                assert first.tobytes() == second.tobytes(), (name, shape)
            checked += 1
        assert checked >= 2


class TestDefaultParams:
    def test_cached_bundle_cannot_be_poisoned(self):
        first = default_params("linear", (3,))
        weight = np.asarray(first["weight"])
        with pytest.raises(TypeError):
            first["weight"] = [[0.0] * 3] * 3
        with pytest.raises(TypeError):
            first["weight"][0][0] = 99.0
        with pytest.raises(TypeError):
            first["bias"][0] = 99.0
        second = default_params("linear", (3,))
        assert np.array_equal(np.asarray(second["weight"]), weight)
        assert second["bias"] == first["bias"]

    def test_frozen_params_evaluate_like_lists(self):
        x = [0.5, -1.0, 2.0]
        frozen = default_params("linear", (3,))
        as_lists = {k: np.asarray(v).tolist() for k, v in frozen.items()}
        out = forward("linear", [x], np.float64)
        assert np.array_equal(out, forward("linear", [x], np.float64, params=as_lists))


# input ranges known safe in single precision: exp up to log(FLT_MAX) ~ 88.72,
# ELU from -103.972, below which exp(x) rounds to zero
SAFE_REGIONS = {"exp": (-200.0, 88.72), "ELU": (-103.972, 3.4e38)}


class TestSafeConditions:
    """The oracles, not a recorded condition, decide where a kernel fails."""

    def test_exp_boundary(self):
        assert judge_one("exp", {}, [np.array([88.0])]).passed
        assert not judge_one("exp", {}, [np.array([89.0])]).passed

    @pytest.mark.parametrize("kernel", ["exp", "ELU"])
    def test_safe_region_produces_finite_single_outputs(self, kernel):
        lo, hi = SAFE_REGIONS[kernel]
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.uniform(lo, hi, size=(3,))
            out = forward(kernel, [a[0] for a in unit_operand_rows(kernel, x[None])])
            assert np.isfinite(out).all()
