"""Kernel catalog and the unstable-function database."""

import json
import math
import re

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


def forward(name, operands, dtype=np.float32):
    """One execution of a kernel on unstacked operands, as a stack of one."""
    op = op_def(name)
    operands = [np.asarray(x, dtype=dtype) for x in operands]
    params = default_params(name, operands[op.primary].shape)
    return apply_forward(op, params, [x[None] for x in operands], dtype)[0]


def implemented(reg):
    return {n for n, e in reg.entries.items() if e.implemented}


class TestShippedRegistry:
    def test_61_entries(self):
        reg = default_registry()
        assert len(reg.entries) == 61

    def test_executable_entries_are_the_op_table(self):
        # the op table alone says which entries execute: the paper's 25 kernels
        # and the three this tool adds
        reg = default_registry()
        assert implemented(reg) == set(KERNEL_OPS) and len(KERNEL_OPS) == 28
        assert implemented(reg) == set(TABLE_KERNELS) | {"inverse", "determinant", "remainder"}

    def test_names_unique_by_construction(self):
        reg = default_registry()
        assert len(reg.entries) == 61

    def test_every_implemented_kernel_has_oracle_and_grad(self):
        # oracles are enforced at load time; the VJP is a fact of the op table
        reg = default_registry()
        for name in implemented(reg):
            assert reg.get(name).oracle_bindings
            assert KERNEL_OPS[name].vjp is not None


class TestRegistryLoad:
    def _write(self, tmp_path, entries):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(
            {"format_version": 1, "version": "t", "entries": entries}))
        return path

    def _entry(self, name="exp", **over):
        entry = {
            "name": name, "category": "elementwise",
            "oracle_bindings": [{"type": 1}],
            "generation": {"regions": [[-1, 1]], "failure_seeds": []},
        }
        entry.update(over)
        return entry

    def test_duplicate_name_rejected(self, tmp_path):
        path = self._write(tmp_path, [self._entry(), self._entry()])
        with pytest.raises(RegistryError, match="duplicate"):
            registry_load(path)

    # true and 1.0 used to load as type 1
    @pytest.mark.parametrize("otype", [9, True, 1.0, "1"])
    def test_unknown_oracle_tag_rejected(self, tmp_path, otype):
        path = self._write(tmp_path, [self._entry(oracle_bindings=[{"type": otype}])])
        with pytest.raises(RegistryError, match="oracle type"):
            registry_load(path)

    def test_name_outside_op_table_is_metadata(self, tmp_path):
        # hints and bindings do not make an entry executable; the op table does
        path = self._write(tmp_path, [self._entry(name="NotAKernel")])
        assert not registry_load(path).get("NotAKernel").implemented

    def test_metadata_entry_loads_and_is_not_implemented(self, tmp_path):
        path = self._write(tmp_path, [self._entry(name="SVD", oracle_bindings=[{"type": 5}])])
        assert not registry_load(path).get("SVD").implemented

    @pytest.mark.parametrize("otype", [3, 4, 5])
    def test_counterpart_oracle_without_counterpart_rejected(self, tmp_path, otype):
        path = self._write(tmp_path, [self._entry(oracle_bindings=[{"type": otype}])])
        with pytest.raises(RegistryError, match=f"'exp': oracle type {otype} needs a counterpart"):
            registry_load(path)

    @pytest.mark.parametrize("generation", [None, {}], ids=["absent", "empty"])
    def test_implemented_without_generation_hints_rejected(self, tmp_path, generation):
        # build_dataset used to fall back to [-100, 100] for such a kernel
        entry = self._entry(generation=generation)
        with pytest.raises(RegistryError, match="'exp': implemented kernel without generation"):
            registry_load(self._write(tmp_path, [entry]))
        # a metadata entry is never generated for, so it needs no hints
        metadata = {**entry, "name": "SVD"}
        assert not registry_load(self._write(tmp_path, [metadata])).get("SVD").implemented

    @pytest.mark.parametrize("bindings", [[4], [4, 4]])
    def test_stable_algorithm_oracle_alone_rejected(self, tmp_path, bindings):
        # Cholesky judges only SPD rows; every other row used to raise
        # CapabilityError in oracle_rows at fuzz time
        path = self._write(tmp_path, [self._entry(
            name="inverse", oracle_bindings=[{"type": t} for t in bindings])])
        with pytest.raises(RegistryError, match="'inverse': oracle type 4 alone"):
            registry_load(path)

    def test_stable_algorithm_oracle_beside_another_loads(self, tmp_path):
        path = self._write(tmp_path, [self._entry(
            name="inverse", oracle_bindings=[{"type": 4}, {"type": 1}])])
        assert [b.type for b in registry_load(path).get("inverse").oracle_bindings] == [4, 1]

    def test_shipped_file_restates_no_op_table_fact(self):
        raw = json.loads(DEFAULT_REGISTRY_PATH.read_text())
        assert not any({"implemented", "params", "tier"} & set(e) for e in raw["entries"])

    @pytest.mark.parametrize("lo,hi", [("0", "1"), (False, True), ([0], [1]), (0.0, "1"),
                                       (0.0, 10 ** 400)],
                             ids=["strings", "bools", "lists", "one-string", "past-a-double"])
    def test_range_bounds_that_are_no_numbers_rejected(self, tmp_path, lo, hi):
        # strings used to load, and oracle_rows then raised numpy's UFuncNoLoopError;
        # an int past a double's range loaded, and oracle_rows raised OverflowError
        path = self._write(tmp_path, [self._entry(
            name="sigmoid", oracle_bindings=[{"type": 2, "lo": lo, "hi": hi}])])
        with pytest.raises(RegistryError, match="'sigmoid': oracle (lo|hi) .* is (not a number|"
                                                "beyond a double's range)"):
            registry_load(path)

    @pytest.mark.parametrize("category", [None, 5, ["elementwise"]], ids=["null", "number", "list"])
    def test_category_that_is_no_string_rejected(self, tmp_path, category):
        path = self._write(tmp_path, [self._entry(category=category)])
        with pytest.raises(RegistryError, match="'exp': category .* is not a string"):
            registry_load(path)

    def test_integer_bounds_and_tolerance_load(self, tmp_path):
        path = self._write(tmp_path, [self._entry(name="sigmoid", oracle_bindings=[
            {"type": 1, "tolerance": 1}, {"type": 2, "lo": 0, "hi": 1}])])
        nan_inf, unit = registry_load(path).get("sigmoid").oracle_bindings
        assert nan_inf.tolerance == 1.0 and (unit.lo, unit.hi) == (0, 1)
        assert type(unit.lo) is float and type(unit.hi) is float

    def test_malformed_entry_cites_name(self, tmp_path):
        path = self._write(tmp_path, [self._entry(oracle_bindings="oops")])
        with pytest.raises(RegistryError, match="exp"):
            registry_load(path)

    @pytest.mark.parametrize("regions", [[], [[1.0, 1.0]], [[2.0, 1.0]],
                                         [[-1.0, 1.0], [0.0, math.inf]], [[-math.inf, 0.0]],
                                         [[math.nan, 1.0]], [[-1e308, 1e308]]],
                             ids=["empty", "zero-width", "reversed", "inf-hi", "inf-lo", "nan",
                                  "inf-width"])
    def test_empty_or_degenerate_regions_rejected(self, tmp_path, regions):
        # an empty list used to load and then divide by zero in build_dataset
        path = self._write(tmp_path, [self._entry(generation={"regions": regions})])
        with pytest.raises(RegistryError, match="'exp': generation regions"):
            registry_load(path)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, math.nan, math.inf, True, "1e-6", [1e-6]])
    def test_tolerance_not_positive_and_finite_rejected(self, tmp_path, tolerance):
        # NaN and inf used to load: NaN fails every inexact comparison, inf passes all;
        # so did true as a tolerance of 1.0 and "1e-6" as 1e-06
        path = self._write(tmp_path, [self._entry(
            oracle_bindings=[{"type": 1, "tolerance": tolerance}])])
        with pytest.raises(RegistryError,
                           match="'exp': tolerance .* is not a positive finite number"):
            registry_load(path)

    @pytest.mark.parametrize("eps", [0.0, -1e-8, math.nan, math.inf])
    def test_zero_epsilon_not_positive_and_finite_rejected(self, tmp_path, eps):
        # unchecked before: a NaN shift made every zero feature NaN in apply_scaling
        path = self._write(tmp_path, [self._entry(
            generation={"regions": [[-1, 1]], "zero_epsilon": eps})])
        with pytest.raises(RegistryError,
                           match="'exp': zero_epsilon .* is not a positive finite number"):
            registry_load(path)

    @pytest.mark.parametrize("eps", [None, 1e-8, 1e-6])
    def test_positive_finite_zero_epsilon_loads(self, tmp_path, eps):
        path = self._write(tmp_path, [self._entry(
            oracle_bindings=[{"type": 1, "tolerance": 1e-6}],
            generation={"regions": [[-1, 1]], "zero_epsilon": eps})])
        assert registry_load(path).get("exp").generation.zero_epsilon == eps

    # true and 1.0 used to load as version 1
    @pytest.mark.parametrize("version", [99, True, 1.0, "1", None])
    def test_bad_format_version(self, tmp_path, version):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({"format_version": version, "entries": []}))
        with pytest.raises(RegistryError, match="format_version"):
            registry_load(path)

    @pytest.mark.parametrize("doc, message", [
        ([], "registry [] is not a JSON object"),
        ({"format_version": 1, "entries": 5}, "registry entries 5 is not a JSON list"),
        ({"format_version": 1, "entries": [5]}, "registry entry 5 is not a JSON object"),
        # str() used to load it as "5", which reports then carried
        ({"format_version": 1, "version": 5, "entries": []}, "registry version 5 is not a string"),
    ], ids=["top_level_list", "numeric_entries", "numeric_entry", "numeric_version"])
    def test_malformed_registry_file_rejected(self, tmp_path, doc, message):
        # each used to escape as a raw AttributeError or TypeError
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RegistryError, match=re.escape(message)):
            registry_load(path)

    def test_int_of_more_digits_than_python_converts_rejected(self, tmp_path):
        # it used to escape as a bare ValueError
        path = tmp_path / "reg.json"
        path.write_text('{"format_version": ' + "9" * 5000 + "}")
        with pytest.raises(RegistryError, match="cannot read registry file"):
            registry_load(path)

    @pytest.mark.parametrize("generation, message", [
        ({"regions": [["-1", "1"]]}, "region bound '-1' is not a number"),
        ({"regions": [[True, 2]]}, "region bound True is not a number"),
        ({"regions": [[-1, 10 ** 400]]}, "region bound 100000000000000000...0000000000000000000 "
                                         "is beyond a double's range"),
        ({"regions": [[-1, 1]], "failure_seeds": ["88"]}, "failure seed '88' is not a number"),
        ({"regions": [[-1, 1]], "failure_seeds": [True]}, "failure seed True is not a number"),
        ({"regions": [[-1, 1]], "zero_epsilon": "1e-3"},
         "zero_epsilon '1e-3' is not a positive finite number"),
        ({"regions": [[-1, 1]], "zero_epsilon": True},
         "zero_epsilon True is not a positive finite number"),
    ], ids=["text_region", "boolean_region", "int_region_past_double", "text_seed",
            "boolean_seed", "text_epsilon", "boolean_epsilon"])
    def test_generation_hints_that_are_no_numbers_rejected(self, tmp_path, generation, message):
        # float() used to read each (an int past a double's range raised OverflowError)
        path = self._write(tmp_path, [self._entry(generation=generation)])
        with pytest.raises(RegistryError, match=re.escape("'exp': " + message)):
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
    """The fuzz loops never evaluate a site node in a forward, and
    forward_rows checks no shape: each kernel's forward must give the shape
    its shape rule states, on every stack of samples, in both precisions."""

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
    def test_bundle_cannot_be_poisoned(self):
        # every call builds its own dict, so a caller's edits reach no other caller
        first = default_params("linear", (3,))
        weight, bias = np.array(first["weight"]), list(first["bias"])
        first["weight"][0][0] = 99.0
        first["bias"] = [0.0] * 3
        second = default_params("linear", (3,))
        assert np.array_equal(np.asarray(second["weight"]), weight)
        assert second["bias"] == bias


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
