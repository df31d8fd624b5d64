"""The outside value type, graph evaluation and reverse-mode differentiation."""

import math
import re

import numpy as np
import pytest

from safuzz.autodiff import backward, finite_diff_grad, forward_rows
from safuzz.corpus import corpus_manifest
from safuzz.errors import GraphParseError, OracleUnavailable, UsageError
from safuzz.fuzzer import scan_for_unstable, validate_failure
from safuzz.graph import Graph, InputDecl, Node
from safuzz.kernels import ALL_OPS, apply_forward, default_params, op_def
from safuzz.registry import default_registry
from safuzz.oracles import FailureClass
from safuzz.tensor import Tensor


def chain(ops, input_shape, bounds=None):
    """A single-input pipeline graph: each (node_id, op, params) consumes the
    previous node."""
    nodes, prev = [], "x"
    for node_id, op, params in ops:
        nodes.append(Node(id=node_id, op=op, inputs=(prev,), params=params))
        prev = node_id
    return Graph([InputDecl(id="x", shape=tuple(input_shape), bounds=bounds)], nodes, prev)


def single_op(op, shape=(1,), params=None, bounds=None):
    if params is None:
        params = default_params(op, tuple(shape))
    return chain([("y", op, dict(params))], shape, bounds=bounds)


class TestTensor:
    def test_nan_inf_are_data(self):
        t = Tensor(np.array([np.nan, np.inf, -np.inf]))
        assert np.isnan(t.data[0])
        assert np.isinf(t.data[1])

    def test_rank_limit(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2, 2, 2)))

    def test_immutable(self):
        t = Tensor(np.array([1.0]))
        with pytest.raises(ValueError):
            t.data[0] = 2.0

    def test_numpy_reads_a_copy(self):
        t = Tensor(np.array([1.5, 2.5]))
        x = np.array(t, dtype=np.float32)
        assert x.dtype == np.float32 and x.tolist() == [1.5, 2.5]
        x[0] = 0.0
        assert t.data.tolist() == [1.5, 2.5]

    def test_validate_failure_accepts_a_tensor(self):
        # how a caller outside the package re-validates a failing input
        g = single_op("exp")
        site = scan_for_unstable(g).sites[0]
        hit = validate_failure(g, site, [Tensor(np.asarray([89.0], dtype=np.float64))])
        assert hit.failure_class is FailureClass.NAN_OR_INF
        assert validate_failure(g, site, [Tensor(np.asarray([1.0]))]).passed


class TestForwardOfOne:
    """forward_rows on a stack of one sample."""

    def test_scale_linear(self):
        g = single_op("scale", (3,), {"factor": 2.0})
        values = forward_rows(g, [np.array([[1.0, 2.0, 3.0]])], np.float64, "y")
        assert values["y"].tolist() == [[2.0, 4.0, 6.0]]

    def test_exp_overflows_in_single(self):
        g = single_op("exp")
        values = forward_rows(g, [np.array([[89.0]])], np.float32, "y")
        assert np.isposinf(values["y"][0, 0])

    def test_exp_finite_in_double(self):
        # high-precision oracle: e^89 = 4.4896128e38
        g = single_op("exp")
        values = forward_rows(g, [np.array([[89.0]])], np.float64, "y")
        assert values["y"][0, 0] == pytest.approx(4.4896128191743455e38)

    def test_stop_at_skips_downstream(self):
        g = chain([("a", "scale", {"factor": 2.0}), ("b", "exp", {})], (1,))
        values = forward_rows(g, [np.array([[1.0]])], np.float64, "a")
        assert "a" in values and "b" not in values

    def test_deterministic_bits(self):
        g = chain([("a", "Softmax", {}), ("b", "log", {})], (4,))
        x = [np.array([[0.3, -1.2, 5.0, 0.01]])]
        t1 = forward_rows(g, x, np.float32, "b")["b"]
        t2 = forward_rows(g, x, np.float32, "b")["b"]
        assert t1.tobytes() == t2.tobytes()

    def test_constant_is_read_only_and_equals_its_forward(self):
        value = [[1.5, -2.0, 1e-40], [0.1, 3e38, 7.0], [1, 2, 3]]
        g = Graph([InputDecl("x", (3, 3))],
                  [Node("w", "constant", (), {"value": value}),
                   Node("y", "matmul", ("x", "w"))], "y")
        for dtype in (np.float32, np.float64):
            first, second = (forward_rows(g, [np.ones((1, 3, 3))], dtype, "y")["w"]
                             for _ in range(2))
            expected = apply_forward(op_def("constant"), {"value": value}, [], dtype)
            for made in (first, second):
                assert not made.flags.writeable
                assert made.dtype == expected.dtype == dtype
                assert made.tobytes() == expected.tobytes()
            assert np.shares_memory(first, second)  # made once per graph and dtype


class TestForwardRows:
    """The stacked forward of the random baseline's chunks: one row per
    sample, each bit for bit the forward of the sample alone."""

    @staticmethod
    def _samples(graph, rng):
        samples = []
        for scale in (1.0, 1e20, 1e-20):
            for _ in range(2):
                samples.append([rng.uniform(-10.0, 10.0, size=d.shape) * scale
                                for d in graph.inputs])
        samples.append([np.full(d.shape, np.inf) for d in graph.inputs])
        return samples

    def test_rows_equal_the_forward_of_each_sample(self):
        reg = default_registry()
        rng = np.random.default_rng(3)
        for spec in corpus_manifest(reg):
            graph = spec.to_graph(reg)
            samples = self._samples(graph, rng)
            stacked = [np.stack(col) for col in zip(*samples)]
            for dtype in (np.float32, np.float64):
                rows = forward_rows(graph, stacked, dtype, graph.output)
                for i, sample in enumerate(samples):
                    values = forward_rows(graph, [x[None] for x in sample], dtype, graph.output)
                    assert set(rows) == set(values)
                    for node_id, value in values.items():
                        row = rows[node_id][i if len(rows[node_id]) > 1 else 0]
                        value = value[0]
                        assert row.dtype == value.dtype, (spec.name, node_id)
                        assert row.tobytes() == value.tobytes(), (spec.name, node_id, i)

    @pytest.mark.parametrize("name", sorted(ALL_OPS))
    def test_no_forward_writes_an_operand(self, name):
        # forward_rows returns input stacks of its dtype as the input rows,
        # so every kernel reads the caller's own arrays: made read-only here,
        # a write raises, and the stacks must hold their bytes afterwards
        cls = TestNoForwardRaisesOnValues
        arity = op_def(name).arity
        rng = np.random.default_rng(9)
        checked = 0
        for shape in cls.SHAPES:
            # a constant reads no input, but a graph declares at least one
            inputs = [InputDecl(f"x{i}", shape) for i in range(max(arity, 1))]
            operands = tuple(d.id for d in inputs[:arity])
            try:
                graph = Graph(inputs, [Node("y", name, operands, cls._params(name, shape))], "y")
            except GraphParseError:  # the op does not take this shape
                continue
            for dtype in (np.float32, np.float64):
                with np.errstate(over="ignore"):  # 1e300 is inf in float32
                    stacks = [cls._stacks(shape, rng)[-1].astype(dtype) for _ in inputs]
                before = [s.tobytes() for s in stacks]
                for stack in stacks:
                    stack.flags.writeable = False
                rows = forward_rows(graph, stacks, dtype, "y")
                assert all(rows[d.id] is s for d, s in zip(inputs, stacks))
                assert [s.tobytes() for s in stacks] == before, (name, shape, dtype)
            checked += 1
        assert checked >= 1

    def test_constant_is_one_read_only_row(self):
        g = Graph([InputDecl("x", (2,))],
                  [Node("k", "constant", (), {"value": [1.0, 2.0]}),
                   Node("y", "sub", ("x", "k"))], "y")
        rows = forward_rows(g, [np.zeros((5, 2))], np.float32, "y")
        assert rows["k"].shape == (1, 2) and not rows["k"].flags.writeable
        assert rows["y"].tolist() == [[-1.0, -2.0]] * 5
        assert forward_rows(g, [np.zeros((5, 2))], np.float32, stop_at="k").keys() == {"x", "k"}

    def test_a_registry_only_op_is_skipped(self):
        # sin has no executable implementation; s and t need it, y does not
        g = Graph([InputDecl("x", (2,))],
                  [Node("s", "sin", ("x",)), Node("t", "exp", ("s",)), Node("y", "exp", ("x",))],
                  "y", extra_ops=frozenset({"sin"}))
        assert forward_rows(g, [np.zeros((3, 2))], np.float32, stop_at="y").keys() == {"x", "y"}


class _Reads(dict):
    """Params that record each key an op reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestNoForwardRaisesOnValues:
    """No forward of a graph that builds raises, whatever the values and
    params. Both search loops rest on it and have no failure path: the
    random baseline judges a chunk of steps with one stacked forward, and
    the guided loop runs a forward at every step. A kernel that raised on
    some values, as np.linalg.inv raises LinAlgError on a singular matrix,
    or on some params the graph accepted, would need that path back."""

    SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, -1e-45, 3.4e38, -3.4e38,
               1e300, -1e300, 1.0, -1.0]
    SHAPES = [(), (3,), (3, 3), (2, 2, 2)]
    # params for the helper ops, whose nodes always state them
    PARAMS = {"scale": {"factor": -1.5}, "constant": {"value": [1.0, -2.0]}}

    @classmethod
    def _stacks(cls, shape, rng):
        """Stacks of height 1 and 64 drawn from the special values: each
        value alone, then a mixture of all of them, per row and element."""
        fills = [np.full((1,) + shape, v) for v in cls.SPECIAL]
        mixed = rng.choice(cls.SPECIAL, size=(64 - len(fills),) + shape)
        return [*fills, rng.choice(cls.SPECIAL, size=(1,) + shape),
                np.concatenate([*fills, mixed])]

    @pytest.mark.parametrize("name", sorted(ALL_OPS))
    def test_no_op_raises(self, name):
        op = op_def(name)
        rng = np.random.default_rng(5)
        checked = 0
        for shape in self.SHAPES:
            try:
                params = self.PARAMS.get(name) or dict(default_params(name, shape))
                if name == "reshape":
                    params = {"shape": [int(np.prod(shape))]}
                op.shape_rule(params, *[shape] * op.arity)
            except (ValueError, IndexError):  # the op does not take this shape
                continue
            for stack in self._stacks(shape, rng):
                for dtype in (np.float32, np.float64):
                    with np.errstate(over="ignore"):  # 1e300 is inf in float32
                        args = [stack.astype(dtype) for _ in range(op.arity)]
                    apply_forward(op, params, args, dtype)
            checked += 1
        assert checked >= 1

    # what a param may hold in a program file: JSON numbers (Python's json
    # also reads NaN, Infinity and ints past a double), bools, strings, null,
    # nested and empty lists, and objects
    JSON_VALUES = [0, 1, -1, 2.5, -0.5, 1e308, 10 ** 400, math.nan, math.inf, True, False,
                   "", "2", None, [], [[]], [[], []], [2], [1, 0], [2.0, -1.0],
                   [[1.0, 0.0], [0.0, 1.0]], [[1.0], [2.0]], [[1.0, 2.0]], [[[1.0]]],
                   [[1.0], [2.0, 3.0]], [True, 1], ["a"], {}, {"value": 1.0}]
    SWEEP_SHAPES = [(), (1,), (2,), (2, 2)]

    @classmethod
    def _params(cls, name, shape):
        """Params the op takes at shape, where it takes one."""
        if name == "reshape":
            return {"shape": [int(np.prod(shape))]}
        try:
            return dict(cls.PARAMS.get(name) or default_params(name, shape))
        except IndexError:  # linear sizes its weight by a last axis
            return {}

    def test_no_forward_of_a_graph_that_builds_raises(self):
        # each op, with each param key it reads set to each JSON value in
        # turn; wherever the graph builds, the forward of every special
        # value raises nothing and gives the inferred shape
        rng = np.random.default_rng(5)
        built = 0
        for name in sorted(ALL_OPS):
            op = op_def(name)
            keys = set()
            for shape in self.SWEEP_SHAPES:
                reads = _Reads(self._params(name, shape))
                try:
                    op.shape_rule(reads, *[shape] * op.arity)
                except (ValueError, IndexError):
                    pass
                keys |= reads.read
            for shape in self.SWEEP_SHAPES:
                stacks = [self._stacks(shape, rng)[-1] for _ in range(op.arity)]
                stacks = [s[rng.permutation(len(s))] for s in stacks]  # pair values apart
                cases = [self._params(name, shape)]
                cases += [{**cases[0], key: v} for key in sorted(keys) for v in self.JSON_VALUES]
                for params in cases:
                    inputs = [InputDecl(f"x{i}", shape) for i in range(op.arity)]
                    try:
                        graph = Graph(inputs, [Node("y", name, tuple(d.id for d in inputs),
                                                    params)], "y")
                    except GraphParseError:
                        continue
                    built += 1
                    for rows in (1, 64):
                        for dtype in (np.float32, np.float64):
                            with np.errstate(over="ignore"):  # 1e300 is inf in float32
                                out = forward_rows(graph, [s[:rows] for s in stacks], dtype,
                                                   "y")["y"]
                            assert out.shape[1:] == graph.shapes["y"], (name, params)
        assert built > len(ALL_OPS)

    def test_no_corpus_forward_raises(self):
        # and every value it evaluates has the shape the graph inferred
        reg = default_registry()
        rng = np.random.default_rng(5)
        for spec in corpus_manifest(reg):
            graph = spec.to_graph(reg)
            stacks = [self._stacks(tuple(d.shape), rng) for d in graph.inputs]
            for inputs in zip(*stacks):
                for dtype in (np.float32, np.float64):
                    with np.errstate(over="ignore"):
                        rows = forward_rows(graph, list(inputs), dtype, graph.output)
                    assert graph.output in rows
                    for node_id, value in rows.items():
                        assert value.shape[1:] == graph.shapes[node_id], (spec.name, node_id)


class TestBackward:
    def test_scale_constant_derivative(self):
        g = single_op("scale", (1,), {"factor": 3.0})
        values = forward_rows(g, [np.array([[5.0]])], np.float64, "y")
        grads = backward(g, values, "y", np.array([1.0]))
        assert grads[0].tolist() == [3.0]

    def test_square_derivative(self):
        g = single_op("square")
        values = forward_rows(g, [np.array([[2.0]])], np.float64, "y")
        assert backward(g, values, "y", np.array([1.0]))[0].tolist() == [4.0]

    def test_exp_derivative_matches_central_difference(self):
        g = single_op("exp")
        values = forward_rows(g, [np.array([[1.5]])], np.float64, "y")
        grad = backward(g, values, "y", np.array([1.0]))[0][0]
        assert grad == pytest.approx(4.4816890703, abs=1e-6)

    def test_result_does_not_alias_the_seed(self):
        g = single_op("exp")
        values = forward_rows(g, [np.array([[1.0]])], np.float64, "y")
        seed = np.array([1.0])
        grad = backward(g, values, "x", seed)[0]
        seed[0] = 7.0
        assert grad.tolist() == [1.0]

    def test_input_seed_is_its_own_gradient(self):
        # the gradient of a program input's own values: a float64 copy of
        # the seed for that input, zeros for the others
        g = Graph([InputDecl("v", (2,)), InputDecl("s", ()), InputDecl("m", (2, 2))],
                  [Node("y", "exp", ("v",))], "y")
        values = forward_rows(g, [np.ones((1, 2)), np.ones(1), np.ones((1, 2, 2))], np.float32,
                              "y")
        seeds = {"v": np.array([1.5, -0.0], dtype=np.float32), "s": np.array(-2.5),
                 "m": np.array([[np.nan, np.inf], [1e-9, 3.0]])}
        for seed_node, seed in seeds.items():
            before = seed.tobytes()
            grads = backward(g, values, seed_node, seed)
            for decl, grad in zip(g.inputs, grads):
                assert grad.dtype == np.float64 and grad.shape == decl.shape
                if decl.id != seed_node:
                    assert not grad.any()
                    continue
                assert grad.tobytes() == seed.astype(np.float64).tobytes()
                assert not np.shares_memory(grad, seed)
                grad[...] = 0.0
            assert seed.tobytes() == before

    def test_adjoints_always_double(self):
        g = single_op("exp", (2,))
        values = forward_rows(g, [np.array([[0.5, 1.0]], dtype=np.float32)], np.float32, "y")
        grads = backward(g, values, "y", np.array([1.0, 1.0]))
        assert grads[0].dtype == np.float64

    def test_fanout_accumulates(self):
        # y = x*2 + x*3 -> dy/dx = 5
        g = Graph(
            [InputDecl("x", (1,))],
            [
                Node("a", "scale", ("x",), {"factor": 2.0}),
                Node("b", "scale", ("x",), {"factor": 3.0}),
                Node("y", "add", ("a", "b")),
            ],
            "y",
        )
        values = forward_rows(g, [np.array([[1.0]])], np.float64, "y")
        assert backward(g, values, "y", np.array([1.0]))[0].tolist() == [5.0]

    def test_fanout_fault_is_data(self):
        # y = x + (-x) seeded with inf: the adjoint sum at x is inf + (-inf)
        g = Graph(
            [InputDecl("x", (1,))],
            [
                Node("a", "scale", ("x",), {"factor": -1.0}),
                Node("y", "add", ("x", "a")),
            ],
            "y",
        )
        values = forward_rows(g, [np.array([[1.0]])], np.float64, "y")
        with np.errstate(all="raise"):
            grad = backward(g, values, "y", np.array([np.inf]))[0]
        assert np.isnan(grad).all()


class TestFiniteDiff:
    def test_scale(self):
        g = single_op("scale", (2,), {"factor": 3.0})
        grads = finite_diff_grad(g, [np.array([1.0, -4.0])], "y")
        assert np.allclose(grads[0], [3.0, 3.0], atol=1e-7)

    def test_square(self):
        g = single_op("square")
        grads = finite_diff_grad(g, [np.array([2.0])], "y")
        assert grads[0][0] == pytest.approx(4.0, abs=1e-6)

    def test_sigmoid_quarter_slope_at_zero(self):
        g = single_op("sigmoid")
        grads = finite_diff_grad(g, [np.array([0.0])], "y")
        assert grads[0][0] == pytest.approx(0.25, abs=1e-8)

    def test_requires_double(self):
        g = single_op("exp")
        with pytest.raises(UsageError):
            finite_diff_grad(g, [np.array([1.0], dtype=np.float32)], "y")

    def test_nonfinite_probe_unavailable(self):
        g = single_op("log")
        with pytest.raises(OracleUnavailable):
            finite_diff_grad(g, [np.array([0.0])], "y")


# per-kernel sampling ranges inside the stable region (module invariant check;
# the acceptance suite runs the full 100-point version)
GRAD_RANGES = {
    "Softmax": (-5, 5), "log": (0.1, 10), "sigmoid": (-5, 5), "exp": (-5, 5),
    "logSoftmax": (-5, 5), "sqrt": (0.1, 10), "tanh": (-3, 3), "ReLU": (0.2, 5),
    "ELU": (0.2, 3), "SoftPlus": (-5, 5), "rSqrt": (0.3, 10), "linear": (-3, 3),
    "mean": (-5, 5), "reciprocal": (0.5, 5), "acos": (-0.9, 0.9), "cosh": (-3, 3),
    "sinh": (-3, 3), "square": (0.1, 3), "pow": (0.3, 3), "sum": (-5, 5),
    "CrossEntropy": (0.1, 1.0), "Conv2d": (-3, 3),
}
BINARY_GRAD_RANGES = {"Div": (0.5, 5), "matmul": (-3, 3), "CosineSimilarity": (-3, 3)}


def relative_error(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-7)
    return np.abs(a - b) / scale


@pytest.mark.parametrize("kernel", sorted(GRAD_RANGES))
def test_gradient_matches_finite_difference(kernel):
    lo, hi = GRAD_RANGES[kernel]
    g = single_op(kernel, (3, 3))
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.uniform(lo, hi, size=(3, 3))
        values = forward_rows(g, [x[None]], np.float64, "y")
        # non-uniform adjoint exercises the full vector-Jacobian product
        seed = rng.uniform(0.5, 1.5, size=values["y"].shape[1:])
        bw = backward(g, values, "y", seed)[0]
        fd = finite_diff_grad(g, [x], "y", seed_adjoint=seed)[0]
        assert relative_error(bw, fd).max() < 1e-4


@pytest.mark.parametrize("kernel", sorted(BINARY_GRAD_RANGES))
def test_binary_gradient_matches_finite_difference(kernel):
    lo, hi = BINARY_GRAD_RANGES[kernel]
    g = Graph(
        [InputDecl("a", (3, 3)), InputDecl("b", (3, 3))],
        [Node("y", kernel, ("a", "b"))],
        "y",
    )
    rng = np.random.default_rng(13)
    for _ in range(5):
        ts = [rng.uniform(lo, hi, size=(3, 3)) for _ in range(2)]
        values = forward_rows(g, [t[None] for t in ts], np.float64, "y")
        seed = rng.uniform(0.5, 1.5, size=values["y"].shape[1:])
        bw = backward(g, values, "y", seed)
        fd = finite_diff_grad(g, ts, "y", seed_adjoint=seed)
        for got, want in zip(bw, fd):
            assert relative_error(got, want).max() < 1e-4


def test_extended_kernel_gradients():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    spd = a @ a.T + 3 * np.eye(3)
    for kernel in ("inverse", "determinant"):
        g = single_op(kernel, (3, 3))
        values = forward_rows(g, [spd[None]], np.float64, "y")
        seed = np.ones(values["y"].shape[1:])
        bw = backward(g, values, "y", seed)[0]
        fd = finite_diff_grad(g, [spd], "y")[0]
        assert relative_error(bw, fd).max() < 1e-4
    g = single_op("remainder", (3,), {"modulus": 53.0})
    x = rng.uniform(60, 90, size=(3,))
    values = forward_rows(g, [x[None]], np.float64, "y")
    bw = backward(g, values, "y", np.array([1.0, 1.0, 1.0]))[0]
    fd = finite_diff_grad(g, [x], "y")[0]
    assert relative_error(bw, fd).max() < 1e-4


SINGLE_DOUBLE_RANGES = {
    "Softmax": (-1, 1), "log": (0.1, 1), "sigmoid": (-1, 1), "exp": (-1, 1),
    "logSoftmax": (-1, 1), "sqrt": (0.05, 1), "tanh": (-1, 1), "ReLU": (-1, 1),
    "ELU": (-1, 1), "SoftPlus": (-1, 1), "rSqrt": (0.1, 1), "linear": (-1, 1),
    "mean": (-1, 1), "reciprocal": (0.1, 1), "acos": (-0.9, 0.9), "cosh": (-1, 1),
    "sinh": (-1, 1), "square": (-1, 1), "pow": (-1, 1), "sum": (-1, 1),
    "CrossEntropy": (0.1, 1), "Conv2d": (-1, 1),
}


@pytest.mark.parametrize("kernel", sorted(SINGLE_DOUBLE_RANGES))
def test_single_double_agreement_at_moderate_inputs(kernel):
    lo, hi = SINGLE_DOUBLE_RANGES[kernel]
    g = single_op(kernel, (3, 3))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(lo, hi, size=(3, 3))
        ys = forward_rows(g, [x[None].astype(np.float32)], np.float32, "y")
        yd = forward_rows(g, [x[None]], np.float64, "y")
        s = ys["y"].astype(np.float64)
        d = yd["y"]
        finite = np.isfinite(s) & np.isfinite(d)
        err = relative_error(s[finite], d[finite])
        assert err.size == 0 or err.max() < 1e-4


class TestGraphValidation:
    def test_duplicate_id(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            Graph([InputDecl("x", (1,))], [Node("x", "exp", ("x",))], "x")

    def test_forward_reference_is_cycle(self):
        with pytest.raises(GraphParseError, match="before its definition"):
            Graph([InputDecl("x", (1,))],
                  [Node("a", "add", ("x", "b")), Node("b", "exp", ("a",))], "b")

    def test_unknown_op(self):
        with pytest.raises(GraphParseError, match="unknown op"):
            Graph([InputDecl("x", (1,))], [Node("y", "frobnicate", ("x",))], "y")

    def test_shape_rule_violation(self):
        with pytest.raises(GraphParseError, match="matmul"):
            Graph([InputDecl("a", (2, 3)), InputDecl("b", (2, 3))],
                  [Node("y", "matmul", ("a", "b"))], "y")

    @pytest.mark.parametrize("fields, message", [
        ({"shape": (2,), "clamp": True}, "a clamp needs bounds"),
        ({"shape": (2,), "bounds": (-1e308, 1e308)}, "a finite width"),
        ({"shape": (2,), "bounds": (0.0, np.inf)}, "bounds must be finite"),
    ], ids=["clamp-without-bounds", "infinite-width", "infinite-bound"])
    def test_malformed_input_declaration(self, fields, message):
        # each used to build, and then fail or be misread in a search
        with pytest.raises(GraphParseError, match=message):
            InputDecl("x", **fields)

    @pytest.mark.parametrize("shape, params, message", [
        ((2, 0), {}, "input 'x': every dimension must be at least 1, got [2, 0]"),
        ((-1,), {}, "input 'x': every dimension must be at least 1, got [-1]"),
        ((2,), {"weight": [[], []], "bias": []},
         "node 'y': every dimension must be at least 1, got [0]"),
    ], ids=["zero-dimension-input", "negative-dimension-input", "zero-column-linear"])
    def test_every_shape_has_dimensions_of_at_least_1(self, shape, params, message):
        # one rule for declared and inferred shapes; the zero-column linear
        # used to build, and its search then failed mid-way
        op = "linear" if params else "exp"
        with pytest.raises(GraphParseError, match=re.escape(message)):
            Graph([InputDecl("x", shape)], [Node("y", op, ("x",), params)], "y")

    def test_registry_only_op_allowed_with_extra_ops(self):
        g = Graph([InputDecl("x", (2, 2))], [Node("y", "SVD", ("x",))], "y",
                  extra_ops=frozenset({"SVD"}))
        assert g.shapes["y"] is None
