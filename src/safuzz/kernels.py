"""Executable kernel catalog: unstable forwards, gradients, stable counterparts.

Every kernel is implemented in its naive, numerically fragile form on purpose;
triggering those fragilities is the point. Forwards preserve the dtype they
are handed (float32 or float64) so single-precision rounding is real, never
simulated. Gradients (vector-Jacobian products) always run in float64.

The op table (OpDef) holds every fact about a kernel that code reads: arity,
forward, shape rule, gradient and whether it reads operand values, the
operand its soft assertion inspects, and the counterpart that oracle types
3-5 compare the forward with (a stable rewrite, a stable algorithm or an
independent reference). Shape rules read the params they need through
safuzz.jsonfields, so a malformed node fails when its graph is built and
forwards and gradients read array params unchecked; each optional scalar
param has its default in one place.

Forwards and the stable counterparts take a leading batch axis: each operand
is a stack shaped (B, *shape), one row per sample, and the result is stacked
the same way. A row's result does not depend on the other rows, and bit for
bit equals the same computation on that sample alone. Reductions (softmax,
mean, cosine similarity, ...) run over all non-batch axes of a row, treating
each sample as one flat vector. An operand whose batch axis has length 1
broadcasts against the others (a fixed unit-test operand). Gradients stay
per sample, without a batch axis.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from safuzz.errors import CapabilityError
from safuzz.jsonfields import dimensions, number, numeric_array


def _rows(a: np.ndarray) -> np.ndarray:
    """Each sample of a stack as one flat row: (B, *shape) -> (B, size)."""
    return a.reshape(len(a), -1)


def _param_array(params: Mapping, key: str) -> np.ndarray:
    """A required array param as float64; a missing or non-numeric one is a ValueError."""
    return numeric_array(params.get(key), np.float64, f"param '{key}'")


# the optional scalar params (pow, remainder, CosineSimilarity) and the value
# a node that omits one runs with; scale's factor is required
_SCALAR_DEFAULTS = {"exponent": 3.0, "modulus": 53.0, "eps": 1e-8}


def _param_number(params: Mapping, key: str) -> float:
    """A scalar param as a float; a missing required one or a non-number is
    a ValueError."""
    return number(params.get(key, _SCALAR_DEFAULTS.get(key)), f"param '{key}'")


# ---------------------------------------------------------------------------
# forwards (dtype preserving)
# ---------------------------------------------------------------------------

def _fw_add(params, a, b):
    return a + b


def _fw_sub(params, a, b):
    return a - b


def _fw_scale(params, a):
    return a * a.dtype.type(_param_number(params, "factor"))


def _fw_constant(params, *_):
    return np.asarray(params["value"])[None]


def _fw_reshape(params, a):
    return a.reshape((len(a),) + tuple(params["shape"]))


def _fw_exp(params, a):
    return np.exp(a)


def _fw_log(params, a):
    return np.log(a)


def _fw_sqrt(params, a):
    return np.sqrt(a)


def _fw_rsqrt(params, a):
    return a.dtype.type(1.0) / np.sqrt(a)


def _fw_reciprocal(params, a):
    return a.dtype.type(1.0) / a


def _fw_square(params, a):
    return a * a


def _fw_pow(params, a):
    return a ** a.dtype.type(_param_number(params, "exponent"))


def _fw_sigmoid(params, a):
    # naive e^x / (1 + e^x): overflows to NaN for large positive inputs
    e = np.exp(a)
    return e / (a.dtype.type(1.0) + e)


def _fw_tanh(params, a):
    ep, en = np.exp(a), np.exp(-a)
    return (ep - en) / (ep + en)


def _fw_softplus(params, a):
    return np.log(a.dtype.type(1.0) + np.exp(a))


def _fw_elu(params, a):
    return np.where(a > 0, a, np.exp(a) - a.dtype.type(1.0))


def _fw_relu(params, a):
    return np.maximum(a.dtype.type(0.0), a)


def _fw_acos(params, a):
    return np.arccos(a)


def _fw_cosh(params, a):
    return np.cosh(a)


def _fw_sinh(params, a):
    return np.sinh(a)


def _fw_softmax(params, a):
    e = np.exp(_rows(a))
    return (e / e.sum(axis=1, keepdims=True)).reshape(a.shape)


def _fw_logsoftmax(params, a):
    e = np.exp(_rows(a))
    return np.log(e / e.sum(axis=1, keepdims=True)).reshape(a.shape)


def _fw_mean(params, a):
    return _rows(a).mean(axis=1)


def _fw_sum(params, a):
    return _rows(a).sum(axis=1)


def _fw_div(params, a, b):
    return a / b


def _fw_matmul(params, a, b):
    return a @ b


def _fw_linear(params, a):
    w = np.asarray(params["weight"], dtype=a.dtype)
    b = np.asarray(params["bias"], dtype=a.dtype)
    if a.ndim == 2:
        # a vector sample stays a vector-matrix product (the same BLAS call
        # as for one sample); a (B, n) @ (n, n) product would round differently
        return np.matmul(a[:, None, :], w)[:, 0, :] + b
    return a @ w + b


def _fw_conv2d(params, a):
    k = np.asarray(params["kernel"], dtype=a.dtype)
    kh, kw = k.shape
    oh, ow = a.shape[1] - kh + 1, a.shape[2] - kw + 1
    out = np.zeros((len(a), oh, ow), dtype=a.dtype)
    for i in range(kh):
        for j in range(kw):
            out += k[i, j] * a[:, i : i + oh, j : j + ow]
    return out


def _fw_cross_entropy(params, a):
    t = np.asarray(params["target"], dtype=a.dtype)
    return -(t.reshape(-1) * np.log(_rows(a))).sum(axis=1)


def _fw_cosine(params, a, b):
    # clamped variant: norms below eps are replaced by eps (the unstable
    # behaviour this kernel exists to expose)
    eps = a.dtype.type(_param_number(params, "eps"))
    af, bf = _rows(a), _rows(b)
    na = np.sqrt((af * af).sum(axis=1))
    nb = np.sqrt((bf * bf).sum(axis=1))
    denom = np.maximum(na, eps) * np.maximum(nb, eps)
    return (af * bf).sum(axis=1) / denom


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of matching rows of two (B, n) stacks, as one BLAS dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def cosine_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unclamped cosine similarity with high-precision norms (float64)."""
    af = _rows(a).astype(np.float64)
    bf = _rows(b).astype(np.float64)
    na = np.sqrt(_row_dot(af, af))
    nb = np.sqrt(_row_dot(bf, bf))
    return _row_dot(af, bf) / (na * nb)


def _fw_remainder(params, a):
    return np.remainder(a, a.dtype.type(_param_number(params, "modulus")))


def _swap_pivot_rows(m: np.ndarray, col: int) -> np.ndarray:
    """Partial pivoting on a stack of matrices: move each matrix's largest
    |entry| at or below the diagonal of column col into row col. Returns the
    mask of matrices whose rows were swapped."""
    rows = np.arange(len(m))
    piv = col + np.argmax(np.abs(m[:, col:, col]), axis=1)
    top = m[:, col].copy()
    m[:, col] = m[rows, piv]
    m[rows, piv] = top
    return piv != col


def gauss_inverse(a: np.ndarray) -> np.ndarray:
    """Matrix inverse by Gaussian elimination with partial pivoting, per
    matrix of a (B, n, n) stack.

    Near-singular input silently produces inf/nan rows instead of raising;
    instability here is data for the oracles.
    """
    n = a.shape[1]
    eye = np.broadcast_to(np.eye(n, dtype=a.dtype), a.shape)
    aug = np.concatenate([a, eye], axis=2)
    for col in range(n):
        _swap_pivot_rows(aug, col)
        aug[:, col] = aug[:, col] / aug[:, col, col, None]
        for r in range(n):
            if r != col:
                aug[:, r] = aug[:, r] - aug[:, r, col, None] * aug[:, col]
    return np.ascontiguousarray(aug[:, :, n:])


def gauss_determinant(a: np.ndarray) -> np.ndarray:
    """Determinant by Gaussian elimination with partial pivoting, per matrix
    of a (B, n, n) stack."""
    n = a.shape[1]
    m = a.copy()
    det = np.ones(len(a), dtype=a.dtype)
    for col in range(n):
        det = np.where(_swap_pivot_rows(m, col), -det, det)
        det = det * m[:, col, col]
        for r in range(col + 1, n):
            factor = m[:, r, col] / m[:, col, col]
            m[:, r, col:] = m[:, r, col:] - factor[:, None] * m[:, col, col:]
    return det


def _fw_inverse(params, a):
    return gauss_inverse(a)


def _fw_determinant(params, a):
    return gauss_determinant(a)


# ---------------------------------------------------------------------------
# stable counterparts (oracle material, float64)
# ---------------------------------------------------------------------------

def stable_softmax(a: np.ndarray) -> np.ndarray:
    f = _rows(a)
    e = np.exp(f - f.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).reshape(a.shape)


def stable_logsoftmax(a: np.ndarray) -> np.ndarray:
    f = _rows(a)
    shifted = f - f.max(axis=1, keepdims=True)
    return (shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))).reshape(a.shape)


def stable_softplus(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, a.dtype.type(0.0)) + np.log1p(np.exp(-np.abs(a)))


def _spd_cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a (B, n, n) stack, in float64, and the mask
    of the matrices inside the symmetric positive-definite domain.

    A matrix is inside when it is finite, symmetric to a relative tolerance
    of 1e-8 and positive definite; the factor of a matrix outside is NaN.
    Outside the domain the stable counterparts cannot judge, so those rows
    pass their oracle. Shape rules admit only square matrices here.
    """
    a = a.astype(np.float64)
    low = np.full(a.shape, np.nan)
    at = a.swapaxes(1, 2)
    with np.errstate(invalid="ignore"):
        inside = (np.isfinite(a).all(axis=(1, 2))
                  & (np.abs(a - at) <= 1e-8 * np.abs(at)).all(axis=(1, 2)))
    for i in np.flatnonzero(inside):
        try:
            low[i] = np.linalg.cholesky(a[i])
        except np.linalg.LinAlgError:
            inside[i] = False
    return low, inside


def cholesky_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of each matrix of a (B, n, n) stack via Cholesky, and the
    domain mask of _spd_cholesky; matrices outside the domain give NaN."""
    low, inside = _spd_cholesky(a)
    n = low.shape[-1]
    linv = np.zeros_like(low)
    for i in range(n):
        linv[:, i, i] = 1.0 / low[:, i, i]
        for j in range(i):
            linv[:, i, j] = -_row_dot(low[:, i, j:i], linv[:, j:i, j]) / low[:, i, i]
    return np.matmul(linv.swapaxes(1, 2), linv), inside


def cholesky_determinant(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinant of each matrix of a (B, n, n) stack via Cholesky, and the
    domain mask of _spd_cholesky; matrices outside the domain give NaN."""
    low, inside = _spd_cholesky(a)
    # float_power rounds like the scalar `**` of a single product
    return np.float_power(np.prod(np.diagonal(low, axis1=1, axis2=2), axis=1), 2), inside


# ---------------------------------------------------------------------------
# vector-Jacobian products (float64 in, float64 out)
# ---------------------------------------------------------------------------

def _stable_sigmoid64(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _vjp_add(params, g, xs):
    return g, g


def _vjp_sub(params, g, xs):
    return g, -g


def _vjp_scale(params, g, xs):
    return (g * _param_number(params, "factor"),)


def _vjp_reshape(params, g, xs):
    return (g.reshape(xs[0].shape),)


def _vjp_exp(params, g, xs):
    return (g * np.exp(xs[0]),)


def _vjp_log(params, g, xs):
    return (g / xs[0],)


def _vjp_sqrt(params, g, xs):
    return (g / (2.0 * np.sqrt(xs[0])),)


def _vjp_rsqrt(params, g, xs):
    return (-0.5 * g * xs[0] ** -1.5,)


def _vjp_reciprocal(params, g, xs):
    return (-g / (xs[0] * xs[0]),)


def _vjp_square(params, g, xs):
    return (2.0 * xs[0] * g,)


def _vjp_pow(params, g, xs):
    k = _param_number(params, "exponent")
    return (k * xs[0] ** (k - 1.0) * g,)


def _vjp_sigmoid(params, g, xs):
    s = _stable_sigmoid64(xs[0])
    return (g * s * (1.0 - s),)


def _vjp_tanh(params, g, xs):
    t = np.tanh(xs[0])
    return (g * (1.0 - t * t),)


def _vjp_softplus(params, g, xs):
    return (g * _stable_sigmoid64(xs[0]),)


def _vjp_elu(params, g, xs):
    return (np.where(xs[0] > 0, g, g * np.exp(xs[0])),)


def _vjp_relu(params, g, xs):
    # subgradient 0 at the kink
    return (g * (xs[0] > 0),)


def _vjp_acos(params, g, xs):
    return (-g / np.sqrt(1.0 - xs[0] * xs[0]),)


def _vjp_cosh(params, g, xs):
    return (g * np.sinh(xs[0]),)


def _vjp_sinh(params, g, xs):
    return (g * np.cosh(xs[0]),)


def _vjp_softmax(params, g, xs):
    s = stable_softmax(xs[0][None]).reshape(-1)
    gf = g.reshape(-1)
    return ((s * (gf - (gf * s).sum())).reshape(xs[0].shape),)


def _vjp_logsoftmax(params, g, xs):
    s = stable_softmax(xs[0][None]).reshape(-1)
    gf = g.reshape(-1)
    return ((gf - s * gf.sum()).reshape(xs[0].shape),)


def _vjp_mean(params, g, xs):
    return (np.full(xs[0].shape, float(g) / xs[0].size),)


def _vjp_sum(params, g, xs):
    return (np.full(xs[0].shape, float(g)),)


def _vjp_div(params, g, xs):
    a, b = xs
    return g / b, -g * a / (b * b)


def _vjp_matmul(params, g, xs):
    a, b = xs
    return g @ b.T, a.T @ g


def _vjp_linear(params, g, xs):
    w = np.asarray(params["weight"], dtype=np.float64)
    if xs[0].ndim == 1:
        return (w @ g,)
    return (g @ w.T,)


def _vjp_conv2d(params, g, xs):
    k = np.asarray(params["kernel"], dtype=np.float64)
    kh, kw = k.shape
    oh, ow = g.shape
    gx = np.zeros_like(xs[0])
    for i in range(kh):
        for j in range(kw):
            gx[i : i + oh, j : j + ow] += k[i, j] * g
    return (gx,)


def _vjp_cross_entropy(params, g, xs):
    t = np.asarray(params["target"], dtype=np.float64)
    return (-float(g) * t / xs[0],)


def _vjp_cosine(params, g, xs):
    eps = _param_number(params, "eps")
    a, b = xs[0].reshape(-1), xs[1].reshape(-1)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    ca, cb = max(na, eps), max(nb, eps)
    denom = ca * cb
    val = (a @ b) / denom
    ga = b / denom
    gb = a / denom
    if na > eps:
        ga = ga - val * a / (na * ca)
    if nb > eps:
        gb = gb - val * b / (nb * cb)
    return (float(g) * ga).reshape(xs[0].shape), (float(g) * gb).reshape(xs[1].shape)


def _vjp_remainder(params, g, xs):
    return (g.copy(),)


def _vjp_inverse(params, g, xs):
    inv = gauss_inverse(xs[0][None])[0]
    return (-inv.T @ g @ inv.T,)


def _vjp_determinant(params, g, xs):
    det = gauss_determinant(xs[0][None])[0]
    inv = gauss_inverse(xs[0][None])[0]
    return (float(g) * float(det) * inv.T,)


# ---------------------------------------------------------------------------
# shape rules
# ---------------------------------------------------------------------------

def _same_shape_binary(params, sa, sb):
    if sa != sb:
        raise ValueError(f"operand shapes {sa} and {sb} differ")
    return sa


def _elementwise(params, sa):
    return sa


def _elementwise_reading(key: str) -> Callable:
    """The shape rule of an elementwise op that takes the scalar param key."""
    def rule(params, sa):
        _param_number(params, key)
        return sa
    return rule


def _shape_constant(params):
    return _param_array(params, "value").shape


def _shape_reshape(params, sa):
    target = dimensions(params.get("shape"), "param 'shape'")
    if int(np.prod(sa)) != int(np.prod(target)):
        raise ValueError(f"cannot reshape {sa} to {target}")
    return target


def _shape_scalar(params, *shapes):
    return ()


def _shape_cosine(params, sa, sb):
    _param_number(params, "eps")
    if int(np.prod(sa)) != int(np.prod(sb)):
        raise ValueError(f"operand sizes {sa} and {sb} differ")
    return ()


def _shape_matmul(params, sa, sb):
    if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
        raise ValueError(f"matmul shapes {sa} x {sb} do not conform")
    return (sa[0], sb[1])


def _shape_linear(params, sa):
    if len(sa) not in (1, 2):
        raise ValueError(f"linear expects rank 1 or 2 input, got {sa}")
    w = _param_array(params, "weight")
    if w.ndim != 2 or sa[-1] != w.shape[0]:
        raise ValueError(f"linear weight {w.shape} does not accept input {sa}")
    out = tuple(sa[:-1]) + (w.shape[1],)
    bias = _param_array(params, "bias").shape
    if np.broadcast_shapes(bias, out) != out:  # raises when they do not broadcast
        raise ValueError(f"linear bias {bias} does not fit output {out}")
    return out


def _shape_conv2d(params, sa):
    k = _param_array(params, "kernel")
    if len(sa) != 2 or k.ndim != 2:
        raise ValueError("conv2d expects a 2-d image and a 2-d kernel")
    if min(k.shape) < 1:
        raise ValueError(f"conv2d kernel {k.shape} has a dimension below 1")
    if sa[0] < k.shape[0] or sa[1] < k.shape[1]:
        raise ValueError(f"image {sa} smaller than kernel {k.shape}")
    return (sa[0] - k.shape[0] + 1, sa[1] - k.shape[1] + 1)


def _shape_cross_entropy(params, sa):
    t = _param_array(params, "target")
    if t.shape != tuple(sa):
        raise ValueError(f"target shape {t.shape} differs from input {sa}")
    return ()


def _shape_square_matrix(params, sa):
    if len(sa) != 2 or sa[0] != sa[1]:
        raise ValueError(f"square matrix required, got {sa}")
    return sa


def _shape_det(params, sa):
    _shape_square_matrix(params, sa)
    return ()


# ---------------------------------------------------------------------------
# the op table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpDef:
    name: str
    arity: int
    forward: Callable
    shape_rule: Callable
    vjp: Optional[Callable]
    primary: int = 0  # operand whose values the soft assertion inspects
    # the form oracle types 3-5 compare the forward with, on the same operands;
    # it returns the values, or the values and the mask of rows in its domain
    counterpart: Optional[Callable] = None
    # the width oracle (type 6) rounds the double result to float32 and
    # compares absolutely, where it otherwise compares relatively
    width_absolute: bool = False
    # the VJP reads the params and the operand shapes, never an operand
    # value, so the gradient through the op is the same at every input
    value_free_vjp: bool = False


HELPER_OPS = {
    "add": OpDef("add", 2, _fw_add, _same_shape_binary, _vjp_add, value_free_vjp=True),
    "sub": OpDef("sub", 2, _fw_sub, _same_shape_binary, _vjp_sub, value_free_vjp=True),
    "scale": OpDef("scale", 1, _fw_scale, _elementwise_reading("factor"), _vjp_scale,
                   value_free_vjp=True),
    "constant": OpDef("constant", 0, _fw_constant, _shape_constant, None),
    "reshape": OpDef("reshape", 1, _fw_reshape, _shape_reshape, _vjp_reshape,
                     value_free_vjp=True),
}

KERNEL_OPS = {
    "Softmax": OpDef("Softmax", 1, _fw_softmax, _elementwise, _vjp_softmax),
    "log": OpDef("log", 1, _fw_log, _elementwise, _vjp_log),
    "sigmoid": OpDef("sigmoid", 1, _fw_sigmoid, _elementwise, _vjp_sigmoid),
    "exp": OpDef("exp", 1, _fw_exp, _elementwise, _vjp_exp),
    "logSoftmax": OpDef("logSoftmax", 1, _fw_logsoftmax, _elementwise, _vjp_logsoftmax,
                        counterpart=stable_logsoftmax),
    "sqrt": OpDef("sqrt", 1, _fw_sqrt, _elementwise, _vjp_sqrt),
    "tanh": OpDef("tanh", 1, _fw_tanh, _elementwise, _vjp_tanh),
    "ReLU": OpDef("ReLU", 1, _fw_relu, _elementwise, _vjp_relu),
    "ELU": OpDef("ELU", 1, _fw_elu, _elementwise, _vjp_elu),
    "SoftPlus": OpDef("SoftPlus", 1, _fw_softplus, _elementwise, _vjp_softplus,
                      counterpart=stable_softplus),
    "rSqrt": OpDef("rSqrt", 1, _fw_rsqrt, _elementwise, _vjp_rsqrt),
    "Div": OpDef("Div", 2, _fw_div, _same_shape_binary, _vjp_div, primary=1),
    "linear": OpDef("linear", 1, _fw_linear, _shape_linear, _vjp_linear,
                    value_free_vjp=True),
    "matmul": OpDef("matmul", 2, _fw_matmul, _shape_matmul, _vjp_matmul),
    "mean": OpDef("mean", 1, _fw_mean, _shape_scalar, _vjp_mean, value_free_vjp=True),
    "reciprocal": OpDef("reciprocal", 1, _fw_reciprocal, _elementwise, _vjp_reciprocal),
    "CosineSimilarity": OpDef(
        "CosineSimilarity", 2, _fw_cosine, _shape_cosine, _vjp_cosine,
        counterpart=cosine_reference),
    "acos": OpDef("acos", 1, _fw_acos, _elementwise, _vjp_acos),
    "cosh": OpDef("cosh", 1, _fw_cosh, _elementwise, _vjp_cosh),
    "sinh": OpDef("sinh", 1, _fw_sinh, _elementwise, _vjp_sinh),
    "square": OpDef("square", 1, _fw_square, _elementwise, _vjp_square),
    "pow": OpDef("pow", 1, _fw_pow, _elementwise_reading("exponent"), _vjp_pow),
    "sum": OpDef("sum", 1, _fw_sum, _shape_scalar, _vjp_sum, value_free_vjp=True),
    "CrossEntropy": OpDef(
        "CrossEntropy", 1, _fw_cross_entropy, _shape_cross_entropy, _vjp_cross_entropy
    ),
    "Conv2d": OpDef("Conv2d", 1, _fw_conv2d, _shape_conv2d, _vjp_conv2d,
                    value_free_vjp=True),
    "inverse": OpDef("inverse", 1, _fw_inverse, _shape_square_matrix, _vjp_inverse,
                     counterpart=cholesky_inverse),
    "determinant": OpDef("determinant", 1, _fw_determinant, _shape_det, _vjp_determinant,
                         counterpart=cholesky_determinant),
    "remainder": OpDef("remainder", 1, _fw_remainder, _elementwise_reading("modulus"),
                       _vjp_remainder, width_absolute=True, value_free_vjp=True),
}

ALL_OPS = {**HELPER_OPS, **KERNEL_OPS}


def op_def(name: str) -> OpDef:
    try:
        return ALL_OPS[name]
    except KeyError:
        raise CapabilityError(f"no executable implementation for op '{name}'") from None


def apply_forward(op: OpDef, params: dict, args: Sequence[np.ndarray], dtype) -> np.ndarray:
    """The one way to run a forward: operands of dtype stacked as
    (B, *shape), result stacked the same way. Floating-point faults are data
    here, not warnings."""
    with np.errstate(all="ignore"):
        out = op.forward(params, *args)
    return np.asarray(out, dtype=dtype)


# ---------------------------------------------------------------------------
# deterministic defaults for parameterized kernels and unit-test operands
# ---------------------------------------------------------------------------

def _name_rng(name: str, salt: str = "") -> np.random.Generator:
    return np.random.default_rng(zlib.crc32((name + ":" + salt).encode()))


def default_params(name: str, shape: tuple[int, ...]) -> dict:
    """Fixed parameter bundle used when a call site does not supply one; a new dict per call."""
    if name == "linear":
        n = shape[-1]
        rng = _name_rng(name, "weight")
        return {
            "weight": rng.standard_normal((n, n)).tolist(),
            "bias": rng.standard_normal(n).tolist(),
        }
    if name == "Conv2d":
        rng = _name_rng(name, "kernel")
        return {"kernel": rng.standard_normal((2, 2)).tolist()}
    if name == "CrossEntropy":
        rng = _name_rng(name, "target")
        raw = np.abs(rng.standard_normal(shape)) + 0.1
        return {"target": (raw / raw.sum()).tolist()}
    return {}


@lru_cache(maxsize=None)
def _unit_aux(name: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """Shared between calls, so read-only."""
    if name == "Div":
        aux = np.ones(shape, dtype=dtype)
    elif name == "matmul":
        n = shape[-1]
        aux = _name_rng(name, "operand").standard_normal((n, n)).astype(dtype)
    elif name == "CosineSimilarity":
        aux = _name_rng(name, "operand").standard_normal(shape).astype(dtype)
    else:
        raise CapabilityError(f"no unit-test operand binding for '{name}'")
    aux.flags.writeable = False
    return aux


def unit_operand_rows(name: str, xs: np.ndarray) -> list[np.ndarray]:
    """Bind a (B, *shape) stack of mutable unit-test tensors into the
    kernel's stacked operand list.

    The primary operand is the stack itself; auxiliary operands are fixed,
    seeded per kernel name so unit testing is reproducible, and join as one
    row that broadcasts against the stack.
    """
    op = op_def(name)
    if op.arity == 1:
        return [xs]
    aux = _unit_aux(name, xs.shape[1:], xs.dtype)[None]
    return [aux, xs] if op.primary == 1 else [xs, aux]
