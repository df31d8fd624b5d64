"""Graph evaluation in single or double precision, and reverse-mode
differentiation.

Every value is a numpy array whose dtype, float32 or float64, is its
precision. forward_rows is the one forward: it evaluates many inputs at
once, each input a stack with one row per sample, and so is each node value;
one sample is a stack of one. It runs to a stop that scan_for_unstable gave,
a site's entry or operand stop, and skips the nodes that need a
registry-only op: the scan puts no site downstream of one. A constant node
depends on no input, so its value is made once per graph and dtype, as one
read-only row that broadcasts against the others.

backward reads row 0 of a forward's values in reverse, always
accumulating adjoints in float64 regardless of the forward dtype; the
mutation step divides by these gradients, and single-precision adjoints
would put noise in the search direction. When every op on the way back from
the seed has a VJP that reads no operand value (constant_gradient), the
result is the same at every input, and a caller may compute it once and
reuse it. finite_diff_grad is the independent oracle used to cross-check
backward.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from safuzz.errors import OracleUnavailable, UsageError
from safuzz.graph import Graph
from safuzz.kernels import ALL_OPS, apply_forward, op_def


def forward_rows(graph: Graph, inputs: Sequence[np.ndarray], dtype,
                 stop_at: str) -> dict[str, np.ndarray]:
    """Evaluate the graph in dtype on stacked inputs, up to stop_at.

    Takes one stack (B, *declared shape) per graph input, one row per
    sample, cast to dtype, and a stop the scan gave (an unstable site's
    entry or operand stop), which depends on no registry-only op. Returns
    every value evaluated, inputs included, stacked the same way. A row bit
    for bit equals the forward of that sample alone; a constant node's value
    is one read-only row that broadcasts. A node that needs a registry-only
    op, whose shape is unknown, is skipped. Building the graph checked its
    params and shapes, so no kernel raises on a value.
    """
    dtype = np.dtype(dtype)
    rows = {decl.id: np.asarray(value, dtype=dtype) for decl, value in zip(graph.inputs, inputs)}
    constants = graph.constants.setdefault(dtype, {})
    for node in graph.nodes:
        if stop_at in rows:
            break
        out = constants.get(node.id)
        if out is None:
            if graph.shapes[node.id] is None:  # the node needs a registry-only op
                continue
            op = ALL_OPS[node.op]
            out = apply_forward(op, node.params, [rows[ref] for ref in node.inputs], dtype)
            if not op.arity:  # depends on no input: one read-only row for every call
                out.flags.writeable = False
                constants[node.id] = out
        rows[node.id] = out
    return rows


def constant_gradient(graph: Graph, seed_node: str) -> bool:
    """Whether backward from seed_node gives the same gradients at every
    input: every node it visits has a VJP that reads no operand value
    (kernels.OpDef.value_free_vjp). A node without a VJP stops the
    adjoint, and a program input needs no VJP. seed_node is a site entry,
    so no node it reaches needs a registry-only op.
    """
    reached = {seed_node}
    for node in reversed(graph.nodes):
        if node.id not in reached:
            continue
        op = ALL_OPS[node.op]
        if op.vjp is None:
            continue
        if not op.value_free_vjp:
            return False
        reached.update(node.inputs)
    return True


def backward(
    graph: Graph,
    values: dict[str, np.ndarray],
    seed_node: str,
    seed_adjoint: np.ndarray,
) -> list[np.ndarray]:
    """Reverse accumulation of d(seed_node . seed_adjoint) / d(each input),
    over row 0 of values, the rows forward_rows returns with the input as
    row 0.

    values holds seed_node, and seed_adjoint has the shape of its row.
    Returns one float64 array per graph input. The seed is copied, so no
    result aliases the caller's array. A seed on a program input is the
    gradient of that input, and the others get zeros; no node is visited.
    """
    adjoints: dict[str, np.ndarray] = {seed_node: np.array(seed_adjoint, dtype=np.float64)}
    wide: dict[str, np.ndarray] = {}  # forward values the VJPs read, each cast once

    # entered once per call, not per node; an inf - inf in the adjoint sums
    # is gradient data like the VJPs' own faults
    with np.errstate(all="ignore"):
        # a node after the seed in topological order never holds an adjoint
        for node in reversed(graph.nodes):
            if node.id not in adjoints:
                continue
            op = op_def(node.op)
            if op.vjp is None:
                continue
            g = adjoints[node.id]
            for ref in node.inputs:
                if ref not in wide:
                    wide[ref] = values[ref][0, ...].astype(np.float64)
            grads = op.vjp(node.params, g, [wide[ref] for ref in node.inputs])
            for ref, grad in zip(node.inputs, grads):
                grad = np.asarray(grad, dtype=np.float64)
                if ref in adjoints:
                    adjoints[ref] = adjoints[ref] + grad
                else:
                    adjoints[ref] = grad
    out = []
    for decl in graph.inputs:
        grad = adjoints.get(decl.id)
        if grad is None:
            grad = np.zeros(decl.shape, dtype=np.float64)
        out.append(grad)
    return out


def finite_diff_grad(
    graph: Graph,
    inputs: Sequence[np.ndarray],
    seed_node: str,
    h: float = 1e-5,
    seed_adjoint: Optional[np.ndarray] = None,
) -> list[np.ndarray]:
    """Central-difference gradient oracle; float64 inputs only."""
    if any(np.asarray(x).dtype != np.float64 for x in inputs):
        raise UsageError("finite differences require double-precision inputs")

    def objective(probe: list[np.ndarray]) -> float:
        value = forward_rows(graph, [x[None] for x in probe], np.float64, seed_node)[seed_node][0]
        weight = (
            np.asarray(seed_adjoint, dtype=np.float64)
            if seed_adjoint is not None
            else np.ones_like(value, dtype=np.float64)
        )
        total = float((value * weight).sum())
        if not np.isfinite(total):
            raise OracleUnavailable("non-finite value in perturbed evaluation")
        return total

    grads = []
    for which in range(len(inputs)):
        probe = list(inputs)
        base = probe[which] = np.array(inputs[which], dtype=np.float64)
        grad = np.zeros_like(base)
        flat = grad.reshape(-1)
        bflat = base.reshape(-1)
        for i in range(bflat.size):
            orig = bflat[i]
            for sign in (+1.0, -1.0):
                bflat[i] = orig + sign * h
                flat[i] += sign * objective(probe)
            bflat[i] = orig
        grads.append(grad / (2.0 * h))
    return grads
