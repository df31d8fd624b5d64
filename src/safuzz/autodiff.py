"""Dual-precision graph evaluation and reverse-mode differentiation.

forward_eval runs a graph in the requested precision and records every node
value on a Tape; extend_tape carries an existing tape further down the graph,
so a caller that stopped early can reach a later node without evaluating the
prefix again. backward replays the tape in reverse, always accumulating
adjoints in float64 regardless of the forward precision; the mutation step
divides by these gradients, and single-precision adjoints would put noise in
the search direction. finite_diff_grad is the independent oracle used to
cross-check backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from safuzz.errors import EvaluationError, OracleUnavailable, UsageError
from safuzz.graph import Graph
from safuzz.kernels import apply_forward, op_def
from safuzz.tensor import Precision, Tensor


@dataclass
class Tape:
    """Per-node forward values of one evaluation of one set of inputs.

    A tape may be extended to later nodes (extend_tape), never rewritten: a
    value, once recorded, stays the value of that node for these inputs.
    """

    graph: Graph
    precision: Precision
    values: dict[str, np.ndarray] = field(default_factory=dict)

    def has(self, node_id: str) -> bool:
        return node_id in self.values

    def value(self, node_id: str) -> Tensor:
        if node_id not in self.values:
            raise UsageError(f"node '{node_id}' is not on the tape")
        return Tensor(self.values[node_id])


def forward_eval(
    graph: Graph,
    inputs: Sequence[Tensor],
    precision: Precision = Precision.SINGLE,
    stop_at: Optional[str] = None,
) -> Tape:
    """Evaluate the graph up to stop_at (or the whole graph).

    NaN/inf propagate silently; failing executions must still reach the
    oracle check point.
    """
    if len(inputs) != len(graph.inputs):
        raise EvaluationError(
            "<inputs>", f"expected {len(graph.inputs)} input tensor(s), got {len(inputs)}"
        )
    tape = Tape(graph=graph, precision=precision)
    dtype = precision.dtype
    for decl, tensor in zip(graph.inputs, inputs):
        if tuple(tensor.shape) != tuple(decl.shape):
            raise EvaluationError(
                decl.id, f"input shape {tensor.shape} does not match declared {decl.shape}"
            )
        tape.values[decl.id] = tensor.data.astype(dtype)
    return extend_tape(tape, stop_at)


def extend_tape(tape: Tape, stop_at: Optional[str] = None) -> Tape:
    """Evaluate the nodes not yet on the tape, up to stop_at (or the whole graph).

    Nodes already on the tape keep their values; the tape is returned.
    """
    if stop_at is not None and stop_at in tape.values:
        return tape
    graph, values, dtype = tape.graph, tape.values, tape.precision.dtype
    for node in graph.nodes:
        if node.id in values:
            continue
        op = op_def(node.op)  # CapabilityError for registry-only ops
        args = [values[ref][None] for ref in node.inputs]
        try:
            out = apply_forward(op, node.params, args, dtype)[0, ...]
        except (ValueError, IndexError) as exc:
            raise EvaluationError(node.id, str(exc)) from exc
        expected = graph.shape_of(node.id)
        if expected is not None and tuple(out.shape) != expected:
            raise EvaluationError(
                node.id, f"produced shape {out.shape}, expected {expected}"
            )
        values[node.id] = out
        if node.id == stop_at:
            return tape
    if stop_at is not None:
        raise UsageError(f"stop node '{stop_at}' does not exist in the graph")
    return tape


def backward(
    graph: Graph,
    tape: Tape,
    seed_node: str,
    seed_adjoint: Tensor,
) -> list[Tensor]:
    """Reverse accumulation of d(seed_node . seed_adjoint) / d(each input)."""
    if not tape.has(seed_node):
        raise UsageError(f"seed node '{seed_node}' is not on the tape")
    seed_value = tape.values[seed_node]
    adjoint = seed_adjoint.data.astype(np.float64)
    if adjoint.shape != seed_value.shape:
        raise UsageError(
            f"seed adjoint shape {adjoint.shape} does not match node value "
            f"shape {seed_value.shape}"
        )
    adjoints: dict[str, np.ndarray] = {seed_node: adjoint}

    seed_index = -1
    for i, node in enumerate(graph.nodes):
        if node.id == seed_node:
            seed_index = i
            break
    for node in reversed(graph.nodes[: seed_index + 1]):
        if node.id not in adjoints:
            continue
        op = op_def(node.op)
        if op.vjp is None:
            continue
        g = adjoints[node.id]
        xs = [tape.values[ref].astype(np.float64) for ref in node.inputs]
        y = tape.values[node.id].astype(np.float64)
        with np.errstate(all="ignore"):
            grads = op.vjp(node.params, g, xs, y)
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
        out.append(Tensor(grad))
    return out


def finite_diff_grad(
    graph: Graph,
    inputs: Sequence[Tensor],
    seed_node: str,
    h: float = 1e-5,
    seed_adjoint: Optional[Tensor] = None,
) -> list[Tensor]:
    """Central-difference gradient oracle; double precision only."""
    for tensor in inputs:
        if tensor.precision is not Precision.DOUBLE:
            raise UsageError("finite differences require double-precision inputs")

    def objective(tensors: list[Tensor]) -> float:
        tape = forward_eval(graph, tensors, Precision.DOUBLE, stop_at=seed_node)
        value = tape.values[seed_node]
        weight = (
            seed_adjoint.data.astype(np.float64)
            if seed_adjoint is not None
            else np.ones_like(value, dtype=np.float64)
        )
        total = float((value.astype(np.float64) * weight).sum())
        if not np.isfinite(total):
            raise OracleUnavailable("non-finite value in perturbed evaluation")
        return total

    grads = []
    for which, tensor in enumerate(inputs):
        base = tensor.data.astype(np.float64)
        grad = np.zeros_like(base)
        flat = grad.reshape(-1)
        bflat = base.reshape(-1)
        for i in range(bflat.size):
            orig = bflat[i]
            for sign in (+1.0, -1.0):
                bflat[i] = orig + sign * h
                probe = [
                    Tensor(base) if j == which else t.astype(Precision.DOUBLE)
                    for j, t in enumerate(inputs)
                ]
                val = objective(probe)
                flat[i] += sign * val
            bflat[i] = orig
        grads.append(Tensor(grad / (2.0 * h)))
    return grads
